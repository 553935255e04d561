import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from necsurf import (
    CyclicGroup,
    DihedralGroup,
    FiniteHom,
    GroupMismatchError,
)
from necsurf.presentations import Presentation
from necsurf.signatures import CONNECTOR
from necsurf.words import Word
from reference import element_fold, identity, inverse, mul, order, parse_word, rotation


class TestCyclic:
    def test_orders(self):
        c4 = CyclicGroup(4)
        assert c4.element(2).order() == 2
        assert c4.element(1).order() == 4
        assert identity(c4).order() == 1

    def test_generated_subgroups(self):
        c4 = CyclicGroup(4)
        assert c4.subgroup_order([c4.element(2)]) == 2
        assert c4.subgroup_order([c4.element(1)]) == 4
        assert c4.subgroup_order([]) == 1
        c12 = CyclicGroup(12)
        assert c12.subgroup_order([c12.element(8), c12.element(6)]) == 6

    @given(st.integers(2, 16), st.integers(), st.integers())
    def test_group_laws(self, m, a, b):
        g = CyclicGroup(m)
        x, y = g.element(a), g.element(b)
        assert mul(mul(x, y), inverse(x)) == mul(y, mul(x, inverse(x)))
        assert mul(x, inverse(x)) == identity(g)


class TestDihedral:
    def test_reflection_conjugates_rotation_to_inverse(self):
        d4 = DihedralGroup(4)
        t, s = d4.reflection(0), rotation(d4, 1)
        assert mul(mul(t, s), t) == rotation(d4, -1) == rotation(d4, 3)

    def test_full_group_from_t_and_s(self):
        d4 = DihedralGroup(4)
        assert d4.subgroup_order([d4.reflection(0), rotation(d4, 1)]) == 8
        # two reflections generate the rotations by their difference
        assert d4.subgroup_order([d4.reflection(1), d4.reflection(3)]) == 4
        assert d4.subgroup_order([d4.reflection(1), d4.reflection(2)]) == 8
        assert d4.subgroup_order([rotation(d4, 2)]) == 2

    def test_reflections_are_involutions(self):
        d6 = DihedralGroup(6)
        for k in range(6):
            r = d6.reflection(k)
            assert order(r) == 2
            assert mul(r, r) == identity(d6)
            assert inverse(r) == r

    def test_rotation_orders(self):
        d6 = DihedralGroup(6)
        assert order(rotation(d6, 1)) == 6
        assert order(rotation(d6, 2)) == 3
        assert order(rotation(d6, 3)) == 2

    @given(st.integers(2, 12), st.integers(0, 1), st.integers(), st.integers(0, 1), st.integers())
    def test_inverse_law(self, m, f1, k1, f2, k2):
        d = DihedralGroup(m)
        from necsurf.groups import DihedralElement

        a = DihedralElement(m, f1, k1)
        b = DihedralElement(m, f2, k2)
        assert inverse(mul(a, b)) == mul(inverse(b), inverse(a))
        assert mul(a, inverse(a)) == identity(d)


def test_subgroup_order_matches_closure(closure):
    # every subset of size <= 3 of C_m and D_m, m <= 12, empty set included
    checked = 0
    for m in range(1, 13):
        c, d = CyclicGroup(m), DihedralGroup(m)
        for group, elements in (
            (c, [c.element(k) for k in range(m)]),
            (d, [rotation(d, k) for k in range(m)] + [d.reflection(k) for k in range(m)]),
        ):
            for size in range(4):
                for subset in combinations(elements, size):
                    assert group.subgroup_order(subset) == len(closure(group, subset))
                    checked += 1
    assert checked == 9345


class TestFiniteHom:
    def _free_presentation(self, *names):
        return Presentation(tuple((n, CONNECTOR) for n in names), ())

    def test_word_evaluation(self):
        p = self._free_presentation("a", "b")
        c6 = CyclicGroup(6)
        hom = FiniteHom.from_dict(p, c6, {"a": c6.element(2), "b": c6.element(3)})
        assert hom.evaluate(parse_word("a b")) == c6.element(5)
        assert hom.evaluate(parse_word("a^-1")) == c6.element(4)
        assert hom.evaluate(Word()) == identity(c6)

    def test_surjectivity(self):
        p = self._free_presentation("a")
        c4 = CyclicGroup(4)
        assert FiniteHom.from_dict(p, c4, {"a": c4.element(1)}).is_surjective()
        half = FiniteHom.from_dict(p, c4, {"a": c4.element(2)})
        assert half.image_order() == 2
        assert not half.is_surjective()

    def test_mismatched_generators_rejected(self):
        p = self._free_presentation("a", "b")
        c2 = CyclicGroup(2)
        with pytest.raises(ValueError, match="missing"):
            FiniteHom.from_dict(p, c2, {"a": c2.element(1)})
        with pytest.raises(ValueError, match="undeclared"):
            FiniteHom.from_dict(
                p, c2, {"a": c2.element(1), "b": c2.element(1), "c": c2.element(0)}
            )

    @pytest.mark.parametrize(
        "target, image",
        [
            (CyclicGroup(6), CyclicGroup(4).element(1)),
            (CyclicGroup(4), rotation(DihedralGroup(4), 1)),
        ],
        ids=["C4-image-for-C6", "D4-image-for-C4"],
    )
    def test_image_outside_target_rejected(self, target, image):
        p = self._free_presentation("a", "b")
        with pytest.raises(GroupMismatchError, match="generator b"):
            FiniteHom.from_dict(p, target, {"a": identity(target), "b": image})

    def test_evaluate_matches_element_fold(self):
        # seeded random words, inverse letters included, over C_m and D_m;
        # the dihedral images mix rotations and reflections
        rng = random.Random(20261018)
        names = ("a", "b", "c", "d")
        p = self._free_presentation(*names)
        checked = 0
        for m in range(1, 25):
            c, d = CyclicGroup(m), DihedralGroup(m)
            for _ in range(10):
                cyclic = {g: c.element(rng.randrange(m)) for g in names}
                dihedral = {
                    g: (d.reflection if rng.random() < 0.5 else lambda k: rotation(d, k))(
                        rng.randrange(m)
                    )
                    for g in names
                }
                for target, images in ((c, cyclic), (d, dihedral)):
                    hom = FiniteHom.from_dict(p, target, images)
                    for _ in range(10):
                        word = Word(tuple(
                            (rng.choice(names), rng.choice((1, -1)))
                            for _ in range(rng.randint(0, 30))
                        ))
                        expected = element_fold(hom, word)
                        assert hom.evaluate(word) == expected, (target, images, str(word))
                        checked += 1
        assert checked == 4800
