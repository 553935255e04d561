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


@pytest.mark.parametrize("group", [CyclicGroup, DihedralGroup])
@pytest.mark.parametrize("modulus", [0, -3])
def test_modulus_below_one_rejected(group, modulus):
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        group(modulus)


class TestCyclic:
    def test_orders(self):
        c4 = CyclicGroup(4)
        assert c4.element_order(2) == 2
        assert c4.element_order(1) == 4
        assert c4.element_order(identity(c4)) == 1
        for m in range(1, 13):
            c = CyclicGroup(m)
            assert [c.element_order(k) for k in range(m)] == [order(c, k) for k in range(m)]

    def test_generated_subgroups(self):
        c4 = CyclicGroup(4)
        assert c4.subgroup_order([2]) == 2
        assert c4.subgroup_order([1]) == 4
        assert c4.subgroup_order([]) == 1
        c12 = CyclicGroup(12)
        assert c12.subgroup_order([8, 6]) == 6

    @given(st.integers(2, 16), st.integers(), st.integers())
    def test_group_laws(self, m, a, b):
        g = CyclicGroup(m)
        x, y = a % m, b % m
        assert mul(g, mul(g, x, y), inverse(g, x)) == mul(g, y, mul(g, x, inverse(g, x)))
        assert mul(g, x, inverse(g, x)) == identity(g)


class TestDihedral:
    def test_reflection_conjugates_rotation_to_inverse(self):
        d4 = DihedralGroup(4)
        t, s = d4.reflection(0), rotation(d4, 1)
        assert mul(d4, mul(d4, t, s), t) == rotation(d4, -1) == rotation(d4, 3)

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
            assert order(d6, r) == 2
            assert mul(d6, r, r) == identity(d6)
            assert inverse(d6, r) == r

    def test_rotation_orders(self):
        d6 = DihedralGroup(6)
        assert order(d6, rotation(d6, 1)) == 6
        assert order(d6, rotation(d6, 2)) == 3
        assert order(d6, rotation(d6, 3)) == 2

    @given(st.integers(2, 12), st.integers(0, 1), st.integers(), st.integers(0, 1), st.integers())
    def test_inverse_law(self, m, f1, k1, f2, k2):
        d = DihedralGroup(m)
        a, b = (f1, k1 % m), (f2, k2 % m)
        assert inverse(d, mul(d, a, b)) == mul(d, inverse(d, b), inverse(d, a))
        assert mul(d, a, inverse(d, a)) == identity(d)


def test_subgroup_order_matches_closure(closure):
    # every subset of size <= 3 of C_m and D_m, m <= 12, empty set included
    checked = 0
    for m in range(1, 13):
        c, d = CyclicGroup(m), DihedralGroup(m)
        for group, elements in (
            (c, list(range(m))),
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
        hom = FiniteHom.from_dict(p, c6, {"a": 2, "b": 3})
        assert hom.evaluate(parse_word("a b")) == 5
        assert hom.evaluate(parse_word("a^-1")) == 4
        assert hom.evaluate(Word()) == identity(c6)

    def test_surjectivity(self):
        p = self._free_presentation("a")
        c4 = CyclicGroup(4)
        assert FiniteHom.from_dict(p, c4, {"a": 1}).image_order() == c4.order
        half = FiniteHom.from_dict(p, c4, {"a": 2})
        assert half.image_order() == 2
        assert half.image_order() != c4.order

    def test_mismatched_generators_rejected(self):
        p = self._free_presentation("a", "b")
        c2 = CyclicGroup(2)
        with pytest.raises(ValueError, match=r"missing images for \['b'\]"):
            FiniteHom.from_dict(p, c2, {"a": 1})
        with pytest.raises(ValueError, match=r"undeclared generators \['c'\]"):
            FiniteHom.from_dict(p, c2, {"a": 1, "b": 1, "c": 0})
        # construction itself owns the check, whatever the images' order
        with pytest.raises(ValueError, match=r"missing .*\['a'\].* undeclared .*\['c'\]"):
            FiniteHom(p, c2, (("c", 0), ("b", 1)))

    # an element is a plain value, so membership is its type and range: a
    # residue of C_m is an int (not a bool) in range(m), an element of D_m
    # a tuple (eps, k) with eps in {0, 1} and k in range(m)
    @pytest.mark.parametrize(
        "target, image",
        [
            (CyclicGroup(4), 5),
            (CyclicGroup(4), -1),
            (CyclicGroup(2), True),
            (CyclicGroup(4), rotation(DihedralGroup(4), 1)),
            (DihedralGroup(4), (2, 0)),
            (DihedralGroup(4), (0, 4)),
            (DihedralGroup(4), [1, 0]),
        ],
        ids=["C6-residue-for-C4", "negative-residue-for-C4", "bool-for-C2",
             "D4-image-for-C4", "flip-2-for-D4", "rotation-m-for-D4", "list-for-D4"],
    )
    def test_image_outside_target_rejected(self, target, image):
        p = self._free_presentation("a", "b")
        with pytest.raises(GroupMismatchError, match="generator b"):
            FiniteHom.from_dict(p, target, {"a": identity(target), "b": image})

    # construction tests names and images in bulk, and words a failure
    # name by name: each message is the one the item-by-item check gives
    @pytest.mark.parametrize("group", [CyclicGroup, DihedralGroup])
    @pytest.mark.parametrize("kind", [
        "bool", "negative", "too-large", "not-a-tuple", "short", "long", "bool-in-pair"])
    def test_each_bad_image_is_named_with_its_message(self, group, kind):
        target = group(4)
        cyclic = group is CyclicGroup
        image = {
            "bool": True,
            "negative": -1 if cyclic else (0, -1),
            "too-large": 4 if cyclic else (0, 4),
            "not-a-tuple": (0, 1) if cyclic else [0, 1],
            "short": (1,),
            "long": (0, 1, 2),
            "bool-in-pair": (True, 0),
        }[kind]
        p = self._free_presentation("a", "b", "c")
        images = {"a": identity(target), "b": image, "c": identity(target)}
        for build in (lambda: FiniteHom.from_dict(p, target, images),
                      lambda: FiniteHom(p, target, tuple(images.items()))):
            with pytest.raises(GroupMismatchError) as exc:
                build()
            assert str(exc.value) == f"image {image!r} of generator b is not an element of {target}"
        # the first image that is not an element is named, as the loop finds it
        with pytest.raises(GroupMismatchError) as exc:
            FiniteHom.from_dict(p, target, {**images, "a": image, "c": -2})
        assert str(exc.value) == f"image {image!r} of generator a is not an element of {target}"

    @pytest.mark.parametrize("group", [CyclicGroup, DihedralGroup])
    def test_missing_and_undeclared_names_have_their_message(self, group):
        target = group(4)
        p = self._free_presentation("a", "b")
        one = identity(target)
        cases = [
            ({"a": one}, "missing images for ['b'], images for undeclared generators []"),
            ({"a": one, "b": one, "c": one},
             "missing images for [], images for undeclared generators ['c']"),
            ({"b": one, "c": one}, "missing images for ['a'], images for undeclared generators ['c']"),
        ]
        for images, reason in cases:
            for build in (lambda: FiniteHom.from_dict(p, target, images),
                          lambda: FiniteHom(p, target, tuple(images.items()))):
                with pytest.raises(ValueError) as exc:
                    build()
                assert type(exc.value) is ValueError
                assert str(exc.value) == f"generator images do not match the domain: {reason}"
        # images in another order, or given twice, still match the domain
        assert FiniteHom(p, target, (("b", one), ("a", one))).image_of("b") == one
        assert FiniteHom(p, target, (("a", one), ("b", one), ("a", one))).image_of("a") == one

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
                cyclic = {g: rng.randrange(m) for g in names}
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


def test_format_spells_each_element():
    # C_m prints the residue; D_m prints t^eps * s^k with the trivial
    # factors left out
    for m in range(1, 13):
        c, d = CyclicGroup(m), DihedralGroup(m)
        assert c.format(c.identity) == "0" and d.format(d.identity) == "1"
        assert [c.format(k) for k in range(m)] == [str(k) for k in range(m)]
        assert [d.format((0, k)) for k in range(m)] == ["1"] + [f"s^{k}" for k in range(1, m)]
        assert [d.format((1, k)) for k in range(m)] == ["t"] + [f"t*s^{k}" for k in range(1, m)]
