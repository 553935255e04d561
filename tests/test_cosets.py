import pytest

from necsurf import (
    CyclicGroup,
    FiniteHom,
    NECSignature,
    NotInKernelError,
    build_theta,
    canonical_presentation,
    cayley_coset_table,
    quotient_disc_signature,
    reidemeister_schreier,
)
from necsurf.presentations import Presentation
from necsurf.signatures import CONNECTOR
from necsurf.words import Word, free_reduce, reduce_mod_involutions


def disc_group(gamma, periods):
    return canonical_presentation(quotient_disc_signature(gamma, periods))


def normalised_words(subgroup):
    involutions = subgroup.base.involution_names()
    return {str(reduce_mod_involutions(g.word, involutions)) for g in subgroup.generators}


class TestCayleyCosetTable:
    def test_parity_map_has_two_cosets(self):
        K = disc_group(2, (2,))
        theta = build_theta(K)
        table = cayley_coset_table(theta)
        assert table.index == 2
        for tau in ("tau1", "tau2"):
            assert table.forward[tau] == (1, 0)
        assert table.forward["e"] == (0, 1)
        for perm in table.forward.values():
            assert sorted(perm) == [0, 1]

    def test_trivial_hom_single_coset(self):
        p = Presentation((("a", CONNECTOR),), ())
        c1 = CyclicGroup(1)
        table = cayley_coset_table(FiniteHom.from_dict(p, c1, {"a": c1.identity()}))
        assert table.index == 1
        assert table.forward["a"] == (0,)

    def test_crosscap_epimorphism_gives_four_cosets(self):
        delta = canonical_presentation(NECSignature(False, 1, (2, 2, 2)))
        c4 = CyclicGroup(4)
        rho = FiniteHom.from_dict(
            delta,
            c4,
            {"d1": c4.element(1), "x1": c4.element(2), "x2": c4.element(2), "x3": c4.element(2)},
        )
        table = cayley_coset_table(rho)
        assert table.index == 4
        perm = table.forward["d1"]
        # the glide image generates, so its column is a 4-cycle
        seen, i = [], 0
        for _ in range(4):
            seen.append(i)
            i = perm[i]
        assert sorted(seen) == [0, 1, 2, 3] and i == 0


class TestReidemeisterSchreier:
    def test_index_two_in_free_group(self):
        p = Presentation((("a", CONNECTOR),), ())
        c2 = CyclicGroup(2)
        hom = FiniteHom.from_dict(p, c2, {"a": c2.element(1)})
        sub = reidemeister_schreier(p, cayley_coset_table(hom))
        assert [str(g.word) for g in sub.generators] == ["a*a"]
        assert sub.presentation.relators == ()

    def test_even_gamma_generators_match_printed_shapes(self):
        K = disc_group(2, (2,))
        theta = build_theta(K)
        sub = reidemeister_schreier(K, cayley_coset_table(theta))
        words = {str(g.word) for g in sub.generators}
        for expected in ("tau1*x1", "tau1*x2", "tau1*tau2", "e"):
            assert expected in words

    def test_odd_gamma_connector_pair(self):
        K = disc_group(1, (2, 2, 2))
        theta = build_theta(K)
        sub = reidemeister_schreier(K, cayley_coset_table(theta))
        words = normalised_words(sub)
        assert "tau1*e" in words
        assert "e*tau1" in words

    def test_schreier_generator_count(self):
        # index * generators - (index - 1) non-trivial pairs
        for gamma, periods in [(1, (2, 2, 2)), (2, (2,)), (4, ()), (2, (3, 4))]:
            K = disc_group(gamma, periods)
            sub = reidemeister_schreier(K, cayley_coset_table(build_theta(K)))
            expected = 2 * len(K.generators) - 1
            assert len(sub.generators) == expected

    def test_transversal_uses_first_reflection(self):
        K = disc_group(3, (2, 2))
        sub = reidemeister_schreier(K, cayley_coset_table(build_theta(K)))
        assert [str(w) for w in sub.transversal] == ["1", "tau1"]

    def test_rewrite_rejects_non_kernel_words(self):
        K = disc_group(2, (2,))
        sub = reidemeister_schreier(K, cayley_coset_table(build_theta(K)))
        with pytest.raises(NotInKernelError):
            sub.rewrite(Word.gen("tau1"))

    def test_rewrite_is_multiplicative(self):
        K = disc_group(2, (2,))
        sub = reidemeister_schreier(K, cayley_coset_table(build_theta(K)))
        w1 = Word.parse("tau1 x1")
        w2 = Word.parse("tau1 tau2")
        combined = sub.rewrite(w1 * w2)
        assert combined == free_reduce(sub.rewrite(w1) * sub.rewrite(w2))

    def test_rewritten_relators_have_known_support(self):
        K = disc_group(2, (3,))
        sub = reidemeister_schreier(K, cayley_coset_table(build_theta(K)))
        names = set(sub.presentation.generator_names())
        for rel in sub.presentation.relators:
            assert rel.generator_names() <= names

    def test_renaming_is_consistent(self):
        K = disc_group(2, (2,))
        sub = reidemeister_schreier(K, cayley_coset_table(build_theta(K)))
        target = next(g for g in sub.generators if str(g.word) == "tau1*x1")
        renamed = sub.renamed({target.name: "delta1"})
        gen = next(g for g in renamed.generators if g.name == "delta1")
        assert str(gen.word) == "tau1*x1"
        assert renamed.rewrite(Word.parse("tau1 x1")) == Word.gen("delta1")


def test_backward_inverts_forward(derived_battery, action_battery):
    """The theta tables of the signature battery with gamma <= 3, and the
    C_2n tables of rho over the action battery (where the permutations
    are not involutions)."""
    tables = [d.subgroup.table for gamma, _, _, _, d in derived_battery if gamma <= 3]
    for datum in action_battery:
        delta = canonical_presentation(datum.delta_signature())
        c = CyclicGroup(datum.order)
        images = dict(zip(delta.generator_names(), datum.d_images + datum.x_images))
        tables.append(cayley_coset_table(
            FiniteHom.from_dict(delta, c, {g: c.element(v) for g, v in images.items()})
        ))
    for table in tables:
        assert table.forward.keys() == table.backward.keys()
        for g, perm in table.forward.items():
            assert sorted(perm) == list(range(table.index))
            assert all(table.backward[g][j] == i for i, j in enumerate(perm))
