import pytest

from necsurf import (
    CyclicGroup,
    FiniteHom,
    NECSignature,
    NotInKernelError,
    SchreierSubgroup,
    build_theta,
    canonical_presentation,
    lemma1_check,
    quotient_disc_signature,
    reidemeister_schreier,
)
from necsurf.presentations import Presentation
from necsurf.signatures import CONNECTOR
from necsurf.words import Word
from reference import (
    cayley_coset_table,
    conjugate_relators,
    conjugate_rewrite,
    free_reduce,
    identity,
    parse_word,
    reduce_mod_involutions,
)
from reference import reidemeister_schreier as table_reidemeister_schreier


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
        table = cayley_coset_table(FiniteHom.from_dict(p, c1, {"a": identity(c1)}))
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


def both_constructions(K):
    """ker(theta) by the closed form over {1, tau1} and by the general
    construction over the coset table."""
    theta = build_theta(K)
    return reidemeister_schreier(K, theta), table_reidemeister_schreier(K, cayley_coset_table(theta))


def generator_pairs(sub):
    """(coset, base generator, name, role) of every Schreier generator of
    the closed form, its pair read off ``pair_names``."""
    pair_of = {name: pair for pair, name in sub.pair_names.items() if name is not None}
    return [(*pair_of[g.name], g.name, g.role) for g in sub.generators]


def canonical_generators(K):
    """(coset, base generator, name, role) of every Schreier generator of
    ker(theta) in the canonical order: delta_j = tau1*x_j, c_k =
    tau1*tau_(k+1), the connector pair (e for even gamma, f for odd), the
    tau1-conjugates delta_jt = x_j*tau1^-1 and c_kt, and tau1sq."""
    xs = K.generators_of_kind("elliptic")
    taus = K.generators_of_kind("reflection")
    letter = "ef"[len(xs) % 2]
    plain = [(1, x, f"delta{j}", "glide") for j, x in enumerate(xs, start=1)]
    plain += [(1, t, f"c{k}", "corner rotation") for k, t in enumerate(taus[1:], start=1)]
    conjugates = [(0, g, name + "t", role + " (tau1-conjugate)") for _, g, name, role in plain]
    plain += [(0, "e", f"{letter}1", "connector"), (1, "e", f"{letter}2", "connector")]
    return plain + conjugates + [(1, "tau1", "tau1sq", "reflection square (trivial in K)")]


class TestReidemeisterSchreier:
    def test_index_two_in_free_group(self):
        p = Presentation((("a", CONNECTOR),), ())
        c2 = CyclicGroup(2)
        hom = FiniteHom.from_dict(p, c2, {"a": c2.element(1)})
        sub = table_reidemeister_schreier(p, cayley_coset_table(hom))
        assert [str(g.word) for g in sub.generators] == ["a*a"]
        assert sub.presentation.relators == ()

    def test_even_gamma_generators_match_printed_shapes(self):
        K = disc_group(2, (2,))
        for sub in both_constructions(K):
            words = {str(g.word) for g in sub.generators}
            for expected in ("tau1*x1", "tau1*x2", "tau1*tau2", "e"):
                assert expected in words

    def test_odd_gamma_connector_pair(self):
        K = disc_group(1, (2, 2, 2))
        for sub in both_constructions(K):
            words = normalised_words(sub)
            assert "tau1*e" in words
            assert "e*tau1" in words

    def test_schreier_generator_count(self):
        # index * generators - (index - 1) non-trivial pairs
        for gamma, periods in [(1, (2, 2, 2)), (2, (2,)), (4, ()), (2, (3, 4))]:
            K = disc_group(gamma, periods)
            expected = 2 * len(K.generators) - 1
            for sub in both_constructions(K):
                assert len(sub.generators) == expected

    def test_transversal_uses_first_reflection(self):
        K = disc_group(3, (2, 2))
        _, sub = both_constructions(K)
        assert [str(w) for w in sub.transversal] == ["1", "tau1"]

    def test_rewrite_rejects_non_kernel_words(self):
        K = disc_group(2, (2,))
        for sub in both_constructions(K):
            with pytest.raises(NotInKernelError):
                sub.rewrite(Word.gen("tau1"))

    def test_rewrite_is_multiplicative(self):
        K = disc_group(2, (2,))
        w1 = parse_word("tau1 x1")
        w2 = parse_word("tau1 tau2")
        for sub in both_constructions(K):
            combined = sub.rewrite(w1 * w2)
            assert combined == free_reduce(sub.rewrite(w1) * sub.rewrite(w2))

    def test_rewritten_relators_have_known_support(self):
        K = disc_group(2, (3,))
        for sub in both_constructions(K):
            names = set(sub.presentation.generator_names())
            for rel in sub.presentation.relators:
                assert {g for g, _ in rel.letters} <= names

    def test_requires_the_transversal_one_tau1(self):
        K = disc_group(2, (2,))
        c2 = CyclicGroup(2)
        trivial = FiniteHom.from_dict(K, c2, {g: identity(c2) for g in K.generator_names()})
        with pytest.raises(ValueError, match="index 1"):
            reidemeister_schreier(K, trivial)
        images = dict(build_theta(K).images) | {"tau1": identity(c2)}
        with pytest.raises(ValueError, match="fixes tau1$"):
            reidemeister_schreier(K, FiniteHom.from_dict(K, c2, images))

    def test_surviving_reflection_rejected(self):
        K = disc_group(2, (2,))
        c2 = CyclicGroup(2)
        images = {name: c2.element(1) for name in K.generator_names()}
        images["e"] = c2.element(0)
        images["tau2"] = c2.element(0)  # tau2 would survive in the kernel
        bad = FiniteHom.from_dict(K, c2, images)
        with pytest.raises(ValueError, match="tau2"):
            reidemeister_schreier(K, bad)

    def test_requires_a_single_boundary_disc_quotient(self):
        K = disc_group(2, (2,))
        theta = build_theta(K)
        with pytest.raises(ValueError, match="single-boundary"):
            reidemeister_schreier(Presentation(K.generators, K.relators), theta)
        # K without its reflections, where theta still has index 2
        kept = tuple((g, kind) for g, kind in K.generators if kind.kind != "reflection")
        bare = Presentation(kept, (), signature=K.signature)
        images = {g: theta.image_of(g) for g, _ in kept}
        with pytest.raises(ValueError, match="no reflection"):
            reidemeister_schreier(bare, FiniteHom.from_dict(bare, CyclicGroup(2), images))

    def test_generators_are_born_canonical(self):
        for gamma, periods in [(1, (2, 2, 2)), (2, (3,)), (4, ()), (3, (2, 4))]:
            K = disc_group(gamma, periods)
            sub = reidemeister_schreier(K, build_theta(K))
            assert generator_pairs(sub) == canonical_generators(K)
            assert sub.presentation.generator_names() == tuple(g.name for g in sub.generators)


def test_closed_form_matches_reference(derived_battery):
    """On every battery shape the closed form over {1, tau1} agrees with
    the general construction over the coset table, generator by generator
    matched on (coset, base generator): word, kind, canonical name and
    role, the relators in order, and the rewrite of each corner word and
    of each generator's tau1-conjugate."""
    tau1 = Word.gen("tau1")
    for _, _, K, theta, derived in derived_battery:
        sub = derived.subgroup
        ref = table_reidemeister_schreier(K, cayley_coset_table(theta))
        assert [str(w) for w in ref.transversal] == ["1", "tau1"]
        pairs = generator_pairs(sub)
        assert pairs == canonical_generators(K)

        ref_by_pair = {(g.coset, g.base_generator): g for g in ref.generators}
        assert len(ref_by_pair) == len(sub.generators)
        kinds, ref_kinds = dict(sub.presentation.generators), dict(ref.presentation.generators)
        to_name = {}
        for gen, (coset, g, _, _) in zip(sub.generators, pairs):
            ref_gen = ref_by_pair[(coset, g)]
            assert gen.word == ref_gen.word
            assert kinds[gen.name] == ref_kinds[ref_gen.name]
            to_name[ref_gen.name] = gen.name

        def translate(w):
            return Word(tuple((to_name[name], e) for name, e in w.letters))

        assert sub.presentation.relators == tuple(
            translate(rel) for rel in ref.presentation.relators
        )
        taus = K.generators_of_kind("reflection")
        words = [Word.gen(a) * Word.gen(b) for a, b in zip(taus, taus[1:])]
        words += [tau1 * gen.word * tau1 for gen in sub.generators]
        for w in words:
            assert sub.rewrite(w) == translate(ref.rewrite(w))


def test_walk_from_coset_one_must_end_there():
    K = disc_group(2, (2,))
    sub = reidemeister_schreier(K, build_theta(K))
    for w in (Word.gen("tau1"), parse_word("x1 tau1 tau2"), Word.gen("x2", -1)):
        with pytest.raises(NotInKernelError, match="from coset 1 ends at coset 0"):
            sub.rewrite(w, 1)
    w = parse_word("tau2 x1")
    assert sub.rewrite(w, 1) == sub.rewrite(Word.gen("tau1") * w * Word.gen("tau1", -1))


def test_coset_walk_matches_built_conjugates(derived_battery, monkeypatch):
    """The relators read as walks from coset u equal the rewrites of the
    built conjugates u*R*u^-1 on all 1640 battery shapes; on every 16th,
    the lemma's gamma + 2 witness rows are the long relator from cosets 0
    and 1 and each x_j*x_j from coset 0, each the rewrite of its built
    conjugate."""
    assert len(derived_battery) == 1640
    for _, _, _, _, derived in derived_battery:
        assert derived.presentation.relators == conjugate_relators(derived.subgroup)

    # the lemma rewrites only its witness rows: record each walk it makes
    walks = []
    original = SchreierSubgroup.rewrite
    monkeypatch.setattr(
        SchreierSubgroup, "rewrite",
        lambda self, w, coset=0: walks.append((w, coset)) or original(self, w, coset),
    )
    sample = derived_battery[::16]
    recorded = []
    for _, _, _, _, derived in sample:
        walks.clear()
        lemma1_check(derived)
        recorded.append(list(walks))
    monkeypatch.undo()

    for (_, _, K, _, derived), rows in zip(sample, recorded):
        xs = K.generators_of_kind("elliptic")
        long_relator = Word(tuple((x, 1) for x in reversed(xs)) + (("e", 1),))
        assert rows == [(long_relator, 0), (long_relator, 1)] + [
            (Word.gen(x, 2), 0) for x in xs
        ]
        for w, coset in rows:
            rewritten = derived.subgroup.rewrite(w, coset)
            assert rewritten == conjugate_rewrite(derived.subgroup, w, coset)
            assert rewritten in derived.presentation.relators


def test_backward_inverts_forward(derived_battery, action_battery):
    """The theta tables of the signature battery with gamma <= 3, and the
    C_2n tables of rho over the action battery (where the permutations
    are not involutions)."""
    tables = [cayley_coset_table(theta) for gamma, _, _, theta, _ in derived_battery if gamma <= 3]
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
