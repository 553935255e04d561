import random
from collections import Counter

import pytest

from necsurf import (
    CyclicGroup,
    NECSignature,
    NotInKernelError,
    PipelineAssertionError,
    SchreierSubgroup,
    build_theta,
    canonical_presentation,
    derive_delta_hat,
    lemma1_check,
    quotient_disc_signature,
    reidemeister_schreier,
)
from conftest import signature_battery_cases
from necsurf import frames, presentations
from necsurf.presentations import Presentation
from necsurf.signatures import CONNECTOR
from necsurf.words import Word
from reference import (
    FiniteHom,
    cayley_coset_table,
    conjugate_relators,
    conjugate_rewrite,
    free_reduce,
    identity,
    naive_theta,
    own_word_lemma,
    parse_word,
    rebit,
    reduce_mod_involutions,
    replace,
    theta_hom,
    unkept_reidemeister_schreier,
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
        table = cayley_coset_table(theta_hom(K, theta))
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
        rho = FiniteHom.from_dict(delta, c4, {"d1": 1, "x1": 2, "x2": 2, "x3": 2})
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
    table = cayley_coset_table(theta_hom(K, theta))
    return reidemeister_schreier(K, theta), table_reidemeister_schreier(K, table)


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
        hom = FiniteHom.from_dict(p, c2, {"a": 1})
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
        with pytest.raises(ValueError, match="index 1"):
            reidemeister_schreier(K, (0,) * len(K.generators))
        with pytest.raises(ValueError, match="fixes tau1$"):
            reidemeister_schreier(K, rebit(K, build_theta(K), tau1=0))

    def test_surviving_reflection_rejected(self):
        K = disc_group(2, (2,))
        bad = rebit(K, (1,) * len(K.generators), e=0, tau2=0)  # tau2 would survive in the kernel
        with pytest.raises(ValueError, match="tau2"):
            reidemeister_schreier(K, bad)

    def test_requires_a_single_boundary_disc_quotient(self):
        K = disc_group(2, (2,))
        theta = build_theta(K)
        with pytest.raises(ValueError, match="single-boundary"):
            reidemeister_schreier(Presentation(K.generators, K.relators), theta)
        # K without its reflections, where theta still has index 2
        kept = [((g, kind), bit) for (g, kind), bit in zip(K.generators, theta)
                if kind.kind != "reflection"]
        bare = Presentation((g for g, _ in kept), (), signature=K.signature)
        with pytest.raises(ValueError, match="no reflection"):
            reidemeister_schreier(bare, tuple(bit for _, bit in kept))

    # theta is a bare tuple, so one of another length, or with a value that
    # is not the int 0 or 1, is refused with each reason, not zipped short
    @pytest.mark.parametrize("cut", [-1, 1], ids=["one-short", "one-over"])
    def test_theta_of_another_length_is_refused(self, cut):
        K = disc_group(2, (2,))
        theta = build_theta(K)
        bits = theta[:cut] if cut < 0 else theta + (1,)
        for derive in (reidemeister_schreier, derive_delta_hat):
            with pytest.raises(ValueError) as exc:
                derive(K, bits)
            assert str(exc.value) == f"theta has {len(bits)} bits, K 5 generators"

    @pytest.mark.parametrize("bit", [2, -1, None, "1", 1.5, True],
                             ids=["two", "minus-one", "none", "string", "float", "bool"])
    def test_a_value_that_is_not_a_bit_is_refused(self, bit):
        # e's bit is 0 at even gamma, and tau1's 1: each is named
        K = disc_group(2, (2,))
        bits = rebit(K, build_theta(K), e=bit, tau1=bit)
        for derive in (reidemeister_schreier, derive_delta_hat):
            with pytest.raises(ValueError) as exc:
                derive(K, bits)
            assert str(exc.value) == (f"theta sends e to {bit!r}, not the int 0 or 1;"
                                      f" theta sends tau1 to {bit!r}, not the int 0 or 1")
        with pytest.raises(ValueError) as exc:
            reidemeister_schreier(K, bits[:-1])
        assert str(exc.value) == (f"theta has 4 bits, K 5 generators; theta sends e to {bit!r},"
                                  f" not the int 0 or 1; theta sends tau1 to {bit!r}, not the"
                                  " int 0 or 1")

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
        ref = table_reidemeister_schreier(K, cayley_coset_table(theta_hom(K, theta)))
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


def test_undeduplicated_corner_rows_agree_with_the_oracle_beyond_the_battery():
    """On a seeded sample of shapes with gamma <= 8, r <= 5 and periods
    <= 8, the subgroup whose corner rows are its units' rewrites raised to
    the periods, none de-duplicated, equals the one the unkept oracle
    derives by walking and de-duplicating every relator of K."""
    shapes = random.Random(52).sample(signature_battery_cases(8, 5, 8), 300)
    for gamma, periods in shapes:
        K = disc_group(gamma, periods)
        theta = build_theta(K)
        sub = reidemeister_schreier(K, theta)
        assert sub == unkept_reidemeister_schreier(K, theta), (gamma, periods)
        rows = sum(map(len, sub.frame.schreier.rows))
        assert len(sub.presentation.relators) == rows + 2 * len(periods)


def test_a_corner_rewrite_that_is_not_cyclically_reduced_is_an_assertion(monkeypatch):
    # the rewrite of the first corner unit from coset 0, c1, conjugated by
    # c1t: its power would not be freely reduced, so the frame refuses it
    # once, naming the unit, and the memo keeps nothing
    build = frames.schreier_frame

    def conjugated(*args):
        schreier = build(*args)
        (unit, (w, w1)), *rest = schreier.corners.items()
        bent = Word.gen("c1t") * w * Word.gen("c1t", -1)
        return replace(schreier, corners=dict([(unit, (bent, w1)), *rest]))

    monkeypatch.setattr(frames, "schreier_frame", conjugated)
    for derive in (lambda: presentations.certify_frame(2, 2), lambda: disc_group(2, (3, 4))):
        with pytest.raises(PipelineAssertionError) as exc:
            derive()
        assert str(exc.value) == ("corner unit tau1*tau2: its rewrite c1t*c1*c1t^-1 from coset 0"
                                  " is not cyclically reduced")
    assert presentations.certify_frame.entries == {}
    assert presentations.certify_frame.cache_info().misses == 2


def test_rows_without_a_witness_row_are_an_assertion(monkeypatch):
    # the frame's rows without x1*x1 rewritten from coset 0, delta1t*delta1:
    # the frame certifies the lemma's witness among its rows, so it refuses
    # them once, naming the row, and the memo keeps nothing
    build = frames.schreier_frame

    def dropped(*args):
        schreier = build(*args)
        rows = tuple(tuple(w for w in head if str(w) != "delta1t*delta1")
                     for head in schreier.rows)
        assert sum(map(len, rows)) == sum(map(len, schreier.rows)) - 1
        return replace(schreier, rows=rows)

    monkeypatch.setattr(frames, "schreier_frame", dropped)
    for derive in (lambda: presentations.certify_frame(2, 2), lambda: disc_group(2, (3, 4))):
        with pytest.raises(PipelineAssertionError) as exc:
            derive()
        assert str(exc.value) == ("connector product e1*e2: witness row delta1t*delta1 (x1*x1 from"
                                  " coset 0) is not a relator of the derived kernel")
    assert presentations.certify_frame.entries == {}
    assert presentations.certify_frame.cache_info().misses == 2


def test_roles_agree_with_orientation(derived_battery):
    """On every battery shape each Schreier generator's role agrees with
    its orientation kind: every glide and its tau1-conjugate reverses
    orientation; every corner rotation, its tau1-conjugate and tau1sq
    preserve it; the connector pair reverses it exactly when theta's bit
    on the connector is 1."""
    checked = 0
    for _, _, K, _, derived in derived_battery:
        sub = derived.subgroup
        (connector,) = K.generators_of_kind("connector")
        kinds = dict(sub.presentation.generators)
        for gen in sub.generators:
            reverses = kinds[gen.name].character == -1
            if gen.role.startswith("glide"):
                assert reverses, gen
            elif gen.role == "connector":
                assert reverses == bool(sub.parity[connector]), gen
            else:
                assert gen.role.startswith("corner rotation") or gen.name == "tau1sq", gen
                assert not reverses, gen
            checked += 1
    assert checked == 26330


def test_walk_from_coset_one_must_end_there():
    K = disc_group(2, (2,))
    sub = reidemeister_schreier(K, build_theta(K))
    for w in (Word.gen("tau1"), parse_word("x1 tau1 tau2"), Word.gen("x2", -1)):
        with pytest.raises(NotInKernelError, match="from coset 1 ends at coset 0"):
            sub.rewrite(w, 1)
    w = parse_word("tau2 x1")
    assert sub.rewrite(w, 1) == sub.rewrite(Word.gen("tau1") * w * Word.gen("tau1", -1))


def test_coset_walk_matches_built_conjugates(derived_battery):
    """The relators read as walks from coset u equal the rewrites of the
    built conjugates u*R*u^-1 on all 1640 battery shapes; on every 16th,
    the rewrite of each of the lemma's gamma + 2 witness words, the built
    conjugate of the long relator from cosets 0 and 1 and of each x_j*x_j
    from coset 0, is a relator of the derived kernel."""
    assert len(derived_battery) == 1640
    for _, _, _, _, derived in derived_battery:
        assert derived.presentation.relators == conjugate_relators(derived.subgroup)

    for _, _, K, _, derived in derived_battery[::16]:
        xs = K.generators_of_kind("elliptic")
        long_relator = Word(tuple((x, 1) for x in reversed(xs)) + (("e", 1),))
        words = [(long_relator, 0), (long_relator, 1)] + [(Word.gen(x, 2), 0) for x in xs]
        for w, coset in words:
            assert conjugate_rewrite(derived.subgroup, w, coset) in derived.presentation.relators


def test_backward_inverts_forward(derived_battery, action_battery):
    """The theta tables of the signature battery with gamma <= 3, and the
    C_2n tables of rho over the action battery (where the permutations
    are not involutions)."""
    tables = [cayley_coset_table(theta_hom(K, theta))
              for gamma, _, K, theta, _ in derived_battery if gamma <= 3]
    for datum in action_battery:
        delta = canonical_presentation(datum.delta_signature())
        c = CyclicGroup(datum.order)
        images = dict(zip(delta.generator_names(), datum.d_images + datum.x_images))
        tables.append(cayley_coset_table(FiniteHom.from_dict(delta, c, images)))
    for table in tables:
        assert table.forward.keys() == table.backward.keys()
        for g, perm in table.forward.items():
            assert sorted(perm) == list(range(table.index))
            assert all(table.backward[g][j] == i for i, j in enumerate(perm))


class TestSchreierFrame:
    """The per-(gamma, r) frame of ``reidemeister_schreier``: memoised by
    value, it changes no derived presentation, only what is recomputed."""

    def test_a_warm_derivation_builds_one_presentation(self, monkeypatch):
        (K, theta), (other, other_theta) = (
            (K, build_theta(K)) for K in (disc_group(2, (3, 4)), disc_group(2, (5, 6))))
        built = []
        init = Presentation.__init__
        monkeypatch.setattr(
            Presentation, "__init__",
            lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs),
        )
        # K's frame was certified, its relator-free subgroup presentation
        # included, when K was built: the first derivation builds only the
        # kernel's presentation too
        cold = reidemeister_schreier(K, theta)
        assert len(built) == 1
        built.clear()
        warm = reidemeister_schreier(other, other_theta)
        assert len(built) == 1
        assert warm.frame is cold.frame
        assert presentations.certify_frame.cache_info().misses == 1

    def test_warm_results_equal_cold_ones_on_the_signature_battery(
        self, signature_battery, monkeypatch, verified_words
    ):
        # the r values of each gamma are interleaved, so a frame is reused
        # after the frames of other (gamma, r) were derived; each memo of a
        # frame misses once per frame, and the cold run clears them all
        counts, rank = Counter(), {}
        for gamma, periods in signature_battery:
            rank[gamma, periods] = counts[gamma, len(periods)]
            counts[gamma, len(periods)] += 1
        order = sorted(signature_battery, key=lambda case: (case[0], rank[case], len(case[1])))
        assert len(order) == 1640 and len(counts) == 22

        # the lemma's walks, counted per case: a cold lemma rewrites
        # nothing, as its witness was certified with the frame
        walks, rewrite = [], SchreierSubgroup.rewrite
        monkeypatch.setattr(
            SchreierSubgroup, "rewrite",
            lambda self, w, coset=0: walks.append(w) or rewrite(self, w, coset))

        def derive_and_check(gamma, periods):
            K = disc_group(gamma, periods)
            derived = derive_delta_hat(K, build_theta(K))
            walks.clear()
            return derived, lemma1_check(derived)

        warm, walked = [], []
        for case in order:
            warm.append(derive_and_check(*case))
            walked.append(bool(walks))
        monkeypatch.undo()
        assert walked == [False] * 1640
        # each case looks its frame up twice, to build K and to derive in it
        frames = presentations.certify_frame
        assert frames.cache_info()[:2] == (2 * 1640 - 22, 22)  # (hits, misses)
        # the classical relators are printed for even gamma alone: 659
        # shapes in 9 frames, gamma = 2 with r = 1..4 and gamma = 4 with
        # r = 0..4, each of which certifies its r corner units and its 3
        # rows after them in one call, on its first shape: no later shape
        # of a frame certifies a word
        assert verified_words == [r + 3 for r in (1, 2, 3, 4, 0, 1, 2, 3, 4)]

        for case, (derived, lemma) in zip(order, warm):
            frames.cache_clear()
            cold, cold_lemma = derive_and_check(*case)
            sub, cold_sub = derived.subgroup, cold.subgroup
            assert sub.generators == cold_sub.generators
            assert sub.presentation.generators == cold_sub.presentation.generators
            assert sub.presentation.relators == cold_sub.presentation.relators
            assert sub.presentation.torsion_words == cold_sub.presentation.torsion_words
            assert (sub.pair_names, sub.parity) == (cold_sub.pair_names, cold_sub.parity)
            assert derived == cold and lemma == cold_lemma

    @pytest.mark.parametrize("altered_to, missing, reason", [
        ((), {"c1t*c1", "c1*c1t"}, "it has 6 relators before its 2 corners, the frame 7"),
        ((Word.gen("tau2", -2),), {"c1t*c1", "c1*c1t"},
         "its relator tau2^-1*tau2^-1 is not the frame's tau2*tau2"),
    ], ids=["tau2-squared-dropped", "tau2-squared-inverted"])
    def test_an_altered_relator_misses_the_frame(self, altered_to, missing, reason):
        # a K that is not its frame plus its corners is refused, naming
        # each relator that differs, and leaves its frame as it was; the
        # unkept oracle derives the altered K, whose kernel misses the
        # rewrites of the relator it lacks
        K = disc_group(2, (3, 4))
        canonical = reidemeister_schreier(K, build_theta(K))
        i = K.relators.index(Word.gen("tau2", 2))
        altered_K = Presentation(
            K.generators, K.relators[:i] + altered_to + K.relators[i + 1:], signature=K.signature)
        theta = build_theta(altered_K)
        for derive in (reidemeister_schreier, derive_delta_hat):
            with pytest.raises(ValueError) as exc:
                derive(altered_K, theta)
            assert str(exc.value) == f"K is not its frame (2, 2) plus its corners: {reason}"
        altered = unkept_reidemeister_schreier(altered_K, theta)
        assert altered.presentation.relators == conjugate_relators(altered)
        names = {str(w) for w in canonical.presentation.relators}
        assert names - {str(w) for w in altered.presentation.relators} == missing
        assert altered.generators == canonical.generators
        assert altered.generators is not canonical.generators
        again = reidemeister_schreier(K, build_theta(K))
        assert again.generators is canonical.generators and again.frame is canonical.frame

    def test_generators_other_than_the_frames_are_refused(self):
        K = disc_group(2, (3, 4))
        renamed = Presentation(((("y1" if g == "x1" else g), kind) for g, kind in K.generators),
                               K.relators, signature=K.signature)
        with pytest.raises(ValueError) as exc:
            reidemeister_schreier(renamed, build_theta(renamed))
        assert str(exc.value) == (
            "K is not its frame (2, 2) plus its corners: its generators are not the frame's")

    def test_a_signature_other_than_the_frames_is_refused(self):
        # gamma is read off K's signature, which must count K's interior
        # points, or the claimed signature would not be K's kernel's
        K = disc_group(2, (3, 4))
        relabelled = Presentation(K.generators, K.relators,
                                  signature=quotient_disc_signature(3, (3, 4)))
        for derive in (reidemeister_schreier, derive_delta_hat):
            with pytest.raises(ValueError) as exc:
                derive(relabelled, build_theta(K))
            assert str(exc.value) == (
                "K is not its frame (2, 2) plus its corners: its signature has 3 interior points")

    def test_a_connector_bit_the_long_relator_does_not_force_is_refused(self):
        # e -> 0 at odd gamma leaves x1*e, the long relator, unmapped
        K = disc_group(1, (2, 2, 2))
        with pytest.raises(ValueError, match="^theta must send e to the parity the long"
                                             " relator forces$"):
            reidemeister_schreier(K, naive_theta(K))

    def test_a_refused_theta_reads_the_involutions_once(self, monkeypatch):
        # the connector bit flipped at gamma = 64: before theta is refused,
        # every interior point is checked to be an involution against one
        # set of K's involutions, built once, not once per point
        K = disc_group(64, ())
        theta = build_theta(K)
        flipped = (*theta[:64], 1 - theta[64], *theta[65:])
        calls, involutions = [], Presentation.involution_names
        monkeypatch.setattr(Presentation, "involution_names",
                            lambda self: calls.append(self) or involutions(self))
        with pytest.raises(ValueError, match="^theta must send e to the parity the long"
                                             " relator forces$"):
            reidemeister_schreier(K, flipped)
        assert calls == [K]

    def test_a_corner_that_is_not_a_power_of_its_unit_is_refused(self):
        # (tau3*tau2)^4 in place of (tau2*tau3)^4: K's frame is the
        # canonical one, but K is not its frame plus its corner powers;
        # the refusal names the corner and leaves the frame as it was,
        # and the unkept oracle derives the swapped K letter by letter
        K = disc_group(2, (3, 4))
        canonical = reidemeister_schreier(K, build_theta(K))
        swapped = Presentation(
            K.generators, K.relators[:-1] + (parse_word("tau3 tau2") ** 4,), signature=K.signature)
        theta = build_theta(swapped)
        for derive in (reidemeister_schreier, derive_delta_hat):
            with pytest.raises(ValueError) as exc:
                derive(swapped, theta)
            assert str(exc.value) == ("K is not its frame (2, 2) plus its corners:"
                                      " its corner 2 is not (tau2*tau3)^4")
        sub = unkept_reidemeister_schreier(swapped, theta)
        assert sub.presentation.relators == conjugate_relators(sub)
        assert sub.presentation.relators != canonical.presentation.relators
        assert reidemeister_schreier(K, build_theta(K)).frame is canonical.frame

    @pytest.mark.parametrize("corner", ["tau2 tau2", "tau1 x1 x1 tau1^-1",
                                        "tau1 tau2 tau2 tau1^-1", "tau2 tau3 tau2 tau3"])
    def test_corner_rows_that_are_heads_keep_the_relator_order(self, corner):
        # a last corner whose rewrite from coset 0 is a head row of coset 0
        # (tau2^2) or of coset 1 (a tau1-conjugate of a relator), or a
        # square of a unit, is not (tau2*tau3)^4, so K is refused; the
        # unkept oracle de-duplicates its rows and the corner rows in the
        # order the walk of every relator gives, and the own-word lemma
        # finds its own witness rows among them
        K = disc_group(3, (3, 4))
        altered = Presentation(
            K.generators, K.relators[:-1] + (parse_word(corner),), signature=K.signature)
        theta = build_theta(altered)
        for derive in (reidemeister_schreier, derive_delta_hat):
            with pytest.raises(ValueError, match=r": its corner 2 is not \(tau2\*tau3\)\^4$"):
                derive(altered, theta)
        sub = unkept_reidemeister_schreier(altered, theta)
        assert sub.presentation.relators == conjugate_relators(sub)
        assert own_word_lemma(sub) == tuple(g.name for g in sub.generators)
