import pytest
from hypothesis import assume, example, given, strategies as st

from necsurf import (
    CyclicGroup,
    DihedralGroup,
    FiniteHom,
    NECSignature,
    UnsupportedSignatureError,
    canonical_presentation,
    check_homomorphism,
    extend_to_dihedral,
    quotient_disc_signature,
    reduced_area,
    reidemeister_schreier,
    shape_certificate,
    verify_derived_relators,
)
from necsurf.pipeline import build_theta
from necsurf.presentations import Presentation, certify_frame
from necsurf.signatures import CONNECTOR, GLIDE
from necsurf.words import Word
from conftest import signature_battery_cases
from reference import (
    connector_elimination,
    cyclic_reduce,
    cyclically_equal,
    elementwise_failures,
    free_reduce,
    identity,
    index_derived_relators,
    naive_theta,
    orientation_character,
    parse_word,
    printed_relator_words,
    rebuilt_hom,
    rotation,
    scan_derived_relators,
    search_connector_elimination,
    substitute,
    word_character,
)


def disc_group(gamma, periods):
    return canonical_presentation(quotient_disc_signature(gamma, periods))


def relator_strings(p):
    return {str(r) for r in p.relators}


def assert_well_formed(p):
    """Relators use declared generators only, and every elliptic and
    reflection generator has its order relator."""
    declared = set(p.generator_names())
    for rel in p.relators:
        assert {g for g, _ in rel.letters} <= declared
    reduced = {free_reduce(rel).letters for rel in p.relators}
    for g, kind in p.generators:
        order = 2 if kind.kind == "reflection" else kind.order
        if order is not None:
            assert Word.gen(g, order).letters in reduced


class TestCanonicalDiscQuotient:
    def test_genus2_instance_relators(self):
        K = disc_group(1, (2, 2, 2))
        assert K.generator_names() == ("x1", "e", "tau1", "tau2", "tau3", "tau4")
        assert relator_strings(K) == {
            "x1*x1",
            "tau1*tau1",
            "tau2*tau2",
            "tau3*tau3",
            "tau4*tau4",
            "e^-1*tau4*e*tau1^-1",
            "x1*e",
            "tau1*tau2*tau1*tau2",
            "tau2*tau3*tau2*tau3",
            "tau3*tau4*tau3*tau4",
        }

    def test_no_corner_degenerate(self):
        K = disc_group(2, ())
        strings = relator_strings(K)
        assert "x2*x1*e" in strings
        assert "e^-1*tau1*e*tau1^-1" in strings
        assert K.generators_of_kind("reflection") == ("tau1",)

    def test_relator_count(self):
        # gamma order relators, r+1 reflection squares, connector
        # conjugation, long relator, r link relators
        for gamma, periods in [(1, (2, 2, 2)), (3, (4,)), (2, ()), (4, (2, 3, 6))]:
            K = disc_group(gamma, periods)
            r = len(periods)
            assert len(K.relators) == gamma + 2 * r + 3

    def test_well_formed(self):
        assert_well_formed(disc_group(2, (3, 4)))


class TestCanonicalCrosscap:
    def test_genus2_instance(self):
        p = canonical_presentation(NECSignature(False, 1, (2, 2, 2)))
        assert p.generator_names() == ("d1", "x1", "x2", "x3")
        assert relator_strings(p) == {
            "x1*x1",
            "x2*x2",
            "x3*x3",
            "x1*x2*x3*d1*d1",
        }
        assert p.torsion_words == (
            (Word.gen("x1"), 2),
            (Word.gen("x2"), 2),
            (Word.gen("x3"), 2),
        )

    def test_relator_count(self):
        for gamma, periods in [(1, (2, 2, 2)), (5, ()), (2, (3, 6))]:
            p = canonical_presentation(NECSignature(False, gamma, periods))
            assert len(p.relators) == len(periods) + 1

    def test_well_formed(self):
        assert_well_formed(canonical_presentation(NECSignature(False, 2, (3, 4))))

    def test_unsupported_families_rejected(self):
        with pytest.raises(UnsupportedSignatureError):
            canonical_presentation(NECSignature(True, 1))
        with pytest.raises(UnsupportedSignatureError):
            # interior period 3 on a bordered quotient is outside the family
            canonical_presentation(NECSignature(True, 0, (3,), ((2,),)))
        with pytest.raises(UnsupportedSignatureError):
            # two boundary components
            canonical_presentation(NECSignature(True, 0, (2,), ((2,), (2,))))


@pytest.mark.parametrize("family", ["disc", "crosscap"])
def test_lookups_match_a_scan_and_are_not_kept(family):
    # a presentation holds its four fields alone: each lookup reads them
    if family == "disc":
        p = disc_group(3, (2, 4))
    else:
        p = canonical_presentation(NECSignature(False, 2, (3, 4)))
    for kind in ("elliptic", "reflection", "glide", "connector"):
        assert p.generators_of_kind(kind) == tuple(g for g, k in p.generators if k.kind == kind)
    assert p.involution_names() == frozenset(g for g, k in p.generators if k.is_involution)
    assert Presentation.__slots__ == Presentation._fields == (
        "generators", "relators", "torsion_words", "signature")


class TestOrientationCharacter:
    def test_glide_reverses(self):
        p = canonical_presentation(NECSignature(False, 1, (2, 2, 2)))
        assert orientation_character(p)["d1"] == -1
        assert orientation_character(p)["x1"] == 1

    def test_reflection_times_elliptic_reverses(self):
        K = disc_group(1, (2, 2, 2))
        assert word_character(K, parse_word("tau1 x1")) == -1

    def test_empty_word_preserves(self):
        K = disc_group(1, (2, 2, 2))
        assert word_character(K, Word()) == 1

    def test_undeclared_generator_rejected(self):
        K = disc_group(1, ())
        with pytest.raises(KeyError):
            word_character(K, Word.gen("zz"))

    def test_all_relators_preserve_orientation(self, signature_battery):
        for gamma, periods in signature_battery[::37]:
            K = disc_group(gamma, periods)
            delta = canonical_presentation(NECSignature(False, gamma, periods))
            for p in (K, delta):
                for rel in p.relators:
                    assert word_character(p, rel) == 1


class TestCheckHomomorphism:
    def test_even_gamma_connector_to_identity_valid(self):
        K = disc_group(2, (2,))
        theta = naive_theta(K)
        assert not check_homomorphism(K, theta)

    def test_odd_gamma_connector_to_identity_fails_long_relator(self):
        K = disc_group(1, (2, 2, 2))
        theta = naive_theta(K)
        result = check_homomorphism(K, theta)
        assert result
        assert [str(rel) for rel, _ in result] == ["x1*e"]
        assert theta.target.format(result[0][1]) == "1"  # the residue a, written additively

    def test_everything_to_identity_is_valid(self):
        K = disc_group(3, (2, 4))
        c2 = CyclicGroup(2)
        trivial = FiniteHom.from_dict(
            K, c2, {name: identity(c2) for name in K.generator_names()}
        )
        assert not check_homomorphism(K, trivial)


SIGNATURE_BATTERY = signature_battery_cases()


class TestCheckHomomorphismOracle:
    """``check_homomorphism`` compares each relator's normal form with
    the identity; the oracle multiplies elements letter by letter.  Both
    must give the same failures, relators, elements and order."""

    def test_battery_theta_and_Theta(self, derived_battery, action_battery):
        for _, _, K, theta, _ in derived_battery:
            assert check_homomorphism(K, theta) == elementwise_failures(K, theta) == ()
        for datum in action_battery:
            shape = shape_certificate(datum.gamma, datum.periods)
            K = shape.k_presentation
            Theta = rebuilt_hom(shape, datum, extend_to_dihedral(shape, datum))
            assert check_homomorphism(K, Theta) == elementwise_failures(K, Theta) == ()

    def test_broken_Theta_and_rho(self, action_battery):
        # Theta with the rotation x1 -> s, so x1*x1 -> s^2, and rho with d1
        # shifted by 1, so the long relator's sum moves by 2, fail as the
        # oracle says
        for datum in action_battery:
            shape = shape_certificate(datum.gamma, datum.periods)
            K = shape.k_presentation
            Theta = rebuilt_hom(shape, datum, extend_to_dihedral(shape, datum))
            images = dict(Theta.images, x1=rotation(Theta.target, 1))
            broken = FiniteHom.from_dict(K, Theta.target, images)
            failures = check_homomorphism(K, broken)
            assert failures and failures == elementwise_failures(K, broken)

            delta = canonical_presentation(datum.delta_signature())
            c2n = CyclicGroup(datum.order)
            values = ((datum.d_images[0] + 1) % datum.order, *datum.d_images[1:], *datum.x_images)
            images = dict(zip(delta.generator_names(), values))
            rho = FiniteHom.from_dict(delta, c2n, images)
            failures = check_homomorphism(delta, rho)
            assert failures and failures == elementwise_failures(delta, rho)

    @given(st.data())
    def test_arbitrary_images(self, data):
        gamma, periods = data.draw(st.sampled_from(SIGNATURE_BATTERY))
        crosscap = data.draw(st.booleans())
        p = (canonical_presentation(NECSignature(False, gamma, periods)) if crosscap
             else disc_group(gamma, periods))
        m = data.draw(st.integers(1, 12))
        residues = st.integers(0, m - 1)
        if data.draw(st.booleans()):
            target = CyclicGroup(m)
            image = residues
        else:
            target = DihedralGroup(m)
            image = st.tuples(st.integers(0, 1), residues)
        images = {g: data.draw(image) for g in p.generator_names()}
        hom = FiniteHom.from_dict(p, target, images)
        assert check_homomorphism(p, hom) == elementwise_failures(p, hom)
        # the same images in generator order, with the relators as
        # (index, exponent) letters, give the same failures
        names = p.generator_names()
        walk = [tuple((names.index(g), e) for g, e in rel.letters) for rel in p.relators]
        in_order = [images[g] for g in names]
        assert check_homomorphism(p, in_order, target, walk) == elementwise_failures(p, hom)


class TestVerifyDerivedRelator:
    def substitution(self, K):
        sub = reidemeister_schreier(K, build_theta(K))
        return {g.name: g.word for g in sub.generators}

    def test_first_corner_power_matches_link_relator(self):
        K = disc_group(1, (2, 2, 2))
        (status,) = verify_derived_relators(
            K, [Word.gen("c1", 2)], [(source(K, "tau1 tau2 tau1 tau2"), 0)], self.substitution(K),
            connector_elimination(K))
        assert status == "matches-relator"

    def test_consecutive_corner_power(self):
        K = disc_group(1, (2, 3, 2))
        word = (Word.gen("c1", -1) * Word.gen("c2")) ** 3
        corner = source(K, "tau2 tau3 " * 3)
        (status,) = verify_derived_relators(
            K, [word], [(corner, 0)], self.substitution(K), connector_elimination(K))
        assert status == "matches-relator"

    def test_even_gamma_alternation_is_trivial(self):
        K = disc_group(4, ())
        word = (
            Word.gen("delta1", -1)
            * Word.gen("delta2")
            * Word.gen("delta3", -1)
            * Word.gen("delta4")
            * Word.gen("e1", -1)
        )
        (status,) = verify_derived_relators(
            K, [word], [None], self.substitution(K), connector_elimination(K))
        assert status == "trivial"

    def test_connector_pair_relation_uses_conjugation_relator(self):
        # e1*e2^-1*c1 spells e*tau1*e^-1*tau2 in K: the connector relator,
        # with tau1^-1 read as tau1, read from its third letter; e stays
        # as it is
        K = disc_group(2, (3,))
        word = Word.gen("e1") * Word.gen("e2", -1) * Word.gen("c1")
        connector = source(K, "e^-1 tau2 e tau1^-1")
        statuses = verify_derived_relators(
            K, [word] * 4, [(connector, k) for k in range(4)], self.substitution(K),
            connector_elimination(K))
        assert statuses == ("unresolved", "unresolved", "matches-relator", "unresolved")

    def test_first_relator_in_order_is_the_match(self):
        # the oracle index: R1, its inverse and a rotation of it, so every
        # word below matches all three, and the match is R1, as in a scan
        # in relator order
        p = Presentation(
            tuple((g, GLIDE) for g in "abc"),
            (parse_word("a b c"), parse_word("c^-1 b^-1 a^-1"), parse_word("b c a")),
        )
        words = [parse_word("c a b"), parse_word("a^-1 c^-1 b^-1"), parse_word("b c a")]
        certs = index_derived_relators(p, words, {})
        assert certs == (("matches-relator", parse_word("a b c")),) * 3
        assert certs == scan_derived_relators(p, words, {})

    def test_nontrivial_word_is_unresolved(self):
        K = disc_group(1, (2, 2, 2))
        corner = source(K, "tau1 tau2 tau1 tau2")
        for named in ((corner, 0), None):
            (status,) = verify_derived_relators(
                K, [Word.gen("c1")], [named], self.substitution(K), connector_elimination(K))
            assert status == "unresolved"

    def test_named_source_matches_at_its_named_rotation_only(self):
        # the long relator of a crosscap group has no involution, so its
        # inverse differs from it as a cyclic word, and no rotation of it
        # but the identity fixes it; each rotation matches when named at
        # its own offset and no other, and no spelling of the inverse
        # matches at all
        delta = canonical_presentation(NECSignature(False, 2, (3, 4)))
        long = len(delta.relators) - 1
        letters = delta.relators[long].letters
        n = len(letters)
        rotations = [Word(letters[k:] + letters[:k]) for k in range(n)]
        for k, word in enumerate(rotations):
            statuses = verify_derived_relators(
                delta, [word] * n, [(long, j) for j in range(n)], {}, {})
            assert statuses == tuple(
                "matches-relator" if j == k else "unresolved" for j in range(n)
            )
        inverses = [w.inverse() for w in rotations]
        for j in range(n):
            statuses = verify_derived_relators(delta, inverses, [(long, j)] * n, {}, {})
            assert statuses == ("unresolved",) * n
        for other in [*((i, 0) for i in range(long)), None]:
            statuses = verify_derived_relators(delta, rotations, [other] * n, {}, {})
            assert statuses == ("unresolved",) * n

    def test_wrong_named_source_is_unresolved(self):
        # with equal periods the corners differ only in their letters
        K = disc_group(2, (3, 3, 3))
        first, second = source(K, "tau1 tau2 " * 3), source(K, "tau2 tau3 " * 3)
        connector = source(K, "e^-1 tau4 e tau1^-1")
        corner_word = Word.gen("c1", 3)
        next_word = (Word.gen("c1", -1) * Word.gen("c2")) ** 3
        statuses = verify_derived_relators(
            K, [corner_word, corner_word, next_word, next_word, corner_word],
            [(first, 0), (second, 0), (second, 0), (first, 0), (connector, 2)],
            self.substitution(K), connector_elimination(K),
        )
        assert statuses == (
            "matches-relator", "unresolved", "matches-relator", "unresolved", "unresolved"
        )

    def test_one_source_per_word(self):
        K = disc_group(2, (3,))
        with pytest.raises(ValueError):
            verify_derived_relators(
                K, [Word.gen("c1", 3)], [], self.substitution(K), connector_elimination(K))


def source(K, text):
    """The index in K's relators of the relator spelled ``text``."""
    return K.relators.index(parse_word(text))


def assert_named_sources_agree(K, sub, periods):
    """Every printed relator with a source, spelled in K and reduced by
    the oracle, equals that source reduced the same way and read from its
    named rotation; each status is the one the oracle index over every
    relator gives, and the relator the oracle matches is the named
    source, with the connector's closed form substituted and reduced.
    Both lists are checked: the shape's, each corner row a power named for
    K's corner (``printed_relator_words``), and the frame's that
    ``derive_delta_hat`` certifies, each corner row a unit named for its
    unit in the frame with its corner units.  Returns the statuses."""
    rows, units = sub.frame.rows, sub.frame.units
    substitution = {g.name: g.word for g in sub.generators}
    statuses = set()
    for p, listed in ((K, printed_relator_words(sub, periods)), (units, rows)):
        _, words, sources = zip(*listed)
        elimination = connector_elimination(p)
        named = verify_derived_relators(p, words, sources, substitution, elimination)
        index = index_derived_relators(p, words, substitution)
        involutions = p.involution_names()
        for word, named_source, status, (expected, matched) in zip(
            words, sources, named, index, strict=True
        ):
            assert status == expected != "unresolved", (str(word), status, expected)
            if named_source is None:
                assert matched is None
                continue
            i, k = named_source
            rel = cyclic_reduce(p.relators[i], involutions).letters
            spelled = cyclic_reduce(substitute(word, substitution), involutions).letters
            assert spelled == rel[k:] + rel[:k], str(word)
            assert cyclic_reduce(substitute(p.relators[i], elimination), involutions) == matched
        statuses |= set(named)
    return statuses


def test_named_sources_agree_with_index_on_battery(derived_battery):
    """On every signature-battery shape where theta kills the connector,
    each printed relator matches its one named source at its named
    rotation, and agrees with the oracle index over all of K's relators."""
    shapes, statuses = 0, set()
    for _, periods, K, _, derived in derived_battery:
        sub = derived.subgroup
        (connector,) = K.generators_of_kind("connector")
        if sub.parity[connector]:
            continue
        statuses |= assert_named_sources_agree(K, sub, periods)
        shapes += 1
    # theta kills the connector exactly for even gamma
    assert shapes == sum(gamma % 2 == 0 for gamma, *_ in derived_battery) == 659
    assert statuses == {"matches-relator", "trivial"}


@given(
    st.integers(1, 32).map(lambda k: 2 * k),
    st.lists(st.integers(2, 12), max_size=8),
)
@example(64, [12] * 8)
@example(2, [12, 2, 7])
@example(4, [])
def test_named_sources_agree_with_index(gamma, periods):
    """The same agreement on drawn shapes: even gamma up to 64, up to 8
    corners of periods 2..12, in any order."""
    periods = tuple(periods)
    assume(reduced_area(NECSignature(False, gamma, periods)) > 0)
    K = disc_group(gamma, periods)
    sub = reidemeister_schreier(K, build_theta(K))
    assert not sub.parity["e"]
    assert assert_named_sources_agree(K, sub, periods) == {"matches-relator", "trivial"}


def test_rotation_index_matches_linear_scan(derived_battery):
    """On every even-gamma battery shape, certifying by the oracle's
    least-rotation index gives the (status, matched) of the scan over
    every rotation of every relator: for the printed relators, their
    inverses, the conjugation identities tau1*g*tau1*g and one perturbed
    word, which stays unresolved."""
    statuses = set()
    for gamma, periods, K, _, derived in derived_battery:
        if gamma % 2:
            continue
        sub = derived.subgroup
        printed = [w for _, w, _ in printed_relator_words(sub, periods)]
        words = printed + [w.inverse() for w in printed]
        words += [
            Word((("tau1", 1), (g.name, 1)) * 2)
            for g in sub.generators if g.role in ("glide", "corner rotation")
        ]
        perturbed = printed[0] * Word.gen("delta1")
        words.append(perturbed)
        substitution = {g.name: g.word for g in sub.generators}
        fast = index_derived_relators(K, words, substitution)
        assert fast == scan_derived_relators(K, words, substitution)
        assert fast[-1][0] == "unresolved"
        statuses.update(status for status, _ in fast)
    assert statuses == {"trivial", "matches-relator", "unresolved"}


def test_rotation_index_matches_linear_scan_on_crosscap_groups(signature_battery):
    """The same comparison of the oracle's index with the scan on the
    crosscap groups (gamma; -; [periods]) of every 8th battery shape,
    whose glide and elliptic generators of order above 2 are not
    involutions, so that a relator and its inverse differ as cyclic words
    and the inverse's rotations can only match through the inverse key."""
    by_inverse = 0
    for gamma, periods in signature_battery[::8]:
        delta = canonical_presentation(NECSignature(False, gamma, periods))
        words = []
        for rel in delta.relators:
            inverse = rel.inverse()
            words += [rel, inverse, Word(inverse.letters[1:] + inverse.letters[:1])]
        words.append(delta.relators[-1] * Word.gen("d1"))
        fast = index_derived_relators(delta, words, {})
        assert fast == scan_derived_relators(delta, words, {})
        assert fast[-1][0] == "unresolved"
        by_inverse += sum(
            status == "matches-relator"
            and not cyclically_equal(word, matched, delta.involution_names())
            for word, (status, matched) in zip(words, fast)
        )
    assert by_inverse > 0


def test_connector_elimination_matches_relator_search(signature_battery):
    # e's closed form, as the frame record keeps it, named by K's
    # generators, is the relator search's, and the oracle's own
    assert len(signature_battery) == 1640
    for gamma, periods in signature_battery:
        K = disc_group(gamma, periods)
        names = K.generator_names()
        kept = Word(tuple((names[i], e) for i, e in certify_frame(gamma, len(periods)).connector))
        assert {"e": kept} == search_connector_elimination(K) == connector_elimination(K)


@pytest.mark.parametrize("gamma", range(1, 9))
def test_the_frame_keeps_the_oracles_elimination(gamma):
    # certify_frame(gamma, r).connector, e = x_1^-1...x_gamma^-1 as
    # (index, exponent) letters in K's generator order, is the oracle's
    # own elimination, indexed
    for r in range(4):
        K = disc_group(gamma, (3,) * r)
        index = {g: i for i, g in enumerate(K.generator_names())}
        ((_, solved),) = connector_elimination(K).items()
        assert certify_frame(gamma, r).connector == tuple((index[g], e) for g, e in solved.letters)


def test_duplicate_generator_names_rejected():
    with pytest.raises(ValueError):
        Presentation((("a", CONNECTOR), ("a", CONNECTOR)), ())
