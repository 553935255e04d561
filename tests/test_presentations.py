import pytest

from necsurf import (
    CyclicGroup,
    FiniteHom,
    NECSignature,
    UnsupportedSignatureError,
    canonical_presentation,
    check_homomorphism,
    orientation_character,
    quotient_disc_signature,
    reidemeister_schreier,
    verify_derived_relators,
)
from necsurf.pipeline import _printed_relator_words, build_theta
from necsurf.presentations import Presentation, connector_closed_form
from necsurf.signatures import CONNECTOR, GLIDE
from necsurf.words import Word
from reference import (
    cyclically_equal,
    free_reduce,
    identity,
    naive_theta,
    parse_word,
    scan_derived_relators,
    search_connector_elimination,
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
        assert str(result[0][1]) == "1"  # the residue a, written additively

    def test_everything_to_identity_is_valid(self):
        K = disc_group(3, (2, 4))
        c2 = CyclicGroup(2)
        trivial = FiniteHom.from_dict(
            K, c2, {name: identity(c2) for name in K.generator_names()}
        )
        assert not check_homomorphism(K, trivial)


class TestVerifyDerivedRelator:
    def substitution(self, K):
        sub = reidemeister_schreier(K, build_theta(K))
        return {g.name: g.word for g in sub.generators}

    def test_first_corner_power_matches_link_relator(self):
        K = disc_group(1, (2, 2, 2))
        (cert,) = verify_derived_relators(
            K, [Word.gen("c1", 2)], self.substitution(K)
        )
        assert cert.certified
        assert cert.status == "matches-relator"
        assert str(cert.matched) == "tau1*tau2*tau1*tau2"

    def test_consecutive_corner_power(self):
        K = disc_group(1, (2, 3, 2))
        word = (Word.gen("c1", -1) * Word.gen("c2")) ** 3
        (cert,) = verify_derived_relators(K, [word], self.substitution(K))
        assert cert.certified
        assert cert.status == "matches-relator"
        assert str(cert.matched) == "tau2*tau3*tau2*tau3*tau2*tau3"

    def test_even_gamma_alternation_is_trivial(self):
        K = disc_group(4, ())
        word = (
            Word.gen("delta1", -1)
            * Word.gen("delta2")
            * Word.gen("delta3", -1)
            * Word.gen("delta4")
            * Word.gen("e1", -1)
        )
        (cert,) = verify_derived_relators(K, [word], self.substitution(K))
        assert cert.certified
        assert cert.status == "trivial"

    def test_connector_pair_relation_uses_conjugation_relator(self):
        K = disc_group(2, (3,))
        word = Word.gen("e1") * Word.gen("e2", -1) * Word.gen("c1")
        (cert,) = verify_derived_relators(K, [word], self.substitution(K))
        assert cert.certified

    def test_first_relator_in_order_is_the_match(self):
        # R1, its inverse and a rotation of it: every word below matches
        # all three, and the match is R1, as in a scan in relator order
        p = Presentation(
            tuple((g, GLIDE) for g in "abc"),
            (parse_word("a b c"), parse_word("c^-1 b^-1 a^-1"), parse_word("b c a")),
        )
        words = [parse_word("c a b"), parse_word("a^-1 c^-1 b^-1"), parse_word("b c a")]
        certs = verify_derived_relators(p, words, {})
        assert [c.matched for c in certs] == [parse_word("a b c")] * 3
        assert certs == scan_derived_relators(p, words, {})

    def test_nontrivial_word_is_unresolved(self):
        K = disc_group(1, (2, 2, 2))
        (cert,) = verify_derived_relators(K, [Word.gen("c1")], self.substitution(K))
        assert not cert.certified
        assert cert.status == "unresolved"


def test_rotation_index_matches_linear_scan(derived_battery):
    """On every even-gamma battery shape, certifying by the least-rotation
    index gives the (status, matched) of the scan over every rotation of
    every relator: for the printed relators, their inverses, the
    conjugation identities tau1*g*tau1*g and one perturbed word, which
    stays unresolved."""
    statuses = set()
    for gamma, periods, K, _, derived in derived_battery:
        if gamma % 2:
            continue
        sub = derived.subgroup
        printed = [w for _, w in _printed_relator_words(sub, periods)]
        words = printed + [w.inverse() for w in printed]
        words += [
            Word((("tau1", 1), (g.name, 1)) * 2)
            for g in sub.generators if g.role in ("glide", "corner rotation")
        ]
        perturbed = printed[0] * Word.gen("delta1")
        words.append(perturbed)
        substitution = {g.name: g.word for g in sub.generators}
        fast = verify_derived_relators(K, words, substitution)
        scan = scan_derived_relators(K, words, substitution)
        assert [(c.status, c.matched) for c in fast] == [(c.status, c.matched) for c in scan]
        assert fast[-1].status == "unresolved"
        statuses.update(c.status for c in fast)
    assert statuses == {"trivial", "matches-relator", "unresolved"}


def test_rotation_index_matches_linear_scan_on_crosscap_groups(signature_battery):
    """The same comparison on the crosscap groups (gamma; -; [periods]) of
    every 8th battery shape, whose glide and elliptic generators of order
    above 2 are not involutions, so that a relator and its inverse differ
    as cyclic words and the inverse's rotations can only match through
    the inverse key."""
    by_inverse = 0
    for gamma, periods in signature_battery[::8]:
        delta = canonical_presentation(NECSignature(False, gamma, periods))
        words = []
        for rel in delta.relators:
            inverse = rel.inverse()
            words += [rel, inverse, Word(inverse.letters[1:] + inverse.letters[:1])]
        words.append(delta.relators[-1] * Word.gen("d1"))
        fast = verify_derived_relators(delta, words, {})
        scan = scan_derived_relators(delta, words, {})
        assert [(c.status, c.matched) for c in fast] == [(c.status, c.matched) for c in scan]
        assert fast[-1].status == "unresolved"
        by_inverse += sum(
            c.status == "matches-relator"
            and not cyclically_equal(c.source, c.matched, delta.involution_names())
            for c in fast
        )
    assert by_inverse > 0


def test_connector_elimination_matches_relator_search(signature_battery):
    assert len(signature_battery) == 1640
    for gamma, periods in signature_battery:
        K = disc_group(gamma, periods)
        assert connector_closed_form(K) == search_connector_elimination(K)


def test_duplicate_generator_names_rejected():
    with pytest.raises(ValueError):
        Presentation((("a", CONNECTOR), ("a", CONNECTOR)), ())
