import ast
import inspect
import math
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, strategies as st

from necsurf import (
    CyclicGroup,
    FiniteHom,
    NECSignature,
    build_theta,
    canonical_presentation,
    check_homomorphism,
    derive_delta_hat,
    quotient_disc_signature,
    reduced_area,
    reidemeister_schreier,
    surface_kernel_genus,
)
from necsurf import kernels, pipeline
from necsurf.pipeline import _surface_kernel_problems
from necsurf.presentations import Presentation
from necsurf.signatures import elliptic
from necsurf.words import Word
from reference import (
    character_factors_through_image,
    free_reduce,
    kernel_signature_index2,
    substitute,
    termwise_area,
    termwise_kernel_genus,
    word_character,
)


def disc_group(gamma, periods):
    return canonical_presentation(quotient_disc_signature(gamma, periods))


def parity_kernel_report(K):
    """The signature report ``derive_delta_hat`` claims for K's parity
    kernel, checked against the oracle's reading of the same subgroup."""
    derived = derive_delta_hat(K, build_theta(K))
    assert kernel_signature_index2(derived.subgroup) == derived.report
    return derived.report


def crosscap_rho(gamma, periods, n, d_images, x_images):
    delta = canonical_presentation(NECSignature(False, gamma, periods))
    c = CyclicGroup(2 * n)
    images = {f"d{j}": v for j, v in enumerate(d_images, start=1)}
    images.update({f"x{i}": v for i, v in enumerate(x_images, start=1)})
    return delta, FiniteHom.from_dict(delta, c, images)


class TestKernelSignatureIndex2:
    def test_genus2_instance(self):
        K = disc_group(1, (2, 2, 2))
        report = parity_kernel_report(K)
        assert report.signature == NECSignature(False, 1, (2, 2, 2))

    def test_no_corner_points(self):
        K = disc_group(4, ())
        report = parity_kernel_report(K)
        assert report.signature == NECSignature(False, 4, ())
        # no boundary corner of K, so no corner rotation becomes a cone point
        assert K.signature.period_cycles == ((),)
        assert report.signature.proper_periods == ()

    def test_mixed_periods(self):
        K = disc_group(2, (3, 4))
        report = parity_kernel_report(K)
        assert report.signature == NECSignature(False, 2, (3, 4))

    def test_area_bookkeeping_is_exact(self):
        K = disc_group(2, (3, 4))
        report = parity_kernel_report(K)
        assert reduced_area(report.signature) == 2 * reduced_area(K.signature)
        assert reduced_area(K.signature) == Fraction(17, 24)

    def test_interior_involutions_disappear(self):
        K = disc_group(3, (2,))
        report = parity_kernel_report(K)
        # the three interior order-2 points have image order 2 and leave no
        # period: the one period 2 is the corner's
        assert report.signature.proper_periods == K.signature.period_cycles[0] == (2,)

    def test_interior_point_of_order_four_is_rejected(self):
        # (0; +; [4]; {(2, 2)}) written by hand: theta moves x1, whose
        # square would leave a cone point of order 2 in the kernel; only
        # involutions are accepted, so the input is rejected, naming x1
        base = disc_group(1, (2, 2))
        sig = NECSignature(True, 0, (4,), ((2, 2),))
        K = Presentation(
            (("x1", elliptic(4)),) + base.generators[1:],
            (Word.gen("x1", 4),) + base.relators[1:],
            signature=sig,
        )
        theta = build_theta(K)
        assert not check_homomorphism(K, theta)
        assert theta.image_of("x1") == 1
        with pytest.raises(ValueError, match="involution, unlike x1$") as rs:
            reidemeister_schreier(K, theta)
        with pytest.raises(ValueError) as derived:
            derive_delta_hat(K, theta)
        assert str(derived.value) == str(rs.value)

    def test_signature_metadata_disagreeing_with_generators_is_rejected(self):
        # K's signature says x1 has order 2, its generator kind says 4: the
        # involution check rejects K, naming x1
        base = disc_group(1, (2, 2, 2))
        K = replace(base, generators=(("x1", elliptic(4)),) + base.generators[1:])
        with pytest.raises(ValueError, match="involution, unlike x1$"):
            parity_kernel_report(K)
        # torsion words disagreeing with K's signature (x1^2 of order 2 as
        # one more cone point) leave a half-integral genus
        sub = reidemeister_schreier(base, build_theta(base))
        extra = (sub.rewrite(Word.gen("x1", 2)), 2)
        torsion = sub.presentation.torsion_words + (extra,)
        bad = replace(sub, presentation=replace(sub.presentation, torsion_words=torsion))
        with pytest.raises(ValueError, match="^non-integral genus 1/2 from area bookkeeping$"):
            kernel_signature_index2(bad)

    def test_pure_boundary_quotient_is_rejected(self):
        # no interior cone points: the character factors through C2 and
        # the kernel would be the orientable double, which the construction
        # never derives
        K = canonical_presentation(NECSignature(True, 0, (), ((3, 3),)))
        theta = build_theta(K)
        assert not check_homomorphism(K, theta)
        assert character_factors_through_image(K, theta)[0] is True
        with pytest.raises(ValueError, match="at least one interior cone point") as rs:
            reidemeister_schreier(K, theta)
        with pytest.raises(ValueError) as derived:
            derive_delta_hat(K, theta)
        assert str(derived.value) == str(rs.value)

    def test_orientability_matches_walk(self, derived_battery):
        # the oracle's signature of each battery kernel against the claimed
        # one, its orientability against the Cayley-graph walk, and the
        # torsion words against K's corners; for gamma <= 2, every other
        # choice of theta on the interior involutions (the connector image
        # follows from the long relator) is a homomorphism that
        # reidemeister_schreier rejects, naming the points it fixes
        c2 = CyclicGroup(2)
        kernels_checked = rejected = 0
        for gamma, _, K, theta, derived in derived_battery:
            sub = derived.subgroup
            report = kernel_signature_index2(sub)
            assert report.signature == derived.report.signature
            factors, _ = character_factors_through_image(K, theta)
            assert report.signature.orientable == factors is False

            taus = K.generators_of_kind("reflection")
            expected = [(Word.gen(a) * Word.gen(b), n)
                        for a, b, n in zip(taus, taus[1:], K.signature.period_cycles[0])]
            words = {g.name: g.word for g in sub.generators}
            torsion = [(free_reduce(substitute(w, words)), n)
                       for w, n in sub.presentation.torsion_words]
            assert torsion == expected
            assert report.signature.proper_periods == tuple(sorted(n for _, n in expected))
            kernels_checked += 1

            for xs in product((0, 1), repeat=gamma if gamma <= 2 else 0):
                if not all(xs):
                    images = dict(theta.images) | {
                        f"x{j}": v for j, v in enumerate(xs, start=1)
                    }
                    images["e"] = sum(xs) % 2
                    variant = FiniteHom.from_dict(K, c2, images)
                    assert not check_homomorphism(K, variant)
                    fixed = ", ".join(f"x{j}" for j, v in enumerate(xs, start=1) if not v)
                    with pytest.raises(ValueError, match=f"and interior point, and fixes {fixed}$"):
                        reidemeister_schreier(K, variant)
                    rejected += 1
        assert (kernels_checked, rejected) == (1640, 1308)


def test_kernels_reads_no_theta():
    """The kernel's signature is claimed, not read off theta: inside
    ``derive_delta_hat``, theta is only passed on to
    ``reidemeister_schreier``, which checks it, and ``kernels`` defines
    nothing but the benchmark's ``KernelSignatureReport``."""
    tree = ast.parse(inspect.getsource(pipeline))
    derive = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "derive_delta_hat"
    )
    calls = [node for node in ast.walk(derive) if isinstance(node, ast.Call)]
    passed = {id(arg) for call in calls for arg in call.args
              if isinstance(call.func, ast.Name) and call.func.id == "reidemeister_schreier"}
    uses = [node for node in ast.walk(derive) if isinstance(node, ast.Name) and node.id == "theta"]
    assert uses and all(id(node) in passed for node in uses)
    body = ast.parse(inspect.getsource(kernels)).body
    defined = {node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined == {"KernelSignatureReport"}


class TestSurfaceKernelCheck:
    """The surface-kernel conditions on rho that ``validate_action`` checks
    item by item, read off the primitives it uses."""

    def test_valid_genus2_epimorphism(self):
        delta, rho = crosscap_rho(1, (2, 2, 2), 2, (1,), (2, 2, 2))
        assert not check_homomorphism(delta, rho)
        assert rho.image_order() == 4 and rho.is_surjective()
        assert all(rho.target.element_order(rho.evaluate(w)) == n for w, n in delta.torsion_words)
        assert character_factors_through_image(delta, rho) == (True, None)
        assert _surface_kernel_problems(delta, rho, "rho") == []
        assert surface_kernel_genus(delta.signature, rho.image_order()) == 2

    def test_torsion_collapse_detected(self):
        delta, rho = crosscap_rho(1, (2, 2, 2), 2, (1,), (0, 2, 2))
        orders = [rho.target.element_order(rho.evaluate(w)) for w, _ in delta.torsion_words]
        assert orders == [1, 2, 2]
        assert "torsion collapse: x1 image 0 has order 1, declared 2" in (
            _surface_kernel_problems(delta, rho, "rho")
        )

    def test_even_glide_image_breaks_orientation(self):
        delta, rho = crosscap_rho(1, (2, 2, 2), 2, (2,), (2, 2, 2))
        factors, witness = character_factors_through_image(delta, rho)
        assert not factors
        assert word_character(delta, witness) == -1
        assert "orientation mismatch: glide image d1 -> 2 is even" in (
            _surface_kernel_problems(delta, rho, "rho")
        )

    def test_non_surjective_is_reported(self):
        # all images in the even subgroup of C4 cannot generate; with an
        # even glide image this is also not orientation-compatible
        delta, rho = crosscap_rho(1, (2, 2, 2), 2, (2,), (2, 2, 2))
        assert rho.image_order() == 2
        assert not rho.is_surjective()

    def test_character_factors_exactly_under_parity_rule(self):
        # for surjective rho onto C_2n the orientation character factors
        # through the image iff every glide image is odd and every
        # elliptic image even; period 3 keeps the x_i out of the
        # involution reduction, so each witness must evaluate to 1; the
        # surface-kernel check reports an orientation mismatch exactly when
        # the walk finds the character does not factor
        checked = 0
        for two_n in (2, 4, 6, 8):
            for gamma in (1, 2):
                for r in (0, 1, 2):
                    for images in product(range(two_n), repeat=gamma + r):
                        if math.gcd(two_n, *images) != 1:
                            continue
                        d, x = images[:gamma], images[gamma:]
                        delta, rho = crosscap_rho(gamma, (3,) * r, two_n // 2, d, x)
                        factors, witness = character_factors_through_image(delta, rho)
                        parity = all(v % 2 for v in d) and not any(v % 2 for v in x)
                        assert factors == parity
                        problems = _surface_kernel_problems(delta, rho, "rho")
                        mismatch = any(
                            p.startswith("orientation mismatch") for p in problems
                        )
                        assert mismatch == (not factors)
                        if not factors:
                            assert word_character(delta, witness) == -1
                            assert rho.evaluate(witness) == 0
                        checked += 1
        assert checked == 6864


@given(st.integers(1, 6), st.lists(st.integers(2, 1000), max_size=8))
def test_kernel_genus_matches_the_termwise_sum(gamma, periods):
    # the cone sum over one common denominator against one Fraction per
    # period; relators spell periods out, so they stay at most 1000
    base = quotient_disc_signature(gamma, tuple(periods))
    assume(termwise_area(base) > 0)
    K = canonical_presentation(base)
    derived = derive_delta_hat(K, build_theta(K))
    sig = derived.report.signature
    assert kernel_signature_index2(derived.subgroup).signature == sig
    assert sig.genus == termwise_kernel_genus(base, sig.proper_periods, sig.orientable)
    assert sorted(periods) == list(sig.proper_periods)
