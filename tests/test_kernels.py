import math
from fractions import Fraction
from itertools import product

import pytest

from necsurf import (
    CyclicGroup,
    FiniteHom,
    NECSignature,
    build_theta,
    canonical_presentation,
    check_homomorphism,
    kernel_signature_index2,
    quotient_disc_signature,
    reduced_area,
    surface_kernel_genus,
    word_character,
)
from necsurf.pipeline import _surface_kernel_problems
from reference import character_factors_through_image


def disc_group(gamma, periods):
    return canonical_presentation(quotient_disc_signature(gamma, periods))


def parity_kernel_report(K):
    return kernel_signature_index2(K, build_theta(K))


def crosscap_rho(gamma, periods, n, d_images, x_images):
    delta = canonical_presentation(NECSignature(False, gamma, periods))
    c = CyclicGroup(2 * n)
    images = {f"d{j}": c.element(v) for j, v in enumerate(d_images, start=1)}
    images.update({f"x{i}": c.element(v) for i, v in enumerate(x_images, start=1)})
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

    def test_witness_is_reversing_kernel_element(self):
        K = disc_group(1, (2, 2, 2))
        theta = build_theta(K)
        report = kernel_signature_index2(K, theta)
        assert str(report.witness) == "tau1*x1"
        assert word_character(K, report.witness) == -1
        assert theta.evaluate(report.witness).is_identity()

    def test_surviving_reflection_rejected(self):
        K = disc_group(2, (2,))
        c2 = CyclicGroup(2)
        images = {name: c2.element(1) for name in K.generator_names()}
        images["e"] = c2.element(0)
        images["tau2"] = c2.element(0)  # tau2 would survive in the kernel
        bad = FiniteHom.from_dict(K, c2, images)
        with pytest.raises(ValueError, match="tau2"):
            kernel_signature_index2(K, bad)

    def test_orientable_double_of_pure_boundary_quotient(self):
        # no interior cone points: the character factors through C2 and
        # the kernel is the orientable double
        K = canonical_presentation(NECSignature(True, 0, (), ((3, 3),)))
        theta = build_theta(K)
        assert not check_homomorphism(K, theta)
        report = kernel_signature_index2(K, theta)
        assert report.signature.orientable
        assert report.witness is None
        assert report.signature == NECSignature(True, 0, (3, 3))

    def test_orientability_matches_walk(self, derived_battery):
        # the closed-form orientability and witness against the Cayley-graph
        # walk: on every battery kernel, on the gamma=0 orientable double
        # and, for gamma <= 2, on every other choice of theta on the interior
        # involutions (the connector image follows from the long relator)
        c2 = CyclicGroup(2)
        double = canonical_presentation(NECSignature(True, 0, (), ((3, 3),)))
        cases = [(double, build_theta(double))]
        for gamma, _, K, theta, _ in derived_battery:
            cases.append((K, theta))
            for xs in product((0, 1), repeat=gamma if gamma <= 2 else 0):
                if not all(xs):
                    images = dict(theta.images) | {
                        f"x{j}": c2.element(v) for j, v in enumerate(xs, start=1)
                    }
                    images["e"] = c2.element(sum(xs))
                    cases.append((K, FiniteHom.from_dict(K, c2, images)))
        orientable = 0
        for K, theta in cases:
            assert not check_homomorphism(K, theta)
            report = kernel_signature_index2(K, theta)
            factors, _ = character_factors_through_image(K, theta)
            assert report.signature.orientable == factors
            if report.witness is not None:
                assert theta.evaluate(report.witness).is_identity()
                assert word_character(K, report.witness) == -1
            orientable += report.signature.orientable
        assert (len(cases), orientable) == (2949, 651)


class TestSurfaceKernelCheck:
    """The surface-kernel conditions on rho that ``validate_action`` checks
    item by item, read off the primitives it uses."""

    def test_valid_genus2_epimorphism(self):
        delta, rho = crosscap_rho(1, (2, 2, 2), 2, (1,), (2, 2, 2))
        assert not check_homomorphism(delta, rho)
        assert rho.image_order() == 4 and rho.is_surjective()
        assert all(rho.evaluate(w).order() == n for w, n in delta.torsion_words)
        assert character_factors_through_image(delta, rho) == (True, None)
        assert _surface_kernel_problems(delta, rho, "rho") == []
        assert surface_kernel_genus(delta.signature, rho.image_order()) == 2

    def test_torsion_collapse_detected(self):
        delta, rho = crosscap_rho(1, (2, 2, 2), 2, (1,), (0, 2, 2))
        orders = [rho.evaluate(w).order() for w, _ in delta.torsion_words]
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
                            assert rho.evaluate(witness).is_identity()
                        checked += 1
        assert checked == 6864
