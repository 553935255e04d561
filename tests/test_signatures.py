from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from necsurf import (
    NECSignature,
    NoSurfaceKernelError,
    elliptic,
    GeneratorKind,
    quotient_disc_signature,
    reduced_area,
    surface_kernel_genus,
)
from reference import termwise_area


def crosscap(gamma, periods=()):
    return NECSignature(False, gamma, tuple(periods))


def oracle_cover_genus(gamma, periods, group_order):
    # Euler characteristic of the cover by direct preimage counting: the
    # punctured quotient contributes |G| * ((2 - gamma) - r) and each cone
    # point lifts to |G|/n points.
    chi = group_order * ((2 - gamma) - len(periods)) + sum(
        group_order // n for n in periods
    )
    assert chi % 2 == 0
    return (2 - chi) // 2


class TestReducedArea:
    def test_klein_bottle_is_flat(self):
        assert reduced_area(crosscap(2)) == 0

    def test_three_involution_points(self):
        assert reduced_area(crosscap(1, (2, 2, 2))) == Fraction(1, 2)

    def test_disc_quotient_is_half_of_that(self):
        sig = NECSignature(True, 0, (2,), ((2, 2, 2),))
        assert reduced_area(sig) == Fraction(1, 4)

    def test_orientable_uses_doubled_genus(self):
        assert reduced_area(NECSignature(True, 2)) == 2


class TestQuotientDiscSignature:
    def test_three_corner_points(self):
        sig = quotient_disc_signature(1, (2, 2, 2))
        assert sig == NECSignature(True, 0, (2,), ((2, 2, 2),))

    def test_no_corner_points_keeps_empty_cycle(self):
        sig = quotient_disc_signature(4, ())
        assert sig.period_cycles == ((),)
        assert sig.proper_periods == (2, 2, 2, 2)

    def test_direct_substitution(self):
        sig = quotient_disc_signature(2, (3, 6))
        assert sig == NECSignature(True, 0, (2, 2), ((3, 6),))

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError):
            quotient_disc_signature(0, (2, 2))

    def test_corner_order_below_two_rejected(self):
        # NECSignature owns the check
        with pytest.raises(ValueError, match="link period 1 < 2"):
            quotient_disc_signature(2, (3, 1))


class TestSurfaceKernelGenus:
    def test_genus_two_action(self):
        assert surface_kernel_genus(crosscap(1, (2, 2, 2)), 4) == 2
        assert oracle_cover_genus(1, (2, 2, 2), 4) == 2

    def test_genus_five_action(self):
        assert surface_kernel_genus(crosscap(4), 4) == 5
        assert oracle_cover_genus(4, (), 4) == 5

    def test_odd_doubled_genus_rejected(self):
        # area 1/4, so 2g-2 = 1
        with pytest.raises(NoSurfaceKernelError, match="not a positive even"):
            surface_kernel_genus(crosscap(1, (2, 4)), 4)

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(ValueError, match="not hyperbolic"):
            surface_kernel_genus(crosscap(2), 4)

    def test_oracle_agreement_on_small_range(self):
        for gamma in range(1, 5):
            for periods in [(), (2, 2), (2, 2, 2), (3, 3), (2, 4, 4)]:
                sig = crosscap(gamma, periods)
                if reduced_area(sig) <= 0:
                    continue
                for order in (4, 8, 12):
                    try:
                        got = surface_kernel_genus(sig, order)
                    except NoSurfaceKernelError:
                        continue
                    assert got == oracle_cover_genus(gamma, periods, order)
                    assert got >= 2


def test_doubling_identity_exhaustive():
    # disc quotient has exactly half the area of its crosscap double,
    # across the whole small-parameter range
    for gamma in range(1, 9):
        for r in range(6):
            for periods in combinations_with_replacement(range(2, 13), r):
                disc = quotient_disc_signature(gamma, periods)
                double = crosscap(gamma, periods)
                assert 2 * reduced_area(disc) == reduced_area(double)


class TestSignatureValidation:
    def test_non_orientable_needs_genus(self):
        with pytest.raises(ValueError):
            NECSignature(False, 0)

    def test_period_below_two_rejected(self):
        with pytest.raises(ValueError):
            NECSignature(False, 1, (1,))
        with pytest.raises(ValueError):
            NECSignature(True, 0, (), ((1,),))

    def test_orientable_genus_zero_with_cycle_allowed(self):
        NECSignature(True, 0, (), ((2, 2),))

    def test_display(self):
        assert crosscap(1, (2, 2, 2)).display() == "(1;−;[2,2,2])"
        assert (
            NECSignature(True, 0, (2,), ((2, 2, 2),)).display()
            == "(0;+;[2];{(2,2,2)})"
        )
        assert crosscap(4).display() == "(4;−;[])"
        assert quotient_disc_signature(2, ()).display() == "(0;+;[2,2];{()})"


class TestGeneratorKind:
    def test_characters(self):
        assert GeneratorKind("reflection").character == -1
        assert GeneratorKind("glide").character == -1
        assert elliptic(3).character == 1
        assert GeneratorKind("connector").character == 1

    def test_elliptic_needs_order(self):
        with pytest.raises(ValueError):
            GeneratorKind("elliptic")
        with pytest.raises(ValueError):
            GeneratorKind("reflection", order=2)

    def test_involutions(self):
        assert GeneratorKind("reflection").is_involution
        assert elliptic(2).is_involution
        assert not elliptic(3).is_involution
        assert not GeneratorKind("glide").is_involution


@given(
    gamma=st.integers(1, 6),
    periods=st.lists(st.integers(2, 10), max_size=4),
    index=st.integers(1, 10),
)
def test_genus_when_defined_matches_area(gamma, periods, index):
    sig = crosscap(gamma, tuple(periods))
    if reduced_area(sig) <= 0:
        return
    try:
        g = surface_kernel_genus(sig, 2 * index)
    except NoSurfaceKernelError:
        return
    assert Fraction(2 * g - 2) == 2 * index * reduced_area(sig)
    assert g >= 2


PERIODS = st.integers(2, 10**6)


@st.composite
def signatures(draw):
    """Either orientation, genus 0-6, up to 8 proper periods and up to 3
    period cycles, empty ones included, with periods up to 10^6."""
    orientable = draw(st.booleans())
    return NECSignature(
        orientable,
        draw(st.integers(0 if orientable else 1, 6)),
        tuple(draw(st.lists(PERIODS, max_size=8))),
        tuple(map(tuple, draw(st.lists(st.lists(PERIODS, max_size=4), max_size=3)))),
    )


@given(signatures(), st.integers(1, 12))
def test_areas_match_the_termwise_sum(sig, multiple):
    # the common-denominator sum against one Fraction per term, and the
    # genus read off it; multiple * denominator makes the doubled area
    # integral, so both genus outcomes are reached
    area = termwise_area(sig)
    assert reduced_area(sig) == area
    for index in (multiple, multiple * area.denominator):
        doubled = index * area
        if area <= 0:
            with pytest.raises(ValueError, match="is not hyperbolic"):
                surface_kernel_genus(sig, index)
        elif doubled.denominator == 1 and doubled.numerator % 2 == 0:
            assert surface_kernel_genus(sig, index) == doubled.numerator // 2 + 1
        else:
            with pytest.raises(NoSurfaceKernelError):
                surface_kernel_genus(sig, index)
