from itertools import combinations_with_replacement

import pytest
from hypothesis import settings

from reference import identity, mul

from necsurf import (
    NECSignature,
    admissible_shapes,
    build_theta,
    canonical_presentation,
    derive_delta_hat,
    first_smooth_epimorphism,
    frames,
    presentations,
    quotient_disc_signature,
    reduced_area,
    shape_certificate,
)

settings.register_profile("repro", derandomize=True, max_examples=100)
settings.load_profile("repro")


def signature_battery_cases(max_gamma=5, max_r=4, max_period=8):
    """All hyperbolic (gamma; -; [periods]) with gamma <= 5, r <= 4 and
    period entries in 2..8."""
    cases = []
    for gamma in range(1, max_gamma + 1):
        for r in range(max_r + 1):
            for periods in combinations_with_replacement(range(2, max_period + 1), r):
                sig = NECSignature(False, gamma, periods)
                if reduced_area(sig) > 0:
                    cases.append((gamma, periods))
    return cases


def action_battery_data(max_gamma=5, max_r=4, max_order=12):
    """One valid action datum (the lexicographically first epimorphism)
    per admissible (gamma, periods, n) with 2n <= max_order."""
    data = []
    for gamma, periods, order in admissible_shapes(max_gamma, max_r, max_order):
        datum = first_smooth_epimorphism(gamma, periods, order)
        if datum is not None:
            data.append(datum)
    return data


def generated_subgroup(group, elements):
    """Brute-force closure of {identity} under right multiplication by the
    given elements: the subgroup they generate.  This is the oracle for the
    gcd formula of ``subgroup_order``."""
    gens = list(elements)
    closure = {identity(group)}
    frontier = list(closure)
    while frontier:
        new = []
        for b in frontier:
            for a in gens:
                c = mul(group, b, a)
                if c not in closure:
                    closure.add(c)
                    new.append(c)
        frontier = new
    return frozenset(closure)


@pytest.fixture(autouse=True)
def cold_shape_memo():
    """Each test starts with both memos of the shape stage empty (the
    shapes, and the frames (gamma, r), each with all that is certified on
    it), so a test that patches a step of the shape stage sees that step
    run."""
    shape_certificate.cache_clear()
    presentations.certify_frame.cache_clear()


@pytest.fixture
def verified_words(monkeypatch):
    """How many words each call of ``verify_derived_relators`` from the
    frame's record builder (``frames.certified_frame``) certifies, in call
    order: one call per frame built, its corner units and its rows after
    its corners."""
    counts, verify = [], frames.verify_derived_relators
    monkeypatch.setattr(
        frames, "verify_derived_relators",
        lambda p, words, *rest: counts.append(len(words)) or verify(p, words, *rest))
    return counts


@pytest.fixture(scope="session")
def closure():
    return generated_subgroup


@pytest.fixture(scope="session")
def signature_battery():
    return signature_battery_cases()


@pytest.fixture(scope="session")
def derived_battery(signature_battery):
    """(gamma, periods, K, theta, derived kernel) for the whole battery;
    shared because Reidemeister-Schreier is the expensive step."""
    rows = []
    for gamma, periods in signature_battery:
        K = canonical_presentation(quotient_disc_signature(gamma, periods))
        theta = build_theta(K)
        rows.append((gamma, periods, K, theta, derive_delta_hat(K, theta)))
    return rows


@pytest.fixture(scope="session")
def action_battery():
    return action_battery_data()
