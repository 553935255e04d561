"""Output oracles of the benchmark, written from the mathematics alone.

Nothing here imports necsurf: each check recomputes what a certificate or
an enumeration must say from (gamma, periods, 2n, rho) and returns a list
of problems, empty when the output is right.  Orbifold areas are exact
``Fraction`` values in units of 2*pi.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import pairwise, product
from math import gcd, prod

NON_ORIENTABLE_SIGNS = ("-", "−")


def element_order(value: int, order: int) -> int:
    """Order of ``value`` in the cyclic group of the given order."""
    return order // gcd(value, order)


def exact_order_residues(period: int, order: int) -> list[int]:
    """Residues mod ``order`` whose element order is exactly ``period``."""
    return [t for t in range(order) if element_order(t, order) == period]


def reduced_area(gamma: int, periods: tuple[int, ...]) -> Fraction:
    """Reduced area of the NEC signature (gamma; -; [periods])."""
    return gamma - 2 + sum((1 - Fraction(1, p) for p in periods), Fraction(0))


def riemann_hurwitz_genus(gamma: int, periods: tuple[int, ...], order: int) -> int:
    """Genus g of a surface kernel of index ``order``: 2g - 2 = order * area."""
    doubled = order * reduced_area(gamma, periods)
    if doubled <= 0 or doubled.denominator != 1 or doubled.numerator % 2:
        raise ValueError(f"no surface kernel of index {order} for ({gamma};-;{list(periods)})")
    return doubled.numerator // 2 + 1


def epimorphism_problems(gamma, periods, order, d, x) -> list[str]:
    """Why (d, x) is not a surface-kernel epimorphism of (gamma; -; [periods])
    onto C_order: glide images odd, elliptic images of exact order, the
    long relator x_1..x_r d_1^2..d_gamma^2 trivial, and the images generate."""
    problems = []
    if len(d) != gamma or len(x) != len(periods):
        return [f"expected {gamma} glide and {len(periods)} elliptic images"]
    if any(not 0 <= v < order for v in (*d, *x)):
        problems.append(f"images {list(d)}, {list(x)} are not residues mod {order}")
    if any(v % 2 == 0 for v in d):
        problems.append(f"glide images {list(d)} are not all odd")
    for k, (t, p) in enumerate(zip(x, periods), start=1):
        if element_order(t, order) != p:
            problems.append(f"x{k} -> {t} has order {element_order(t, order)}, not {p}")
    if (2 * sum(d) + sum(x)) % order:
        problems.append(f"long relator maps to {(2 * sum(d) + sum(x)) % order}")
    if gcd(order, *d, *x) != 1:
        problems.append("images do not generate C_" + str(order))
    return problems


def candidate_space(gamma: int, periods: tuple[int, ...], order: int) -> int:
    """Tuples walked by an exhaustive search over odd glide images and
    exact-order elliptic images."""
    return (order // 2) ** gamma * prod(len(exact_order_residues(p, order)) for p in periods)


def brute_force_count(gamma: int, periods: tuple[int, ...], order: int) -> int:
    """Epimorphisms counted over every residue tuple, with no pruning."""
    return sum(
        not epimorphism_problems(gamma, periods, order, tup[:gamma], tup[gamma:])
        for tup in product(range(order), repeat=gamma + len(periods))
    )


def residue_count(gamma: int, periods: tuple[int, ...], order: int) -> int:
    """Epimorphisms counted by dynamic programming over (relator sum mod
    order, gcd of the images so far); polynomial in gamma, r and order."""
    states = {(0, order): 1}
    letters = [[(2 * v, v) for v in range(1, order, 2)]] * gamma
    letters += [[(t, t) for t in exact_order_residues(p, order)] for p in periods]
    for choices in letters:
        nxt: dict[tuple[int, int], int] = {}
        for (total, g), ways in states.items():
            for step, value in choices:
                key = ((total + step) % order, gcd(g, value))
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return states.get((0, 1), 0)


def infeasible_by_parity(gamma: int, periods: tuple[int, ...], order: int) -> bool:
    """Odd gamma with no periods has no epimorphism: the long relator needs
    sum(d) = 0 mod n with n even, but a sum of gamma odd residues is odd."""
    return not periods and gamma % 2 == 1 and (order // 2) % 2 == 0


def signature_problems(gamma, periods, sign, genus, proper_periods, period_cycles) -> list[str]:
    """The derived kernel must have signature (gamma; -; [sorted periods])."""
    got = (sign in NON_ORIENTABLE_SIGNS, genus, list(proper_periods), list(period_cycles))
    want = (True, gamma, sorted(periods), [])
    if got != want:
        return [f"delta-hat signature {sign}{genus} {list(proper_periods)} "
                f"{list(period_cycles)} is not ({gamma};-;{sorted(periods)})"]
    return []


def certificate_problems(gamma, periods, order, d, x, cert: dict) -> list[str]:
    """Check a realization certificate, flattened to a dict with keys
    rho, genus, delta_hat (sign, genus, proper_periods, period_cycles),
    image_order, kernel_index, unit, torsion_images and conclusion."""
    problems = []
    if cert["rho"] != (list(d), list(x)):
        problems.append(f"certificate rho {cert['rho']} is not the input ({list(d)}, {list(x)})")
    genus = riemann_hurwitz_genus(gamma, periods, order)
    if cert["genus"] != genus:
        problems.append(f"genus {cert['genus']} differs from Riemann-Hurwitz genus {genus}")
    problems += signature_problems(gamma, periods, *cert["delta_hat"])
    for key in ("image_order", "kernel_index"):
        if cert[key] != 2 * order:
            problems.append(f"Theta {key} {cert[key]} is not 4n = {2 * order}")
    unit, images = cert["unit"], list(cert["torsion_images"])
    if gcd(unit, order) != 1:
        problems.append(f"eta unit {unit} is not a unit mod {order}")
    if sorted(images) != sorted(unit * t % order for t in x):
        problems.append(f"eta torsion images {images} are not {unit} * {list(x)} mod {order}")
    if [element_order(t, order) for t in images] != list(periods):
        problems.append(f"eta torsion images {images} do not have orders {list(periods)}")
    if cert["conclusion"] is not True:
        problems.append("conclusion is not True")
    return problems


def enumeration_problems(gamma, periods, order, tuples, expected_count: int) -> list[str]:
    """An enumeration lists each epimorphism once, in lexicographic order,
    and as many as the independent count says."""
    problems = []
    if len(tuples) != expected_count:
        problems.append(f"enumerated {len(tuples)} epimorphisms, expected {expected_count}")
    if any(a >= b for a, b in pairwise(tuples)):
        problems.append("enumeration is not strictly increasing")
    for d, x in tuples:
        bad = epimorphism_problems(gamma, periods, order, d, x)
        if bad:
            problems.append(f"enumerated ({list(d)}, {list(x)}): {bad[0]}")
            break
    return problems
