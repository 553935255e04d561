"""Signature arithmetic for non-euclidean crystallographic (NEC) groups.

An NEC signature

    (g; +/-; [m_1, ..., m_r]; {(n_11, ..., n_1s), ..., (n_k1, ..., n_ks)})

records the topology of the quotient orbifold of a cocompact NEC group:
orientability and genus of the underlying surface, the orders of the
interior cone points (proper periods) and, for each boundary component,
the cyclic sequence of corner-point orders (a period cycle, possibly
empty).

All area computations are exact: the canonical quantity is the reduced
hyperbolic area mu/2pi, a `fractions.Fraction` whose terms are summed as
integers over one common denominator.  Index and genus
computations are therefore integer-exact identities, never floating
point approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


class NoSurfaceKernelError(ValueError):
    """No torsion-free surface kernel of the requested index exists."""


# ---------------------------------------------------------------------------
# Generator kinds
# ---------------------------------------------------------------------------

_KINDS = ("elliptic", "reflection", "glide", "connector")


@dataclass(frozen=True)
class GeneratorKind:
    """Geometric type of a canonical NEC generator.

    The kind fixes the orientation character: reflections and glide
    reflections reverse orientation (character -1), elliptic elements and
    boundary connectors preserve it (character +1).  Elliptic kinds carry
    their finite order.
    """

    kind: str
    order: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "elliptic":
            if self.order is None or self.order < 2:
                raise ValueError("elliptic generators need an order >= 2")
        elif self.order is not None:
            raise ValueError(f"{self.kind} generators carry no order")

    @property
    def character(self) -> int:
        """Orientation character: -1 for reversing kinds, +1 otherwise."""
        return -1 if self.kind in ("reflection", "glide") else 1

    @property
    def is_involution(self) -> bool:
        """True when the order relator is a square (g^2 = 1)."""
        return self.kind == "reflection" or (self.kind == "elliptic" and self.order == 2)


def elliptic(order: int) -> GeneratorKind:
    return GeneratorKind("elliptic", order)


REFLECTION = GeneratorKind("reflection")
GLIDE = GeneratorKind("glide")
CONNECTOR = GeneratorKind("connector")


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NECSignature:
    """Combinatorial signature of a cocompact NEC group.

    ``orientable`` is the sign (+ or -), ``genus`` the orbifold genus
    (number of handles or of cross-caps), ``proper_periods`` the interior
    cone orders and ``period_cycles`` one tuple of corner orders per
    boundary component.  An empty cycle is a boundary component without
    corner points and is distinct from having no cycle at all.
    """

    orientable: bool
    genus: int
    proper_periods: tuple[int, ...] = ()
    period_cycles: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "proper_periods", tuple(self.proper_periods))
        object.__setattr__(
            self, "period_cycles", tuple(tuple(c) for c in self.period_cycles)
        )
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if not self.orientable and self.genus < 1:
            raise ValueError("a non-orientable signature needs genus >= 1")
        for m in self.proper_periods:
            if m < 2:
                raise ValueError(f"proper period {m} < 2")
        for cycle in self.period_cycles:
            for n in cycle:
                if n < 2:
                    raise ValueError(f"link period {n} < 2")

    @property
    def sign(self) -> str:
        return "+" if self.orientable else "−"

    def display(self) -> str:
        periods = ",".join(str(m) for m in self.proper_periods)
        head = f"({self.genus};{self.sign};[{periods}]"
        if not self.period_cycles:
            return head + ")"
        cycles = ",".join(
            "(" + ",".join(str(n) for n in cycle) + ")" for cycle in self.period_cycles
        )
        return head + ";{" + cycles + "})"

    def __str__(self) -> str:
        return self.display()


def reduced_area(sig: NECSignature) -> Fraction:
    """Reduced hyperbolic area mu/2pi of a fundamental region.

    For signature (g; +/-; [m_i]; {C_1..C_k}) this is

        alpha*g + k - 2 + sum(1 - 1/m_i) + (1/2) * sum over cycle entries (1 - 1/n),

    with alpha = 2 for orientable, 1 for non-orientable signatures.  The
    value is negative or zero exactly for the spherical and euclidean
    signatures; positive reduced area characterises hyperbolic groups.
    Every term is summed as an integer over one common denominator,
    2*lcm of all the periods, and one ``Fraction`` reduces the total.
    """
    alpha = 2 if sig.orientable else 1
    corners = [n for cycle in sig.period_cycles for n in cycle]
    lcm = math.lcm(*sig.proper_periods, *corners)
    numerator = 2 * lcm * (alpha * sig.genus + len(sig.period_cycles) - 2)
    numerator += sum(2 * (m - 1) * (lcm // m) for m in sig.proper_periods)
    numerator += sum((n - 1) * (lcm // n) for n in corners)
    return Fraction(numerator, 2 * lcm)


def quotient_disc_signature(gamma: int, periods: Iterable[int]) -> NECSignature:
    """Signature of the disc-quotient group with gamma interior order-2
    cone points and the given corner orders on a single boundary cycle.

    This is the bordered mirror of the non-orientable signature
    (gamma; -; [periods]): it has exactly half its reduced area.
    ``NECSignature`` rejects a corner order below 2.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1 (the crosscap count of the quotient)")
    return NECSignature(
        orientable=True,
        genus=0,
        proper_periods=(2,) * gamma,
        period_cycles=(periods,),
    )


def surface_kernel_genus(sig: NECSignature, index: int) -> int:
    """Genus of a torsion-free orientable surface kernel of given index.

    Solves 2g - 2 = index * reduced_area(sig) and insists the right-hand
    side is a positive even integer; otherwise no surface kernel of this
    index exists.
    """
    area = reduced_area(sig)
    if area <= 0:
        raise ValueError(f"signature {sig} is not hyperbolic (reduced area {area})")
    doubled = index * area
    if doubled.denominator != 1 or doubled.numerator % 2 != 0:
        raise NoSurfaceKernelError(
            f"no surface kernel of index {index} exists for {sig}: "
            f"2g-2 = {doubled} is not a positive even integer"
        )
    return doubled.numerator // 2 + 1

