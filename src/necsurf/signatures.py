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
from collections.abc import Iterable
from fractions import Fraction

from .words import Record


# ---------------------------------------------------------------------------
# Generator kinds
# ---------------------------------------------------------------------------

_KINDS = ("elliptic", "reflection", "glide", "connector")


class GeneratorKind(Record):
    """Geometric type of a canonical NEC generator.

    The kind fixes the orientation character: reflections and glide
    reflections reverse orientation (character -1), elliptic elements and
    boundary connectors preserve it (character +1).  Elliptic kinds carry
    their finite order.
    """

    __slots__ = ("kind", "order")

    def __init__(self, kind: str, order: int | None = None) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        if kind == "elliptic":
            if order is None or order < 2:
                raise ValueError("elliptic generators need an order >= 2")
        elif order is not None:
            raise ValueError(f"{kind} generators carry no order")
        self._assign(kind, order)

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

class NECSignature(Record):
    """Combinatorial signature of a cocompact NEC group.

    ``orientable`` is the sign (+ or -), ``genus`` the orbifold genus
    (number of handles or of cross-caps), ``proper_periods`` the interior
    cone orders and ``period_cycles`` one tuple of corner orders per
    boundary component.  An empty cycle is a boundary component without
    corner points and is distinct from having no cycle at all.
    """

    __slots__ = ("orientable", "genus", "proper_periods", "period_cycles")

    def __init__(
        self, orientable: bool, genus: int, proper_periods: Iterable[int] = (),
        period_cycles: Iterable[Iterable[int]] = (),
    ) -> None:
        proper_periods = tuple(proper_periods)
        period_cycles = tuple(tuple(c) for c in period_cycles)
        if genus < 0:
            raise ValueError("genus must be non-negative")
        if not orientable and genus < 1:
            raise ValueError("a non-orientable signature needs genus >= 1")
        for m in proper_periods:
            if m < 2:
                raise ValueError(f"proper period {m} < 2")
        for cycle in period_cycles:
            for n in cycle:
                if n < 2:
                    raise ValueError(f"link period {n} < 2")
        self._assign(orientable, genus, proper_periods, period_cycles)

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


def area_terms(sig: NECSignature) -> tuple[int, int]:
    """Reduced hyperbolic area mu/2pi of a fundamental region, unreduced,
    as (numerator, denominator).

    For signature (g; +/-; [m_i]; {C_1..C_k}) this is

        alpha*g + k - 2 + sum(1 - 1/m_i) + (1/2) * sum over cycle entries (1 - 1/n),

    with alpha = 2 for orientable, 1 for non-orientable signatures.  The
    value is negative or zero exactly for the spherical and euclidean
    signatures; positive reduced area characterises hyperbolic groups.
    Every term is summed as an integer over one common denominator,
    2*lcm of all the periods, once per distinct proper period.
    """
    alpha = 2 if sig.orientable else 1
    proper, corners = set(sig.proper_periods), [n for cycle in sig.period_cycles for n in cycle]
    lcm = math.lcm(*proper, *corners)
    numerator = 2 * lcm * (alpha * sig.genus + len(sig.period_cycles) - 2)
    numerator += sum(2 * (m - 1) * (lcm // m) * sig.proper_periods.count(m) for m in proper)
    numerator += sum((n - 1) * (lcm // n) for n in corners)
    return numerator, 2 * lcm


def reduced_area(sig: NECSignature) -> Fraction:
    """``area_terms(sig)``, reduced by one ``Fraction``."""
    return Fraction(*area_terms(sig))


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

