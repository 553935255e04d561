"""Signature of the one kernel the construction needs to derive.

That kernel is the index-2 kernel of a map to C_2 that kills every
reflection of a disc-quotient group: it is reflection-free, its corner
points become interior cone points, its orientability is decided by
whether the orientation character factors through the image, and its
genus follows from exact area bookkeeping.  (Surface-kernel conditions
on rho are checked item by item in ``pipeline.validate_action``.)

The fully general subgroup-signature algorithm for arbitrary finite-index
NEC subgroups is out of scope on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cosets import CosetTable
from .groups import FiniteHom
from .presentations import Presentation, orientation_character
from .signatures import NECSignature, reduced_area
from .words import Word, reduce_mod_involutions


@dataclass(frozen=True)
class EllipticOrbit:
    """Orbit data for one interior elliptic generator under the coset
    action of its image: each orbit contributes one period order/image_order
    (dropped when that ratio is 1)."""

    generator: str
    order: int
    image_order: int
    orbit_count: int
    period: int | None


@dataclass(frozen=True)
class LinkContribution:
    """A boundary corner point between two consecutive reflections whose
    reflections both die: the corner rotation survives in the kernel with
    its full order and becomes one interior cone point."""

    left: str
    right: str
    period: int


@dataclass(frozen=True)
class KernelSignatureReport:
    signature: NECSignature
    base_signature: NECSignature
    index: int
    elliptic_orbits: tuple[EllipticOrbit, ...]
    link_contributions: tuple[LinkContribution, ...]
    orientable: bool
    witness: Word | None  # orientation-reversing kernel element, if any
    base_area: Fraction
    kernel_area: Fraction


def _character_factors_through_image(
    p: Presentation, hom: FiniteHom
) -> tuple[bool, Word | None]:
    """Try to define a consistent orientation character on the image.

    Walk the Cayley graph of the image, pushing the character of each
    generator along its edge and keeping one parent edge per element.  A
    sign conflict proves the character does not factor; the two colliding
    tree paths combine into an explicit orientation-reversing kernel word
    (the witness).
    """
    chars = orientation_character(p)
    images = hom.image_dict()
    identity = hom.target.identity()
    signs = {identity: 1}
    parent: dict = {identity: None}  # element -> (previous element, generator)
    frontier = [identity]

    def path(elem) -> Word:
        letters = []
        while parent[elem] is not None:
            elem, name = parent[elem]
            letters.append((name, 1))
        return Word(tuple(reversed(letters)))

    while frontier:
        new = []
        for elem in frontier:
            for name, _ in p.generators:
                nxt = elem * images[name]
                sign = signs[elem] * chars[name]
                if nxt not in signs:
                    signs[nxt] = sign
                    parent[nxt] = (elem, name)
                    new.append(nxt)
                elif signs[nxt] != sign:
                    conflict = path(elem) * Word.gen(name)
                    witness = conflict * path(nxt).inverse()
                    witness = reduce_mod_involutions(witness, p.involution_names())
                    return False, witness
        frontier = new
    return True, None


def kernel_signature_index2(p: Presentation, table: CosetTable) -> KernelSignatureReport:
    """Signature of the index-2 kernel of the map theta = ``table.hom``,
    read from its coset table, when every reflection of the disc-quotient
    group ``p`` maps to the non-trivial element.

    With the reflections gone the kernel has no boundary; its proper
    periods come from surviving interior elliptics (one period m/o per
    coset orbit, omitting trivial ones) and from the corner rotations,
    one full period per boundary corner.  Orientability is decided by
    whether the orientation character factors through the image, and the
    genus by exact area bookkeeping.
    """
    if p.signature is None:
        raise ValueError("presentation carries no signature metadata")
    if len(p.signature.period_cycles) > 1:
        raise ValueError("only single-boundary disc quotients are supported")
    theta = table.hom
    if table.index != 2:
        raise ValueError(f"kernel has index {table.index}, expected 2")
    reflections = p.generators_of_kind("reflection")
    images = theta.image_dict()
    for tau in reflections:
        if images[tau].is_identity():
            raise ValueError(f"reflection {tau} maps to the identity and survives")

    base_area = reduced_area(p.signature)
    kernel_area = 2 * base_area

    orbits: list[EllipticOrbit] = []
    periods: list[int] = []
    for name, kind in p.generators:
        if kind.kind != "elliptic":
            continue
        order = kind.order
        image_order = images[name].order()
        perm = table.forward[name]
        seen = [False] * len(perm)
        orbit_count = 0
        for start in range(len(perm)):
            if not seen[start]:
                orbit_count += 1
                i = start
                while not seen[i]:
                    seen[i] = True
                    i = perm[i]
        period = order // image_order
        orbits.append(
            EllipticOrbit(
                name, order, image_order, orbit_count, period if period > 1 else None
            )
        )
        if period > 1:
            periods.extend([period] * orbit_count)

    links: list[LinkContribution] = []
    if p.signature.period_cycles:
        cycle = p.signature.period_cycles[0]
        for k, n in enumerate(cycle):
            left, right = reflections[k], reflections[k + 1]
            links.append(LinkContribution(left, right, n))
            periods.append(n)

    factors, witness = _character_factors_through_image(p, theta)
    orientable = factors

    cone_sum = sum(Fraction(m - 1, m) for m in periods)
    if orientable:
        genus2 = kernel_area + 2 - cone_sum
        if genus2.denominator != 1 or genus2.numerator % 2 != 0 or genus2 < 0:
            raise ValueError(
                f"area bookkeeping gives non-integral orientable genus {genus2}/2"
            )
        genus = genus2.numerator // 2
    else:
        genus_exact = kernel_area + 2 - cone_sum
        if genus_exact.denominator != 1 or genus_exact < 1:
            raise ValueError(
                f"area bookkeeping gives non-integral genus {genus_exact}"
            )
        genus = genus_exact.numerator

    signature = NECSignature(
        orientable=orientable,
        genus=genus,
        proper_periods=tuple(sorted(periods)),
        period_cycles=(),
    )
    if reduced_area(signature) != kernel_area:
        raise ValueError(
            f"derived signature {signature} has area {reduced_area(signature)},"
            f" expected {kernel_area}"
        )
    return KernelSignatureReport(
        signature=signature,
        base_signature=p.signature,
        index=2,
        elliptic_orbits=tuple(orbits),
        link_contributions=tuple(links),
        orientable=orientable,
        witness=witness,
        base_area=base_area,
        kernel_area=kernel_area,
    )
