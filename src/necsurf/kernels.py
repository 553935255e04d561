"""Signature of the one kernel the construction needs to derive.

That kernel is the index-2 kernel of a map theta to C_2 that kills every
reflection of a single-boundary disc-quotient group, and each of its
invariants has a closed form: it is reflection-free, an elliptic
generator of order m with theta-image of order o gives 2/o cone points of
order m/o, each boundary corner becomes one interior cone point of its
full order, it is orientable exactly when the orientation character is
-1 on precisely the generators theta moves, and its genus follows from
exact area bookkeeping.  Everything is read off theta's generator images;
no coset table is built.  The kernel's cosets are represented by 1 and
tau_1, so an orientation-reversing witness is a generator g with
theta(g) = 1 or the product tau_1*g.  (The presentation is derived over
the same coset representatives in ``cosets``; surface-kernel conditions
on rho and eta are checked item by item in ``pipeline``.)

The fully general subgroup-signature algorithm for arbitrary finite-index
NEC subgroups is out of scope on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groups import FiniteHom
from .presentations import Presentation, orientation_character
from .signatures import NECSignature, reduced_area
from .words import Word


@dataclass(frozen=True)
class KernelSignatureReport:
    """The kernel's signature and, exactly when ``signature.orientable``
    is false, an orientation-reversing kernel element as witness."""

    signature: NECSignature
    witness: Word | None


def kernel_signature_index2(p: Presentation, theta: FiniteHom) -> KernelSignatureReport:
    """Signature of the index-2 kernel of ``theta`` when every reflection
    of the disc-quotient group ``p`` maps to the non-trivial element.

    With the reflections gone the kernel has no boundary; its proper
    periods come from the interior elliptics (an order-m generator whose
    image has order o gives 2/o periods m/o, omitted when m/o = 1) and
    from the corner rotations, one full period per boundary corner.  The
    orientation character factors through C_2 exactly when it is -1 on
    precisely the generators with non-trivial image, since the reflections
    already fix the non-trivial factor.  At the first generator g where
    that fails, g (if theta(g) = 1) or tau_1*g (otherwise) is an
    orientation-reversing kernel element, the witness.  The genus is
    (area + 2 - sum(1 - 1/m)) / alpha, with alpha = 2 for an orientable
    kernel and 1 otherwise, by exact area bookkeeping.
    """
    if p.signature is None:
        raise ValueError("presentation carries no signature metadata")
    if len(p.signature.period_cycles) != 1:
        raise ValueError("only single-boundary disc quotients are supported")
    index = theta.image_order()
    if index != 2:
        raise ValueError(f"kernel has index {index}, expected 2")
    reflections = p.generators_of_kind("reflection")
    for tau in reflections:
        if theta.image_of(tau).is_identity():
            raise ValueError(f"reflection {tau} maps to the identity and survives")

    kernel_area = 2 * reduced_area(p.signature)

    periods = list(p.signature.period_cycles[0])
    for name, kind in p.generators:
        if kind.kind == "elliptic":
            image_order = theta.image_of(name).order()
            period = kind.order // image_order
            if period > 1:
                periods.extend([period] * (2 // image_order))

    chars = orientation_character(p)
    witness = None
    for name, _ in p.generators:
        moved = not theta.image_of(name).is_identity()
        if (chars[name] == -1) != moved:
            witness = Word.gen(name)
            if moved:
                witness = Word.gen(reflections[0]) * witness
            break
    orientable = witness is None

    cone_sum = sum(Fraction(m - 1, m) for m in periods)
    alpha = 2 if orientable else 1
    genus, remainder = divmod(kernel_area + 2 - cone_sum, alpha)
    if remainder:
        raise ValueError(f"non-integral genus {genus + remainder / alpha} from area bookkeeping")

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
    return KernelSignatureReport(signature=signature, witness=witness)
