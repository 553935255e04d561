"""Signature of the one kernel the construction needs to derive.

That kernel is ker(theta), the index-2 subgroup of a single-boundary
disc-quotient group K for its parity map theta onto C_2, which moves
every reflection and every interior point.
``cosets.reidemeister_schreier`` checks theta and returns the kernel with
its Schreier generators, their orientation kinds and its torsion words;
each invariant of the signature is read off that subgroup in closed
form, without theta.  The kernel is reflection-free; its proper periods
are the orders of its torsion words; it is orientable exactly when no
Schreier generator reverses orientation, since they generate it; and its
genus follows from exact area bookkeeping.

The fully general subgroup-signature algorithm for arbitrary finite-index
NEC subgroups is out of scope on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cosets import SchreierSubgroup
from .signatures import NECSignature, reduced_area


@dataclass(frozen=True)
class KernelSignatureReport:
    """The kernel's signature."""

    signature: NECSignature


def kernel_signature_index2(sub: SchreierSubgroup) -> KernelSignatureReport:
    """Signature of the index-2 kernel ``sub`` that ``reidemeister_schreier``
    returns.

    With the reflections gone the kernel has no boundary, and its proper
    periods are the orders of its torsion words.  It is orientable exactly
    when no Schreier generator has orientation character -1.  The genus is
    (area - cone) / alpha, where the area is twice K's, cone is the reduced
    area -2 + sum(1 - 1/m) of the sphere with the kernel's cone points,
    and alpha = 2 for an orientable kernel and 1 otherwise, by exact area
    bookkeeping.
    """
    orientable = all(kind.character == 1 for _, kind in sub.presentation.generators)
    periods = tuple(sorted(n for _, n in sub.presentation.torsion_words))

    alpha = 2 if orientable else 1
    cone = reduced_area(NECSignature(True, 0, periods))
    genus, remainder = divmod(2 * reduced_area(sub.base.signature) - cone, alpha)
    if remainder:
        raise ValueError(f"non-integral genus {genus + remainder / alpha} from area bookkeeping")

    signature = NECSignature(
        orientable=orientable, genus=genus, proper_periods=periods, period_cycles=()
    )
    return KernelSignatureReport(signature=signature)
