"""Signature of the one kernel the construction needs to derive.

That kernel is ker(theta), the index-2 subgroup of a single-boundary
disc-quotient group K for a map theta onto C_2 that moves every
reflection.  ``cosets.reidemeister_schreier`` checks theta and returns
the kernel with its Schreier generators, their orientation kinds and its
torsion words; each invariant of the signature is read off that subgroup
in closed form, without theta.  The kernel is reflection-free; its proper
periods are the orders of its torsion words; it is orientable exactly
when no Schreier generator reverses orientation, since they generate it;
and its genus follows from exact area bookkeeping.

The fully general subgroup-signature algorithm for arbitrary finite-index
NEC subgroups is out of scope on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cosets import SchreierSubgroup
from .signatures import NECSignature, reduced_area
from .words import Word


@dataclass(frozen=True)
class KernelSignatureReport:
    """The kernel's signature and, exactly when ``signature.orientable``
    is false, an orientation-reversing kernel element as witness."""

    signature: NECSignature
    witness: Word | None


def kernel_signature_index2(sub: SchreierSubgroup) -> KernelSignatureReport:
    """Signature of the index-2 kernel ``sub`` that ``reidemeister_schreier``
    returns.

    With the reflections gone the kernel has no boundary, and its proper
    periods are the orders of its torsion words.  It is orientable exactly
    when no Schreier generator has orientation character -1; the word in
    K of the first one that does is the witness.  The genus is
    (area + 2 - sum(1 - 1/m)) / alpha, where the area is twice K's and
    alpha = 2 for an orientable kernel and 1 otherwise, by exact area
    bookkeeping; the cone sum is summed over one common denominator, the
    lcm of the periods.
    """
    kinds = dict(sub.presentation.generators)
    witness = next((g.word for g in sub.generators if kinds[g.name].character == -1), None)
    orientable = witness is None
    periods = tuple(sorted(n for _, n in sub.presentation.torsion_words))

    lcm = math.lcm(*periods)
    cone_sum = Fraction(sum((m - 1) * (lcm // m) for m in periods), lcm)
    alpha = 2 if orientable else 1
    genus, remainder = divmod(2 * reduced_area(sub.base.signature) + 2 - cone_sum, alpha)
    if remainder:
        raise ValueError(f"non-integral genus {genus + remainder / alpha} from area bookkeeping")

    signature = NECSignature(
        orientable=orientable, genus=genus, proper_periods=periods, period_cycles=()
    )
    return KernelSignatureReport(signature=signature, witness=witness)
