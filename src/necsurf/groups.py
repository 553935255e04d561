"""Concrete finite groups: cyclic and dihedral groups.

An element is its normal form, a plain value.  In C_m, written
additively, it is its residue, an ``int`` in ``range(m)``.  In D_m of
order 2m, with t*s*t = s^-1, the element t^eps * s^k is the pair
``(eps, k)`` with eps in {0, 1} and k in ``range(m)``; the product rule is

    (t^e1 s^k1) (t^e2 s^k2) = t^(e1+e2) s^(k2 + (-1)^e2 * k1).

Each group has an ``identity`` and prints an element with ``format``
(``3`` in C_m; ``1``, ``s^k``, ``t`` or ``t*s^k`` in D_m).  The order
of a generated subgroup is a gcd, never an enumeration: in C_m the
residues a_i generate a subgroup of order m / gcd(m, a_1, ...), and in
D_m the rotations s^r_i and reflections t*s^k_j generate one of order
(2 if any reflection, else 1) * m / gcd(m, r_i..., k_j - k_1...).

A homomorphism into a group is its images in its domain's generator
order, and a word is its letters over their indices in that order
(``frames.FrameCertificate.walk``).  A word is evaluated by the
target's ``normal_form``, one pass over the letters on plain integers (a residue sum in C_m, the product
rule above on (eps, k) in D_m), so relator checks
(``presentations.check_homomorphism``) compare the values it returns
with the target's ``identity``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .words import Record


# ---------------------------------------------------------------------------
# Cyclic groups C_m (additive residues)
# ---------------------------------------------------------------------------

class CyclicGroup(Record):
    __slots__ = ("modulus",)
    identity = 0

    def __init__(self, modulus: int) -> None:
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self._assign(modulus)

    @property
    def order(self) -> int:
        return self.modulus

    def format(self, x: int) -> str:
        return str(x)

    def element_order(self, x: int) -> int:
        return self.modulus // math.gcd(x, self.modulus)

    def normal_form(
        self, table: Sequence[int], letters: Iterable[tuple[int, int]]
    ) -> int:
        """The product of the letters' images, ``table`` giving each
        generator's residue at its index: the sum of +-residue, reduced
        once."""
        total = 0
        for g, e in letters:
            total += e * table[g]
        return total % self.modulus

    def subgroup_order(self, elements: Iterable[int]) -> int:
        """Order of the subgroup the elements generate: m / gcd(m, a_1, ...)."""
        return self.modulus // math.gcd(self.modulus, *elements)

    def __str__(self) -> str:
        return f"C{self.modulus}"


# ---------------------------------------------------------------------------
# Dihedral groups D_m of order 2m
# ---------------------------------------------------------------------------

class DihedralGroup(Record):
    __slots__ = ("modulus",)  # rotation order; |D_m| = 2m
    identity = (0, 0)

    def __init__(self, modulus: int) -> None:
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self._assign(modulus)

    @property
    def order(self) -> int:
        return 2 * self.modulus

    def reflection(self, k: int = 0) -> tuple[int, int]:
        """The reflection t*s^k, k reduced mod m."""
        return 1, k % self.modulus

    def format(self, x: tuple[int, int]) -> str:
        flip, rot = x
        if flip:
            return "t" if rot == 0 else f"t*s^{rot}"
        return "1" if rot == 0 else f"s^{rot}"

    def normal_form(
        self, table: Sequence[tuple[int, int]], letters: Iterable[tuple[int, int]]
    ) -> tuple[int, int]:
        """The product of the letters' images as an (eps, rot) pair,
        ``table`` giving each generator's image at its index, by the
        product rule: a reflection t*s^k, its own inverse, toggles eps
        and sets rot to k - rot whatever the letter's sign; a rotation s^k
        adds +-k to rot.  Reduced once, at the end."""
        flip = rot = 0
        for g, e in letters:
            img_flip, img_rot = table[g]
            if img_flip:
                flip ^= 1
                rot = img_rot - rot
            else:
                rot += e * img_rot
        return flip, rot % self.modulus

    def subgroup_order(self, elements: Iterable[tuple[int, int]]) -> int:
        """Order of the subgroup the elements generate.  Its rotations are
        generated by the given rotations and the differences k_j - k_1 of
        the reflections t*s^k_j; any reflection doubles the order."""
        elements = list(elements)
        rotations = [k for flip, k in elements if not flip]
        reflections = [k for flip, k in elements if flip]
        rotations += [k - reflections[0] for k in reflections[1:]]
        rotation_order = self.modulus // math.gcd(self.modulus, *rotations)
        return rotation_order * (2 if reflections else 1)

    def __str__(self) -> str:
        return f"D{self.modulus}"

