"""Concrete finite groups: cyclic and dihedral groups.

Cyclic groups are written additively (residues mod m).  Dihedral elements
are normal forms t^eps * s^k in D_m of order 2m, with t*s*t = s^-1; the
product rule is

    (t^e1 s^k1) (t^e2 s^k2) = t^(e1+e2) s^(k2 + (-1)^e2 * k1).

The order of a generated subgroup is a gcd, never an enumeration: in C_m
the residues a_i generate a subgroup of order m / gcd(m, a_1, ...), and
in D_m the rotations s^r_i and reflections t*s^k_j generate one of order
(2 if any reflection, else 1) * m / gcd(m, r_i..., k_j - k_1...).

A ``FiniteHom`` assigns a target element to every generator of a
presentation; constructing it checks once that each image belongs to the
target group.  A word is evaluated by its target's ``fold``, one pass
over the letters on plain integers (a residue sum in C_m, the product
rule above on (eps, k) in D_m) that builds a single element at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .words import Word

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .presentations import Presentation


class GroupMismatchError(ValueError):
    """An element does not belong to the group it is used in."""


# ---------------------------------------------------------------------------
# Cyclic groups C_m (additive residues)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicElement:
    modulus: int
    value: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        object.__setattr__(self, "value", self.value % self.modulus)

    def order(self) -> int:
        return self.modulus // math.gcd(self.value, self.modulus)

    def is_identity(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class CyclicGroup:
    modulus: int

    @property
    def order(self) -> int:
        return self.modulus

    def element(self, value: int) -> CyclicElement:
        return CyclicElement(self.modulus, value)

    def __contains__(self, x: object) -> bool:
        return isinstance(x, CyclicElement) and x.modulus == self.modulus

    def fold(
        self, table: dict[str, CyclicElement], letters: Iterable[tuple[str, int]]
    ) -> CyclicElement:
        """The product of the letters' images, ``table`` giving each
        generator's image: the sum of +-value, reduced once."""
        total = 0
        for g, e in letters:
            total += e * table[g].value
        return CyclicElement(self.modulus, total)

    def subgroup_order(self, elements: Iterable[CyclicElement]) -> int:
        """Order of the subgroup the elements generate: m / gcd(m, a_1, ...)."""
        return self.modulus // math.gcd(self.modulus, *(e.value for e in elements))

    def __str__(self) -> str:
        return f"C{self.modulus}"


# ---------------------------------------------------------------------------
# Dihedral groups D_m of order 2m
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DihedralElement:
    modulus: int
    flip: int  # eps in {0, 1}: 1 for reflections t*s^k
    rot: int   # k in Z/m

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        object.__setattr__(self, "flip", self.flip % 2)
        object.__setattr__(self, "rot", self.rot % self.modulus)

    def is_identity(self) -> bool:
        return self.flip == 0 and self.rot == 0

    def __str__(self) -> str:
        if self.flip:
            return "t" if self.rot == 0 else f"t*s^{self.rot}"
        return "1" if self.rot == 0 else f"s^{self.rot}"


@dataclass(frozen=True)
class DihedralGroup:
    modulus: int  # rotation order; |D_m| = 2m

    @property
    def order(self) -> int:
        return 2 * self.modulus

    def reflection(self, k: int = 0) -> DihedralElement:
        return DihedralElement(self.modulus, 1, k)

    def __contains__(self, x: object) -> bool:
        return isinstance(x, DihedralElement) and x.modulus == self.modulus

    def fold(
        self, table: dict[str, DihedralElement], letters: Iterable[tuple[str, int]]
    ) -> DihedralElement:
        """The product of the letters' images, ``table`` giving each
        generator's image, by the product rule on (eps, rot): a reflection
        t*s^k, its own inverse, toggles eps and sets rot to k - rot
        whatever the letter's sign; a rotation s^k adds +-k to rot.
        Reduced once, at the end."""
        flip = rot = 0
        for g, e in letters:
            img = table[g]
            if img.flip:
                flip ^= 1
                rot = img.rot - rot
            else:
                rot += e * img.rot
        return DihedralElement(self.modulus, flip, rot)

    def subgroup_order(self, elements: Iterable[DihedralElement]) -> int:
        """Order of the subgroup the elements generate.  Its rotations are
        generated by the given rotations and the differences k_j - k_1 of
        the reflections t*s^k_j; any reflection doubles the order."""
        elements = list(elements)
        rotations = [e.rot for e in elements if not e.flip]
        reflections = [e.rot for e in elements if e.flip]
        rotations += [k - reflections[0] for k in reflections[1:]]
        rotation_order = self.modulus // math.gcd(self.modulus, *rotations)
        return rotation_order * (2 if reflections else 1)

    def __str__(self) -> str:
        return f"D{self.modulus}"


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteHom:
    """A homomorphism from a finitely presented group to a finite group,
    given by its generator images.  Construction checks that every image
    is an element of ``target`` (else ``GroupMismatchError`` names the
    generator); whether the images actually satisfy the relators is
    checked by ``presentations.check_homomorphism``."""

    domain: "Presentation"
    target: CyclicGroup | DihedralGroup
    images: tuple[tuple[str, object], ...]
    _by_name: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        names = {g for g, _ in self.domain.generators}
        assigned = {g for g, _ in self.images}
        if names != assigned:
            missing = names - assigned
            extra = assigned - names
            raise ValueError(
                f"generator images do not match the domain (missing {sorted(missing)},"
                f" extra {sorted(extra)})"
            )
        for g, img in self.images:
            if img not in self.target:
                raise GroupMismatchError(
                    f"image {img} of generator {g} is not an element of {self.target}"
                )
        object.__setattr__(self, "_by_name", dict(self.images))

    @classmethod
    def from_dict(cls, domain, target, images: dict) -> "FiniteHom":
        names = [g for g, _ in domain.generators]
        extra = set(images) - set(names)
        if extra:
            raise ValueError(f"images given for undeclared generators {sorted(extra)}")
        missing = [g for g in names if g not in images]
        if missing:
            raise ValueError(f"missing images for generators {missing}")
        ordered = tuple((name, images[name]) for name in names)
        return cls(domain, target, ordered)

    def image_of(self, name: str):
        return self._by_name[name]

    def evaluate(self, word: Word):
        """Image of a word under the homomorphism: the target's integer
        fold over the letters.  The images were checked to belong to the
        target at construction, so no letter is checked again."""
        return self.target.fold(self._by_name, word.letters)

    def image_order(self) -> int:
        return self.target.subgroup_order(v for _, v in self.images)

    def is_surjective(self) -> bool:
        return self.image_order() == self.target.order
