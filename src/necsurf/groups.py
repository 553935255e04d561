"""Concrete finite groups: cyclic and dihedral groups.

An element is its normal form, a plain value.  In C_m, written
additively, it is its residue, an ``int`` in ``range(m)``.  In D_m of
order 2m, with t*s*t = s^-1, the element t^eps * s^k is the pair
``(eps, k)`` with eps in {0, 1} and k in ``range(m)``; the product rule is

    (t^e1 s^k1) (t^e2 s^k2) = t^(e1+e2) s^(k2 + (-1)^e2 * k1).

Each group has an ``identity``, prints an element with ``format``
(``3`` in C_m; ``1``, ``s^k``, ``t`` or ``t*s^k`` in D_m) and tests
membership with ``in``.  The order of a generated subgroup is a gcd,
never an enumeration: in C_m the residues a_i generate a subgroup of
order m / gcd(m, a_1, ...), and in D_m the rotations s^r_i and
reflections t*s^k_j generate one of order (2 if any reflection, else 1)
* m / gcd(m, r_i..., k_j - k_1...).

A ``FiniteHom`` assigns a target element to every generator of a
presentation; constructing it checks once that each image belongs to the
target group.  A word is evaluated by its target's ``normal_form``, one
pass over the letters on plain integers (a residue sum in C_m, the
product rule above on (eps, k) in D_m), so relator checks compare the
values it returns with the target's ``identity``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .words import Record, Word


class GroupMismatchError(ValueError):
    """An element does not belong to the group it is used in."""


def _is_residue(x: object, modulus: int) -> bool:
    """Whether ``x`` is an ``int`` (not a ``bool``) in ``range(modulus)``."""
    return type(x) is int and 0 <= x < modulus


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

    def __contains__(self, x: object) -> bool:
        return _is_residue(x, self.modulus)

    def format(self, x: int) -> str:
        return str(x)

    def element_order(self, x: int) -> int:
        return self.modulus // math.gcd(x, self.modulus)

    def normal_form(
        self, table: dict[str, int], letters: Iterable[tuple[str, int]]
    ) -> int:
        """The product of the letters' images, ``table`` giving each
        generator's residue: the sum of +-residue, reduced once."""
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

    def __contains__(self, x: object) -> bool:
        return (
            type(x) is tuple and len(x) == 2
            and _is_residue(x[0], 2) and _is_residue(x[1], self.modulus)
        )

    def format(self, x: tuple[int, int]) -> str:
        flip, rot = x
        if flip:
            return "t" if rot == 0 else f"t*s^{rot}"
        return "1" if rot == 0 else f"s^{rot}"

    def normal_form(
        self, table: dict[str, tuple[int, int]], letters: Iterable[tuple[str, int]]
    ) -> tuple[int, int]:
        """The product of the letters' images as an (eps, rot) pair,
        ``table`` giving each generator's image, by the product rule: a
        reflection t*s^k, its own inverse, toggles eps and sets rot to
        k - rot whatever the letter's sign; a rotation s^k adds +-k to
        rot.  Reduced once, at the end."""
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


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

class FiniteHom(Record):
    """A homomorphism from a finitely presented group to a finite group,
    given by its generator images.  Construction checks that exactly the
    domain's generators have images (else ``ValueError`` names the missing
    and the undeclared ones) and that every image is an element of
    ``target`` (else ``GroupMismatchError`` names the generator); whether
    the images actually satisfy the relators is checked by
    ``presentations.check_homomorphism``.  The name -> image lookup is a
    slot outside ``_fields``, so comparison and hashing ignore it."""

    __slots__ = ("domain", "target", "images", "_by_name")
    _fields = __slots__[:3]

    def __init__(
        self, domain: "Presentation", target: CyclicGroup | DihedralGroup,
        images: Iterable[tuple[str, object]],
    ) -> None:
        images = tuple(images)
        names = {g for g, _ in domain.generators}
        assigned = {g for g, _ in images}
        if names != assigned:
            raise ValueError(
                f"generator images do not match the domain: missing images for"
                f" {sorted(names - assigned)}, images for undeclared generators"
                f" {sorted(assigned - names)}"
            )
        for g, img in images:
            if img not in target:
                raise GroupMismatchError(
                    f"image {img!r} of generator {g} is not an element of {target}"
                )
        self._assign(domain, target, images)
        object.__setattr__(self, "_by_name", dict(images))

    @classmethod
    def from_dict(cls, domain, target, images: dict) -> "FiniteHom":
        """The homomorphism with these images, put in the domain's
        generator order; any image for an undeclared generator follows,
        for construction to reject."""
        rest = dict(images)
        ordered = [(g, rest.pop(g)) for g, _ in domain.generators if g in rest]
        return cls(domain, target, (*ordered, *rest.items()))

    def image_of(self, name: str):
        return self._by_name[name]

    def evaluate(self, word: Word):
        """Image of a word under the homomorphism: the target's normal
        form of its letters, a residue in C_m, (eps, rot) in D_m.  The
        images were checked to belong to the target at construction, so
        no letter is checked again."""
        return self.target.normal_form(self._by_name, word.letters)

    def image_order(self) -> int:
        return self.target.subgroup_order(v for _, v in self.images)

    def is_surjective(self) -> bool:
        return self.image_order() == self.target.order
