"""Words over named generators, with involution-aware cyclic reduction.

A word is a tuple of (generator name, exponent) letters with exponents
restricted to +1/-1; higher powers are spelled out.  Constructing a
``Word`` checks every letter once, in one pass, and copies nothing when
handed a tuple of hashable pairs; any other input (a list, a generator,
letters that are lists) is coerced letter by letter, and a bad letter
raises ``ValueError`` naming it.  So every ``Word`` is hashable.  Every
operation below builds its result's letter tuple once and makes one
``Word`` from it.

``cyclic_reduce_letters`` reduces letters as a cyclic word, modulo a
declared set of involutions (generators g with g^2 = 1), under which g^-1
is rewritten to g and adjacent equal involutions cancel; with no
involutions it is plain free reduction followed by trimming inverse
pairs at the ends.  It and ``substitute_letters``, which splices each
letter's image in, work on bare letters, for callers that need only the
reduced letters.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass


@dataclass(frozen=True)
class Word:
    """A word in a free group on named generators."""

    letters: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        letters = self.letters
        if type(letters) is tuple:
            try:
                for _, e in letters:
                    if e != 1 and e != -1:
                        break
                else:
                    hash(letters)
                    return
            except (TypeError, ValueError):
                pass
        object.__setattr__(self, "letters", _checked_letters(letters))

    @classmethod
    def gen(cls, name: str, exp: int = 1) -> "Word":
        if exp == 0:
            return cls()
        letter = (name, 1 if exp > 0 else -1)
        return cls((letter,) * abs(exp))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.letters * n)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for g, e in self.letters:
            parts.append(g if e == 1 else f"{g}^-1")
        return "*".join(parts)

    def exponent_sums(self) -> dict[str, int]:
        sums: dict[str, int] = {}
        for g, e in self.letters:
            sums[g] = sums.get(g, 0) + e
        return sums


def _checked_letters(letters) -> tuple[tuple[str, int], ...]:
    """The slow path of ``Word``: each letter coerced to a (name, +1/-1)
    pair, or ``ValueError`` naming the first letter that is not one."""
    out = []
    for letter in letters:
        try:
            g, e = letter
            hash(g)
        except (TypeError, ValueError):
            raise ValueError(f"letter must be a (generator, exponent) pair, got {letter!r}") from None
        if e != 1 and e != -1:
            raise ValueError(f"letter exponent must be +1 or -1, got {g}^{e}")
        out.append((g, e))
    return tuple(out)


def substitute_letters(letters: Iterable[tuple[str, int]], mapping: dict[str, Word]) -> list:
    """Each letter replaced by its image's letters (inverted for an inverse
    letter); unmapped names pass through."""
    out: list[tuple[str, int]] = []
    for letter in letters:
        g, e = letter
        if g in mapping:
            image = mapping[g].letters
            out += image if e == 1 else [(h, -f) for h, f in reversed(image)]
        else:
            out.append(letter)
    return out


def cyclic_reduce_letters(
    letters: Iterable[tuple[str, int]], involutions: frozenset[str] | set[str] = frozenset()
) -> tuple[tuple[str, int], ...]:
    """``letters`` reduced as a cyclic word (a conjugation-invariant normal
    form, up to rotation), with g^-1 read as g for each involution g."""
    out: list[tuple[str, int]] = []
    for letter in letters:
        g, e = letter
        if g in involutions:
            if out and out[-1][0] == g:
                out.pop()
            else:
                out.append(letter if e == 1 else (g, 1))
        elif out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append(letter)
    i, j = 0, len(out) - 1
    while i < j:
        (g1, e1), (g2, e2) = out[i], out[j]
        if g1 != g2 or not (e1 == -e2 or g1 in involutions):
            break
        i, j = i + 1, j - 1
    return tuple(out[i:j + 1])

