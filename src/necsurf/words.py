"""Words over named generators, with free and involution-aware reduction.

A word is a sequence of (generator name, exponent) letters with exponents
restricted to +1/-1; higher powers are spelled out.  One function reduces
words, modulo a declared set of involutions (generators g with g^2 = 1),
under which g^-1 is rewritten to g and adjacent equal involutions cancel;
with no involutions it is plain free reduction.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Word:
    """A word in a free group on named generators."""

    letters: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple((g, e) for g, e in self.letters))
        for g, e in self.letters:
            if e not in (1, -1):
                raise ValueError(f"letter exponent must be +1 or -1, got {g}^{e}")

    @classmethod
    def gen(cls, name: str, exp: int = 1) -> "Word":
        if exp == 0:
            return cls()
        letter = (name, 1 if exp > 0 else -1)
        return cls((letter,) * abs(exp))

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse e.g. ``"tau1 x1^-1 e^2"`` (``*`` also accepted as separator)."""
        letters: list[tuple[str, int]] = []
        for token in text.replace("*", " ").split():
            if "^" in token:
                name, _, exp_text = token.partition("^")
                exp = int(exp_text)
            else:
                name, exp = token, 1
            if not name:
                raise ValueError(f"empty generator name in {text!r}")
            sign = 1 if exp > 0 else -1
            letters.extend((name, sign) for _ in range(abs(exp)))
        return cls(tuple(letters))

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


def reduce_mod_involutions(
    w: Word, involutions: frozenset[str] | set[str] = frozenset()
) -> Word:
    """Free reduction after rewriting g^-1 -> g for each involution g.

    The result is equal to ``w`` in any group where the involution
    relators g^2 = 1 hold; with no involutions it is the free reduction.
    """
    stack: list[tuple[str, int]] = []
    for g, e in w.letters:
        if g in involutions:
            e = 1
        if stack and stack[-1][0] == g:
            top_e = stack[-1][1]
            if top_e == -e or (g in involutions and top_e == e):
                stack.pop()
                continue
        stack.append((g, e))
    return Word(tuple(stack))


# Cancel adjacent inverse pairs until none remain.
free_reduce = reduce_mod_involutions


def substitute(w: Word, mapping: dict[str, Word]) -> Word:
    """Replace each letter by its image word; unmapped names pass through."""
    out: list[tuple[str, int]] = []
    for g, e in w.letters:
        if g in mapping:
            image = mapping[g] if e == 1 else mapping[g].inverse()
            out.extend(image.letters)
        else:
            out.append((g, e))
    return Word(tuple(out))


def cyclic_reduce(w: Word, involutions: frozenset[str] | set[str] = frozenset()) -> Word:
    """Reduce ``w`` as a cyclic word (conjugation-invariant normal form,
    up to rotation)."""
    w = reduce_mod_involutions(w, involutions)
    letters = list(w.letters)
    while len(letters) >= 2:
        (g1, e1), (g2, e2) = letters[0], letters[-1]
        if g1 == g2 and (e1 == -e2 or (g1 in involutions and e1 == e2)):
            letters = letters[1:-1]
        else:
            break
    return Word(tuple(letters))


def cyclically_equal(
    a: Word, b: Word, involutions: frozenset[str] | set[str] = frozenset()
) -> bool:
    """Equality of cyclic words modulo rotation (after involution-aware
    cyclic reduction of both sides)."""
    a = cyclic_reduce(a, involutions)
    b = cyclic_reduce(b, involutions)
    if len(a) != len(b):
        return False
    letters = a.letters
    return any(
        letters[k:] + letters[:k] == b.letters for k in range(max(len(letters), 1))
    )
