"""Words over named generators, with involution-aware cyclic reduction.

A word is a tuple of (generator name, exponent) letters with exponents
restricted to +1/-1; higher powers are spelled out.  Constructing a
``Word`` checks every letter once, in one pass, and copies nothing when
handed a tuple of hashable pairs; any other input (a list, a generator,
letters that are lists) is coerced letter by letter, and a bad letter
raises ``ValueError`` naming it.  So every ``Word`` is hashable.  Every
operation below builds its result's letter tuple once and makes one
``Word`` from it; a power, a product or an inverse checks none again.

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


class Record:
    """The immutable base of every result type in the package, on
    ``__slots__``.  Its fields, ``_fields``, are its base's fields and then
    its own ``__slots__``, unless the class names them; ``__init__`` takes
    them in that order and stores them with ``_assign(self, *fields)``.
    Assigning or deleting an attribute raises ``AttributeError``; two
    records are equal, and hash alike, when they are of one class with
    equal fields; ``repr`` is ``Class(field=value, ...)``.  A slot outside
    ``_fields`` is set with ``_keep``, and all of these ignore it."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in vars(cls):
            cls._fields = cls._fields + tuple(vars(cls).get("__slots__", ()))
        # one object.__setattr__ per field, and one tuple of the fields,
        # written out as a dataclass's methods are: a loop over _fields
        # costs twice as much to assign, and three times as much to compare
        sets = "".join(f"\n    store(self, {name!r}, {name})" for name in cls._fields)
        values = "".join(f"self.{name}, " for name in cls._fields)
        namespace = {"store": object.__setattr__}
        exec(f"def _assign(self, {', '.join(cls._fields)}):{sets or ' pass'}\n"
             f"def _values(self): return ({values})", namespace)
        cls._assign, cls._values = namespace["_assign"], namespace["_values"]

    def _keep(self, slot: str, value):
        """``value``, kept in ``slot`` for the next use."""
        object.__setattr__(self, slot, value)
        return value

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Word(Record):
    """A word in a free group on named generators, compared and hashed by
    ``letters``, which ``__post_init__`` checks once per construction."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[tuple[str, int], ...] = ()) -> None:
        object.__setattr__(self, "letters", letters)
        self.__post_init__()

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

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
    def unchecked(cls, letters: tuple[tuple[str, int], ...]) -> "Word":
        """The word of ``letters``, each known to be a (name, +1/-1) pair."""
        word = cls.__new__(cls)
        object.__setattr__(word, "letters", letters)
        return word

    @classmethod
    def gen(cls, name: str, exp: int = 1) -> "Word":
        if exp == 0:
            return cls()
        letter = (name, 1 if exp > 0 else -1)
        return cls((letter,) * abs(exp))

    def __mul__(self, other: "Word") -> "Word":
        return Word.unchecked(self.letters + other.letters)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word.unchecked(self.letters * n)

    def inverse(self) -> "Word":
        return Word.unchecked(tuple((g, -e) for g, e in reversed(self.letters)))

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

