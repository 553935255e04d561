"""The benchmark's shim: the library abelianizes nothing, as
``pipeline.lemma1_check`` reads H1 off the certified signature, and
``Abelianization`` stays only because bench/layers.py wraps its
``class_of``.  The elimination and Smith form that build one are test
oracles in ``tests/reference.py``."""

from __future__ import annotations

from dataclasses import dataclass

from .words import Word


@dataclass(frozen=True)
class Abelianization:
    """Abelianization of a presentation, with canonical coordinates, as
    the test oracle ``abelianization`` in ``tests/reference.py`` builds it.

    A word maps to the sum of its generators' coordinate vectors times
    their exponent sums; coordinate i is reduced modulo ``moduli[i]`` (0
    meaning a free coordinate).  ``rows`` holds, per generator, the
    non-zero entries (column, value) of its coordinate vector.  The zero
    vector characterises words that die under every homomorphism to an
    abelian group.
    """

    moduli: tuple[int, ...]
    rows: dict[str, tuple[tuple[int, int], ...]]

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.moduli if d > 1)

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.moduli if d == 0)

    def class_of(self, w: Word) -> tuple[int, ...]:
        """The word's coordinates, one per generator."""
        out = [0] * len(self.moduli)
        for g, e in w.exponent_sums().items():
            for j, v in self.rows[g]:
                out[j] += e * v
        return tuple(c % d if d > 0 else c for c, d in zip(out, self.moduli))
