"""Integer Smith normal form, and abelianized coordinates of words.

The Smith normal form D = U*M*V (U, V unimodular, D diagonal with
d_1 | d_2 | ...) is computed over Python integers, so there is no
overflow and every identity is exact.  Only D and the column transform V
are formed; nothing reads the row transform U.

The library abelianizes no presentation: ``pipeline.lemma1_check`` reads
H1 of the derived kernel off its certified signature, a Smith form on r+1
columns.  The unit-pivot elimination that abelianizes a whole
presentation is a test oracle in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Word

Matrix = list[list[int]]


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix]:
    """Return (D, V) with D diagonal, each diagonal entry dividing the
    next, V unimodular and U*M*V = D for some unimodular U; row
    operations act on the working matrix only, so U is never formed."""
    a = [[int(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_sub(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        for t in range(cols):
            a[i][t] -= q * a[j][t]

    def col_sub(i: int, j: int, q: int) -> None:  # col_i -= q * col_j
        for t in range(rows):
            a[t][i] -= q * a[t][j]
        for t in range(cols):
            v[t][i] -= q * v[t][j]

    def swap_cols(i: int, j: int) -> None:
        for t in range(rows):
            a[t][i], a[t][j] = a[t][j], a[t][i]
        for t in range(cols):
            v[t][i], v[t][j] = v[t][j], v[t][i]

    t = 0
    while t < min(rows, cols):
        # smallest nonzero entry of the working submatrix becomes the pivot
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot != (t, t):
            if pivot[0] != t:
                a[pivot[0]], a[t] = a[t], a[pivot[0]]
            if pivot[1] != t:
                swap_cols(pivot[1], t)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]

        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                row_sub(i, t, a[i][t] // a[t][t])
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j]:
                col_sub(j, t, a[t][j] // a[t][t])
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # a strictly smaller pivot appeared; redo this step

        # divisibility: the pivot must divide the rest of the submatrix
        fixed = True
        for i in range(t + 1, rows):
            bad = next((j for j in range(t + 1, cols) if a[i][j] % a[t][t]), None)
            if bad is not None:
                row_sub(t, i, -1)  # row_t += row_i, exposing the bad entry
                fixed = False
                break
        if not fixed:
            continue
        t += 1

    return a, v


@dataclass(frozen=True)
class Abelianization:
    """Abelianization of a presentation, with canonical coordinates.

    Nothing in the library builds one: the class stays here only because
    bench/layers.py wraps ``Abelianization.class_of`` by this name.  The
    test oracle ``abelianization`` in ``tests/reference.py`` builds it.

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
