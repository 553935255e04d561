"""Integer Smith normal form and abelianization of finite presentations.

The Smith normal form D = U*M*V (U, V unimodular, D diagonal with
d_1 | d_2 | ...) is computed over Python integers, so there is no
overflow and every identity is exact.  Only D and the column transform V
are formed; nothing reads the row transform U.

Abelianizing a presentation means reducing its relator exponent matrix
to that form.  The relators of a Reidemeister-Schreier presentation are
short and most have a +-1 entry, so each such entry first eliminates a
generator (a Tietze move on sparse rows), and only the small core that
is left goes through the dense Smith form.  Back-substituting the
eliminated generators into the core's column transform V reduces any
word to canonical coordinates in Z/d_1 x ... x Z/d_k x Z^f.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .presentations import Presentation
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

    A word maps to the sum of its generators' coordinate vectors times
    their exponent sums; coordinate i is reduced modulo ``moduli[i]`` (0
    meaning a free coordinate).  ``rows`` holds, per generator, the
    non-zero entries (column, value) of its coordinate vector: a generator
    that survives elimination reads its row of the core's Smith column
    transform V (or a unit vector, if it is free), and an eliminated one
    the back-substituted sum of those rows.  Coordinates of modulus 1 are
    always zero, so no row holds them.  The zero vector characterises
    words that die under every homomorphism to an abelian group.
    """

    moduli: tuple[int, ...]
    rows: dict[str, tuple[tuple[int, int], ...]]

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.moduli if d > 1)

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.moduli if d == 0)

    def _touched(self, w: Word) -> dict[int, int]:
        """The reduced coordinates the word's generators touch, by column;
        every other coordinate is zero."""
        coords: dict[int, int] = {}
        for g, e in w.exponent_sums().items():
            for j, v in self.rows[g]:
                coords[j] = coords.get(j, 0) + e * v
        for j, c in coords.items():
            d = self.moduli[j]
            if d > 0:
                coords[j] = c % d
        return coords

    def class_of(self, w: Word) -> tuple[int, ...]:
        """The word's coordinates, one per generator."""
        out = [0] * len(self.moduli)
        for j, c in self._touched(w).items():
            out[j] = c
        return tuple(out)

    def is_zero(self, w: Word) -> bool:
        """Whether the word's class is zero, read from the coordinates it
        touches only, so the test is linear in the word."""
        return not any(self._touched(w).values())


def _eliminate_units(
    rows: dict[int, dict[int, int]], holders: list[set[int]]
) -> list[tuple[int, dict[int, int]]]:
    """Tietze elimination on sparse relator rows, in place.

    While some row has a +-1 entry s at generator g, the row says
    g = -s * (rest of the row): substitute that into every other row
    holding g and drop the pivot row.  Rows are taken shortest first from
    a heap that each changed row re-enters, so no step rescans the alive
    rows; within a row the unit column held by the fewest rows is the
    pivot (a Markowitz-style choice that limits fill-in).  ``holders[j]``
    is the set of rows holding column j.  Returns the substitutions
    (g, {h: coefficient}) in elimination order; each expresses g through
    columns that were not yet eliminated when it was made.
    """
    substitutions: list[tuple[int, dict[int, int]]] = []
    heap = [(len(row), r) for r, row in rows.items()]
    heapify(heap)
    while heap:
        length, r = heappop(heap)
        row = rows.get(r)
        if row is None or len(row) != length:
            continue  # eliminated, or re-queued with its new length
        units = [j for j, x in row.items() if x in (1, -1)]
        if not units:
            continue
        g = min(units, key=lambda j: len(holders[j]))
        s = row[g]
        del rows[r]
        for j in row:
            holders[j].discard(r)
        expr = {h: -s * x for h, x in row.items() if h != g}
        substitutions.append((g, expr))
        for t in holders[g]:
            other = rows[t]
            q = other.pop(g)
            for h, x in expr.items():
                y = other.get(h, 0) + q * x
                if y:
                    other[h] = y
                    holders[h].add(t)
                else:
                    del other[h]
                    holders[h].discard(t)
            if other:
                heappush(heap, (len(other), t))
            else:
                del rows[t]
        holders[g].clear()
    return substitutions


def abelianization(p: Presentation) -> Abelianization:
    """Abelianize by unit-pivot elimination, then Smith form on the core.

    Each relator becomes a sparse exponent row.  ``_eliminate_units``
    removes one generator per +-1 pivot (after Havas, Holt and Rees,
    "Recognizing badly presented Z-modules", 1993); each eliminated
    generator is a coordinate of modulus 1.  A surviving generator that
    no remaining row holds is free.  Only the columns the remaining rows
    still hold, the core, go to ``smith_normal_form``; its diagonal gives
    their moduli.  Coordinates run: eliminated generators, core diagonal,
    free generators, so ``moduli`` has one entry per generator.
    """
    names = p.generator_names()
    index = {g: i for i, g in enumerate(names)}
    rows: dict[int, dict[int, int]] = {}
    holders: list[set[int]] = [set() for _ in names]
    for r, rel in enumerate(p.relators):
        row = {index[g]: e for g, e in rel.exponent_sums().items() if e}
        if row:
            rows[r] = row
            for j in row:
                holders[j].add(r)
    substitutions = _eliminate_units(rows, holders)

    eliminated = {g for g, _ in substitutions}
    core = [j for j in range(len(names)) if holders[j]]
    free = [j for j in range(len(names)) if j not in eliminated and not holders[j]]
    d, v = smith_normal_form([[row.get(j, 0) for j in core] for row in rows.values()])
    diag = [d[i][i] for i in range(min(len(d), len(core)))]
    moduli = (1,) * len(eliminated) + tuple(diag) + (0,) * (len(core) - len(diag) + len(free))

    def reduced(vec: dict[int, int]) -> dict[int, int]:
        out = {}
        for j, x in vec.items():
            m = moduli[j]
            x = x % m if m > 0 else x
            if x:
                out[j] = x
        return out

    start = len(eliminated)
    vectors: dict[int, dict[int, int]] = {}
    for i, j in enumerate(core):
        vectors[j] = reduced({start + k: x for k, x in enumerate(v[i])})
    start += len(core)
    for i, j in enumerate(free):
        vectors[j] = {start + i: 1}
    for g, expr in reversed(substitutions):
        vec: dict[int, int] = {}
        for h, x in expr.items():
            for k, y in vectors[h].items():
                vec[k] = vec.get(k, 0) + x * y
        vectors[g] = reduced(vec)
    return Abelianization(
        moduli, {g: tuple(sorted(vectors[i].items())) for g, i in index.items()}
    )
