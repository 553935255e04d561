"""Exact integer matrix helpers, and the Smith normal form contract the
tests check the oracle ``reference.smith_normal_form`` against."""

from itertools import combinations
from math import gcd

from reference import smith_normal_form

Matrix = list[list[int]]


def matrix_multiply(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik:
                row_b = b[k]
                row_o = out[i]
                for j in range(cols):
                    row_o[j] += aik * row_b[j]
    return out


def integer_determinant(m: Matrix) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minors_gcd(m: Matrix, k: int) -> int:
    """gcd of all k x k minors of m (its k-th determinantal divisor)."""
    g = 0
    for rows in combinations(range(len(m)), k):
        for cols in combinations(range(len(m[0])), k):
            g = gcd(g, integer_determinant([[m[i][j] for j in cols] for i in rows]))
    return g


def assert_snf_contract(m: Matrix) -> list[int]:
    """Check (D, V) = smith_normal_form(m) and return D's diagonal.

    V is unimodular; D is diagonal with d_1 | d_2 | ... (zeros last);
    every row of M*V lies in the row lattice of D, so M*V = X*D for an
    integer X; and the gcd of the k x k minors of M is d_1...d_k for each
    k.  Since V is unimodular the last fact also holds for M*V = X*D,
    which makes the first rank(M) columns of X primitive; they extend to
    a unimodular matrix, whose inverse is a U with U*M*V = D.
    """
    d, v = smith_normal_form(m)
    rows, cols = len(m), len(m[0])
    assert abs(integer_determinant(v)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    for row in matrix_multiply(m, v):
        for j, x in enumerate(row):
            assert x % diag[j] == 0 if j < len(diag) and diag[j] else x == 0
    product = 1
    for k, dk in enumerate(diag, start=1):
        product *= dk
        assert minors_gcd(m, k) == product
    return diag
