"""Exact integer matrix helpers the Smith normal form tests check
U*M*V = D and |det U| = |det V| = 1 with."""

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
