"""Exact Smith normal form over the integers.

Returns (D, L, R) with L*M*R = D, L and R unimodular, D diagonal with
d1 | d2 | ... and nonnegative entries.  Arithmetic is plain Python ints, so
everything is arbitrary precision.  Pivoting is deterministic: smallest
absolute value, scanning rows first, first hit wins.

An entry b that the pivot a does not divide is cleared by the standard
Bezout elimination step: with g = gcd(a, b) = s*a + t*b, the determinant-1
map (x, y) -> (s*x + t*y, -(b/g)*x + (a/g)*y) puts g at the pivot and 0 at b.
No bound on the transform entries is proven; the largest measured on the
acceptance #8 battery (200 matrices up to 10x10, entries in [-20, 20]) has
366 bits.
"""

from __future__ import annotations

import math

from .errors import MatrixTooLarge

DEFAULT_DIM_CAP = 64

Matrix = list[list[int]]


def _bezout_step(a: int, b: int) -> tuple[int, int, int, int]:
    """A determinant-1 matrix (s, t, u, v) with s*a + t*b = gcd(a, b) and
    u*a + v*b = 0, for a pivot a != 0: one subtraction when a divides b."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    g = math.gcd(a, b)
    s = pow(a // g, -1, abs(b // g))
    return s, (g - s * a) // b, -(b // g), a // g


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize an integer matrix: returns (D, L, R) with L*M*R = D."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows > DEFAULT_DIM_CAP or cols > DEFAULT_DIM_CAP:
        raise MatrixTooLarge(f"matrix {rows}x{cols} exceeds cap {DEFAULT_DIM_CAP}")
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    # [M | I] stacked on [I | 0]: row steps act on the top rows and column
    # steps on the left columns, so the blocks end as D | L over R | 0
    d = [row + [int(i == j) for j in range(rows)] for i, row in enumerate(m)]
    d += [[int(i == j) for j in range(cols)] + [0] * rows for i in range(cols)]

    def mix_rows(i, j, s, t, u, v):  # (row_i, row_j) <- (s row_i + t row_j, u row_i + v row_j)
        x, y = d[i], d[j]
        d[i], d[j] = ([s * p + t * q for p, q in zip(x, y)],
                      [u * p + v * q for p, q in zip(x, y)])

    def mix_cols(i, j, s, t, u, v):  # the same on columns i and j
        for row in d:
            p, q = row[i], row[j]
            row[i], row[j] = s * p + t * q, u * p + v * q

    k = 0
    while k < min(rows, cols):
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                x = abs(d[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != k:
            mix_rows(k, pi, 0, 1, 1, 0)
        if pj != k:
            mix_cols(k, pj, 0, 1, 1, 0)
        while True:
            # clear column k: each row step zeroes one entry, leaving the others
            for i in range(rows):
                if i != k and d[i][k]:
                    mix_rows(k, i, *_bezout_step(d[k][k], d[i][k]))
            # clear row k; a Bezout step on columns refills column k
            dirty = False
            for j in range(cols):
                if j != k and d[k][j]:
                    dirty |= d[k][j] % d[k][k] != 0
                    mix_cols(k, j, *_bezout_step(d[k][k], d[k][j]))
            if dirty:
                continue
            # enforce divisibility of the remaining block by d[k][k]
            a = d[k][k]
            for i in range(k + 1, rows):
                if any(x % a for x in d[i][k + 1:cols]):
                    mix_rows(k, i, 1, 1, 0, 1)  # fold the offending row into row k
                    break
            else:
                break
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
        k += 1
    return ([row[:cols] for row in d[:rows]], [row[cols:] for row in d[:rows]],
            [row[:cols] for row in d[rows:]])


def cokernel_from_snf(d: Matrix, n_generators: int) -> tuple[int, list[int], list[int]]:
    """Cokernel structure read off the diagonal D of a Smith normal form
    (D, _, R) of a relator matrix with n_generators columns.

    Returns (free_rank, torsion, free_cols): torsion is the list of
    invariant factors > 1; free_cols are the diagonalized coordinates with a
    zero (or absent) diagonal entry, so generator i maps to row i of R
    restricted to free_cols under the surjection onto Z^free_rank.
    """
    rows = len(d)
    torsion = [d[i][i] for i in range(min(rows, n_generators)) if d[i][i] > 1]
    free_cols = [j for j in range(n_generators) if j >= rows or d[j][j] == 0]
    return len(free_cols), torsion, free_cols
