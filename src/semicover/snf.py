"""Exact Smith normal form over the integers.

Returns (D, L, R) with L*M*R = D, L and R unimodular, D diagonal with
d1 | d2 | ... and nonnegative entries.  Arithmetic is plain Python ints, so
everything is arbitrary precision.  Pivoting is deterministic: smallest
absolute value, scanning rows first, first hit wins.
"""

from __future__ import annotations

from .errors import MatrixTooLarge

DEFAULT_DIM_CAP = 64

Matrix = list[list[int]]


def _eye(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m: Matrix, dim_cap: int = DEFAULT_DIM_CAP) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize an integer matrix: returns (D, L, R) with L*M*R = D."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows > dim_cap or cols > dim_cap:
        raise MatrixTooLarge(f"matrix {rows}x{cols} exceeds cap {dim_cap}")
    for row in m:
        if len(row) != cols:
            raise ValueError("ragged matrix")
    d = [row[:] for row in m]
    left = _eye(rows)
    right = _eye(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        for t in range(cols):
            d[i][t] -= q * d[j][t]
        for t in range(rows):
            left[i][t] -= q * left[j][t]

    def col_op(i, j, q):  # col_i -= q * col_j
        for t in range(rows):
            d[t][i] -= q * d[t][j]
        for t in range(cols):
            right[t][i] -= q * right[t][j]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        left[i], left[j] = left[j], left[i]

    def col_swap(i, j):
        for t in range(rows):
            d[t][i], d[t][j] = d[t][j], d[t][i]
        for t in range(cols):
            right[t][i], right[t][j] = right[t][j], right[t][i]

    def pivot_at(k):
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                v = abs(d[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return best

    k = 0
    while k < min(rows, cols):
        best = pivot_at(k)
        if best is None:
            break
        _, pi, pj = best
        if pi != k:
            row_swap(k, pi)
        if pj != k:
            col_swap(k, pj)
        while True:
            # clear column k with euclidean steps
            dirty = False
            for i in range(rows):
                if i != k and d[i][k]:
                    q = d[i][k] // d[k][k]
                    row_op(i, k, q)
                    if d[i][k]:
                        row_swap(i, k)  # remainder is strictly smaller
                        dirty = True
            if dirty:
                continue
            for j in range(cols):
                if j != k and d[k][j]:
                    q = d[k][j] // d[k][k]
                    col_op(j, k, q)
                    if d[k][j]:
                        col_swap(j, k)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the remaining block by d[k][k]
            offender = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if d[i][j] % d[k][k]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(k, offender, -1)  # fold the offending row into row k
        if d[k][k] < 0:
            for t in range(cols):
                d[k][t] = -d[k][t]
            for t in range(rows):
                left[k][t] = -left[k][t]
        k += 1
    return d, left, right


def cokernel_from_snf(d: Matrix, right: Matrix,
                      n_generators: int) -> tuple[int, list[int], list[int], Matrix]:
    """Cokernel structure read off a Smith normal form (D, _, R) of a
    relator matrix with n_generators columns.

    Returns (free_rank, torsion, free_cols, R): torsion is the list of
    invariant factors > 1; free_cols are the diagonalized coordinates with a
    zero (or absent) diagonal entry; R is the right transform, so generator
    i maps to row i of R restricted to free_cols under the surjection onto
    Z^free_rank.
    """
    rows = len(d)
    torsion = [d[i][i] for i in range(min(rows, n_generators)) if d[i][i] > 1]
    free_cols = [j for j in range(n_generators) if j >= rows or d[j][j] == 0]
    return len(free_cols), torsion, free_cols, right
