"""Smith normal form: golden instances, the random battery, and the
independent sympy oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from semicover.errors import MatrixTooLarge
from semicover.snf import cokernel_from_snf, smith_normal_form


def mat_mul(a: list, b: list) -> list:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(cols):
                    oi[j] += v * bk[j]
    return out


def det(m: list) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def check_decomposition(m):
    d, left, right = smith_normal_form(m)
    assert mat_mul(mat_mul(left, m), right) == d
    assert det(left) in (1, -1)
    assert det(right) in (1, -1)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0
        if a:
            assert b % a == 0
        else:
            assert b == 0
    return diag


def test_klein_bottle_relator_matrix():
    diag = check_decomposition([[2, 0]])
    assert diag == [2]
    d, _, _ = smith_normal_form([[2, 0]])
    free_rank, torsion, _ = cokernel_from_snf(d, 2)
    assert free_rank == 1
    assert torsion == [2]


def test_no_relators_means_full_free_rank():
    free_rank, torsion, cols = cokernel_from_snf([], 2)
    assert (free_rank, torsion, cols) == (2, [], [0, 1])


def test_zero_relator_row():
    diag = check_decomposition([[0, 0]])
    assert diag == [0]
    d, _, _ = smith_normal_form([[0, 0]])
    free_rank, torsion, _ = cokernel_from_snf(d, 2)
    assert (free_rank, torsion) == (2, [])


def test_quaternion_relator_matrix():
    # relators a^4, a^2 b^-2, b^-1 a b a -> rows (4,0), (2,-2), (2,0)
    m = [[4, 0], [2, -2], [2, 0]]
    diag = check_decomposition(m)
    assert [v for v in diag if v] == [2, 2]
    d, _, _ = smith_normal_form(m)
    free_rank, torsion, _ = cokernel_from_snf(d, 2)
    assert free_rank == 0
    assert torsion == [2, 2]


def test_dimension_cap():
    with pytest.raises(MatrixTooLarge):
        smith_normal_form([[0] * 65])


def test_random_battery_200():
    rng = random.Random(20240817)
    for _ in range(200):
        rows = rng.randint(1, 10)
        cols = rng.randint(1, 10)
        m = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        check_decomposition(m)


def test_invariant_factors_match_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(99)
    for _ in range(50):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        d, _, _ = smith_normal_form(m)
        mine = sorted(abs(d[i][i]) for i in range(min(rows, cols)) if d[i][i])
        sm = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
        theirs = sorted(abs(sm[i, i]) for i in range(min(sm.shape)) if sm[i, i])
        assert mine == theirs, (m, mine, theirs)


def test_deterministic_output():
    m = [[6, 4, 1], [4, 8, 7], [2, 2, 2]]
    first = smith_normal_form(m)
    second = smith_normal_form([row[:] for row in m])
    assert first == second


TRANSFORM_BITS_CAP = 2048


def transform_bits(m) -> int:
    _, left, right = smith_normal_form(m)
    return max(abs(v).bit_length() for mat in (left, right) for row in mat for v in row)


@pytest.mark.parametrize("bound", [30, 1000])
def test_seeded_10x11_matrices_keep_transforms_small(bound):
    # with Euclid swap chains, bound 30 gave 183,421-bit transform entries
    # and bound 1000 did not finish in 90 s
    rng = random.Random(1)
    m = [[rng.randint(-bound, bound) for _ in range(11)] for _ in range(10)]
    check_decomposition(m)
    assert transform_bits(m) < TRANSFORM_BITS_CAP


def test_acceptance_battery_keeps_transforms_small():
    # the matrices of acceptance #8; Euclid swap chains reached 104,326 bits
    rng = random.Random(8)
    for _ in range(200):
        rows = rng.randint(1, 10)
        cols = rng.randint(1, 10)
        m = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        assert transform_bits(m) < TRANSFORM_BITS_CAP, m


@st.composite
def integer_matrices(draw):
    rows = draw(st.integers(1, 10))
    cols = draw(st.integers(1, 11))
    entry = st.integers(-1000, 1000)
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=60, deadline=1000)
@given(integer_matrices())
def test_decomposition_properties(m):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    diag = check_decomposition(m)
    theirs = invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)
    assert [v for v in diag if v] == sorted(abs(int(v)) for v in theirs if v)
    _, left, right = smith_normal_form(m)
    # json and str() refuse integers past 4,300 decimal digits by default
    assert all(abs(v) < 10 ** 4300 for mat in (left, right) for row in mat for v in row)
