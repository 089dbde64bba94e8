"""Exact linear algebra: elimination, kernels, rank and invertibility."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopffactor.linalg import Mat
from hopffactor.scalar import Scalar

ZERO, ONE = Scalar(0), Scalar(1)


def rand_scalar(rng):
    return Scalar(rng.randint(-5, 5), rng.randint(1, 4),
                  rng.randint(-5, 5), rng.randint(1, 4))


def rand_mat(rng, m, n):
    return Mat([[rand_scalar(rng) for _ in range(n)] for _ in range(m)])


def identity(n):
    return Mat([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])


def apply(m, v):
    # independent of the elimination code: textbook matrix-vector product
    out = []
    for row in m.rows:
        acc = ZERO
        for a, b in zip(row, v):
            acc = acc + a * b
        out.append(acc)
    return tuple(out)


def solve_by_rref(m, b):
    """The solution of m x = b read off the rref of the augmented matrix
    [m | b], or None when the system is inconsistent."""
    red, pivots = Mat([list(row) + [rhs] for row, rhs in zip(m.rows, b)]).rref()
    if m.ncols in pivots:
        return None
    x = [ZERO] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = red.rows[r][m.ncols]
    return tuple(x)


def test_kernel_zero_matrix():
    assert len(Mat([[ZERO] * 3] * 3).kernel()) == 3


def test_kernel_identity():
    assert identity(4).kernel() == []


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(10):
        m = rand_mat(rng, 4, 6)
        basis = m.kernel()
        for v in basis:
            assert all(c.is_zero() for c in apply(m, v))


def test_solve_identity():
    b = (Scalar(1), Scalar(2), Scalar(1, 2))
    assert solve_by_rref(identity(3), b) == b


def test_solve_inconsistent():
    m = Mat([[ONE, ONE], [ONE, ONE]])
    assert solve_by_rref(m, (ONE, ZERO)) is None


def test_solve_scalar_equation():
    assert solve_by_rref(Mat([[Scalar(2)]]), (ONE,)) == (Scalar(1, 2),)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_rank_nullity(rows, cols, seed):
    rng = random.Random(seed)
    m = rand_mat(rng, rows, cols)
    assert m.rank() + len(m.kernel()) == cols


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_solve_agrees_with_substitution(n, seed):
    rng = random.Random(seed)
    m = rand_mat(rng, n, n)
    b = tuple(rand_scalar(rng) for _ in range(n))
    x = solve_by_rref(m, b)
    if x is None:
        assert not m.is_invertible()
        return
    assert apply(m, x) == b


def test_dimension_checks():
    with pytest.raises(ValueError):
        Mat([[ONE, ONE], [ONE]])
    with pytest.raises(ValueError):
        Mat([])


def test_is_invertible():
    assert identity(3).is_invertible()
    assert not Mat([[ONE, ONE], [ONE, ONE]]).is_invertible()
    assert not Mat([[ONE, ZERO]]).is_invertible()
