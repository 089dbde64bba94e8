"""Exact linear algebra: elimination, kernels, rank and invertibility, and
the solver's linear batches, which run on the same elimination."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopffactor.linalg import Mat, rref
from hopffactor.poly import Poly
from hopffactor.scalar import Scalar
from hopffactor.solver import _solve_linear
from oracles import evaluate

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


def sparse(rows):
    return [{c: e for c, e in enumerate(row) if not e.is_zero()} for row in rows]


def solve_by_rref(m, b):
    """The solution of m x = b read off the rref of the augmented matrix
    [m | b], or None when the system is inconsistent."""
    augmented = sparse(list(row) + [rhs] for row, rhs in zip(m.rows, b))
    pivots = rref(augmented, range(m.ncols + 1))
    if any(pc == m.ncols for pc, _ in pivots):
        return None
    x = [ZERO] * m.ncols
    for pc, row in pivots:
        x[pc] = row.get(m.ncols, ZERO)
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


# -- properties of the shared elimination -------------------------------------

# zero-heavy, so that rows are often dependent and columns often empty
scalars = st.sampled_from(
    [ZERO] * 4 + [ONE, Scalar(-1), Scalar(0, 1, 1, 1), Scalar(1, 2), Scalar(2, 1, -1, 3)]
)


@st.composite
def matrices(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=5))
    return Mat([[draw(scalars) for _ in range(n)] for _ in range(m)])


@settings(max_examples=80, deadline=None)
@given(m=matrices(), data=st.data())
def test_rref_ignores_row_order(m, data):
    # the reduced row echelon form is unique, so it cannot depend on which
    # row supplies a pivot
    pivots = rref(sparse(m.rows), range(m.ncols))
    pivots2 = rref(sparse(data.draw(st.permutations(m.rows))), range(m.ncols))
    assert pivots2 == pivots


@settings(max_examples=80, deadline=None)
@given(m=matrices(), data=st.data())
def test_rref_ignores_duplicated_rows(m, data):
    extra = data.draw(st.lists(st.sampled_from(m.rows), min_size=1, max_size=4))
    where = data.draw(st.integers(min_value=0, max_value=m.nrows))
    pivots = rref(sparse(m.rows), range(m.ncols))
    pivots2 = rref(sparse(m.rows[:where] + tuple(extra) + m.rows[where:]), range(m.ncols))
    # the repeated rows reduce to zero and are left out
    assert pivots2 == pivots


def _planted_system(data):
    """Random linear rows in x0..x{n-1} that all vanish at a random point."""
    n = data.draw(st.integers(min_value=1, max_value=5))
    names = [f"x{k}" for k in range(n)]
    point = {v: data.draw(scalars) for v in names}
    rows = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        coeffs = {v: data.draw(scalars) for v in names}
        coeffs[data.draw(st.sampled_from(names))] = ONE  # at least one unknown
        terms = {(v,): c for v, c in coeffs.items() if not c.is_zero()}
        terms[()] = -sum((c * point[v] for v, c in coeffs.items()), ZERO)
        rows.append(Poly(terms))
    return names, point, rows


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_solve_linear_recovers_planted_point(data):
    names, point, rows = _planted_system(data)
    mapping = _solve_linear(rows)
    assert mapping is not None
    free = set(names) - mapping.keys()
    for v, e in mapping.items():
        assert set(e.variables()) <= free  # solved over the free unknowns only
        assert evaluate(e, point) == point[v]
    for p in rows:
        assert p.subst_many(mapping).is_zero()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_solve_linear_rejects_inconsistent_row(data):
    names, point, rows = _planted_system(data)
    # a combination of the rows, shifted by a nonzero constant, is nonzero
    # at every solution of the rows
    bad = Poly.const(data.draw(scalars.filter(lambda c: not c.is_zero())))
    for p in rows:
        bad = bad + p * data.draw(scalars)
    where = data.draw(st.integers(min_value=0, max_value=len(rows)))
    assert _solve_linear(rows[:where] + [bad] + rows[where:]) is None
