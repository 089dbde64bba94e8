"""Completeness oracle: sympy's Groebner bases over Q(i) against the solver.

The engine's solution sets are exact and re-checked for soundness, but a
missed branch would only show as a smaller set.  On the zero-dimensional
systems small enough for sympy (the group-likes of H4 and H8, the circulant
systems), a lex Groebner basis over QQ_I and sympy's own solver must give
exactly the same points.  The group-like system is built here from the
public structure constants, not by the engine's generator.
"""

import pytest

sympy = pytest.importorskip("sympy")

from hopffactor.actions import g_action_circulant_system, x_action_circulant_system
from hopffactor.hopf import grouplikes
from hopffactor.presentations import build_H4, build_H8
from hopffactor.scalar import HALF, ONE, ZERO, Scalar
from hopffactor.solver import solve


def _number(c):
    return sympy.Rational(c.rn, c.rd) + sympy.I * sympy.Rational(c.imn, c.imd)


def _oracle_points(eqs, syms):
    """Every common zero of eqs, as a set of coordinate tuples."""
    G = sympy.groebner(eqs, *syms, order="lex", domain=sympy.QQ_I)
    assert G.is_zero_dimensional
    return {tuple(sol[s] for s in syms) for sol in sympy.solve(list(G), syms, dict=True)}


@pytest.mark.parametrize("build, count", [(build_H4, 2), (build_H8, 4)], ids=("H4", "H8"))
def test_grouplikes_match_groebner(build, count):
    H = build()
    xs = sympy.symbols(f"x0:{H.dim}")
    # eps(x) = 1 and delta(x) = x (x) x, coordinate by coordinate
    eqs = [sum(_number(c) * x for c, x in zip(H.counit, xs)) - 1]
    delta = {}
    for i in range(H.dim):
        for c, j, k in H.comul[i]:
            delta[(j, k)] = delta.get((j, k), 0) + _number(c) * xs[i]
    eqs += [delta.get((j, k), 0) - xs[j] * xs[k] for j in range(H.dim) for k in range(H.dim)]
    expected = _oracle_points(eqs, xs)
    assert len(expected) == count
    assert {tuple(_number(c) for c in g.coords) for g in grouplikes(H)} == expected


def _solver_matches_groebner(polys):
    names = sorted(set().union(*(p.variables() for p in polys)))
    syms = sympy.symbols(names)
    by_name = dict(zip(names, syms))
    eqs = [
        sum(_number(Scalar(*c)) * sympy.Mul(*(by_name[v] for v in m)) for m, c in p.key())
        for p in polys
    ]
    expected = _oracle_points(eqs, syms)
    got = set()
    for branch in solve(polys):
        assert branch.is_point()
        point = branch.point()
        got.add(tuple(_number(point[v]) for v in names))
    assert got == expected
    return expected


def test_g_action_circulant_system_matches_groebner():
    assert len(_solver_matches_groebner(g_action_circulant_system())) == 4


@pytest.mark.parametrize(
    "a_values",
    [
        (HALF, HALF, HALF, -HALF),
        (-HALF, HALF, HALF, HALF),
        (ONE, ZERO, ZERO, ZERO),
        (ZERO, ZERO, ZERO, ONE),
    ],
    ids=("half-matrix-1", "half-matrix-2", "identity", "antidiagonal"),
)
def test_x_action_circulant_system_matches_groebner(a_values):
    assert len(_solver_matches_groebner(x_action_circulant_system(a_values))) == 1
