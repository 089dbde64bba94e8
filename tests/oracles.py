"""Test-only builders, evaluators and routes that the pipeline itself never
runs.

The right action tables of the paper's examples, read from their z-block
matrices, and plain Scalar evaluation of polynomials and solver branches.
They stand apart from the engine's own paths (`from_generators` builds the
tables, `_Batch` substitutes), so tests can check those paths against
them.  The union route of the matched-pair search solves both tables'
systems and the whole pairing system as one system; the tests hold the
per-family search to it, and count the moves of a solve to pin its shape.
"""

import functools

from hopffactor.actions import (
    LeftActionTable,
    MatchedPairCandidate,
    RightActionTable,
    _canonical_system,
    _left_pairing_constraints,
    _module_coalgebra_constraints,
    _product_constraints,
    _rule_instances,
)
from hopffactor import solver
from hopffactor.presentations import build_H4, build_H8
from hopffactor.scalar import ONE, ZERO, Scalar
from hopffactor.solver import solve

# -- right action tables ----------------------------------------------------------


def right_table_from_components(grouplike_g_images, grouplike_x_images, a_matrix, b_matrix):
    """Right table from: images of g, h, gh under <|G (H8 basis labels),
    their <|X images (8-tuples), and the two 4x4 z-block matrices (column
    j = coordinates of basis_j <| G resp. <| X on (z, gz, hz, ghz)).
    Values may be Scalars or Polys.  They become the rows of the
    generators G and X; `from_generators` forces x <| GX = (x <| G) <| X."""
    h8, h4 = build_H8(), build_H4()
    G, X = h4.index["G"], h4.index["X"]
    images = {}
    for label in ("g", "h", "gh"):
        xi, target = h8.index[label], h8.index[grouplike_g_images[label]]
        images[(G, xi)] = tuple(ONE if k == target else ZERO for k in range(h8.dim))
        images[(X, xi)] = grouplike_x_images[label]
    for col, xi in enumerate((4, 5, 6, 7)):
        for g, matrix in ((G, a_matrix), (X, b_matrix)):
            images[(g, xi)] = tuple(
                matrix[k - 4][col] if k >= 4 else ZERO for k in range(h8.dim)
            )
    return RightActionTable.from_generators(images)


IDENTITY_BLOCK = tuple(tuple(ONE if i == j else ZERO for j in range(4)) for i in range(4))
ANTIDIAGONAL_BLOCK = tuple(tuple(ONE if i + j == 3 else ZERO for j in range(4)) for i in range(4))
ZERO_BLOCK = tuple((ZERO,) * 4 for _ in range(4))
FIXED_GROUPLIKES = {"g": "g", "h": "h", "gh": "gh"}
KILLED_GROUPLIKES = {"g": (ZERO,) * 8, "h": (ZERO,) * 8, "gh": (ZERO,) * 8}


def trivial_right_table():
    """A = E, B = 0, group-likes fixed."""
    return right_table_from_components(
        FIXED_GROUPLIKES, KILLED_GROUPLIKES, IDENTITY_BLOCK, ZERO_BLOCK
    )


def antidiagonal_right_table():
    """A = antidiagonal (z<|G = ghz, ..., ghz<|G = z), B = 0, group-likes fixed."""
    return right_table_from_components(
        FIXED_GROUPLIKES, KILLED_GROUPLIKES, ANTIDIAGONAL_BLOCK, ZERO_BLOCK
    )


def zblock_matrix(table, col_label):
    """The 4x4 block M of a concrete right table with
    (z, gz, hz, ghz) <| col_label = (z, gz, hz, ghz) M, col_label "G" or "X"."""
    scalars = table.scalar_entries()
    ai = table.h4.index[col_label]
    return tuple(
        tuple(scalars[(xj, ai)][k] for xj in (4, 5, 6, 7)) for k in (4, 5, 6, 7)
    )


# -- evaluation --------------------------------------------------------------------


def evaluate(p, assignment):
    """The value of Poly p at a Scalar assignment of every unknown."""
    acc = ZERO
    for m, (re, im) in zip(p.terms, p.nums):
        v = Scalar(re, p.den, im, p.den)
        for x in m:
            v = v * assignment[x]
        acc = acc + v
    return acc


def sample(branch, values=None):
    """A concrete solution on a branch: free unknowns get 1, 2, 3, ... by
    default."""
    if values is None:
        values = {v: Scalar(k + 1) for k, v in enumerate(branch.free)}
    out = dict(values)
    for v, e in branch.subst.items():
        out[v] = evaluate(e, values)
    return out


def contains_point(branch, assignment):
    """Whether a Scalar assignment of every unknown lies on the branch."""
    return all(evaluate(e, assignment) == assignment[v] for v, e in branch.subst.items())


# -- the union route of the matched-pair search ----------------------------------


@functools.cache
def search_system():
    """The union of both module-coalgebra systems and the pairing system on
    the symbolic tables (4,998 constraints, 177,730 terms), canonicalised
    once, built once per session."""
    L, R = LeftActionTable.symbolic(), RightActionTable.symbolic()
    return tuple(
        _canonical_system(
            _module_coalgebra_constraints(L)
            + _module_coalgebra_constraints(R)
            + _left_pairing_constraints(L, R)
            + _product_constraints(R, L, _rule_instances(R))
        )
    )


def union_solve():
    """The solution set of the union system over both tables' unknowns."""
    L, R = LeftActionTable.symbolic(), RightActionTable.symbolic()
    return solve(search_system(), var_universe=L.variables() + R.variables())


@functools.cache
def _union_run():
    sol, shape = search_shape(union_solve)
    L, R = LeftActionTable.symbolic(), RightActionTable.symbolic()
    pairs = tuple(MatchedPairCandidate(L.substitute(b), R.substitute(b)) for b in sol.branches)
    return pairs, sol, shape


def union_route():
    """The union route's (candidates, solution set), solved once per
    session: each branch substituted into both symbolic tables, in branch
    order and with the status still "unchecked"."""
    return _union_run()[:2]


def union_shape():
    """The `search_shape` counts of the one solve behind `union_route`."""
    return _union_run()[2]


# -- the shape of a search ---------------------------------------------------------


def search_shape(run):
    """(run(), (linear batches, forced moves, branching splits)): the
    solver's linear batches and the splits `find_split` returns, by number
    of cases, counted over every solve that run() makes."""
    counts = {"linear": 0, "forced": 0, "branching": 0}
    solve_linear, find_split = solver._solve_linear, solver._Node.find_split

    def counted_solve_linear(linear):
        counts["linear"] += 1
        return solve_linear(linear)

    def counted_find_split(node):
        split = find_split(node)
        if split is not None:
            counts["forced" if len(split[5]) == 1 else "branching"] += 1
        return split

    solver._solve_linear, solver._Node.find_split = counted_solve_linear, counted_find_split
    try:
        result = run()
    finally:
        solver._solve_linear, solver._Node.find_split = solve_linear, find_split
    return result, (counts["linear"], counts["forced"], counts["branching"])
