"""Pin of the matched-pair solution set.

The solve behind the paper's count (4,998 constraints, 252 unknowns) is
pinned by a sha256 over its `solutions/v1` JSON, so a change to the solver's
internals that alters a branch key, a rendered substitution or a single
provenance entry (its depth, rule, constraint at its current scale, variable
or cases) shows up here even when the count of four stays right.

The shape of the searches is pinned too: the number of linear batches,
forced moves, branching splits and branches of the left enumeration and of
the matched-pair search.
"""

import hashlib
import json

import pytest

from hopffactor import solver
from hopffactor.actions import (
    LeftActionTable,
    RightActionTable,
    _search_system,
    enumerate_left_actions,
    matched_pair_search,
)

MATCHED_PAIR_SOLUTIONS_SHA256 = (
    "32f1fef8b344d3f592db1cc0f754609808b8f12db97fe9ada3a6e75ed4d87445"
)


def test_matched_pair_solution_set_is_pinned():
    payload = matched_pair_search()[1].to_json()
    assert len(payload["provenance"]) == 11
    assert len(payload["solutions"]) == 4
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MATCHED_PAIR_SOLUTIONS_SHA256


def _matched_pair_solve():
    L, R = LeftActionTable.symbolic(), RightActionTable.symbolic()
    return solver.solve(_search_system(L, R), var_universe=L.variables() + R.variables())


# (linear batches, forced moves, branching splits, branches)
SEARCH_SHAPES = {
    "left-enumeration": (enumerate_left_actions, (55, 6, 26, 16)),
    "matched-pair-search": (_matched_pair_solve, (35, 6, 11, 4)),
}


@pytest.mark.parametrize("name", sorted(SEARCH_SHAPES))
def test_search_shape_is_pinned(name, monkeypatch):
    run, shape = SEARCH_SHAPES[name]
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

    monkeypatch.setattr(solver, "_solve_linear", counted_solve_linear)
    monkeypatch.setattr(solver._Node, "find_split", counted_find_split)
    sol = run()
    assert counts["branching"] == len(sol.provenance)
    assert (counts["linear"], counts["forced"], counts["branching"], len(sol.branches)) == shape
