"""Pins of the matched-pair solution sets.

The search behind the paper's count is pinned by a sha256 over its
`solutions/v1` JSON, and so is the union route that tests hold it to (one
solve on 4,998 constraints and 252 unknowns, `oracles.union_route`).  A
change to the solver's internals that alters a branch key, a rendered
substitution or a single provenance entry (its depth, rule, constraint at
its current scale, variable or cases) shows up here even when the count
of four stays right.  The search's provenance is the left enumeration's:
its per-family solves make no split.

The shape of the searches is pinned too: the number of linear batches,
forced moves, branching splits and branches of the left enumeration, of
the matched-pair search (the left enumeration plus its per-family solves)
and of the union route, counted during the one solve `union_route`
caches.  So is the traced memory of the right enumeration, the solve that
the solver's table of shared monomials and numerator pairs serves.
"""

import hashlib
import json
import tracemalloc

import pytest

from hopffactor import actions
from hopffactor.actions import (
    enumerate_left_actions,
    enumerate_right_actions,
    matched_pair_search,
)
from hopffactor.solver import IrreducibleSystemError
from oracles import search_shape, union_route, union_shape

MATCHED_PAIR_SOLUTIONS_SHA256 = (
    "32f1fef8b344d3f592db1cc0f754609808b8f12db97fe9ada3a6e75ed4d87445"
)
SEARCH_SOLUTIONS_SHA256 = (
    "7c61a9b08d3e2807bb37d116f705d0a5d0e212fb38cf34e94634f62350e899df"
)


def _sha256(payload):
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_matched_pair_solution_set_is_pinned():
    # the union route's solution set
    payload = union_route()[1].to_json()
    assert len(payload["provenance"]) == 11
    assert len(payload["solutions"]) == 4
    assert _sha256(payload) == MATCHED_PAIR_SOLUTIONS_SHA256


def test_search_solution_set_is_pinned():
    payload = matched_pair_search()[1].to_json()
    assert len(payload["solutions"]) == 4
    assert payload["provenance"] == enumerate_left_actions().to_json()["provenance"]
    assert len(payload["provenance"]) == 26
    assert _sha256(payload) == SEARCH_SOLUTIONS_SHA256


# (linear batches, forced moves, branching splits, branches); the left
# enumeration's generator-instance system takes one linear batch more than
# the full one did (55), with the same splits
SEARCH_SHAPES = {
    "left-enumeration": (lambda: search_shape(enumerate_left_actions), (56, 6, 26, 16)),
    "matched-pair-search": (
        lambda: search_shape(lambda: actions._matched_pair_search_uncached()[1]),
        (63, 6, 26, 4),
    ),
    "union-route": (lambda: (union_route()[1], union_shape()), (35, 6, 11, 4)),
}


@pytest.mark.parametrize("name", sorted(SEARCH_SHAPES))
def test_search_shape_is_pinned(name):
    run, shape = SEARCH_SHAPES[name]
    sol, (linear, forced, branching) = run()
    assert branching == len(sol.provenance)
    assert (linear, forced, branching, len(sol.branches)) == shape


# The right enumeration stops on 1,056 quadratic constraints after rounds
# of batches that rebuild all of them.  Its traced peak is about 4.25 MB
# with the solver's table (`solver._Node.intern`) and 5.25-5.33 MB when
# the batches share nothing, every result holding its own monomial and
# numerator-pair tuples.
RIGHT_ENUMERATION_TRACED_PEAK_CEILING = 4_750_000


def test_right_enumeration_traced_peak_under_ceiling():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(IrreducibleSystemError) as err:
            enumerate_right_actions()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(err.value.residual) == 1056
    assert peak < RIGHT_ENUMERATION_TRACED_PEAK_CEILING
