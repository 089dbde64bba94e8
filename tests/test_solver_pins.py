"""Pin of the matched-pair solution set.

The solve behind the paper's count (4,998 constraints, 252 unknowns) is
pinned by a sha256 over its `solutions/v1` JSON, so a change to the solver's
internals that alters a branch key, a rendered substitution or a single
provenance entry (its depth, rule, constraint at its current scale, variable
or cases) shows up here even when the count of four stays right.
"""

import hashlib
import json

from hopffactor.actions import matched_pair_search

MATCHED_PAIR_SOLUTIONS_SHA256 = (
    "32f1fef8b344d3f592db1cc0f754609808b8f12db97fe9ada3a6e75ed4d87445"
)


def test_matched_pair_solution_set_is_pinned():
    payload = matched_pair_search()[1].to_json()
    assert len(payload["provenance"]) == 11
    assert len(payload["solutions"]) == 4
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MATCHED_PAIR_SOLUTIONS_SHA256
