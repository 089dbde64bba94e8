"""Pins of the compiled constraint systems and of the direct checker's
failure lists.

The systems are pinned by size and by a sha256 over their sorted
`Poly.key()`s, so any change to constraint generation that alters a single
coefficient shows up here, even when the solver would still reach the same
solutions.  The union system that the union route of the matched-pair
search solves (`oracles.search_system`) is also pinned in its canonical
order, by its rendered text and its keys, both as the union of the public
systems and as the route builds it, and so is the term count of the
solver's root round on it.  No memory of the union is pinned: the one
sharing table left, the solver's, is pinned on the right enumeration it
serves (tests/test_solver_pins.py).  The checker is pinned by the exact
`CheckFailure` list (order, condition, `at` tuple and witness text) on
corrupted tables of both sides; the matched-pair checker by count,
per-condition counts and a sha256 of the ordered list, on valid module
actions that do not pair and on the same corrupted tables.  The
skew-primitive bases of H4 (x) H8, whose coalgebra all four bicrossed
products share, are pinned by their group-likes and a sha256 over every
basis vector.
"""

import hashlib
import json
from collections import Counter

import pytest

from hopffactor.actions import (
    LeftActionTable,
    MatchedPairCandidate,
    RightActionTable,
    _canonical_system,
    check_matched_pair,
    check_module_coalgebras,
    g_action_circulant_system,
    left_family_instance,
    left_module_coalgebra_system,
    matched_pair_system,
    module_coalgebra_system,
    right_module_coalgebra_system,
    x_action_circulant_system,
)
from hopffactor.hopf import grouplikes, skew_primitives, tensor_product
from hopffactor.poly import Poly
from hopffactor.presentations import build_H4, build_H8
from hopffactor.scalar import HALF, ONE
from hopffactor.solver import _Node
from oracles import (
    IDENTITY_BLOCK,
    KILLED_GROUPLIKES,
    ZERO_BLOCK,
    antidiagonal_right_table,
    right_table_from_components,
    search_system,
    trivial_right_table,
)


def _sha256(obj):
    text = json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


SYSTEMS = {
    "left": (
        lambda: left_module_coalgebra_system(LeftActionTable.symbolic()),
        939,
        "cc9078ef015fdced35c8026935703176e58adf1570a464a3666d1ccfd1b3018a",
    ),
    "right": (
        lambda: right_module_coalgebra_system(RightActionTable.symbolic()),
        1803,
        "5aad6ae64f6c4ec67f25b85ee6749c1e5d8c9c165ccca727a12216dfe733b105",
    ),
    "matched-pair": (
        lambda: matched_pair_system(
            MatchedPairCandidate(LeftActionTable.symbolic(), RightActionTable.symbolic())
        ),
        2256,
        "ea7035863d16c177d3844331d82f702b4d65cffba7bd4ed6a4827462d27f2f6f",
    ),
    "g-circulant": (
        g_action_circulant_system,
        8,
        "74ced39b80667d9e7b65197e795c01130fc60a796a51583806c9e145bd054387",
    ),
    "x-circulant": (
        lambda: x_action_circulant_system((HALF, HALF, HALF, -HALF)),
        20,
        "c065ccfcdbcd9bde360ecd967721e1ffd9fe277ddb94de168ba841edbe0d0311",
    ),
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_compiled_system_keys_pinned(name):
    build, size, digest = SYSTEMS[name]
    system = build()
    assert len(system) == size
    assert _sha256(sorted(p.key() for p in system)) == digest


# The union system that the union route solves, pinned in its
# canonical order: the rendered constraints and their keys both feed the
# solver's provenance, so neither may change.
UNION_SIZE = 4998
UNION_RENDER_SHA256 = "81662f45be8555bed4410caa30adca1055ecb183352343ea63cf2dbd6ed35729"
UNION_KEY_SHA256 = "efbc00a7e2b449b7cb6cf7a24fd44b0f653c7c8ef0c0233a6a266aa8fdbd4d86"


def test_union_system_order_render_and_keys_pinned():
    L, R = LeftActionTable.symbolic(), RightActionTable.symbolic()
    system = _canonical_system(
        module_coalgebra_system(L)
        + module_coalgebra_system(R)
        + matched_pair_system(MatchedPairCandidate(L, R))
    )
    assert len(system) == UNION_SIZE
    assert _sha256([p.render() for p in system]) == UNION_RENDER_SHA256
    assert _sha256([p.key() for p in system]) == UNION_KEY_SHA256


def test_search_system_is_the_pinned_union():
    # the union route builds the same union from the raw generators
    system = search_system()
    assert len(system) == UNION_SIZE
    assert _sha256([p.render() for p in system]) == UNION_RENDER_SHA256
    assert _sha256([p.key() for p in system]) == UNION_KEY_SHA256


def test_root_round_term_count_pinned():
    # the solver's root round on the union: its first linear batch grows
    # the system from 177,730 to 330,477 terms
    node = _Node({}, list(search_system()), {}, 0)
    assert node.propagate()
    assert sum(len(p.terms) for p in node.constraints) == 330_477


def test_poly_key_is_recomputed_not_cached():
    p = Poly.var("x") * Poly.var("y") - Poly.var("x") * 3 + 1
    assert "_key" not in Poly.__slots__
    assert Poly.__slots__ == ("terms", "nums", "den", "_vars", "_degree")
    first, second = p.key(), p.key()
    assert first == second
    assert first is not second


# The skew-primitive bases between every ordered pair of group-likes of
# H4 (x) H8.  The invariant reports print only their dimensions, so the
# vectors themselves (and so the elimination behind `Mat.kernel`) are
# pinned here: one line "i j vector" per basis vector, in order.
TENSOR_GROUPLIKES = [
    "G⊗gh", "G⊗h", "G⊗g", "G⊗1", "1⊗gh", "1⊗h", "1⊗g", "1⊗1",
]
TENSOR_SKEW_COUNT = 64
TENSOR_SKEW_SHA256 = "653f50a42c5679cb2cbdc413f90239e02affdb65b09004b6acf94634366a385b"


def test_tensor_skew_primitive_bases_pinned():
    T = tensor_product(build_H4(), build_H8())
    gls = grouplikes(T)
    assert [repr(g) for g in gls] == TENSOR_GROUPLIKES
    lines = [
        f"{i} {j} {v!r}"
        for i, a in enumerate(gls)
        for j, b in enumerate(gls)
        for v in skew_primitives(T, a, b)
    ]
    assert len(lines) == TENSOR_SKEW_COUNT
    assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() == TENSOR_SKEW_SHA256


def _corrupt(table, *spots):
    """Copy of `table` with 1 added to coordinate k of each entry (xi, ai, k)."""
    entries = dict(table.entries)
    for xi, ai, k in spots:
        row = list(entries[(xi, ai)])
        row[k] = row[k] + Poly.const(ONE)
        entries[(xi, ai)] = tuple(row)
    return type(table)(entries)


def _grouplike_swap_right():
    # g <| G = h without h <| G = g: the invalid table of the group-like case test
    return right_table_from_components(
        {"g": "h", "h": "h", "gh": "gh"}, KILLED_GROUPLIKES, IDENTITY_BLOCK, ZERO_BLOCK
    )


def _case(name):
    left, right = left_family_instance(2, "b"), antidiagonal_right_table()
    # spots are (H8 index, H4 index, coordinate); H4 index 2 is X
    return {
        "right-grouplike": lambda: MatchedPairCandidate(left, _grouplike_swap_right()),
        "right-entry": lambda: MatchedPairCandidate(left, _corrupt(right, (4, 2, 4))),
        "right-units": lambda: MatchedPairCandidate(
            left, _corrupt(right, (0, 2, 0), (1, 0, 2))
        ),
        "left-entry": lambda: MatchedPairCandidate(_corrupt(left, (4, 2, 1)), right),
        "left-units": lambda: MatchedPairCandidate(
            _corrupt(left, (0, 2, 0), (1, 0, 2)), right
        ),
    }[name]()


_RIGHT_ASSOC = "x <| (ab) != (x <| a) <| b"
_RIGHT_DELTA = "delta(x <| a) != sum x1<|a1 (x) x2<|a2"
_LEFT_ASSOC = "(xy) |> a != x |> (y |> a)"
_LEFT_DELTA = "delta(x |> a) != sum x1|>a1 (x) x2|>a2"

FAILURES = {
    "right-grouplike": [
        ("right-module-associativity", ("g", "G", "G"), _RIGHT_ASSOC),
    ],
    "right-entry": [
        ("right-counit-compatibility", ("z", "X"), "eps(x <| a) = 1"),
        ("right-comultiplication-compatibility", ("z", "X"), _RIGHT_DELTA),
        ("right-comultiplication-compatibility", ("gz", "X"), _RIGHT_DELTA),
        ("right-comultiplication-compatibility", ("hz", "X"), _RIGHT_DELTA),
        ("right-module-associativity", ("z", "G", "GX"), _RIGHT_ASSOC),
        ("right-module-associativity", ("z", "X", "G"), _RIGHT_ASSOC),
        ("right-module-associativity", ("z", "X", "X"), _RIGHT_ASSOC),
        ("right-module-associativity", ("z", "GX", "G"), _RIGHT_ASSOC),
        ("right-module-associativity", ("ghz", "G", "X"), _RIGHT_ASSOC),
    ],
    "right-units": [
        ("right-unit-action", ("g", "1"), "x <| 1 != x"),
        ("right-unit-action", ("1", "X"), "1 <| a != eps(a) 1"),
        ("right-counit-compatibility", ("1", "X"), "eps(x <| a) = 1"),
        ("right-comultiplication-compatibility", ("1", "X"), _RIGHT_DELTA),
        ("right-counit-compatibility", ("g", "1"), "eps(x <| a) = 2"),
        ("right-comultiplication-compatibility", ("g", "1"), _RIGHT_DELTA),
        ("right-module-associativity", ("1", "G", "X"), _RIGHT_ASSOC),
        ("right-module-associativity", ("1", "G", "GX"), _RIGHT_ASSOC),
        ("right-module-associativity", ("1", "X", "G"), _RIGHT_ASSOC),
        ("right-module-associativity", ("1", "X", "X"), _RIGHT_ASSOC),
        ("right-module-associativity", ("1", "GX", "G"), _RIGHT_ASSOC),
        ("right-module-associativity", ("g", "1", "1"), _RIGHT_ASSOC),
        ("right-module-associativity", ("g", "1", "G"), _RIGHT_ASSOC),
        ("right-module-associativity", ("g", "G", "1"), _RIGHT_ASSOC),
        ("right-module-associativity", ("g", "G", "G"), _RIGHT_ASSOC),
    ],
    "left-entry": [
        ("left-counit-compatibility", ("z", "X"), "eps(x |> a) = 1"),
        ("left-comultiplication-compatibility", ("z", "X"), _LEFT_DELTA),
    ] + [
        ("left-module-associativity", (x, y, "X"), _LEFT_ASSOC)
        for x, y in (
            ("g", "z"), ("g", "gz"), ("h", "z"), ("h", "hz"), ("gh", "z"),
            ("gh", "ghz"), ("z", "g"), ("z", "h"), ("z", "gh"), ("z", "gz"),
            ("z", "hz"), ("z", "ghz"), ("gz", "h"), ("gz", "z"), ("hz", "g"),
            ("hz", "z"), ("ghz", "gh"), ("ghz", "z"),
        )
    ],
}

# the 81-entry list of the corrupted left units, pinned by digest; its head
# covers both unit witnesses
LEFT_UNITS_COUNT = 81
LEFT_UNITS_SHA256 = "9f78a8dce7c52f559d525fb01fb43058f18a8983b351ebe954d1832cd012819f"
LEFT_UNITS_HEAD = [
    ("left-unit-action", ("1", "X"), "1 |> a != a"),
    ("left-unit-action", ("g", "1"), "x |> 1 != eps(x) 1"),
    ("left-counit-compatibility", ("1", "X"), "eps(x |> a) = 1"),
    ("left-comultiplication-compatibility", ("1", "X"), _LEFT_DELTA),
]


def _failures(name):
    return [(f.condition, f.at, f.witness) for f in check_module_coalgebras(_case(name))]


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_check_failures_pinned(name):
    assert _failures(name) == FAILURES[name]


def test_check_failures_pinned_left_units():
    got = _failures("left-units")
    assert got[: len(LEFT_UNITS_HEAD)] == LEFT_UNITS_HEAD
    assert len(got) == LEFT_UNITS_COUNT
    assert _sha256([[c, list(at), w] for c, at, w in got]) == LEFT_UNITS_SHA256


# check_matched_pair on six candidates: two valid module actions that do not
# pair (one failing only the exchange condition, one only the left product
# rule) and the four corrupted cases above, which between them fail both
# product rules, unit compatibility and exchange.  Each entry is (count,
# per-condition counts, sha256 of the ordered [condition, at, witness] list).
PAIR_CASES = {
    "trivial-left-antidiagonal": lambda: MatchedPairCandidate(
        left_family_instance(1, "a"), antidiagonal_right_table()
    ),
    "family-2b-trivial-right": lambda: MatchedPairCandidate(
        left_family_instance(2, "b", ONE, ONE), trivial_right_table()
    ),
    "right-entry": lambda: _case("right-entry"),
    "right-units": lambda: _case("right-units"),
    "left-entry": lambda: _case("left-entry"),
    "left-units": lambda: _case("left-units"),
}

_LP, _RP, _UC, _EX = (
    "left-product-compatibility",
    "right-product-compatibility",
    "unit-compatibility",
    "exchange-compatibility",
)

PAIR_FAILURES = {
    "trivial-left-antidiagonal": (
        8, {_EX: 8},
        "7935c6a940903b2e0ee0b9e02ac678a56cf8f9d77766bef9b778b8d1c1fe6952",
    ),
    "family-2b-trivial-right": (
        24, {_LP: 24},
        "11745a570b1a35d4b83aa3ebe7afbc2800d9fb7fa300d1d4eb5d93fcb88def48",
    ),
    "right-entry": (
        78, {_LP: 26, _RP: 44, _EX: 8},
        "c8c4094992a1c74c13cfe24581658a9fecaedb596bcca53fd636593b9da41027",
    ),
    "right-units": (
        135, {_UC: 1, _LP: 34, _RP: 89, _EX: 11},
        "18786bfb9905bde106ab8ee4abb396ba94b66f0c65109397d7322d3ad36e1b91",
    ),
    "left-entry": (
        74, {_LP: 26, _RP: 40, _EX: 8},
        "cc1f7ef5d6de75fc511820449054118321ff44e45b693af2f28a62a14429ac76",
    ),
    "left-units": (
        84, {_UC: 1, _LP: 35, _RP: 40, _EX: 8},
        "03ae89f9e73fc68433c5d78c5c4d14a56d14bbf8c0cf3b331e15d3e83baebdb4",
    ),
}


@pytest.mark.parametrize("name", sorted(PAIR_FAILURES))
def test_matched_pair_failures_pinned(name):
    got = [(f.condition, f.at, f.witness) for f in check_matched_pair(PAIR_CASES[name]())]
    count, per_condition, digest = PAIR_FAILURES[name]
    assert len(got) == count
    assert Counter(c for c, _, _ in got) == per_condition
    assert _sha256([[c, list(at), w] for c, at, w in got]) == digest
