"""Action tables, compiled systems, enumeration, and the matched-pair search."""

import pytest

from hopffactor.actions import (
    LeftActionTable,
    MatchedPairCandidate,
    RightActionTable,
    _fixed_grouplike_right_table,
    check_matched_pair,
    check_module_coalgebra,
    check_module_coalgebras,
    classify_left_table,
    enumerate_left_actions,
    enumerate_right_actions,
    g_action_circulant_system,
    left_family_instance,
    left_module_coalgebra_system,
    matched_pair_search,
    matched_pair_system,
    module_coalgebra_system,
    right_module_coalgebra_system,
    settle_status,
    x_action_circulant_system,
)
from hopffactor.hopf import _generators
from hopffactor.poly import Poly, _Batch
from hopffactor.presentations import build_H4, build_H8
from hopffactor.scalar import HALF, I, ONE, ZERO, Scalar
from hopffactor.solver import Branch, IrreducibleSystemError, SolutionSet, solve
from oracles import (
    ANTIDIAGONAL_BLOCK,
    FIXED_GROUPLIKES,
    IDENTITY_BLOCK,
    KILLED_GROUPLIKES,
    ZERO_BLOCK,
    antidiagonal_right_table,
    contains_point,
    right_table_from_components,
    sample,
    trivial_right_table,
    union_route,
    zblock_matrix,
)


@pytest.fixture(scope="module")
def left_solutions():
    return enumerate_left_actions()


@pytest.fixture(scope="module")
def search_result():
    return matched_pair_search()


def concrete_table_from_branch(branch):
    L = LeftActionTable.symbolic()
    point = sample(branch)
    return L.substitute(Branch({v: Poly.const(c) for v, c in point.items()}, []))


# -- the sixteen published left families ------------------------------------------


def test_all_sixteen_instances_pass_at_parameter_one():
    for xf in (1, 2, 3, 4):
        for gf in "abcd":
            table = left_family_instance(xf, gf, ONE, ONE)
            assert check_module_coalgebra(table) == []
            residual = [
                p for p in left_module_coalgebra_system(table) if not p.is_zero()
            ]
            assert residual == []


def test_family_three_value_at_parameter_one():
    # z acts on X by (1-i)/2 (G-1) + iX in the third family at parameter 1
    table = left_family_instance(3, "a", ONE, ONE)
    h4 = table.h4
    val = table.scalar_entries()[(4, h4.index["X"])]
    assert val == (Scalar(-1, 2, 1, 2), Scalar(1, 2, -1, 2), I, ZERO)


def test_enumeration_finds_sixteen_families(left_solutions):
    assert len(left_solutions.branches) == 16


def test_enumeration_matches_published_families(left_solutions):
    seen = set()
    for br in left_solutions.branches:
        cls = classify_left_table(concrete_table_from_branch(br))
        assert cls is not None, f"unrecognized family: {br!r}"
        seen.add((cls[0], cls[1]))
    assert seen == {(xf, gf) for xf in (1, 2, 3, 4) for gf in "abcd"}


def test_trivial_action_is_a_branch(left_solutions):
    trivial = left_family_instance(1, "a")
    point = {}
    for (xi, ai), coords in trivial.scalar_entries().items():
        if xi == 0 or ai == 0:
            continue
        h8b, h4b = trivial.h8.basis, trivial.h4.basis
        for k, c in enumerate(coords):
            point[f"l_{h8b[xi]}_{h4b[ai]}_{h4b[k]}"] = c
    assert any(contains_point(br, point) for br in left_solutions.branches)


def test_gamma_squared_branch_point_in_provenance(left_solutions):
    quad_splits = [
        e
        for e in left_solutions.provenance
        if e["rule"] == "quadratic"
        and sorted(c.split(" = ")[1] for c in e["cases"]) == ["-i", "i"]
    ]
    assert any(e["variable"] == "l_z_X_X" for e in quad_splits)
    assert any(e["variable"] == "l_z_GX_GX" for e in quad_splits)


def test_normalizations_emerge_not_assumed(left_solutions):
    # g |> G = h |> G = z |> G = G in every family, and the sign/parameter
    # relations (1+beta)alpha = 0 and beta^2 = 1 hold for the g-action on X
    for br in left_solutions.branches:
        table = concrete_table_from_branch(br)
        scalars = table.scalar_entries()
        h4 = table.h4
        G_vec = tuple(ONE if k == h4.index["G"] else ZERO for k in range(4))
        for xi in (1, 2, 4):
            assert scalars[(xi, h4.index["G"])] == G_vec
        gX = scalars[(1, h4.index["X"])]
        alpha, beta = gX[1], gX[2]
        assert (ONE + beta) * alpha == ZERO
        assert beta * beta == ONE


def test_free_parameter_counts_match_tables(left_solutions):
    # one free parameter per nontrivial family on each column, none for the
    # trivial one
    for br in left_solutions.branches:
        cls = classify_left_table(concrete_table_from_branch(br))
        expected = (0 if cls[0] == 1 else 1) + (0 if cls[1] == "a" else 1)
        assert len(br.free) == expected, (cls, br.free)


def test_mixed_case_parameters_agree(left_solutions):
    # whenever both g and h act nontrivially on X, their parameters coincide
    for br in left_solutions.branches:
        scalars = concrete_table_from_branch(br).scalar_entries()
        xi = 2  # X column
        g_row, h_row = scalars[(1, xi)], scalars[(2, xi)]
        if g_row[2] == -ONE and h_row[2] == -ONE:
            assert g_row[1] == h_row[1]


# -- right module-coalgebra structures ----------------------------------------------


def test_published_right_examples_are_valid():
    assert check_module_coalgebra(trivial_right_table()) == []
    table = antidiagonal_right_table()
    assert check_module_coalgebra(table) == []
    residual = [p for p in right_module_coalgebra_system(table) if not p.is_zero()]
    assert residual == []


def test_antidiagonal_matrix_shape():
    table = antidiagonal_right_table()
    assert zblock_matrix(table, "G") == ANTIDIAGONAL_BLOCK
    assert zblock_matrix(table, "X") == ZERO_BLOCK


@pytest.mark.parametrize("a_matrix", [IDENTITY_BLOCK, ANTIDIAGONAL_BLOCK], ids=("E", "antidiag"))
def test_fixed_grouplike_table_matches_the_component_oracle(a_matrix):
    # the circulant systems' builder, against the table read from its components
    b_matrix = tuple(tuple(Poly.var(f"b{i}{j}") for j in range(4)) for i in range(4))
    built = _fixed_grouplike_right_table(a_matrix, b_matrix)
    oracle = right_table_from_components(FIXED_GROUPLIKES, KILLED_GROUPLIKES, a_matrix, b_matrix)
    assert built.table_key() == oracle.table_key()


def test_grouplike_action_case_constraints():
    # g<|G = h forces h<|G = g and gh<|G = gh; breaking that fails the axioms
    valid = right_table_from_components(
        {"g": "h", "h": "g", "gh": "gh"}, KILLED_GROUPLIKES, IDENTITY_BLOCK, ZERO_BLOCK
    )
    module_failures = [
        f for f in check_module_coalgebra(valid)
        if f.condition == "right-module-associativity"
    ]
    assert module_failures == []

    invalid = right_table_from_components(
        {"g": "h", "h": "h", "gh": "gh"}, KILLED_GROUPLIKES, IDENTITY_BLOCK, ZERO_BLOCK
    )
    assert check_module_coalgebra(invalid) != []


def test_right_enumeration_reports_irreducible():
    # the z-block of the G-action ranges over a two-dimensional quadric of
    # involutive coalgebra maps, which no finite union of polynomial graphs
    # covers: the honest outcome of the standalone enumeration is the
    # irreducible-system error, carrying the residual
    with pytest.raises(IrreducibleSystemError) as err:
        enumerate_right_actions()
    assert err.value.residual
    assert err.value.reason in ("no-applicable-rule", "budget-exhausted")


# -- the published small systems -----------------------------------------------------


def test_g_action_circulant_system_solutions():
    solset = solve(g_action_circulant_system())
    points = sorted(
        tuple(str(br.point()[v]) for v in ("a", "b", "c", "d")) for br in solset
    )
    assert points == [
        ("-1/2", "1/2", "1/2", "1/2"),
        ("0", "0", "0", "1"),
        ("1", "0", "0", "0"),
        ("1/2", "1/2", "1/2", "-1/2"),
    ]


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
def test_x_action_circulant_system_forces_zero(a_values):
    solset = solve(x_action_circulant_system(a_values))
    assert len(solset.branches) == 1
    point = solset.branches[0].point()
    assert all(point[v] == ZERO for v in ("p", "q", "r", "s"))


# -- matched pairs ---------------------------------------------------------------


def test_exactly_four_matched_pairs(search_result):
    pairs, _ = search_result
    assert len(pairs) == 4
    assert all(p.status == "matched" for p in pairs)


def test_search_rejects_a_pair_the_direct_checks_fail(left_solutions, monkeypatch):
    # the search re-checks every branch it turns into a pair and stops on the
    # first failure, naming it; the first left family gives a pair
    from hopffactor import actions

    first_family = SolutionSet(left_solutions.branches[:1], [])
    monkeypatch.setattr(actions, "enumerate_left_actions", lambda: first_family)
    planted = actions.CheckFailure("exchange-compatibility", ("z", "X"), "planted")
    monkeypatch.setattr(actions, "check_matched_pair", lambda cand: [planted])
    with pytest.raises(AssertionError) as err:
        actions._matched_pair_search_uncached()
    assert str(err.value) == (
        "solver emitted an unmatched pair: exchange-compatibility fails at (z, X): planted"
    )


def test_matched_pairs_recheck_directly(search_result):
    pairs, _ = search_result
    for pair in pairs:
        assert check_module_coalgebras(pair) == []
        assert check_matched_pair(pair) == []


def test_matched_pair_families(search_result):
    pairs, _ = search_result
    classified = set()
    for pair in pairs:
        xf, gf, alpha, beta = classify_left_table(pair.left)
        assert alpha == ZERO and beta == ZERO
        A = zblock_matrix(pair.right, "G")
        assert zblock_matrix(pair.right, "X") == ZERO_BLOCK
        a_kind = "E" if A == IDENTITY_BLOCK else ("antidiag" if A == ANTIDIAGONAL_BLOCK else "other")
        classified.add((xf, gf, a_kind))
    assert classified == {
        (1, "a", "E"),
        (2, "b", "E"),
        (3, "c", "antidiag"),
        (4, "d", "antidiag"),
    }


def test_matched_pair_emergent_facts(search_result):
    # row sums of A equal one and the group-likes stay fixed, as consequences
    pairs, _ = search_result
    for pair in pairs:
        A = zblock_matrix(pair.right, "G")
        colsum = A[0][0] + A[1][0] + A[2][0] + A[3][0]
        assert colsum == ONE
        scalars = pair.right.scalar_entries()
        h4 = pair.right.h4
        for xi in (1, 2, 3):
            expected = tuple(ONE if k == xi else ZERO for k in range(8))
            assert scalars[(xi, h4.index["G"])] == expected


def test_from_generators_rebuilds_the_searched_tables(search_result):
    # the module law fills in every compound element on both sides:
    # gh, gz, hz, ghz acting on H4 and GX acting on H8
    pairs, _ = search_result
    assert len(pairs) == 4
    for pair in pairs:
        for table, generators in ((pair.left, "ghz"), (pair.right, "GX")):
            act = table.by_acting(table.entries)
            images = {
                (table.acting.index[g], w): act[(table.acting.index[g], w)]
                for g in generators
                for w in range(1, table.acted.dim)
            }
            rebuilt = type(table).from_generators(images)
            assert rebuilt.table_key() == table.table_key()


@pytest.mark.parametrize(
    "table_cls, generators, compound, first, second",
    [(LeftActionTable, "ghz", "gz", "z", "g"), (RightActionTable, "GX", "GX", "G", "X")],
    ids=("left", "right"),
)
def test_from_generators_reads_a_label_in_module_law_order(
    table_cls, generators, compound, first, second
):
    # on unknown generator rows, where the order shows: gz |> w = g |> (z |> w)
    # and w <| GX = (w <| G) <| X (g, h act alike and X kills H8 on the pairs)
    T = table_cls.symbolic()
    act, index, n_acted = T.by_acting(T.entries), T.acting.index, range(T.acted.dim)
    images = {(index[g], w): act[(index[g], w)] for g in generators for w in n_acted if w}
    built = T.by_acting(table_cls.from_generators(images).entries)
    for w in n_acted:
        expected = [Poly()] * T.acted.dim
        for k, p in enumerate(act[(index[first], w)]):
            for m, q in enumerate(act[(index[second], k)]):
                expected[m] = expected[m] + p * q
        assert built[(index[compound], w)] == tuple(expected)


def _recording_solve(monkeypatch, replace=None):
    """Route the action layer's solves through a wrapper that records each
    (unknown universe, solution set), after `replace` may swap the result."""
    from hopffactor import actions

    calls = []

    def recording(system, var_universe):
        sol = solve(system, var_universe=var_universe)
        if replace is not None:
            sol = replace(tuple(var_universe), sol)
        calls.append((tuple(var_universe), sol))
        return sol

    monkeypatch.setattr(actions, "solve", recording)
    return calls


def test_left_families_then_right_solve_reach_the_same_pairs(search_result, monkeypatch):
    # the second route: one solve of the union of both tables' systems and the
    # whole pairing system, instead of the search's two stages per left family
    from hopffactor import actions

    union_pairs, union_sol = union_route()
    keys = set()
    for pair in union_pairs:
        assert pair.left.is_concrete() and pair.right.is_concrete()
        assert settle_status(pair) == []
        keys.add((pair.left.table_key(), pair.right.table_key()))
    pairs, sol = search_result
    assert len(keys) == 4
    assert keys == {(p.left.table_key(), p.right.table_key()) for p in pairs}
    assert [b.key() for b in union_sol.branches] == [b.key() for b in sol.branches]
    # per family: twelve stage-1 systems die at input, four end in one point,
    # and each point's stage 2 has nothing left to solve
    calls = _recording_solve(monkeypatch)
    actions._matched_pair_search_uncached()
    right = set(RightActionTable.symbolic().variables())
    stages = [len(s.branches) for universe, s in calls[1:] if right <= set(universe)]
    assert stages == [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]
    assert [(u, len(s.branches)) for u, s in calls[1:] if not right <= set(u)] == [((), 1)] * 4


def _left_rule_at(Lf, R, u, w, v):
    """u |> (wv) - sum (u1 |> w1)((u2 <| w2) |> v) in H4 coordinates, by plain
    Poly arithmetic on the table entries."""
    h8, h4 = Lf.h8, Lf.h4
    diff = [Poly() for _ in range(h4.dim)]
    for m, c in h4.mul[w][v]:
        for k, p in enumerate(Lf.entry(u, m)):
            diff[k] = diff[k] + p * c
    for cu, u1, u2 in h8.comul[u]:
        for cw, w1, w2 in h4.comul[w]:
            through = [Poly() for _ in range(h4.dim)]
            for q, rq in enumerate(R.entry(u2, w2)):
                for t, lt in enumerate(Lf.entry(q, v)):
                    through[t] = through[t] + rq * lt
            for s, ds in enumerate(Lf.entry(u1, w1)):
                for t, pt in enumerate(through):
                    for m, cm in h4.mul[s][t]:
                        diff[m] = diff[m] - ds * pt * (cu * cw * cm)
    return diff


def test_dead_left_families_fail_the_left_product_rule_at_gx_g(left_solutions):
    # with the family substituted and the right table symbolic, the left
    # product rule at (u, GX, G) has a nonzero constant coordinate for the 12
    # families without a partner, whatever the right action and the family's
    # parameters; the search settles them at that constant
    from hopffactor.actions import _obstruction

    L, R = LeftActionTable.symbolic(), RightActionTable.symbolic()
    GX, G = L.h4.index["GX"], L.h4.index["G"]
    dead = []
    for n, family in enumerate(left_solutions.branches):
        Lf = L.substitute(family)
        constants = [
            p for u in range(L.h8.dim) for p in _left_rule_at(Lf, R, u, GX, G)
            if p.is_const() and not p.is_zero()
        ]
        if constants:
            dead.append(n)
        assert (_obstruction(Lf, R) is not None) == bool(constants)
    assert dead == [1, 2, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14]


def test_right_module_keyed_once_gives_the_canonical_system(left_solutions):
    # a live family's stage-1 system, with the right-module part keyed
    # before the family loop, is the canonical system of the concatenation:
    # the same keys in the same order, and the first-seen constraint of each
    from hopffactor.actions import (
        _canonical_system,
        _keyed_groups,
        _left_pairing_constraints,
        _module_coalgebra_constraints,
    )

    L, R = LeftActionTable.symbolic(), RightActionTable.symbolic()
    right_module = _module_coalgebra_constraints(R)
    pairing = _left_pairing_constraints(L.substitute(left_solutions.branches[0]), R)
    merged = _canonical_system(pairing, _keyed_groups(right_module))
    expected = _canonical_system(right_module + pairing)
    assert [p.key() for p in merged] == [p.key() for p in expected]
    assert all(a is b for a, b in zip(merged, expected))


def test_stage_two_fixes_a_right_unknown_that_stage_one_left_free(search_result, monkeypatch):
    # every stage-1 branch of the search is a point, so here one family's
    # stage-1 point comes back with z <| G's ghz coordinate free; stage 2, the
    # right product rule on the substituted tables, must fix it to 1
    from hopffactor import actions

    freed, done = "r_z_G_ghz", []

    def free_one_unknown(universe, sol):
        if done or freed not in universe or not sol.branches:
            return sol
        (point,) = sol.branches
        if point.subst[freed].is_zero():
            return sol
        done.append(point)
        subst = {v: e for v, e in point.subst.items() if v != freed}
        return SolutionSet([Branch(subst, (freed,))], sol.provenance)

    calls = _recording_solve(monkeypatch, free_one_unknown)
    pairs, sol = actions._matched_pair_search_uncached()
    (stage2,) = [s for universe, s in calls if universe == (freed,)]
    (branch,) = stage2.branches
    assert branch.is_point() and branch.point() == {freed: ONE}
    expected_pairs, expected_sol = search_result
    assert [b.key() for b in sol.branches] == [b.key() for b in expected_sol.branches]
    assert [(p.left.table_key(), p.right.table_key()) for p in pairs] == [
        (p.left.table_key(), p.right.table_key()) for p in expected_pairs
    ]


def test_matched_branch_points_are_concrete(search_result):
    _, sol = search_result
    assert len(sol.branches) == 4
    for br in sol.branches:
        assert br.is_point()


def _substituted_entrywise(table, branch):
    return {key: tuple(p.subst_many(branch.subst) for p in row) for key, row in table.entries.items()}


@pytest.mark.parametrize("table_cls", [LeftActionTable, RightActionTable])
def test_substitute_matches_entrywise_on_matched_pair_branches(search_result, table_cls):
    # `substitute` applies one batch to the whole table
    branches = search_result[1].branches
    assert len(branches) == 4
    table = table_cls.symbolic()
    for branch in branches:
        got = table.substitute(branch)
        assert got.is_concrete()
        assert got.entries == _substituted_entrywise(table, branch)


def test_substitute_matches_entrywise_on_left_families(left_solutions):
    # partial branches: the substituted tables keep free unknowns
    table = LeftActionTable.symbolic()
    assert any(branch.free for branch in left_solutions.branches)
    for branch in left_solutions.branches:
        assert table.substitute(branch).entries == _substituted_entrywise(table, branch)


def test_matched_pair_system_trivial_candidate_is_satisfied():
    cand = MatchedPairCandidate(left_family_instance(1, "a"), trivial_right_table())
    residual = [p for p in matched_pair_system(cand) if not p.is_zero()]
    assert residual == []


def test_settle_status_follows_the_direct_checks():
    matched = MatchedPairCandidate(left_family_instance(1, "a"), trivial_right_table())
    assert settle_status(matched) == [] and matched.status == "matched"

    unpaired = MatchedPairCandidate(left_family_instance(1, "a"), antidiagonal_right_table())
    assert settle_status(unpaired) == check_matched_pair(unpaired) != []
    assert unpaired.status == "module-valid"

    # one left coefficient off: the stored "matched" is overwritten
    payload = left_family_instance(1, "a").to_json()
    payload["entries"][9][2][1] = (Scalar.from_json(payload["entries"][9][2][1]) + ONE).to_json()
    broken = MatchedPairCandidate(
        LeftActionTable.from_json(payload), trivial_right_table(), status="matched"
    )
    module = check_module_coalgebras(broken)
    assert module != []
    assert settle_status(broken) == module + check_matched_pair(broken)
    assert broken.status == "unchecked"


# -- generator instances --------------------------------------------------------------


def test_instance_sets_are_the_generators_of_the_acting_algebra(monkeypatch):
    # the left enumeration reduces over H8 acting; the search's right-module
    # part over H4 acting, stage 1 over H4 in the middle, stage 2 over H8
    from hopffactor import actions

    H8, H4 = build_H8(), build_H4()
    assert [H8.basis[s] for s in actions._generator_indices(H8)] == ["g", "h", "z"]
    assert [H4.basis[s] for s in actions._generator_indices(H4)] == ["G", "X"]
    L, R = LeftActionTable.symbolic(), RightActionTable.symbolic()
    assert actions._rule_middles(L) == _generators(H4)
    assert actions._rule_middles(R) == _generators(H8)
    real, seen = actions._generator_indices, []

    def recording(H):
        seen.append((H.name, real(H)))
        return seen[-1][1]

    monkeypatch.setattr(actions, "_generator_indices", recording)
    actions._matched_pair_search_uncached()
    assert [name for name, _ in seen] == ["H8", "H4", "H4", "H8"]
    assert all(S == _generators(H8 if name == "H8" else H4) for name, S in seen)


def test_instance_set_falls_back_to_every_index(monkeypatch):
    # g and h alone do not generate H8 (z is missing), so no law is reduced
    from hopffactor import actions

    H8 = build_H8()
    monkeypatch.setattr(actions, "_generators", lambda H: [H.index["g"], H.index["h"]])
    assert actions._generator_indices(H8) == range(H8.dim)


def test_rule_middles_fall_back_unless_the_closure_reaches_everything(monkeypatch):
    # from w = z alone the right rule's closure stays at span{1, z}: the
    # second legs of z include hz, so no e_p qualifies to multiply by
    from hopffactor import actions

    R = RightActionTable.symbolic()
    z = R.acted.index["z"]
    monkeypatch.setattr(actions, "_generator_indices", lambda H: [z])
    assert actions._rule_middles(R) == range(8)


def test_left_branches_satisfy_the_full_module_coalgebra_system(left_solutions):
    # the enumeration solves 413 generator-instance constraints; every
    # family must satisfy all 939 of the full system, parameters free
    from hopffactor import actions

    L = LeftActionTable.symbolic()
    assert len(module_coalgebra_system(L, actions._generator_indices(L.acting))) == 413
    full = module_coalgebra_system(L)
    assert len(full) == 939
    for branch in left_solutions.branches:
        batch = _Batch(branch.subst)
        assert [p for p in full if not batch.apply(p).is_zero()] == []


def test_live_stage_one_branches_satisfy_every_instance(left_solutions, monkeypatch):
    # stage 1 imposes the right-module laws with G or X acting and the left
    # product rule with G or X in the middle; its four points must satisfy
    # the full right-module system and the left product rule at all 128
    # instances (u, w, v), evaluated by plain Poly arithmetic
    from hopffactor import actions

    calls = _recording_solve(monkeypatch)
    actions._matched_pair_search_uncached()
    L, R = LeftActionTable.symbolic(), RightActionTable.symbolic()
    right = set(R.variables())
    stage1 = [s for universe, s in calls[1:] if right <= set(universe)]
    assert len(stage1) == len(left_solutions.branches) == 16
    instances = [(u, w, v) for u in range(8) for w in range(4) for v in range(4)]
    assert len(instances) == 128
    live = 0
    for family, sol in zip(left_solutions.branches, stage1):
        Lf = L.substitute(family)
        for branch in sol.branches:
            live += 1
            Ls, Rs = Lf.substitute(branch), R.substitute(branch)
            assert [p for p in module_coalgebra_system(Rs) if not p.is_zero()] == []
            for u, w, v in instances:
                assert all(p.is_zero() for p in _left_rule_at(Ls, Rs, u, w, v))
    assert live == 4


def test_left_enumeration_without_z_instances_does_not_decide(monkeypatch):
    # g and h do not generate H8: with z dropped from the instance set the
    # reduced system no longer pins the sixteen families, and the solver
    # stops on quadratics in the z entries it cannot split
    from hopffactor import actions

    real = actions._generator_indices
    monkeypatch.setattr(
        actions, "_generator_indices",
        lambda H: [s for s in real(H) if H.basis[s] != "z"],
    )
    with pytest.raises(IrreducibleSystemError, match="no-applicable-rule"):
        enumerate_left_actions()


# -- negative controls ---------------------------------------------------------------


def test_trivial_left_with_antidiagonal_right_fails_exchange():
    cand = MatchedPairCandidate(left_family_instance(1, "a"), antidiagonal_right_table())
    assert check_module_coalgebras(cand) == []
    failures = check_matched_pair(cand)
    zx = [
        f for f in failures
        if f.condition == "exchange-compatibility" and f.at == ("z", "X")
    ]
    assert zx, f"expected an exchange failure at (z, X); got {failures[:3]}"
    assert "z⊗X" in zx[0].witness and "ghz⊗X" in zx[0].witness


def test_family_two_at_nonzero_parameter_fails_x_squared():
    cand = MatchedPairCandidate(
        left_family_instance(2, "b", ONE, ONE), trivial_right_table()
    )
    assert check_module_coalgebras(cand) == []
    failures = check_matched_pair(cand)
    xsq = [
        f for f in failures
        if f.condition == "left-product-compatibility" and f.at == ("z", "X", "X")
    ]
    assert xsq, f"expected the X^2 = 0 instance to fail; got {failures[:3]}"


# -- serialization round trips --------------------------------------------------------


def test_action_table_json_roundtrip():
    table = left_family_instance(3, "c", ONE, ONE)
    payload = table.to_json()
    assert payload["schema"] == "action/v1" and payload["side"] == "left"
    back = LeftActionTable.from_json(payload)
    assert back.scalar_entries() == table.scalar_entries()

    right = antidiagonal_right_table()
    back_r = RightActionTable.from_json(right.to_json())
    assert back_r.scalar_entries() == right.scalar_entries()
