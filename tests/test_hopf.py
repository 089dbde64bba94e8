"""Hopf algebra core: axioms, tensor products, group-likes, skew-primitives."""

import gzip
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopffactor import hopf
from hopffactor.actions import matched_pair_search
from hopffactor.bicrossed import build_bicrossed
from hopffactor.hopf import (
    WITNESS_LIMIT,
    HopfAlgebraData,
    _certificate,
    _enumerate_grouplikes,
    _factor_grouplikes,
    _factor_skew_primitives,
    _generates,
    _generators,
    _kernel_skew_primitives,
    acc_outer,
    check_hopf_map,
    grouplikes,
    is_grouplike,
    skew_primitives,
    tensor_product,
    verify_axioms,
)
from hopffactor.jsonio import algebra_from_json, algebra_to_json
from hopffactor.linalg import Mat
from hopffactor.presentations import build_H4, build_H8
from hopffactor.scalar import HALF, I, NEG_I, ONE, ZERO, Scalar


@pytest.fixture(scope="module")
def H4():
    return build_H4()


@pytest.fixture(scope="module")
def H8():
    return build_H8()


@pytest.fixture(scope="module")
def T(H8, H4):
    return tensor_product(H8, H4)


# -- basis and protocol methods --------------------------------------------------


def test_basis_element_rejects_an_index_outside_the_basis(H8):
    assert H8.basis_element(7) == H8.basis_element("ghz")
    # True and 1.0 equal the index of g but are no index; an unknown label
    # raises the same ValueError as a bad index
    for bad in (8, 99, -1, True, 1.0, "q"):
        with pytest.raises(ValueError):
            H8.basis_element(bad)


def test_element_hash_agrees_with_equality(H8):
    g, h, z = (H8.basis_element(label) for label in ("g", "h", "z"))
    # z^2 = (1 + g + h - gh)/2, built two ways
    assert hash(z * z) == hash(HALF * (H8.one() + g + h - g * h))
    basis = [H8.basis_element(i) for i in range(H8.dim)]
    assert len(set(basis) | {H8.one()}) == H8.dim
    assert len({hash(e) for e in basis}) == H8.dim


def test_reprs(H8, T):
    assert repr(H8) == "HopfAlgebraData(H8, dim=8)"
    assert repr(T) == "HopfAlgebraData(H8⊗H4, dim=32)"
    assert repr(HopfAlgebraData(None, H8.basis, H8.mul, H8.unit, H8.comul, H8.counit,
                                H8.antipode)) == "HopfAlgebraData(unnamed, dim=8)"
    report = verify_axioms(H8)
    assert repr(report) == "AxiomReport(H8, dim=8: all axioms hold)"
    assert repr(report.checks[0]) == "AxiomCheck(associativity: ok)"
    bad = verify_axioms(_mutate(H8, 4, 4, 0, ONE))
    assert repr(bad) == "AxiomReport(H8-mutated, dim=8: AXIOM FAILURES)"
    assert repr(bad.failing()[0]) == "AxiomCheck(associativity: 24 failures)"


# -- multiplication ------------------------------------------------------------


def test_z_squared(H8):
    z = H8.basis_element("z")
    expected = (
        HALF * H8.basis_element("1") + HALF * H8.basis_element("g") + HALF * H8.basis_element("h") - HALF * H8.basis_element("gh")
    )
    assert z * z == expected


def test_x_times_g(H4):
    assert H4.basis_element("X") * H4.basis_element("G") == -(H4.basis_element("G") * H4.basis_element("X"))
    assert H4.basis_element("G") * H4.basis_element("X") == H4.basis_element("GX")


def test_unit_is_neutral(H8):
    for label in H8.basis:
        assert H8.one() * H8.basis_element(label) == H8.basis_element(label)
        assert H8.basis_element(label) * H8.one() == H8.basis_element(label)


def test_algebra_mismatch_rejected(H4, H8):
    with pytest.raises(ValueError):
        H4.multiply(H4.basis_element("G"), H8.basis_element("g"))
    with pytest.raises(ValueError):
        H4.basis_element("G") + H8.basis_element("g")


# -- comultiplication ------------------------------------------------------------


def test_comultiply_z(H8):
    triples = H8.comultiply(H8.basis_element("z"))
    idx = H8.index
    expected = {
        (idx["z"], idx["z"]): HALF,
        (idx["gz"], idx["z"]): HALF,
        (idx["z"], idx["hz"]): HALF,
        (idx["gz"], idx["hz"]): -HALF,
    }
    assert {(j, k): c for c, j, k in triples} == expected


def test_comultiply_x(H4):
    triples = H4.comultiply(H4.basis_element("X"))
    idx = H4.index
    assert {(j, k): c for c, j, k in triples} == {
        (idx["X"], idx["G"]): ONE,
        (idx["1"], idx["X"]): ONE,
    }


def test_comultiply_unit(H8):
    assert H8.comultiply(H8.one()) == ((ONE, 0, 0),)


# -- axiom battery ---------------------------------------------------------------


def test_h4_all_axioms(H4):
    report = verify_axioms(H4)
    assert report.all_passed
    assert len(report.checks) == 7


def test_h8_all_axioms(H8):
    assert verify_axioms(H8).all_passed


def test_tensor_axioms_and_dim(T):
    assert T.dim == 32
    assert verify_axioms(T).all_passed


def test_tensor_factors_commute(T, H8, H4):
    g1 = T.basis_element("g⊗1")
    one_g = T.basis_element("1⊗G")
    assert g1 * one_g == one_g * g1


@pytest.mark.parametrize(
    "table, row",
    [
        ("mul", {8: ONE}),
        ("mul", ((-1, ONE),)),
        ("mul", ((2, ONE), (2, HALF))),
        ("antipode", {8: ONE}),
    ],
    ids=("mul-past-dim", "mul-negative", "mul-repeated", "antipode-past-dim"),
)
def test_constructor_rejects_a_row_index_outside_range_dim_or_repeated(H8, table, row):
    mul, antipode = [list(block) for block in H8.mul], list(H8.antipode)
    if table == "mul":
        mul[1][2] = row
    else:
        antipode[3] = row
    with pytest.raises(ValueError, match=r"range\(8\)"):
        HopfAlgebraData("H8-bad", H8.basis, mul, H8.unit, H8.comul, H8.counit, antipode)


def _mutate(H, i, j, k, delta):
    mul = [[dict(row) for row in block] for block in H.mul]
    mul[i][j][k] = mul[i][j].get(k, ZERO) + delta
    return HopfAlgebraData(
        f"{H.name}-mutated", H.basis, mul, H.unit, H.comul, H.counit, H.antipode
    )


def test_mutations_break_axioms(H8):
    rng = random.Random(2024)
    for _ in range(20):
        i = rng.randrange(H8.dim)
        j = rng.randrange(H8.dim)
        k = rng.randrange(H8.dim)
        mutated = _mutate(H8, i, j, k, ONE)
        report = verify_axioms(mutated)
        assert not report.all_passed, f"mutation at ({i},{j},{k}) went undetected"
        assert any(c.witnesses for c in report.failing())


MUL_DELTAS = (ONE, -ONE, I, NEG_I, HALF, I * Scalar(1, 3))


def _witnessed(report):
    """{check name: (witness count, kept witnesses)} of an AxiomReport."""
    return {c.name: (c.count, c.witnesses) for c in report.checks}


def _kept(witnesses):
    """(count, kept witnesses) that an AxiomCheck over this full witness
    list holds."""
    return len(witnesses), tuple(witnesses[:WITNESS_LIMIT])


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.sampled_from(MUL_DELTAS)
)
def test_mutation_witnesses_match_element_arithmetic(i, j, k, delta):
    """The associativity and delta-multiplicativity witnesses of a mutated H8
    are exactly the instances where Element arithmetic, or H.comultiply with
    H.multiply leg by leg, finds the two sides different: the same count
    and the same first witnesses."""
    M = _mutate(build_H8(), i, j, k, delta)
    report = _witnessed(verify_axioms(M))
    e, b = [M.basis_element(n) for n in range(M.dim)], M.basis
    assoc = [
        f"(e{p}*e{q})*e{r} != e{p}*(e{q}*e{r}) [{b[p]}, {b[q]}, {b[r]}]"
        for p in range(M.dim)
        for q in range(M.dim)
        for r in range(M.dim)
        if (e[p] * e[q]) * e[r] != e[p] * (e[q] * e[r])
    ]
    assert report["associativity"] == _kept(assoc)
    comul = [
        f"delta({b[p]}*{b[q]}) != delta({b[p]})*delta({b[q]})"
        for p in range(M.dim)
        for q in range(M.dim)
        if M.comultiply_dict(e[p] * e[q]) != _delta_product(M, e[p], e[q])
    ]
    assert report["comultiplication-multiplicative"] == _kept(comul)


def _delta_product(H, x, y):
    """delta(x)delta(y) as {(m, n): coefficient}, each leg multiplied with
    H.multiply."""
    out = {}
    for c, a, b in H.comultiply(x):
        for c2, p, q in H.comultiply(y):
            left = H.multiply(H.basis_element(a), H.basis_element(p))
            right = H.multiply(H.basis_element(b), H.basis_element(q))
            for m, cm in enumerate(left.coords):
                for n, cn in enumerate(right.coords):
                    out[(m, n)] = out.get((m, n), ZERO) + c * c2 * cm * cn
    return {key: c for key, c in out.items() if not c.is_zero()}


def _mutate_comul(H, i, j, k, delta):
    """H with the (j, k) coefficient of delta(e_i) increased by delta."""
    comul = [{(a, b): c for c, a, b in triples} for triples in H.comul]
    comul[i][(j, k)] = comul[i].get((j, k), ZERO) + delta
    triples = [[(c, a, b) for (a, b), c in t.items() if not c.is_zero()] for t in comul]
    return HopfAlgebraData(
        f"{H.name}-mutated", H.basis, H.mul, H.unit, triples, H.counit, H.antipode
    )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.sampled_from(MUL_DELTAS)
)
def test_comul_mutation_witnesses_match_leg_by_leg_products(i, j, k, delta):
    """A comultiplication mutant keeps H8's multiplication, so associativity
    is certified from the generators and delta-multiplicativity is tried on
    the generator pairs first; its witnesses must still be exactly the pairs
    where H.comultiply and H.multiply leg by leg find the two sides
    different."""
    M = _mutate_comul(build_H8(), i, j, k, delta)
    report = _witnessed(verify_axioms(M))
    assert report["associativity"] == (0, ())
    assert report["comultiplication-multiplicative"] == _kept(_comul_mult_oracle(M))


def _comul_mult_oracle(M):
    """The delta-multiplicativity witnesses by H.comultiply and H.multiply,
    the delta(1) line first."""
    e, b = [M.basis_element(n) for n in range(M.dim)], M.basis
    one_one = {}
    acc_outer(one_one, ONE, M.unit, M.unit)
    comul = [] if M.comultiply_dict(M.one()) == one_one else ["delta(1) != 1 (x) 1"]
    comul += [
        f"delta({b[p]}*{b[q]}) != delta({b[p]})*delta({b[q]})"
        for p in range(M.dim)
        for q in range(M.dim)
        if M.comultiply_dict(e[p] * e[q]) != _delta_product(M, e[p], e[q])
    ]
    return tuple(comul)


def _rescaled(H, lam):
    """H on the basis f_i = lam[i] * e_i: the same Hopf algebra, with
    non-real fractions in every table."""
    d = H.dim
    inv = [c.inv() for c in lam]
    mul = [
        [{k: lam[i] * lam[j] * c * inv[k] for k, c in H.mul[i][j]} for j in range(d)]
        for i in range(d)
    ]
    unit = [H.unit[i] * inv[i] for i in range(d)]
    comul = [[(c * lam[i] * inv[j] * inv[k], j, k) for c, j, k in H.comul[i]] for i in range(d)]
    counit = [H.counit[i] * lam[i] for i in range(d)]
    antipode = [{j: lam[i] * c * inv[j] for j, c in H.antipode[i]} for i in range(d)]
    return HopfAlgebraData(f"{H.name}-rescaled", H.basis, mul, unit, comul, counit, antipode)


SCALES = (
    Scalar(3), I * Scalar(1, 3), Scalar(2), Scalar(1, 2, 1, 2), Scalar(-1, 5), ONE, NEG_I,
    Scalar(5, 2, -1, 3),
)


@pytest.mark.parametrize("which", ["H8", "H8⊗H4"])
def test_rescaled_basis_passes(H8, T, which):
    H = {"H8": H8, "H8⊗H4": T}[which]
    lam = [SCALES[i % len(SCALES)] for i in range(H.dim)]
    assert verify_axioms(_rescaled(H, lam)).all_passed


def _closure_rank(H, S):
    """Rank of the closure of span{1} under right multiplication by the
    e_s, s in S, built by Element arithmetic."""
    rows, frontier = [H.one()], [H.one()]
    while frontier:
        products = [x * H.basis_element(s) for x in frontier for s in S]
        frontier = []
        for y in products:
            if Mat([r.coords for r in rows + [y]]).rank() > len(rows):
                rows.append(y)
                frontier.append(y)
    return len(rows)


def _stored_products():
    root = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
    out = []
    for n in range(1, 5):
        with gzip.open(root / f"product-{n}.hopf.json.gz", "rt", encoding="utf-8") as fh:
            out.append(algebra_from_json(json.load(fh)))
    return out


def test_generators_reach_full_rank(H4, H8, T):
    named = {
        "H4": ["G", "X"],
        "H8": ["g", "h", "z"],
        "H8⊗H4": ["1⊗G", "1⊗X", "g⊗1", "h⊗1", "z⊗1"],
        "bicrossed": ["1⊗g", "1⊗h", "1⊗z", "G⊗1", "X⊗1"],
    }
    lam = [SCALES[i % len(SCALES)] for i in range(T.dim)]
    for H in [H4, H8, T, *_stored_products(), _rescaled(T, lam)]:
        S = _generators(H)
        assert _closure_rank(H, S) == H.dim, H.name
        if H.name in named:
            assert [H.basis[s] for s in S] == named[H.name]
        # H4's two generators reach dim/2, where the full loops run instead
        assert _certificate(H) == (None if H.dim == 4 else S)


def test_generates_is_the_closure_rank(H4, H8):
    # any two of g, h, z but {g, h} generate H8; X alone spans only 1, X
    for H in (H4, H8):
        for size in (1, 2, 3):
            for S in itertools.combinations(range(1, H.dim), size):
                assert _generates(H, list(S)) == (_closure_rank(H, S) == H.dim), S
    g, h, z = (H8.index[n] for n in ("g", "h", "z"))
    assert _generates(H8, [h, z]) and _generates(H8, [g, z]) and not _generates(H8, [g, h])
    assert not _generates(H4, [H4.index["X"]])
    # the greedy stops at dim/2, before the closure of its last pick
    assert _generators(_square_zero(4)) == [1, 2] and not _generates(_square_zero(4), [1, 2])


def _square_zero(d):
    """dim d, e_0 a two-sided unit, every other product zero, e_1..e_{d-1}
    primitive: associative, and delta(e_i e_j) = 0 != e_i (x) e_j + e_j (x) e_i."""
    mul = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(d):
        mul[0][i] = mul[i][0] = {i: ONE}
    comul = [[(ONE, 0, 0)]] + [[(ONE, i, 0), (ONE, 0, i)] for i in range(1, d)]
    unit = counit = [ONE] + [ZERO] * (d - 1)
    antipode = [{0: ONE}] + [{i: -ONE} for i in range(1, d)]
    basis = [f"e{i}" for i in range(d)]
    return HopfAlgebraData("square-zero", basis, mul, unit, comul, counit, antipode)


def _record_loops(monkeypatch):
    """Record the first-index range of every associativity and
    delta-multiplicativity loop the battery runs."""
    from hopffactor import hopf

    firsts = []

    def recording(loop):
        def run(H, T, first):
            firsts.append(first)
            return loop(H, T, first)
        return run

    for name in ("_associativity_witnesses", "_comul_mult_witnesses"):
        monkeypatch.setattr(hopf, name, recording(getattr(hopf, name)))
    return firsts


def test_no_small_generating_set_takes_the_full_loops(monkeypatch):
    # every non-unit basis element joins S, which reaches dim/2: both laws
    # run on every instance once, with the witness lists of the full loops
    firsts = _record_loops(monkeypatch)
    H = _square_zero(16)
    report = _witnessed(verify_axioms(H))
    assert firsts == [range(16), range(16)]
    assert report.pop("comultiplication-multiplicative") == _kept([
        f"delta(e{i}*e{j}) != delta(e{i})*delta(e{j})" for i in range(1, 16) for j in range(1, 16)
    ])
    assert all(w == (0, ()) for w in report.values())


def _truncated(one_times_x2, delta_one):
    """k[x]/(x^3) on 1, x, x^2, generated by x, with 1 * x^2 set to
    `one_times_x2`, delta(1) = delta_one * 1 (x) 1 and delta(x) =
    delta(x^2) = 0."""
    mul = [
        [{0: ONE}, {1: ONE}, one_times_x2],
        [{1: ONE}, {2: ONE}, {}],
        [{2: ONE}, {}, {}],
    ]
    unit = counit = [ONE, ZERO, ZERO]
    antipode = [{0: ONE}, {1: -ONE}, {2: ONE}]
    comul = [[(delta_one, 0, 0)], [], []]
    return HopfAlgebraData("x^3", ["1", "x", "x2"], mul, unit, comul, counit, antipode)


def test_certificate_preconditions_keep_the_full_witness_lists(monkeypatch):
    # x generates both tables, and the instances (x, y, z) and (x, y) all
    # pass on them; the instances that fail have 1 first
    firsts = _record_loops(monkeypatch)
    # 1 is no left unit (1 * x^2 = 0): no certificate, so associativity runs
    # every triple and finds (1 x) x != 1 (x x)
    M = _truncated({}, ONE)
    report = {c.name: c.witnesses for c in verify_axioms(M).checks}
    e = [M.basis_element(n) for n in range(3)]
    expected = tuple(
        f"(e{p}*e{q})*e{r} != e{p}*(e{q}*e{r}) [{M.basis[p]}, {M.basis[q]}, {M.basis[r]}]"
        for p in range(3) for q in range(3) for r in range(3)
        if (e[p] * e[q]) * e[r] != e[p] * (e[q] * e[r])
    )
    assert expected and report["associativity"] == expected
    assert firsts == [range(3), range(3)]
    # delta(1) = 2 (1 (x) 1): associativity is certified from x alone, but
    # delta-multiplicativity runs every pair and finds delta(1*1)
    firsts.clear()
    M = _truncated({2: ONE}, Scalar(2))
    report = {c.name: c.witnesses for c in verify_axioms(M).checks}
    assert report["associativity"] == ()
    assert report["comultiplication-multiplicative"] == _comul_mult_oracle(M) == (
        "delta(1) != 1 (x) 1", "delta(1*1) != delta(1)*delta(1)",
    )
    assert firsts == [[1], range(3)]


def _counit_mult_oracle(M):
    """The eps-multiplicativity witnesses by H.counit_of and Element
    products over every pair, the eps(1) line first."""
    e, b = [M.basis_element(n) for n in range(M.dim)], M.basis
    eps = [M.counit_of(x) for x in e]
    witnesses = [] if M.counit_of(M.one()) == ONE else ["eps(1) != 1"]
    witnesses += [
        f"eps({b[p]}*{b[q]}) != eps*eps"
        for p in range(M.dim)
        for q in range(M.dim)
        if M.counit_of(e[p] * e[q]) != eps[p] * eps[q]
    ]
    return tuple(witnesses)


def _with_counit(H, counit, mul=None):
    return HopfAlgebraData(
        H.name, H.basis, H.mul if mul is None else mul, H.unit, H.comul, counit, H.antipode
    )


def test_counit_certificate_preconditions_keep_the_full_witness_lists(T, monkeypatch):
    # x generates k[x]/(x^3), and every pair (x, y) passes on the tables
    # below, while some pair with 1 or x^2 first fails
    firsts = []
    loop = hopf._counit_mult_witnesses

    def recording(H, tables, first):
        firsts.append(first)
        return loop(H, tables, first)

    monkeypatch.setattr(hopf, "_counit_mult_witnesses", recording)
    # eps(1) = 2: associativity is certified from x, but eps(1) = 1 fails,
    # so every pair runs and finds eps(1*1) = 2 != 4
    M = _with_counit(_truncated({2: ONE}, ONE), [Scalar(2), ZERO, ZERO])
    report = _witnessed(verify_axioms(M))
    assert report["associativity"] == (0, ())
    assert report["counit-multiplicative"] == _kept(_counit_mult_oracle(M)) == (
        2, ("eps(1) != 1", "eps(1*1) != eps*eps"),
    )
    assert firsts == [range(3)]
    # x2 * x2 = 1 breaks associativity ((x x) x2 = 1, x (x x2) = 0) and eps
    # of that one pair; 1 is a unit and eps(1) = 1, so only associativity
    # keeps the pairs (x, y) from standing for every pair
    firsts.clear()
    base = _truncated({2: ONE}, ONE)
    mul = [list(block) for block in base.mul]
    mul[2][2] = {0: ONE}
    M = _with_counit(base, base.counit, mul)
    report = _witnessed(verify_axioms(M))
    assert report["associativity"][0] > 0
    assert report["counit-multiplicative"] == _kept(_counit_mult_oracle(M)) == (
        1, ("eps(x2*x2) != eps*eps",),
    )
    assert firsts == [range(3)]
    # on a product that five basis elements generate, only their pairs run
    firsts.clear()
    assert verify_axioms(T).all_passed
    assert firsts == [[1, 2, 4, 8, 16]]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.sampled_from(MUL_DELTAS))
def test_counit_mutation_witnesses_match_element_arithmetic(i, j, k, delta):
    """Mutated multiplications and counits of H8: the eps-multiplicativity
    count and kept witnesses are those of the full loop by Element
    arithmetic, whether or not the generator pairs stand for every pair."""
    M = _mutate(build_H8(), i, j, k, delta)
    assert _witnessed(verify_axioms(M))["counit-multiplicative"] == _kept(_counit_mult_oracle(M))
    counit = list(M.counit)
    counit[k] = counit[k] + delta
    M = _with_counit(build_H8(), counit)
    assert _witnessed(verify_axioms(M))["counit-multiplicative"] == _kept(_counit_mult_oracle(M))


def test_generated_algebra_runs_only_the_generator_instances(T, monkeypatch):
    firsts = _record_loops(monkeypatch)
    assert verify_axioms(T).all_passed
    assert firsts == [[1, 2, 4, 8, 16]] * 2


def test_split_and_zero_coproduct_terms_pass():
    # delta(X) = X (x) G + 1 (x) X with X (x) G stored as two halves, and a
    # stored zero term: the same Hopf algebra, so every axiom still holds.
    # Built directly, since the loader merges such terms before the battery.
    H = build_H4()
    x, g = H.index["X"], H.index["G"]
    comul = [list(t) for t in H.comul]
    comul[x] = [t for t in comul[x] if t[1:] != (x, g)] + [(HALF, x, g), (HALF, x, g)]
    comul[g].append((ZERO, x, g))
    split = HopfAlgebraData("H4-split", H.basis, H.mul, H.unit, comul, H.counit, H.antipode)
    assert verify_axioms(split).all_passed


@pytest.mark.parametrize(
    "where, term", [("G", ("X", "G")), ("X", ("G", "G"))], ids=("in-delta-G", "in-delta-X"),
)
def test_stored_zero_coproduct_term_keeps_the_h4_answers(where, term):
    # a zero term in delta(G) or delta(X) changes nothing: G stays
    # group-like, and the skew-primitive kernel never pivots on the zero
    H = build_H4()
    comul = [list(t) for t in H.comul]
    comul[H.index[where]].append((ZERO, *(H.index[label] for label in term)))
    A = HopfAlgebraData("H4-zero-term", H.basis, H.mul, H.unit, comul, H.counit, H.antipode)
    G = A.basis_element("G")
    assert verify_axioms(A).all_passed
    assert A.comultiply(G) == ((ONE, 1, 1),)
    assert is_grouplike(A, G)
    assert [repr(g) for g in grouplikes(A)] == ["G", "1"]
    assert sorted(repr(b) for b in skew_primitives(A, G, A.one())) == ["-1 + G", "X"]


# -- group-likes -------------------------------------------------------------------


def test_is_grouplike(H8):
    assert is_grouplike(H8, H8.basis_element("g"))
    assert is_grouplike(H8, H8.one())
    assert not is_grouplike(H8, H8.basis_element("z"))
    assert not is_grouplike(H8, H8.basis_element("g") + H8.basis_element("h"))


def test_grouplikes_h4(H4):
    gls = grouplikes(H4)
    assert {repr(g) for g in gls} == {"1", "G"}


def test_grouplikes_h8(H8):
    gls = grouplikes(H8)
    assert {repr(g) for g in gls} == {"1", "g", "h", "gh"}


def test_grouplikes_form_a_group(H8):
    gls = grouplikes(H8)
    keys = {g.coords_key() for g in gls}
    assert H8.one().coords_key() in keys
    for a in gls:
        for b in gls:
            assert (a * b).coords_key() in keys
    # the group of H8 is the Klein four-group: every element squares to 1
    for a in gls:
        assert (a * a) == H8.one()


def test_grouplikes_tensor(T, H8, H4):
    gls = grouplikes(T)
    assert len(gls) == 8
    keys = {g.coords_key() for g in gls}
    for x in grouplikes(H8):
        for a in grouplikes(H4):
            coords = [ZERO] * 32
            for i, cx in enumerate(x.coords):
                for j, ca in enumerate(a.coords):
                    coords[i * 4 + j] = cx * ca
            tens = T.element(coords)
            assert is_grouplike(T, tens)
            assert tens.coords_key() in keys
    for g in gls:
        assert is_grouplike(T, g)


@pytest.fixture(scope="module")
def products():
    """H4 (x) H8 and the four bicrossed products, all on the tensor
    coalgebra of H4 and H8."""
    pairs, _sol = matched_pair_search()
    return [tensor_product(build_H4(), build_H8())] + [build_bicrossed(p).algebra for p in pairs]


def test_factor_route_equals_the_solver_route(products):
    """The group-like lemma: on every twisted tensor product, the products
    of the factors' group-likes are exactly the solver's group-likes, in
    the same order."""
    for E in products:
        assert E.factors == (build_H4(), build_H8())
        via_factors = _factor_grouplikes(E)
        assert via_factors == _enumerate_grouplikes(E)
        assert [repr(E.element(c)) for c in via_factors] == [repr(g) for g in grouplikes(E)]


def test_a_loaded_product_takes_the_solver_route(products, monkeypatch):
    E = products[2]
    copy = algebra_from_json(json.loads(json.dumps(algebra_to_json(E))))
    assert copy.factors is None
    solved = []

    def enumerate_grouplikes(H):
        solved.append(H)
        return _enumerate_grouplikes(H)

    monkeypatch.setattr(hopf, "_GROUPLIKE_CACHE", {})
    monkeypatch.setattr(hopf, "_enumerate_grouplikes", enumerate_grouplikes)
    labels = [repr(g) for g in grouplikes(copy)]
    assert solved == [copy]
    assert labels == [repr(g) for g in grouplikes(E)]


def test_factor_skew_route_equals_the_kernel_route(products):
    """The skew-primitive lemma: on every twisted tensor product and every
    pair of group-like anchors, the factor route gives the null space's
    basis, vector for vector."""
    for E in products:
        gls = grouplikes(E)
        for a in gls:
            for b in gls:
                assert _factor_skew_primitives(E, a, b) == _kernel_skew_primitives(E, a, b)


def test_a_loaded_product_takes_the_kernel_route(products, monkeypatch):
    E = products[3]
    copy = algebra_from_json(json.loads(json.dumps(algebra_to_json(E))))
    solved = []

    def kernel_skew_primitives(H, a, b):
        solved.append(H)
        return _kernel_skew_primitives(H, a, b)

    monkeypatch.setattr(hopf, "_SKEW_CACHE", {})
    monkeypatch.setattr(hopf, "_kernel_skew_primitives", kernel_skew_primitives)
    a, b = grouplikes(copy)[1], grouplikes(copy)[2]
    got = skew_primitives(copy, a, b)
    assert solved == [copy]
    assert [repr(x) for x in got] == [repr(x) for x in skew_primitives(E, grouplikes(E)[1], grouplikes(E)[2])]


def test_z_fourth_power(H8):
    assert H8.basis_element("z") ** 4 == H8.one()


# -- skew-primitives -----------------------------------------------------------------


def test_skew_primitive_space_h4(H4):
    basis = skew_primitives(H4, H4.basis_element("G"), H4.one())
    assert len(basis) == 2
    assert sorted(repr(b) for b in basis) == ["-1 + G", "X"]


def test_skew_primitive_trivial_cases(H4):
    assert skew_primitives(H4, H4.one(), H4.one()) == ()
    assert skew_primitives(H4, H4.basis_element("G"), H4.basis_element("G")) == ()


def test_skew_primitive_h8_pairs(H8):
    gls = {repr(g): g for g in grouplikes(H8)}
    for la in gls:
        for lb in gls:
            basis = skew_primitives(H8, gls[la], gls[lb])
            if la == lb:
                assert basis == ()
            else:
                assert len(basis) == 1
                diff = gls[la] - gls[lb]
                c = next(c for c in basis[0].coords if not c.is_zero())
                scaled = basis[0] * c.inv()
                d = next(c for c in diff.coords if not c.is_zero())
                assert scaled == diff * d.inv()


def test_skew_primitives_need_grouplike_anchors(H8):
    with pytest.raises(ValueError):
        skew_primitives(H8, H8.basis_element("z"), H8.one())


def test_skew_primitives_check_the_anchors_on_a_cache_miss_only(H8, monkeypatch):
    from hopffactor import hopf

    checked = []

    def counting(H, x):
        checked.append(x)
        return is_grouplike(H, x)

    monkeypatch.setattr(hopf, "_SKEW_CACHE", {})
    monkeypatch.setattr(hopf, "is_grouplike", counting)
    g, one = H8.basis_element("g"), H8.one()
    first = skew_primitives(H8, g, one)
    assert checked == [g, one]
    assert skew_primitives(H8, g, one) == first and checked == [g, one]
    with pytest.raises(ValueError):
        skew_primitives(H8, H8.basis_element("z"), one)
    assert checked == [g, one, H8.basis_element("z")]


def test_skew_primitive_delta_condition(H8):
    # every basis vector of P_{g,h} satisfies delta(x) = x (x) g + h (x) x
    a, b = H8.basis_element("g"), H8.basis_element("h")
    for x in skew_primitives(H8, a, b):
        lhs = H8.comultiply_dict(x)
        rhs = {}
        for i, c in enumerate(x.coords):
            if c.is_zero():
                continue
            for k, ca in enumerate(a.coords):
                if not ca.is_zero():
                    rhs[(i, k)] = rhs.get((i, k), ZERO) + c * ca
            for k, cb in enumerate(b.coords):
                if not cb.is_zero():
                    rhs[(k, i)] = rhs.get((k, i), ZERO) + cb * c
        rhs = {key: val for key, val in rhs.items() if not val.is_zero()}
        assert lhs == rhs


# -- structural identities -----------------------------------------------------------


def test_coassociativity_identity(H8):
    for i in range(H8.dim):
        lhs = {}
        rhs = {}
        for c, j, k in H8.comul[i]:
            for c2, a, b in H8.comul[j]:
                key = (a, b, k)
                lhs[key] = lhs.get(key, ZERO) + c * c2
            for c2, a, b in H8.comul[k]:
                key = (j, a, b)
                rhs[key] = rhs.get(key, ZERO) + c * c2
        lhs = {k: v for k, v in lhs.items() if not v.is_zero()}
        rhs = {k: v for k, v in rhs.items() if not v.is_zero()}
        assert lhs == rhs


def test_antipode_convolution(H8):
    for i in range(H8.dim):
        x = H8.basis_element(i)
        acc_left = H8.zero()
        acc_right = H8.zero()
        for c, j, k in H8.comul[i]:
            acc_left = acc_left + c * (H8.antipode_of(H8.basis_element(j)) * H8.basis_element(k))
            acc_right = acc_right + c * (H8.basis_element(j) * H8.antipode_of(H8.basis_element(k)))
        expected = H8.counit[i] * H8.one()
        assert acc_left == expected
        assert acc_right == expected


def test_structure_key_detects_difference(H8):
    mutated = _mutate(H8, 1, 1, 0, ONE)
    assert mutated.structure_key() != H8.structure_key()


# -- Hopf algebra maps -------------------------------------------------------------


def _h4_map(H4, **images):
    """The images of H4's basis 1, G, X, GX, the identity unless given."""
    return [images.get(label, H4.basis_element(label)) for label in ("1", "G", "X", "GX")]


def test_identity_and_scaling_are_hopf_maps(H4):
    assert check_hopf_map(H4, H4, _h4_map(H4)) == []
    X, GX = H4.basis_element("X"), H4.basis_element("GX")
    assert check_hopf_map(H4, H4, _h4_map(H4, X=I * X, GX=I * GX)) == []


def _planted(H4):
    one, G, X, GX = (H4.basis_element(label) for label in ("1", "G", "X", "GX"))
    shifted = X + one - G
    return {
        # the zero map: neither the unit nor the counit survives
        "unit": (
            [H4.zero()] * 4,
            ["does not preserve the unit", "does not preserve the counit at 1",
             "does not preserve the counit at G", "is not injective"],
        ),
        # X -> X + 1 - G keeps delta and eps, not X^2 = 0 or XG = -GX
        "algebra": (
            _h4_map(H4, X=shifted, GX=G * shifted),
            [f"is not an algebra map at ({a}, {b})"
             for a in ("X", "GX") for b in ("G", "X", "GX")],
        ),
        # swapping X and GX keeps the multiplication, not delta
        "coalgebra": (
            _h4_map(H4, X=GX, GX=X),
            ["is not a coalgebra map at X", "is not a coalgebra map at GX"],
        ),
        # G -> -G is no group-like: eps(-G) = -1
        "counit": (
            _h4_map(H4, G=-G, GX=-GX),
            ["is not a coalgebra map at G", "is not a coalgebra map at X",
             "is not a coalgebra map at GX", "does not preserve the counit at G"],
        ),
        # the quotient onto kC2 = span(1, G), a Hopf map with a kernel
        "injective": (_h4_map(H4, X=H4.zero(), GX=H4.zero()), ["is not injective"]),
    }


@pytest.mark.parametrize("count", [3, 5])
def test_check_hopf_map_needs_one_image_per_basis_element(H4, count):
    # five images would read as an injective Hopf map, three would index past the end
    images = (_h4_map(H4) + [H4.zero()])[:count]
    with pytest.raises(ValueError):
        check_hopf_map(H4, H4, images)


@pytest.mark.parametrize("kind", ["unit", "algebra", "coalgebra", "counit", "injective"])
def test_planted_bad_maps_fail_with_their_witnesses(H4, kind):
    images, expected = _planted(H4)[kind]
    assert check_hopf_map(H4, H4, images) == expected
