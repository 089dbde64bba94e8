"""Case-splitting solver: square roots, branch semantics, determinism."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopffactor import solver
from hopffactor.poly import Poly
from hopffactor.scalar import HALF, I, ONE, ZERO, Scalar
from hopffactor.solver import (
    Branch,
    IrreducibleSystemError,
    gaussian_sqrt,
    poly_sqrt,
    solve,
)
from oracles import canonicalize_all_pairs, contains_point, evaluate, sample

x, y, a, b, c = (Poly.var(v) for v in "xyabc")


# -- gaussian_sqrt -------------------------------------------------------------


def test_sqrt_minus_one():
    assert gaussian_sqrt(Scalar(-1)) == I


def test_sqrt_quarter():
    assert gaussian_sqrt(Scalar(1, 4)) == HALF


def test_sqrt_two_i():
    # verified by the multiplication oracle: (1+i)^2 = 2i
    root = gaussian_sqrt(Scalar(0, 1, 2, 1))
    assert root == Scalar(1, 1, 1, 1)
    assert root * root == Scalar(0, 1, 2, 1)


def test_sqrt_not_a_square():
    assert gaussian_sqrt(Scalar(2)) is None
    assert gaussian_sqrt(Scalar(0, 1, 1, 1)) is None  # sqrt(i) is outside Q(i)
    assert gaussian_sqrt(Scalar(1, 3)) is None


def test_sqrt_canonical_sign():
    r = gaussian_sqrt(Scalar(4))
    assert r == Scalar(2)
    r = gaussian_sqrt(Scalar(0, 1, -2, 1))  # sqrt(-2i) = 1-i, not -1+i
    assert r == Scalar(1, 1, -1, 1)


@settings(max_examples=150)
@given(
    rn=st.integers(-9, 9), rd=st.integers(1, 6),
    imn=st.integers(-9, 9), imd=st.integers(1, 6),
)
def test_sqrt_squares_roundtrip(rn, rd, imn, imd):
    t = Scalar(rn, rd, imn, imd)
    s = t * t
    root = gaussian_sqrt(s)
    assert root is not None
    assert root * root == s
    # canonical: root is t or -t with the sign convention
    assert root in (t, -t)


# 2 = -i(1+i)^2, 3, i, -i and 1+i (of norm 2) are not squares in Q(i), so
# neither is k*t^2 for any nonzero t
NON_SQUARES = [Scalar(2), Scalar(3), I, -I, Scalar(1, 1, 1, 1)]


@settings(max_examples=150)
@given(
    rn=st.integers(-9, 9), rd=st.integers(1, 6),
    imn=st.integers(-9, 9), imd=st.integers(1, 6),
)
def test_sqrt_of_a_non_square_multiple_of_a_square_is_none(rn, rd, imn, imd):
    t = Scalar(rn, rd, imn, imd)
    assume(not t.is_zero())
    for k in NON_SQUARES:
        assert gaussian_sqrt(k * t * t) is None


def test_poly_sqrt():
    q = x + 2 * y - 1
    p = q * q
    root = poly_sqrt(p)
    assert root is not None and root * root == p
    # the root leads with the canonical square root of its leading square
    # coefficient, whichever sign the square was built from
    q = Poly.const(ONE) - x
    assert poly_sqrt(q * q) == x - 1
    q = y - I * x
    assert poly_sqrt(q * q) == I * x - y
    assert poly_sqrt(x * y) is None
    assert poly_sqrt(x * x - 1) is None
    assert poly_sqrt(Poly.const(Scalar(9, 4))) == Poly.const(Scalar(3, 2))


# -- solve ---------------------------------------------------------------------


def branch_values(solset, names):
    out = []
    for br in solset:
        pt = br.point()
        out.append(tuple(str(pt[n]) for n in names))
    return sorted(out)


def test_idempotent_quadratic():
    solset = solve([x * x - x])
    assert branch_values(solset, "x") == [("0",), ("1",)]


def test_inconsistent_system_is_empty():
    assert solve([x, x - 1]).branches == ()
    assert solve([Poly.const(Scalar(1))]).branches == ()


def test_gamma_squared_minus_one():
    solset = solve([x * x + 1])
    assert branch_values(solset, "x") == [("-i",), ("i",)]


def test_product_split():
    solset = solve([x * y])
    keys = sorted(tuple(sorted(br.subst)) for br in solset)
    assert keys == [("x",), ("y",)]


def test_family_split_with_free_parameter():
    # (1+b)a = 0, b^2 = 1: either b=1 forcing a=0, or b=-1 with a free
    solset = solve([(Poly.const(ONE) + b) * a, b * b - 1])
    encoded = sorted(
        (tuple(sorted(br.subst)), tuple(br.free)) for br in solset
    )
    assert encoded == [(("a", "b"), ()), (("b",), ("a",))]


def test_linear_chain_with_nonlinear_isolation():
    solset = solve([y + x * x * x - 2, x - 1])
    assert branch_values(solset, "xy") == [("1", "1")]


def test_substitute_via_branch():
    br = Branch({"x": Poly.const(Scalar(0))}, ("y",))
    assert br.apply(x * y).is_zero()
    assert br.apply(y + 1) == y + 1
    identity = Branch({}, ("x", "y"))
    assert identity.apply(x * y) == x * y


def test_branch_sampling_soundness():
    system = [(Poly.const(ONE) + b) * a, b * b - 1, c - a * b]
    solset = solve(system)
    for br in solset:
        point = sample(br)
        for p in system:
            assert evaluate(p, point).is_zero()


def test_known_point_lands_in_some_branch():
    system = [(Poly.const(ONE) + b) * a, b * b - 1, c - a * b]
    solset = solve(system)
    witness = {"a": Scalar(7), "b": Scalar(-1), "c": Scalar(-7)}
    assert any(contains_point(br, witness) for br in solset)
    non_solution = {"a": Scalar(7), "b": Scalar(1), "c": Scalar(7)}
    assert not any(contains_point(br, non_solution) for br in solset)


def test_branch_containment():
    big = Branch({"x": Poly()}, ("y",))
    small = Branch({"x": Poly(), "y": Poly.const(ONE)}, ())
    assert big.contains(small)
    assert not small.contains(big)


def test_branch_subsumption_removed():
    from hopffactor.solver import _canonicalize_branches

    big = Branch({"x": Poly()}, ("y",))
    small = Branch({"x": Poly(), "y": Poly.const(ONE)}, ())
    kept = _canonicalize_branches([small, big])
    assert kept == [big]


UNKNOWNS = ("p", "q", "r", "s")
BRANCH_COEFFS = [ONE, -ONE, I, HALF]


@st.composite
def branch_sets(draw):
    """Random branches over four unknowns, in random order, with some
    derived from others: a free unknown set to a constant (a branch inside
    the other, of lower dimension), or traded with a substituted unknown
    v = f + h (the same variety under another key and free set)."""
    branches = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        free = draw(st.lists(st.sampled_from(UNKNOWNS), unique=True, max_size=3))
        monomial = st.lists(st.sampled_from(free), max_size=2) if free else st.just([])
        coefficients = st.dictionaries(
            monomial.map(lambda m: tuple(sorted(m))), st.sampled_from(BRANCH_COEFFS), max_size=3
        )
        subst = {v: Poly(draw(coefficients)) for v in UNKNOWNS if v not in free}
        branches.append(Branch(subst, free))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        b = draw(st.sampled_from(branches))
        if not b.free:
            continue
        f = draw(st.sampled_from(b.free))
        if draw(st.booleans()):
            k = Poly.const(draw(st.sampled_from(BRANCH_COEFFS + [ZERO])))
            subst = {v: e.subst_many({f: k}) for v, e in b.subst.items()}
            subst[f] = k
            branches.append(Branch(subst, set(b.free) - {f}))
            continue
        traded = [
            v for v, e in sorted(b.subst.items())
            if e.coeff((f,)) == ONE and all(m == (f,) or f not in m for m in e.terms)
        ]
        if traded:
            v = draw(st.sampled_from(traded))
            inverse = Poly.var(v) - (b.subst[v] - Poly.var(f))  # f = v - h
            subst = {w: e.subst_many({f: inverse}) for w, e in b.subst.items() if w != v}
            subst[f] = inverse
            branches.append(Branch(subst, (set(b.free) - {f}) | {v}))
    return draw(st.permutations(branches))


@settings(max_examples=200, deadline=None)
@given(raw=branch_sets())
def test_canonicalization_equals_the_all_pairs_oracle(raw):
    """Skipping the containment tests that the dimension lemma rules out,
    and testing for zero without building, keeps exactly the branches of
    the all-pairs canonicalisation, in the same order."""
    from hopffactor.solver import _canonicalize_branches

    got = _canonicalize_branches(raw)
    assert [b.key() for b in got] == [b.key() for b in canonicalize_all_pairs(raw)]


def test_disjoint_branches_survive():
    solset = solve([x * (y - 1), x * x - x * y])
    encoded = sorted((tuple(sorted(br.subst)), tuple(br.free)) for br in solset)
    # {x = 0, y free} and the isolated point {x = 1, y = 1}
    assert encoded == [(("x",), ("y",)), (("x", "y"), ())]


def test_determinism():
    system = [x * x - 1, (x - 1) * y, y * y - y * c]
    s1 = solve(system)
    s2 = solve(system)
    assert [br.key() for br in s1] == [br.key() for br in s2]
    assert s1.provenance == s2.provenance
    assert s1.to_json() == s2.to_json()


def test_irreducible_system_error():
    with pytest.raises(IrreducibleSystemError) as err:
        solve([x * x - 2])  # no root in Q(i)
    assert err.value.reason == "no-applicable-rule"
    assert err.value.residual


def test_budget_exhaustion():
    system = [x * x - x, y * y - y, c * c - c, a * a - a, b * b - b]
    with pytest.raises(IrreducibleSystemError) as err:
        solve(system, split_budget=3)
    assert err.value.reason == "budget-exhausted"
    with pytest.raises(ValueError):
        solve(system, split_budget=0)


def test_double_root_forced():
    solset = solve([x * x - 2 * x + 1])
    assert branch_values(solset, "x") == [("1",)]


def test_multivariate_quadratic_factorization():
    # (b+c)(1-b-c) expanded: the factor split must be recovered
    p = b + c - b * b - 2 * (b * c) - c * c
    solset = solve([p])
    assert len(solset.branches) == 2
    for br in solset:
        assert br.apply(p).is_zero()


def test_branch_equality_hash_and_repr():
    b = Branch({"x": y + ONE}, ["z", "y"])
    same = Branch({"x": ONE + y}, ["y", "z"])
    assert b == same and hash(b) == hash(same)
    assert b != Branch({"x": y + ONE}, ["y"])
    assert b != Branch({"x": y - ONE}, ["y", "z"])
    assert b != repr(b)
    other = Branch({"x": y}, ["y", "z"])
    assert len({b, same, other}) == 2 and hash(b) != hash(other)
    assert repr(b) == "Branch(x=y + 1; free: y, z)"
    assert repr(Branch({"x": Poly.const(ONE)}, [])) == "Branch(x=1)"
    assert repr(Branch({}, ["t"])) == "Branch(free: t)"


def test_solution_set_repr():
    assert repr(solve([x * x - 1])) == "SolutionSet(2 branches)"
    assert repr(solve([x * x + 1, x])) == "SolutionSet(0 branches)"


def test_provenance_records_splits():
    solset = solve([x * x + 1])
    assert len(solset.provenance) == 1
    entry = solset.provenance[0]
    assert entry["rule"] == "quadratic"
    assert entry["variable"] == "x"
    assert sorted(case.split(" = ")[1] for case in entry["cases"]) == ["-i", "i"]


def test_solution_set_json_shape():
    payload = solve([x * x - x]).to_json()
    assert payload["schema"] == "solutions/v1"
    assert [s["substitution"] for s in payload["solutions"]] == [
        {"x": "0"}, {"x": "1"}
    ]


# -- batch substitution on a search node -------------------------------------------


def test_apply_batch_keeps_order_and_drops_zeros():
    node = solver._Node({}, [a + x, x, b + 1, x * y, c * x + c], {"d": x + 1}, 0)
    assert node.apply_batch({"x": Poly()})
    assert node.constraints == [a, b + 1, c]
    assert node.subst == {"d": Poly.const(ONE), "x": Poly()}


def test_apply_batch_reports_a_nonzero_constant():
    node = solver._Node({}, [a + x, x - 1, b], {}, 0)
    assert not node.apply_batch({"x": Poly()})


# -- split analyses, by tier -----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from("xyz"), max_size=4), max_size=6))
def test_quadratic_unknowns_are_those_of_degree_two(monomials):
    p = Poly({tuple(m): Scalar(k + 1) for k, m in enumerate(monomials)})
    expected = [v for v in p.variables() if max(m.count(v) for m in p.terms) == 2]
    assert solver._quadratic_unknowns(p) == expected


def test_split_options_by_tier():
    # x^2 + x*y: the cheap tier gives only the content x; the full tier adds
    # the quadratic in x, whose discriminant y^2 is a square
    p = x * x + x * y
    assert [opt[1] for opt in solver._split_options(p, False)] == ["content"]
    full = solver._split_options(p, True)
    assert sorted((opt[1], opt[2]) for opt in full) == [("content", "x"), ("quadratic", "x")]
    # a univariate double root is forced: priority 0 in the cheap tier
    double = x * x - x * 2 + 1
    assert [opt[:3] for opt in solver._split_options(double, False)] == [(0, "quadratic", "x")]
