"""The integer-numerator `Poly` against plain Scalar arithmetic.

`Poly` stores Gaussian-integer numerators over one reduced denominator.
These properties recompute every result on {monomial: Scalar} dicts with
Scalar operations only, which shares no code with the integer arithmetic,
and compare values at random Scalar points as well as the exact canonical
form: `key()` must be the Scalar dict's (monomial, sort_key) list in grlex
order, and the numerators, denominator and `render()` those of a Poly
built from the same Scalar dict.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from hopffactor.poly import Poly, acc_add, acc_mul, from_acc
from hopffactor.scalar import I, NEG_I, NEG_ONE, ONE, ZERO, Scalar
from oracles import evaluate

NAMES = ("a", "b", "c", "d")

COEFFS = [ONE, NEG_ONE, I, NEG_I, Scalar(1, 2), Scalar(0, 1, 1, 3), Scalar(2, 5, -1, 7), ZERO]
POINT_VALUES = [ZERO, ONE, NEG_I, Scalar(-1, 3), Scalar(2, 1, 1, 2), Scalar(2, 5, -1, 7)]

monomials = st.lists(st.sampled_from(NAMES), max_size=3).map(lambda m: tuple(sorted(m)))
scalar_dicts = st.dictionaries(monomials, st.sampled_from(COEFFS), max_size=6)
points = st.fixed_dictionaries({v: st.sampled_from(POINT_VALUES) for v in NAMES})
factors = st.sampled_from(COEFFS)


@st.composite
def targets(draw):
    """A substitution target: zero, a constant, affine, or any polynomial."""
    kind = draw(st.sampled_from(["zero", "const", "affine", "any"]))
    if kind == "zero":
        return {}
    if kind == "const":
        return {(): draw(st.sampled_from(COEFFS[:-1]))}
    if kind == "affine":
        shapes = st.sampled_from([(), ("a",), ("b",), ("c",)])
        return draw(st.dictionaries(shapes, factors, max_size=3))
    return draw(scalar_dicts)


mappings = st.dictionaries(st.sampled_from(NAMES), targets(), min_size=1, max_size=3)


# -- the Scalar reference ------------------------------------------------------


def ref_add(x, y, sign=ONE):
    out = dict(x)
    for m, c in y.items():
        out[m] = out.get(m, ZERO) + sign * c
    return out


def ref_mul(x, y):
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, ZERO) + c1 * c2
    return out


def ref_scale(x, f):
    return {m: f * c for m, c in x.items()}


def ref_eval(x, point):
    total = ZERO
    for m, c in x.items():
        for v in m:
            c = c * point[v]
        total = total + c
    return total


def ref_subst(x, mapping):
    out = {}
    for m, c in x.items():
        term = {(): c}
        for v in m:
            term = ref_mul(term, mapping[v] if v in mapping else {(v,): ONE})
        out = ref_add(out, term)
    return out


def ref_key(x):
    nonzero = [(m, c) for m, c in x.items() if not c.is_zero()]
    return tuple((m, c.sort_key()) for m, c in sorted(nonzero, key=lambda t: (-len(t[0]), t[0])))


def assert_same(got, ref, point):
    assert got.key() == ref_key(ref)
    # a Poly built from Scalars has the least denominator, so structural
    # equality also checks that `got` is reduced
    assert got == Poly(ref)
    assert got.render() == Poly(ref).render()
    assert evaluate(got, point) == ref_eval(ref, point)


# -- properties ------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(x=scalar_dicts, y=scalar_dicts, f=factors, point=points)
def test_arithmetic_matches_scalar_reference(x, y, f, point):
    p, q = Poly(x), Poly(y)
    assert_same(p, x, point)
    assert_same(p * q, ref_mul(x, y), point)
    assert_same(p + q, ref_add(x, y), point)
    assert_same(p - q, ref_add(x, y, NEG_ONE), point)
    assert_same(-p, ref_scale(x, NEG_ONE), point)
    assert_same(p * f, ref_scale(x, f), point)
    assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)
    assert evaluate(p + q, point) == evaluate(p, point) + evaluate(q, point)
    assert evaluate(p - q, point) == evaluate(p, point) - evaluate(q, point)
    assert (p - q == Poly()) == (ref_key(ref_add(x, y, NEG_ONE)) == ())


@settings(max_examples=300, deadline=None)
@given(x=scalar_dicts, y=scalar_dicts, z=scalar_dicts, f=factors, g=factors, point=points)
def test_accumulators_match_poly_arithmetic(x, y, z, f, g, point):
    p, q, r = Poly(x), Poly(y), Poly(z)
    acc = {}
    acc_add(acc, r)
    acc_mul(acc, p, q, f)
    acc_add(acc, p, g)
    acc_mul(acc, q, r, f)
    acc_mul(acc, r, p)
    acc_add(acc, q, g)
    acc_mul(acc, p, p, -2)
    got = from_acc(acc)
    ref = ref_add(z, ref_scale(ref_mul(x, y), f))
    ref = ref_add(ref, ref_scale(x, g))
    ref = ref_add(ref, ref_scale(ref_mul(y, z), f))
    ref = ref_add(ref, ref_mul(z, x))
    ref = ref_add(ref, ref_scale(y, g))
    ref = ref_add(ref, ref_scale(ref_mul(x, x), Scalar(-2)))
    assert_same(got, ref, point)
    assert got == r + p * q * f + p * g + q * r * f + r * p + q * g - 2 * p * p


@settings(max_examples=300, deadline=None)
@given(x=scalar_dicts, mapping=mappings, point=points)
def test_subst_many_matches_substituted_point(x, mapping, point):
    p = Poly(x)
    got = p.subst_many({v: Poly(e) for v, e in mapping.items()})
    moved = {v: ref_eval(mapping[v], point) if v in mapping else point[v] for v in NAMES}
    assert evaluate(got, point) == evaluate(p, moved)
    assert_same(got, ref_subst(x, mapping), point)
