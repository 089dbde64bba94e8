"""The solver's integer core against the Poly layer it stands in for.

Inside `solve()` constraints are Gaussian-integer numerators over one
denominator, in unknowns interned as ints.  These properties pin that the
core denotes exactly the same rational polynomials: converting a Poly in
and out is the identity, and a substitution batch gives the same result,
in the same reduced form, as `Poly.subst_many`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from hopffactor.poly import Poly
from hopffactor.scalar import Scalar
from hopffactor.solver import _Batch, _Ring

NAMES = ("a", "b", "c", "d", "e")

# the coefficients the constraint systems are made of, plus non-real ones
COEFFS = [
    Scalar(1), Scalar(-1), Scalar(1, 2), Scalar(-1, 2), Scalar(1, 4), Scalar(-1, 4),
    Scalar(0, 1, 1, 1), Scalar(0, 1, -1, 1), Scalar(1, 2, 1, 2),
]

monomials = st.lists(st.sampled_from(NAMES), max_size=3).map(tuple)
polys = st.dictionaries(monomials, st.sampled_from(COEFFS), max_size=8).map(Poly)
affine = st.dictionaries(
    st.sampled_from([(), ("a",), ("b",), ("c",)]), st.sampled_from(COEFFS), max_size=3
).map(Poly)


@st.composite
def targets(draw):
    """Zero, a constant, an affine target, or an affine target solved from a
    linear equation with a non-real pivot, which puts (re, im) pairs over
    denominator 2 into the numerators."""
    kind = draw(st.sampled_from(["zero", "const", "affine", "pivot"]))
    if kind == "zero":
        return Poly()
    if kind == "const":
        return Poly.const(draw(st.sampled_from(COEFFS + [Scalar(3, 2), Scalar(2)])))
    rest = draw(affine)
    if kind == "affine":
        return rest
    pivot = draw(st.sampled_from([Scalar(1, 1, 1, 1), Scalar(0, 1, 2, 1), Scalar(1, 1, -1, 1)]))
    return rest * -pivot.inv()


mappings = st.dictionaries(st.sampled_from(NAMES), targets(), min_size=1, max_size=4)


def ring():
    return _Ring(NAMES)


@settings(max_examples=300, deadline=None)
@given(p=polys)
def test_poly_to_core_and_back_is_the_identity(p):
    r = ring()
    back = r.to_poly(r.from_poly(p))
    assert back == p
    assert back.key() == p.key()
    assert back.render() == p.render()


@settings(max_examples=300, deadline=None)
@given(p=polys, mapping=mappings)
def test_core_substitution_equals_subst_many(p, mapping):
    r = ring()
    expected = p.subst_many(mapping)
    batch = _Batch(r, {r.index[v]: r.from_poly(e) for v, e in mapping.items()})
    got = batch.apply(r.from_poly(p))
    assert r.to_poly(got) == expected
    assert r.to_poly(got).render() == expected.render()
    # the result is in the reduced form the conversion gives, so equal
    # polynomials have equal cores
    canonical = r.from_poly(expected)
    assert (got.terms, got.den) == (canonical.terms, canonical.den)
    assert got.degree() == expected.degree()
    assert set(got.variables()) == {r.index[v] for v in expected.variables()}
