"""Multivariate polynomial layer: canonical forms, arithmetic, substitution."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hopffactor.poly import Poly, _Batch, acc_add, acc_mul, from_acc
from hopffactor.scalar import Scalar
from oracles import evaluate

x, y, z = Poly.var("x"), Poly.var("y"), Poly.var("z")


def test_zero_coefficients_dropped():
    p = x - x
    assert p.is_zero()
    assert Poly({("x",): Scalar(0)}).is_zero()


def test_const_and_var():
    assert Poly.const(Scalar(3)).const_value() == Scalar(3)
    assert x.degree() == 1


def test_variables_are_a_sorted_tuple():
    # sorted, so no hash-seed order reaches a caller
    assert (z * y + x * z - 1).variables() == ("x", "y", "z")
    assert Poly.const(Scalar(3)).variables() == ()


def test_arithmetic():
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) * (x + 1) == x * x + 2 * x + 1
    assert (x * y).degree() == 2
    assert -(x - y) == y - x


def test_scalar_multiplication():
    assert (x * Scalar(0)).is_zero()
    assert (x * 3).coeff(("x",)) == Scalar(3)


def test_render_canonical():
    p = x * x - y + Scalar(1, 2)
    assert p.render() == "x^2 - y + 1/2"
    q = Poly.const(Scalar(1, 2, -1, 2)) * x
    assert q.render() == "(1/2-1/2*i)*x"
    assert Poly().render() == "0"


def test_str_and_repr_show_the_render():
    p = Poly.var("x") * Poly.var("x") - Poly.var("y") * Scalar(1, 2) + Poly.const(Scalar(0, 1, 1, 1))
    assert str(p) == "x^2 - 1/2*y + i"
    assert repr(p) == "Poly(x^2 - 1/2*y + i)"
    assert (str(Poly()), repr(Poly())) == ("0", "Poly(0)")


def test_render_deterministic_ordering():
    p = z + y + x + x * y * z
    assert p.render() == "x*y*z + x + y + z"


def test_subst_var():
    p = x * y + y
    assert p.subst_many({"x": Poly.const(Scalar(0))}) == y
    assert p.subst_many({"y": x}) == x * x + x
    assert p.subst_many({"w": x}) is p


def test_subst_many_matches_sequential():
    p = x * x * y - 2 * z + 1
    mapping = {"x": y + 1, "z": Poly.const(Scalar(1, 2))}
    combined = p.subst_many(mapping)
    sequential = p.subst_many({"x": y + 1}).subst_many({"z": Poly.const(Scalar(1, 2))})
    assert combined == sequential


def test_eval():
    p = x * x + y
    val = evaluate(p, {"x": Scalar(2), "y": Scalar(1, 2)})
    assert val == Scalar(9, 2)


def test_content_and_division():
    p = x * x * y + x * y * y
    assert p.content_var() == "x"
    assert p.divide_by_var("x") == x * y + y * y
    assert (x + 1).content_var() is None


def test_as_quadratic():
    p = 2 * (x * x) + x * y + z
    a, b, c = p.as_quadratic_in("x")
    assert a.const_value() == Scalar(2)
    assert b == y
    assert c == z
    assert (x * x * x).as_quadratic_in("x") is None


def test_key_is_canonical():
    p1 = x + y
    p2 = y + x
    assert p1.key() == p2.key()
    assert hash(p1) == hash(p2)
    assert p1 == p2


def _assert_same(a, b):
    """a and b are one polynomial whose terms are stored in different orders."""
    assert a.terms != b.terms
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a.key() == b.key()
    assert a.render() == b.render()
    for m in a.terms + ((), ("w",)):
        assert a.coeff(m) == b.coeff(m)


def test_equality_does_not_depend_on_term_order():
    # the tuples keep the order in which the terms were summed
    _assert_same(x * y + x, x + y * x)
    _assert_same(
        Poly({("x", "y"): Scalar(1, 2), ("y",): Scalar(0, 1), (): 3}),
        Poly({(): 3, ("y",): Scalar(0, 1), ("y", "x"): Scalar(1, 2)}),
    )
    acc = {}
    acc_add(acc, Poly.const(Scalar(1)))
    acc_add(acc, x)
    acc_mul(acc, x, y)
    _assert_same(_Batch({"z": 1 + x}).apply(x * y + z), from_acc(acc))
    # a constant has one term, so its value is read the same way
    c = Poly({(): Scalar(1, 2), ("x",): 1}) - x
    assert c == Poly.const(Scalar(1, 2)) and c.const_value() == Scalar(1, 2)


def test_equality_compares_the_denominator():
    half = x * Scalar(1, 2)
    assert (half.terms, half.nums) == (x.terms, x.nums)
    assert half != x and half.key() != x.key()


def test_accumulators():
    acc = {}
    acc_add(acc, x + y)
    acc_mul(acc, x, y, Scalar(2))
    assert from_acc(acc) == x + y + 2 * (x * y)


@settings(max_examples=100)
@given(
    coeffs=st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
    point=st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
)
def test_eval_hom(coeffs, point):
    a, b, c = coeffs
    p = a * x + b * y + Poly.const(Scalar(c))
    q = x * y
    assign = {"x": Scalar(point[0]), "y": Scalar(point[1])}
    assert evaluate(p * q, assign) == evaluate(p, assign) * evaluate(q, assign)
    assert evaluate(p + q, assign) == evaluate(p, assign) + evaluate(q, assign)
