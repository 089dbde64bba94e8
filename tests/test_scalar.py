"""Gaussian-rational scalar kernel: canonical forms, field axioms, formats."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hopffactor.scalar as scalar_mod
from hopffactor.scalar import Scalar


# the one implementation, under the test ids the suite has always used
@pytest.fixture(params=[Scalar], ids=["py"])
def S(request):
    return request.param


small_ints = st.integers(min_value=-30, max_value=30)
nonzero_denoms = st.integers(min_value=1, max_value=30)


def scalars_for(cls):
    return st.builds(cls, small_ints, nonzero_denoms, small_ints, nonzero_denoms)


def test_canonical_form(S):
    s = S(2, 4, -6, 9)
    assert (s.rn, s.rd, s.imn, s.imd) == (1, 2, -2, 3)
    assert (S(0, 5).rn, S(0, 5).rd) == (0, 1)
    assert S(3, -6).rn == -1 and S(3, -6).rd == 2


def test_zero_denominator_rejected(S):
    with pytest.raises(ZeroDivisionError):
        S(1, 0)


def test_norm_of_one_plus_i(S):
    assert S(1, 1, 1, 1) * S(1, 1, -1, 1) == S(2)


def test_inverse_of_one_plus_i(S):
    # (1+i)^-1 = (1-i)/2, the constant behind the z|>X table entries
    assert S(1, 1, 1, 1).inv() == S(1, 2, -1, 2)


def test_half_plus_half(S):
    assert S(1, 2) + S(1, 2) == S(1)


def test_division_by_zero(S):
    with pytest.raises(ZeroDivisionError):
        S(0).inv()


def test_int_interop(S):
    assert S(1, 2) * 2 == 1
    assert 1 + S(1, 2) == S(3, 2)
    assert 2 * S(2).inv() == S(1)
    assert hash(S(5)) == hash(5)


def test_power(S):
    i = S(0, 1, 1, 1)
    assert i * i == S(-1)
    assert i * i * i * i == S(1)
    assert S(2).inv() == S(1, 2)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_field_axioms(S, data):
    xs = scalars_for(S)
    a, b, c = data.draw(xs), data.draw(xs), data.draw(xs)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + S(0) == a
    assert a * S(1) == a
    if not a.is_zero():
        assert a * a.inv() == S(1)
        assert (a.inv()).inv() == a


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_conjugation(S, data):
    a = data.draw(scalars_for(S))
    conj = S(a.rn, a.rd, -a.imn, a.imd)
    assert S(conj.rn, conj.rd, -conj.imn, conj.imd) == a
    assert (a * conj).imn == 0


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_json_roundtrip(S, data):
    a = data.draw(scalars_for(S))
    assert S.from_json(a.to_json()) == a
    rn, rd, imn, imd = a.to_json()
    assert rd > 0 and imd > 0


def test_render_examples(S):
    assert str(S(0)) == "0"
    assert str(S(-3, 2)) == "-3/2"
    assert str(S(0, 1, 1, 1)) == "i"
    assert str(S(0, 1, -1, 1)) == "-i"
    assert str(S(0, 1, 2, 1)) == "2*i"
    assert str(S(1, 2, -1, 2)) == "1/2-1/2*i"


def test_truth_is_nonzero(S):
    assert [bool(S(n)) for n in (-1, 0, 1)] == [True, False, True]
    assert not S(0, 5, 0, 3)
    assert S(-1, 2) and S(0, 1, 1, 1) and S(0, 1, -1, 7)


def test_selected_backend_consistent():
    assert scalar_mod.BACKEND == "python"
    assert Scalar(1, 2).to_json() == [1, 2, 0, 1]


def test_from_json_rejects_malformed(S):
    for bad in ([1, 0, 0, 1], [1, 1, 0, 0], [1, 1, 0], ["1", 1, 0, 1], [1.5, 1, 0, 1],
                [True, 1, 0, 1], None):
        with pytest.raises(ValueError):
            S.from_json(bad)


# a Scalar against a pair of stdlib Fractions (real part, imaginary part)
fracs = st.fractions(min_value=-40, max_value=40, max_denominator=24)


def _of(re, im):
    return Scalar(re.numerator, re.denominator, im.numerator, im.denominator)


def _stored_form_holds(s):
    assert s.den > 0 and math.gcd(s.re, s.im, s.den) == 1
    assert s.is_zero() == ((s.re, s.im, s.den) == (0, 0, 1))


@settings(max_examples=300)
@given(a=fracs, b=fracs, c=fracs, e=fracs)
def test_arithmetic_matches_a_fraction_oracle(a, b, c, e):
    x, y = _of(a, b), _of(c, e)
    products = (a * c - b * e, a * e + b * c)
    for s, (re, im) in [
        (x, (a, b)),
        (x + y, (a + c, b + e)),
        (x - y, (a - c, b - e)),
        (x * y, products),
    ]:
        _stored_form_holds(s)
        assert s == _of(re, im)
        assert s.sort_key() == (re.numerator, re.denominator, im.numerator, im.denominator)
    assert (x == y) == ((a, b) == (c, e))
    if a or b:
        norm = a * a + b * b
        assert x.inv() == _of(a / norm, -b / norm)
        _stored_form_holds(x.inv())


@given(n=st.integers(min_value=-(10**30), max_value=10**30))
def test_an_int_scalar_is_stored_and_hashed_as_the_int(n):
    s = Scalar(n)
    assert (s.re, s.im, s.den) == (n, 0, 1)
    assert s == n and hash(s) == hash(n)
