"""Ground-field scalars: the Gaussian rationals Q(i).

Every constant in the engine lives in Q(i) (the constructions only ever
need 1/2, roots of unity +-1, +-i and (1+-i)^-1), which keeps all checks
decidable and exact.  A scalar is stored as Poly stores a coefficient:
Gaussian-integer numerators over one denominator, (re + im*i)/den.

Canonical form invariants: den > 0 and gcd(re, im, den) == 1, zero stored
as (0, 0, 1).  Equality is therefore structural, and scalars hash
consistently, an integer n as hash(n).

The wire format for a scalar a/b + (c/d)i is the 4-integer list
[a, b, c, d] with b, d > 0 and both fractions reduced.  The text format,
e.g. "0", "-3/2", "i", "-i", "2*i", "1/2-1/2*i", is output only: nothing
parses it back.
"""

from math import gcd

# the one scalar implementation; perfbench's setup probe still prints it
BACKEND = "python"


def render_gaussian(rn, rd, imn, imd):
    """Canonical text form; assumes the components are already reduced."""
    parts = []
    if rn != 0:
        parts.append(_render_rat(rn, rd))
    if imn != 0:
        if imn == 1 and imd == 1:
            im = "i"
        elif imn == -1 and imd == 1:
            im = "-i"
        else:
            im = _render_rat(imn, imd) + "*i"
        if parts and not im.startswith("-"):
            parts.append("+" + im)
        else:
            parts.append(im)
    if not parts:
        return "0"
    return "".join(parts)


def _render_rat(n, d):
    return str(n) if d == 1 else f"{n}/{d}"


def render_term(parts, label):
    """One coefficient (rn, rd, imn, imd) times a label: "label" for 1,
    "-label" for -1, a compound coefficient in parentheses, and the
    coefficient alone for the empty label."""
    s = render_gaussian(*parts)
    if any(ch in "+-" for ch in s[1:]):
        s = f"({s})"
    if not label:
        return s
    if parts == (1, 1, 0, 1):
        return label
    if parts == (-1, 1, 0, 1):
        return f"-{label}"
    return f"{s}*{label}"


def join_signed(terms):
    """Rendered terms as one sum: a term's leading minus becomes the
    operator, so ["x", "-y"] gives "x - y"; no terms give "0"."""
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def _red(n, d):
    # reduce n/d to canonical form with d > 0; zero is 0/1
    if d == 0:
        raise ZeroDivisionError("scalar with zero denominator")
    if n == 0:
        return 0, 1
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g > 1:
        n //= g
        d //= g
    return n, d


_new = object.__new__


def _make(re, im, den):
    """The Scalar (re + im*i)/den for ints with den > 0, reduced."""
    g = gcd(re, im, den)
    s = _new(Scalar)
    if g == 1:
        s.re, s.im, s.den = re, im, den
    else:
        s.re, s.im, s.den = re // g, im // g, den // g
    return s


class Scalar:
    """An exact element of Q(i): (re + im*i)/den.

    `Scalar(rn, rd, imn, imd)` is rn/rd + (imn/imd)i; `rn`, `rd`, `imn`
    and `imd` read back the reduced parts, as `sort_key()` gives them."""

    __slots__ = ("re", "im", "den")

    def __new__(cls, rn=0, rd=1, imn=0, imd=1):
        den = rd * imd
        if den == 0:
            raise ZeroDivisionError("scalar with zero denominator")
        if den < 0:
            return _make(-rn * imd, -imn * rd, -den)
        return _make(rn * imd, imn * rd, den)

    rn = property(lambda self: _red(self.re, self.den)[0])
    rd = property(lambda self: _red(self.re, self.den)[1])
    imn = property(lambda self: _red(self.im, self.den)[0])
    imd = property(lambda self: _red(self.im, self.den)[1])

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_json(cls, data):
        if not (
            isinstance(data, (list, tuple))
            and len(data) == 4
            and all(type(x) is int for x in data)
            and data[1] != 0
            and data[3] != 0
        ):
            raise ValueError(f"bad scalar payload: {data!r}")
        return cls(*data)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not (self.re or self.im)

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic --------------------------------------------------------

    # Addition and multiplication test for a Scalar operand first and build
    # their reduced result in place, as `_make` would, skipping the gcd when
    # the denominator is 1; an int operand n is n/1.  Subtraction adds the
    # negation.

    def __add__(self, other):
        if other.__class__ is not Scalar:
            if isinstance(other, int):
                # re + n*den keeps gcd(re, im, den) = 1: no reduction
                s = _new(Scalar)
                s.re, s.im, s.den = self.re + other * self.den, self.im, self.den
                return s
            if not isinstance(other, Scalar):
                return NotImplemented
        d, f = self.den, other.den
        if d == f:
            re, im = self.re + other.re, self.im + other.im
        else:
            re, im, d = self.re * f + other.re * d, self.im * f + other.im * d, d * f
        s = _new(Scalar)
        if d == 1:
            s.re, s.im, s.den = re, im, 1
            return s
        g = gcd(re, im, d)
        if g == 1:
            s.re, s.im, s.den = re, im, d
        else:
            s.re, s.im, s.den = re // g, im // g, d // g
        return s

    __radd__ = __add__

    def __neg__(self):
        s = _new(Scalar)
        s.re, s.im, s.den = -self.re, -self.im, self.den
        return s

    def __sub__(self, other):
        if isinstance(other, (Scalar, int)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            if isinstance(other, int):
                return _make(self.re * other, self.im * other, self.den)
            if not isinstance(other, Scalar):
                return NotImplemented
        # (a + bi)/d * (c + ei)/f = ((ac - be) + (ae + bc)i)/(df)
        a, b, c, e = self.re, self.im, other.re, other.im
        re, im, d = a * c - b * e, a * e + b * c, self.den * other.den
        s = _new(Scalar)
        if d == 1:
            s.re, s.im, s.den = re, im, 1
            return s
        g = gcd(re, im, d)
        if g == 1:
            s.re, s.im, s.den = re, im, d
        else:
            s.re, s.im, s.den = re // g, im // g, d // g
        return s

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        # 1/((a + bi)/d) = d(a - bi)/(a^2 + b^2)
        a, b, d = self.re, self.im, self.den
        return _make(d * a, -d * b, a * a + b * b)

    # -- comparison & hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.den == 1 and self.im == 0 and self.re == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im and self.den == other.den

    def __hash__(self):
        if self.den == 1 and self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im, self.den))

    def sort_key(self):
        """The reduced parts (rn, rd, imn, imd)."""
        return _red(self.re, self.den) + _red(self.im, self.den)

    # -- formats -------------------------------------------------------------

    def to_json(self):
        return list(self.sort_key())

    def __str__(self):
        return render_gaussian(*self.sort_key())

    def __repr__(self):
        return f"Scalar({self})"


ZERO = Scalar(0)
ONE = Scalar(1)
NEG_ONE = Scalar(-1)
HALF = Scalar(1, 2)
I = Scalar(0, 1, 1, 1)
NEG_I = Scalar(0, 1, -1, 1)
