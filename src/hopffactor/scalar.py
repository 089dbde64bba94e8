"""Ground-field scalars: the Gaussian rationals Q(i).

Every constant in the engine lives in Q(i) (the constructions only ever
need 1/2, roots of unity +-1, +-i and (1+-i)^-1), which keeps all checks
decidable and exact.  A scalar is a + (b)i with a, b reduced big-integer
fractions.

Canonical form invariants: denominators strictly positive, numerator and
denominator coprime, zero stored as 0/1.  Equality is therefore structural
and scalars hash consistently.

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


class Scalar:
    """An exact element of Q(i)."""

    __slots__ = ("rn", "rd", "imn", "imd")

    def __init__(self, rn=0, rd=1, imn=0, imd=1):
        a, b = _red(rn, rd)
        c, d = _red(imn, imd)
        self.rn = a
        self.rd = b
        self.imn = c
        self.imd = d

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
        return self.rn == 0 and self.imn == 0

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = Scalar(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(
            self.rn * other.rd + other.rn * self.rd,
            self.rd * other.rd,
            self.imn * other.imd + other.imn * self.imd,
            self.imd * other.imd,
        )

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.rn, self.rd, -self.imn, self.imd)

    def __sub__(self, other):
        if isinstance(other, int):
            other = Scalar(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(
            self.rn * other.rd - other.rn * self.rd,
            self.rd * other.rd,
            self.imn * other.imd - other.imn * self.imd,
            self.imd * other.imd,
        )

    def __mul__(self, other):
        if isinstance(other, int):
            other = Scalar(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        if self.imn == 0 and other.imn == 0:
            return Scalar(self.rn * other.rn, self.rd * other.rd)
        # (a + bi)(c + di) = (ac - bd) + (ad + bc)i
        a, b = self.rn, self.rd
        c, d = self.imn, self.imd
        e, f = other.rn, other.rd
        g, h = other.imn, other.imd
        return Scalar(
            a * e * d * h - c * g * b * f,
            b * f * d * h,
            a * g * d * f + c * e * b * h,
            b * h * d * f,
        )

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if self.imn == 0:
            return Scalar(self.rd, self.rn)
        # 1/(a+bi) = (a-bi)/(a^2+b^2)
        nn = self.rn * self.rn * self.imd * self.imd + self.imn * self.imn * self.rd * self.rd
        dd = self.rd * self.rd * self.imd * self.imd
        # conj / norm, with norm = nn/dd
        return Scalar(
            self.rn * self.rd * dd, nn * self.rd * self.rd,
            -self.imn * self.imd * dd, nn * self.imd * self.imd,
        )

    # -- comparison & hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.rd == 1 and self.rn == other and self.imn == 0
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self.rn == other.rn
            and self.rd == other.rd
            and self.imn == other.imn
            and self.imd == other.imd
        )

    def __hash__(self):
        if self.rd == 1 and self.imn == 0:
            return hash(self.rn)
        return hash((self.rn, self.rd, self.imn, self.imd))

    def sort_key(self):
        return (self.rn, self.rd, self.imn, self.imd)

    # -- formats -------------------------------------------------------------

    def to_json(self):
        return [self.rn, self.rd, self.imn, self.imd]

    def __str__(self):
        return render_gaussian(self.rn, self.rd, self.imn, self.imd)

    def __repr__(self):
        return f"Scalar({self})"


ZERO = Scalar(0)
ONE = Scalar(1)
NEG_ONE = Scalar(-1)
HALF = Scalar(1, 2)
I = Scalar(0, 1, 1, 1)
NEG_I = Scalar(0, 1, -1, 1)
