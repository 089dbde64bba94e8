"""Sparse multivariate polynomials over Q(i) in named unknowns.

A monomial is a sorted tuple of variable names with repetition (so x^2*y
is ("x", "x", "y")).  A polynomial holds Gaussian-integer numerators over
one denominator, as two parallel tuples: `terms` holds the monomials and
`nums` their nonzero (re, im) int pairs, and `den` is a positive int
sharing no factor with all of them, so the coefficient of terms[j] is
(nums[j][0] + nums[j][1]*i)/den.  Zero is () and () over 1.  That form
is canonical up to the order of the terms, so polynomials compare as
unordered mappings, and arithmetic makes no Scalar objects: it multiplies
and adds ints and reduces once per result.  Scalars appear only at the
boundary (`const`, `coeff`, `const_value`, `*` by a Scalar), and a Scalar
has the same form, (re + im*i)/den, so the boundary converts nothing.

Two tuples take less than half the memory of a {monomial: pair} dict;
a per-family solve of `theorem check` starts from about 10k terms, and
the union route's solve (`tests/oracles.search_system`) holds hundreds of
thousands.  Dicts remain only where terms are summed: the accumulators
(`acc_add`, `acc_mul`, `from_acc`) and the sums of one batch substitution
(`_Batch._expand`), which `_Batch.apply` turns into a Poly and
`_Batch.is_zero_under` only tests for zero.

The canonical term order is graded lexicographic, highest degree first,
which makes rendering and `key()` deterministic and lets whole solution
sets be compared structurally.  Degrees here never exceed three (linear
action coefficients multiplied across at most two coproduct legs), so the
flat-tuple monomial encoding is both the simplest and the fastest choice.
"""

from math import gcd, lcm
from operator import itemgetter

from hopffactor.scalar import ZERO, Scalar, _make, _red, join_signed, render_term


def _degree_of(term):
    """The degree of a (monomial, coefficient) term: the canonical term
    order is higher degree first, then lexicographic."""
    return len(term[0])


def _mono_mul(m1, m2):
    """The sorted product of two sorted monomials."""
    if not m1 or not m2 or m1[-1] <= m2[0]:
        return m1 + m2
    if m2[-1] <= m1[0]:
        return m2 + m1
    # a single unknown strictly inside a pair, the usual cubic case
    if len(m1) == 2 and len(m2) == 1:
        return (m1[0], m2[0], m1[1])
    if len(m1) == 1 and len(m2) == 2:
        return (m2[0], m1[0], m2[1])
    return tuple(sorted(m1 + m2))


def _num(c):
    """(re, im, den) of a Scalar or int."""
    if isinstance(c, int):
        return c, 0, 1
    return c.re, c.im, c.den


class Poly:
    """Immutable polynomial: the monomials `terms` and, in the same order,
    their nonzero (re, im) numerators `nums` over the shared denominator
    `den`.  The term order is the order in which the terms were summed, not
    a canonical one: `==` compares the terms as a mapping and `key()`
    sorts them.

    `Poly({monomial: Scalar or int})` builds one from coefficients;
    `Poly(terms, nums, den)` takes tuples already in the reduced numerator
    form.  The polynomials of one solve share monomial and numerator-pair
    tuples through the solver's table (see `_Batch`).  Degree and unknowns
    are cached, the unknowns as a sorted tuple, a quarter or less of a
    frozenset's size; `key()` is not, since a system of thousands of
    constraints would keep every key alive for the whole solve."""

    __slots__ = ("terms", "nums", "den", "_vars", "_degree")

    def __init__(self, terms=None, nums=None, den=1):
        if nums is None:
            acc = {}
            for m, c in (terms or {}).items():
                _acc_term(acc, tuple(sorted(m)), *_num(c))
            p = from_acc(acc)
            terms, nums, den = p.terms, p.nums, p.den
        self.terms = terms
        self.nums = nums
        self.den = den
        self._vars = None
        self._degree = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c):
        re, im, den = _num(c)
        if not (re or im):
            return cls((), (), 1)
        return cls(((),), ((re, im),), den)

    @classmethod
    def var(cls, name):
        return cls(((name,),), ((1, 0),), 1)

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        terms = self.terms
        return not terms or (len(terms) == 1 and terms[0] == ())

    def const_value(self):
        terms = self.terms
        if not terms:
            return ZERO
        if len(terms) == 1 and terms[0] == ():
            re, im = self.nums[0]
            return _make(re, im, self.den)
        raise ValueError(f"not a constant polynomial: {self}")

    def variables(self):
        """The unknowns, as a sorted tuple."""
        if self._vars is None:
            self._vars = tuple(sorted(set().union(*self.terms)))
        return self._vars

    def degree(self):
        if self._degree is None:
            self._degree = max(map(len, self.terms), default=0)
        return self._degree

    def coeff(self, mono_parts):
        try:
            j = self.terms.index(tuple(sorted(mono_parts)))
        except ValueError:
            return ZERO
        re, im = self.nums[j]
        return _make(re, im, self.den)

    def key(self):
        """((monomial, (rn, rd, imn, imd)), ...) in the canonical term
        order, built anew on each call."""
        den = self.den
        # the reduced (rn, rd, imn, imd) of each distinct (re + im*i)/den
        parts = {c: _red(c[0], den) + _red(c[1], den) for c in set(self.nums)}
        # the monomials are distinct, so the terms sort by monomial alone;
        # the stable descending sort by degree keeps the name order
        terms = sorted(zip(self.terms, map(parts.__getitem__, self.nums)), key=itemgetter(0))
        terms.sort(key=_degree_of, reverse=True)
        return tuple(terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        # the tuples keep the order in which the terms were summed
        mine, theirs = zip(self.terms, self.nums), zip(other.terms, other.nums)
        return self.den == other.den and dict(mine) == dict(theirs)

    def __hash__(self):
        return hash(self.key())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.terms, tuple([(-re, -im) for re, im in self.nums]), self.den)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other._plus(self, -1)

    def _plus(self, other, sign):
        """self + sign*other."""
        acc = {}
        acc_add(acc, self)
        acc_add(acc, other, sign)
        return from_acc(acc)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        acc = {}
        acc_mul(acc, self, other)
        return from_acc(acc)

    __rmul__ = __mul__

    # -- substitution ----------------------------------------------------------

    def subst_many(self, mapping):
        """Substitute several variables (var -> Poly) in one rebuild."""
        relevant = mapping.keys() & self.variables()
        if not relevant:
            return self
        return _Batch({v: mapping[v] for v in relevant}).apply(self)

    # -- solver helpers --------------------------------------------------------

    def content_var(self):
        """A variable dividing every monomial, or None (constant term kills it)."""
        if not self.terms:
            return None
        it = iter(self.terms)
        common = set(next(it))
        for m in it:
            common &= set(m)
            if not common:
                return None
        return min(common)

    def divide_by_var(self, var):
        """Exact division by var; every monomial must contain it."""
        terms = []
        for m in self.terms:
            parts = list(m)
            parts.remove(var)
            terms.append(tuple(parts))
        return Poly(tuple(terms), self.nums, self.den)

    def as_quadratic_in(self, var):
        """Split self = A*var^2 + B*var + C; A is a Poly (callers usually
        need it constant), B and C are Polys free of var.  None if the
        degree in var exceeds 2."""
        parts = ({}, {}, {})
        for m, c in zip(self.terms, self.nums):
            k = m.count(var)
            if k > 2:
                return None
            parts[2 - k][tuple(x for x in m if x != var)] = c
        return tuple(_build(p, self.den) for p in parts)

    # -- rendering -----------------------------------------------------------

    def render(self):
        return join_signed([render_term(parts, _render_mono(m)) for m, parts in self.key()])

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Poly({self.render()})"


def _build(raw, den, intern=None):
    """The Poly of {monomial: (re, im)} sums over den > 0: zero sums
    dropped, den and the numerators divided by their common factor and,
    with `intern` given (a `_Batch`'s table), the numerator pairs shared
    through it.  The monomials are taken as they are, and the tuples come
    straight from the dict unless some sum cancelled."""
    if (0, 0) in raw.values():
        raw = {m: c for m, c in raw.items() if c[0] or c[1]}
    if not raw:
        return Poly((), (), 1)
    nums = raw.values()
    if den != 1:
        g = den
        for re, im in nums:
            g = gcd(g, re, im)
            if g == 1:
                break
        else:
            den //= g
            nums = [(re // g, im // g) for re, im in nums]
    if intern is None:
        return Poly(tuple(raw), tuple(nums), den)
    share = intern.setdefault
    return Poly(tuple(raw), tuple(map(share, nums, nums)), den)


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (Scalar, int)):
        return Poly.const(x)
    return NotImplemented


def _render_mono(m):
    if not m:
        return ""
    parts = []
    seen = []
    for x in m:
        if seen and seen[-1][0] == x:
            seen[-1][1] += 1
        else:
            seen.append([x, 1])
    for x, k in seen:
        parts.append(x if k == 1 else f"{x}^{k}")
    return "*".join(parts)


# -- substitution -------------------------------------------------------------


class _Batch:
    """A substitution {unknown: Poly}, applied in one rebuild per
    polynomial.  A term containing an unknown mapped to 0 is dropped before
    any arithmetic; the other targets are brought to one common
    denominator, so a term with k substituted factors is scaled by the rest
    of that denominator's power up to the polynomial's degree.  Products of
    targets are cached for the batch.  The monomials of the targets and
    of the results, and the numerator pairs of the results, are shared
    through `intern`, which the solver keeps for every batch of one solve
    (see `solver._Node`).

    `apply` builds the substituted Poly; `is_zero_under` answers whether
    it would be zero from the same sums (`_expand`), with no Poly built,
    no numerators reduced and no monomial shared, for the solver's
    containment tests and soundness pass, which only ask that."""

    __slots__ = ("keys", "zeros", "nonzero", "targets", "scale", "intern", "_products")

    def __init__(self, mapping, intern=None):
        self.keys = frozenset(mapping)
        self.zeros = frozenset(v for v, e in mapping.items() if not e.terms)
        nonzero = {v: e for v, e in mapping.items() if e.terms}
        self.nonzero = frozenset(nonzero)
        self.scale = lcm(*(e.den for e in nonzero.values()))
        self.intern = {} if intern is None else intern
        share = self.intern.setdefault
        self.targets = {}  # unknown -> ((monomial, numerators over scale), ...)
        for v, e in nonzero.items():
            f = self.scale // e.den
            self.targets[v] = tuple(
                (share(m, m), (re * f, im * f)) for m, (re, im) in zip(e.terms, e.nums)
            )
        self._products = {}

    def _product(self, factors):
        """Expanded product of the scaled targets of a sorted unknown tuple."""
        intern = self.intern.setdefault
        prod = self.targets[factors[0]]
        for v in factors[1:]:
            acc = {}
            for m1, (a, b) in prod:
                for m2, (e, f) in self.targets[v]:
                    m = _mono_mul(m1, m2)
                    m = intern(m, m)
                    c = (a * e - b * f, a * f + b * e)
                    cur = acc.get(m)
                    acc[m] = c if cur is None else (cur[0] + c[0], cur[1] + c[1])
            prod = tuple((m, c) for m, c in acc.items() if c[0] or c[1])
        self._products[factors] = prod
        return prod

    def apply(self, p):
        pvars = p.variables()
        if self.keys.isdisjoint(pvars):
            return p
        if self.nonzero.isdisjoint(pvars):
            zeros = self.zeros
            kept = {m: c for m, c in zip(p.terms, p.nums) if zeros.isdisjoint(m)}
            return _build(kept, p.den, self.intern)
        return _build(*self._expand(p, self.intern.setdefault), self.intern)

    def is_zero_under(self, p):
        """Whether `apply(p)` is zero, from the same sums with no result
        built and no monomial shared."""
        pvars = p.variables()
        if self.keys.isdisjoint(pvars):
            return not p.terms
        if self.nonzero.isdisjoint(pvars):
            # only terms are dropped, so every one must be
            return not any(map(self.zeros.isdisjoint, p.terms))
        out, _ = self._expand(p, None)
        return not any(map(any, out.values()))

    def _expand(self, p, share):
        """The substituted terms of p, which holds some unknown mapped to a
        nonzero target, as {monomial: (re, im)} sums, zero sums included,
        and their denominator.  The monomials of kept-times-target products
        are shared through `share` unless it is None."""
        keys, zeros, targets = self.keys, self.zeros, self.targets
        products = self._products
        top = p.degree()
        powers = [self.scale**k for k in range(top + 1)]
        s = powers[top]
        out = {}
        get = out.get
        for m, c in zip(p.terms, p.nums):
            if keys.isdisjoint(m):
                if s != 1:
                    c = (c[0] * s, c[1] * s)
                cur = get(m)
                out[m] = c if cur is None else (cur[0] + c[0], cur[1] + c[1])
                continue
            if zeros and not zeros.isdisjoint(m):
                continue
            re, im = c
            factors = tuple([x for x in m if x in targets])
            k = powers[top - len(factors)]
            if k != 1:
                re *= k
                im *= k
            prod = products.get(factors) or self._product(factors)
            if len(factors) == len(m):
                kept = None
            else:
                kept = tuple([x for x in m if x not in targets])
            for m2, (e, f) in prod:
                if kept:
                    m2 = _mono_mul(kept, m2)
                    if share is not None:
                        m2 = share(m2, m2)
                if im:
                    c = (re * e - im * f, re * f + im * e)
                else:
                    c = (re * e, re * f)
                cur = get(m2)
                out[m2] = c if cur is None else (cur[0] + c[0], cur[1] + c[1])
        return out, p.den * s


# -- bulk accumulation (Poly arithmetic and constraint generation) -------------
#
# An accumulator is a plain dict of {monomial: (re, im)} numerators over one
# scale, which it keeps under the key None (absent means 1).  The scale is
# lifted to the lcm only when a term over a new denominator arrives.  A
# factor f is a Scalar or an int; Poly's `+`, `-` and `*` and the constraint
# generators all build their results here.


def _acc_term(acc, m, re, im, d):
    """acc[m] += (re + im*i)/d."""
    k = _scale(acc, d)
    cur = acc.get(m)
    acc[m] = (re * k, im * k) if cur is None else (cur[0] + re * k, cur[1] + im * k)


def _scale(acc, d):
    """The factor that puts numerators over d at the accumulator's scale,
    lifting the scale first when d does not divide it."""
    scale = acc.get(None, 1)
    if scale % d:
        new = lcm(scale, d)
        f = new // scale
        acc.pop(None, None)
        for m, (re, im) in acc.items():
            acc[m] = (re * f, im * f)
        acc[None] = scale = new
    return scale // d


def acc_add(acc, p, f=1):
    """acc += f*p."""
    fe, ff, fd = _num(f)
    if not (fe or ff) or not p.terms:
        return
    d = p.den * fd
    scale = acc.get(None, 1)
    k = scale // d if scale % d == 0 else _scale(acc, d)
    fe, ff = fe * k, ff * k
    get = acc.get
    for m, (a, b) in zip(p.terms, p.nums):
        re, im = a * fe - b * ff, a * ff + b * fe
        cur = get(m)
        acc[m] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)


def acc_mul(acc, p, q, f=1):
    """acc += f*p*q."""
    fe, ff, fd = _num(f)
    if not (fe or ff) or not p.terms or not q.terms:
        return
    d = p.den * q.den * fd
    scale = acc.get(None, 1)
    k = scale // d if scale % d == 0 else _scale(acc, d)
    fe, ff = fe * k, ff * k
    get = acc.get
    qterms, qnums = q.terms, q.nums
    if len(qterms) == 1:
        # q is one term, as an action-table entry usually is: fold its
        # coefficient into the factor and make one pass over p
        m2 = qterms[0]
        e, f = qnums[0]
        fe, ff = fe * e - ff * f, fe * f + ff * e
        for m1, (a, b) in zip(p.terms, p.nums):
            m = _mono_mul(m1, m2)
            re, im = a * fe - b * ff, a * ff + b * fe
            cur = get(m)
            acc[m] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
        return
    for m1, (a, b) in zip(p.terms, p.nums):
        a, b = a * fe - b * ff, a * ff + b * fe
        for m2, (e, f) in zip(qterms, qnums):
            m = _mono_mul(m1, m2)
            re, im = a * e - b * f, a * f + b * e
            cur = get(m)
            acc[m] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)


def from_acc(acc):
    """The Poly of a finished accumulator, which is spent: its scale entry
    is taken out."""
    return _build(acc, acc.pop(None, 1))
