"""Sparse multivariate polynomials over Q(i) in named unknowns.

A monomial is a sorted tuple of variable names with repetition (so x^2*y
is ("x", "x", "y")); a polynomial maps monomials to nonzero Scalar
coefficients.  The canonical term order is graded lexicographic, highest
degree first, which makes rendering and `key()` deterministic and lets
whole solution sets be compared structurally.

Degrees here never exceed three (linear action coefficients multiplied
across at most two coproduct legs), so the flat-tuple monomial encoding is
both the simplest and the fastest choice.
"""

from hopffactor.scalar import ONE, ZERO, Scalar

Mono = tuple

_MONO_CACHE = {}


def _mono(parts):
    t = tuple(sorted(parts))
    cached = _MONO_CACHE.get(t)
    if cached is None:
        _MONO_CACHE[t] = t
        cached = t
    return cached


_EMPTY = _mono(())


def _term_order(mono):
    return (-len(mono), mono)


class Poly:
    """Immutable polynomial; `terms` maps monomials to nonzero scalars."""

    __slots__ = ("terms", "_vars", "_key")

    def __init__(self, terms=None, normalized=False):
        if terms is None:
            terms = {}
        if not normalized:
            clean = {}
            for m, c in terms.items():
                c = c if isinstance(c, Scalar) else Scalar(c)
                if not c.is_zero():
                    clean[_mono(m)] = c
            terms = clean
        self.terms = terms
        self._vars = None
        self._key = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c):
        c = c if isinstance(c, Scalar) else Scalar(c)
        if c.is_zero():
            return cls({}, normalized=True)
        return cls({_EMPTY: c}, normalized=True)

    @classmethod
    def var(cls, name):
        return cls({_mono((name,)): ONE}, normalized=True)

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and _EMPTY in self.terms)

    def const_value(self):
        if not self.terms:
            return ZERO
        if len(self.terms) == 1 and _EMPTY in self.terms:
            return self.terms[_EMPTY]
        raise ValueError(f"not a constant polynomial: {self}")

    def variables(self):
        if self._vars is None:
            vs = set()
            for m in self.terms:
                vs.update(m)
            self._vars = frozenset(vs)
        return self._vars

    def degree(self):
        return max((len(m) for m in self.terms), default=0)

    def degree_in(self, var):
        return max((m.count(var) for m in self.terms), default=0)

    def coeff(self, mono_parts):
        return self.terms.get(_mono(mono_parts), ZERO)

    def key(self):
        if self._key is None:
            self._key = tuple(
                (m, c.sort_key())
                for m, c in sorted(self.terms.items(), key=lambda kv: _term_order(kv[0]))
            )
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            cur = out.get(m)
            if cur is None:
                out[m] = c
            else:
                s = cur + c
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
        return Poly(out, normalized=True)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()}, normalized=True)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            c = other if isinstance(other, Scalar) else Scalar(other)
            if c.is_zero():
                return Poly({}, normalized=True)
            return Poly({m: c * v for m, v in self.terms.items()}, normalized=True)
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.terms or not other.terms:
            return Poly({}, normalized=True)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono(m1 + m2)
                c = c1 * c2
                cur = out.get(m)
                if cur is None:
                    out[m] = c
                else:
                    s = cur + c
                    if s.is_zero():
                        del out[m]
                    else:
                        out[m] = s
        return Poly(out, normalized=True)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = Poly.const(ONE)
        for _ in range(k):
            out = out * self
        return out

    # -- substitution & evaluation -------------------------------------------

    def subst_var(self, var, value):
        """Substitute one variable by a Poly (or Scalar) and renormalize."""
        if var not in self.variables():
            return self
        if isinstance(value, (Scalar, int)):
            value = Poly.const(value)
        out = {}
        powers = {0: Poly.const(ONE)}
        for m, c in self.terms.items():
            k = m.count(var)
            if k == 0:
                _acc(out, m, c)
                continue
            rest = _mono(tuple(x for x in m if x != var))
            if k not in powers:
                powers[k] = value ** k
            for m2, c2 in powers[k].terms.items():
                _acc(out, _mono(rest + m2), c * c2)
        return Poly(out, normalized=True)

    def subst_many(self, mapping):
        """Substitute several variables (var -> Poly) in one rebuild."""
        relevant = self.variables() & mapping.keys()
        if not relevant:
            return self
        out = {}
        for m, c in self.terms.items():
            kept = []
            factors = []
            for x in m:
                target = mapping.get(x)
                if target is None:
                    kept.append(x)
                else:
                    factors.append(target)
            if not factors:
                _acc(out, m, c)
                continue
            prod = factors[0]
            for f in factors[1:]:
                prod = prod * f
            base = tuple(kept)
            for m2, c2 in prod.terms.items():
                _acc(out, _mono(base + m2), c * c2)
        return Poly(out, normalized=True)

    def eval(self, assignment):
        """Evaluate at a full Scalar assignment of every variable."""
        acc = ZERO
        for m, c in self.terms.items():
            v = c
            for x in m:
                v = v * assignment[x]
            acc = acc + v
        return acc

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
        out = {}
        for m, c in self.terms.items():
            parts = list(m)
            parts.remove(var)
            out[_mono(tuple(parts))] = c
        return Poly(out, normalized=True)

    def as_quadratic_in(self, var):
        """Split self = A*var^2 + B*var + C; A is a Poly (callers usually
        need it constant), B and C are Polys free of var.  None if the
        degree in var exceeds 2."""
        a, b, c = {}, {}, {}
        for m, coef in self.terms.items():
            k = m.count(var)
            rest = _mono(tuple(x for x in m if x != var))
            if k == 0:
                c[rest] = coef
            elif k == 1:
                b[rest] = coef
            elif k == 2:
                a[rest] = coef
            else:
                return None
        return (
            Poly(a, normalized=True),
            Poly(b, normalized=True),
            Poly(c, normalized=True),
        )

    # -- rendering -----------------------------------------------------------

    def render(self):
        if not self.terms:
            return "0"
        pieces = []
        for m, c in sorted(self.terms.items(), key=lambda kv: _term_order(kv[0])):
            pieces.append(_render_term(m, c))
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Poly({self.render()})"


def _acc(out, m, c):
    cur = out.get(m)
    if cur is None:
        out[m] = c
    else:
        s = cur + c
        if s.is_zero():
            del out[m]
        else:
            out[m] = s


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


def _render_term(m, c):
    mono = _render_mono(m)
    if not mono:
        s = str(c)
        return s if _is_simple(s) else f"({s})"
    if c.is_one():
        return mono
    if c == -1:
        return f"-{mono}"
    s = str(c)
    if _is_simple(s):
        return f"{s}*{mono}"
    return f"({s})*{mono}"


def _is_simple(rendered):
    # a single signed term: no interior +/- after the first character
    return not any(ch in "+-" for ch in rendered[1:])


# -- bulk accumulation (constraint generation avoids intermediate Poly objects)


def acc_add(acc, p, f=None):
    """acc += f*p, where acc is a raw monomial->Scalar dict."""
    if f is not None and f.is_zero():
        return
    for m, c in p.terms.items():
        _acc(acc, m, c if f is None else f * c)


def acc_mul(acc, p, q, f=None):
    """acc += f*p*q into a raw monomial->Scalar dict."""
    if f is not None and f.is_zero():
        return
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            c = c1 * c2
            if f is not None:
                c = f * c
            _acc(acc, _mono(m1 + m2), c)


def from_acc(acc):
    return Poly(dict(acc), normalized=True)
