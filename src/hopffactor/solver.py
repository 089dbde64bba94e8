"""Polynomial constraint solving by linear elimination and case splitting.

The solver returns the complete solution set of a finite polynomial system
over Q(i) as a list of triangular substitution branches, using exactly
three solution-preserving moves:

  (i)   substitute an unknown that some equation isolates linearly
        (c*x + rest = 0 with c a nonzero scalar and x absent from rest);
  (ii)  split a factorable equation, v*q = 0  ->  v = 0  or  q = 0;
  (iii) split a quadratic with constant leading coefficient through the
        quadratic formula, whenever the discriminant is a perfect square
        in Q(i) (as a scalar or as the square of a polynomial).

Dead branches (a nonzero constant constraint) are pruned, identical
branches are merged, and branches whose variety is contained in another
branch are dropped, so solution sets compare structurally.  Anything the
three moves cannot reduce raises IrreducibleSystemError carrying the
offending residual: the solver never guesses.
"""

from math import gcd, isqrt, lcm

from hopffactor._scalar_py import _red
from hopffactor.poly import Poly
from hopffactor.scalar import ZERO, Scalar


class IrreducibleSystemError(Exception):
    """A system (or subproblem) that the three solving moves cannot reduce."""

    def __init__(self, reason, residual):
        self.reason = reason
        self.residual = tuple(residual)
        shown = ", ".join(p.render() for p in self.residual[:8])
        extra = "" if len(self.residual) <= 8 else f", ... ({len(self.residual)} total)"
        super().__init__(f"irreducible system ({reason}): {shown}{extra}")


# -- square roots in Q(i) ----------------------------------------------------


def _rat_sqrt(n, d):
    # sqrt of the reduced nonnegative rational n/d, or None
    if n < 0:
        return None
    sn, sd = isqrt(n), isqrt(d)
    if sn * sn == n and sd * sd == d:
        return sn, sd
    return None


def gaussian_sqrt(s):
    """The canonical square root of s in Q(i), or None when none exists.

    The canonical root has positive real part, or zero real part and
    nonnegative imaginary part.
    """
    if s.is_zero():
        return type(s)(0)
    if s.imn == 0:
        if s.rn > 0:
            r = _rat_sqrt(s.rn, s.rd)
            return None if r is None else type(s)(r[0], r[1])
        r = _rat_sqrt(-s.rn, s.rd)
        return None if r is None else type(s)(0, 1, r[0], r[1])
    # t = x + yi with x^2 - y^2 = re(s), 2xy = im(s); then x^2 + y^2 = |s|
    # and x^2 = (re(s) + |s|)/2, all of which must be rational squares.
    norm_n = s.rn * s.rn * s.imd * s.imd + s.imn * s.imn * s.rd * s.rd
    norm_d = s.rd * s.rd * s.imd * s.imd
    r = _rat_sqrt(norm_n, norm_d)
    if r is None:
        return None
    # x^2 = (rn/rd + r)/2
    x2_n = s.rn * r[1] + r[0] * s.rd
    x2_d = 2 * s.rd * r[1]
    x = _rat_sqrt(*_red(x2_n, x2_d))
    if x is None or x[0] == 0:
        return None
    # y = im(s)/(2x), purely imaginary contribution
    t = type(s)(x[0], x[1]) + type(s)(0, 1, s.imn, s.imd) / type(s)(2 * x[0], x[1])
    if t * t == s:
        return t
    return None


def poly_sqrt(p):
    """A polynomial square root of p over Q(i), canonical sign, or None."""
    if p.is_zero():
        return Poly()
    if p.is_const():
        s = gaussian_sqrt(p.const_value())
        return None if s is None else Poly.const(s)
    if p.degree() != 2:
        return None
    anchor = None
    for v in sorted(p.variables()):
        if not p.coeff((v, v)).is_zero():
            anchor = v
            break
    if anchor is None:
        return None
    la = gaussian_sqrt(p.coeff((anchor, anchor)))
    if la is None:
        return None
    half_inv = (la + la).inv()
    terms = {(anchor,): la}
    for w in sorted(p.variables()):
        if w == anchor:
            continue
        c = p.coeff((anchor, w))
        if not c.is_zero():
            terms[(w,)] = c * half_inv
    c0 = p.coeff((anchor,))
    if not c0.is_zero():
        terms[()] = c0 * half_inv
    cand = Poly(terms)
    if cand * cand == p:
        return _canonical_sign(cand)
    return None


def _canonical_sign(p):
    lead = p.key()[0][1]  # sort_key of the leading coefficient
    rn, _, imn, _ = lead
    if rn > 0 or (rn == 0 and imn >= 0):
        return p
    return -p


# -- branches ----------------------------------------------------------------


class Branch:
    """A triangular substitution: every substituted unknown maps to a
    polynomial in the remaining free unknowns."""

    __slots__ = ("subst", "free", "_key")

    def __init__(self, subst, free):
        self.subst = dict(subst)
        self.free = tuple(sorted(free))
        self._key = None

    def key(self):
        if self._key is None:
            self._key = tuple(
                (v, e.key()) for v, e in sorted(self.subst.items())
            )
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Branch):
            return NotImplemented
        return self.key() == other.key() and self.free == other.free

    def __hash__(self):
        return hash((self.key(), self.free))

    def __repr__(self):
        inner = ", ".join(f"{v}={e.render()}" for v, e in sorted(self.subst.items()))
        if self.free:
            inner += ("; " if inner else "") + "free: " + ", ".join(self.free)
        return f"Branch({inner})"

    def apply(self, p):
        """Substitute this branch into a polynomial (single pass suffices:
        substitution targets are already expressed over free unknowns)."""
        return p.subst_many(self.subst)

    def is_point(self):
        return not self.free and all(e.is_const() for e in self.subst.values())

    def point(self):
        """The single solution as {var: Scalar}; only for point branches."""
        if not self.is_point():
            raise ValueError("branch has free unknowns")
        return {v: e.const_value() for v, e in self.subst.items()}

    def sample(self, values=None):
        """A concrete solution: free unknowns get 1, 2, 3, ... by default."""
        if values is None:
            values = {v: Scalar(k + 1) for k, v in enumerate(self.free)}
        out = dict(values)
        for v, e in self.subst.items():
            out[v] = e.eval(values)
        return out

    def contains_point(self, assignment):
        """Does the concrete assignment (var -> Scalar, all unknowns) lie on
        this branch?"""
        for v, e in self.subst.items():
            if e.eval(assignment) != assignment[v]:
                return False
        return True

    def contains(self, other):
        """Variety containment: other is a subvariety of self."""
        for v, e in self.subst.items():
            q = Poly.var(v) - e
            if not other.apply(q).is_zero():
                return False
        return True

    def to_json(self):
        return {
            "substitution": {v: e.render() for v, e in sorted(self.subst.items())},
            "free": list(self.free),
        }


class SolutionSet:
    """All solutions of a system, as canonically ordered branches plus the
    log of case splits that produced them."""

    __slots__ = ("branches", "provenance")

    def __init__(self, branches, provenance):
        self.branches = tuple(branches)
        self.provenance = tuple(provenance)

    def __len__(self):
        return len(self.branches)

    def __iter__(self):
        return iter(self.branches)

    def __repr__(self):
        return f"SolutionSet({len(self.branches)} branches)"

    def to_json(self):
        return {
            "schema": "solutions/v1",
            "solutions": [b.to_json() for b in self.branches],
            "provenance": [dict(entry) for entry in self.provenance],
        }


# -- integer core ------------------------------------------------------------
#
# Inside solve() the constraints are _ZPolys rather than Polys: unknowns are
# interned as ints and coefficients are Gaussian-integer numerators over one
# denominator per polynomial, so substitution makes no Scalar objects and runs
# no per-operation gcds.  A _ZPoly denotes exactly the rational Poly it stands
# for, at the same scale, so converting back gives the same keys, renders and
# provenance as a Poly-only solve.


class _Ring:
    """The unknowns of one solve, interned as ints in sorted-name order (so
    int monomials sort exactly like name monomials), the intern tables of
    its monomials and coefficient pairs, and the conversions between Poly
    and _ZPoly.  It lives as long as the solve."""

    __slots__ = ("names", "index", "monos", "_coeffs", "_int_monos", "_scalars")

    def __init__(self, universe):
        self.names = tuple(sorted(universe))
        self.index = {v: i for i, v in enumerate(self.names)}
        self.monos = {}
        self._coeffs = {}
        self._int_monos = {}  # name monomial -> int monomial
        self._scalars = {}  # (re, im, den) -> Scalar

    def mono(self, parts):
        """The interned copy of a sorted int monomial."""
        return self.monos.setdefault(parts, parts)

    def from_poly(self, p):
        int_monos = self._int_monos
        terms = {}
        for m, c in p.terms.items():
            zm = int_monos.get(m)
            if zm is None:
                zm = int_monos[m] = self.mono(tuple(self.index[x] for x in m))
            terms[zm] = c
        return self.from_scalars(terms)

    def from_scalars(self, terms):
        """The _ZPoly of {int monomial: nonzero Scalar}."""
        den = 1
        for c in terms.values():
            den = lcm(den, c.rd, c.imd)
        coeffs = self._coeffs
        out = {}
        for m, c in terms.items():
            pair = (c.rn * (den // c.rd), c.imn * (den // c.imd))
            out[m] = coeffs.setdefault(pair, pair)
        return _ZPoly(out, den)

    def build(self, raw, den):
        """The _ZPoly of raw {int monomial: (re, im)} sums over den."""
        coeffs = self._coeffs
        terms = {m: coeffs.setdefault(c, c) for m, c in raw.items() if c[0] or c[1]}
        return self.reduced(terms, den)

    def reduced(self, terms, den):
        """The _ZPoly of {int monomial: nonzero interned pair} over den, with
        the denominator reduced once."""
        if not terms:
            return _ZPoly(terms, 1)
        g = den
        for re, im in terms.values():
            g = gcd(g, re, im)
            if g == 1:
                return _ZPoly(terms, den)
        coeffs = self._coeffs
        out = {}
        for m, (re, im) in terms.items():
            c = (re // g, im // g)
            out[m] = coeffs.setdefault(c, c)
        return _ZPoly(out, den // g)

    def to_poly(self, z):
        names, den, scalars = self.names, z.den, self._scalars
        terms = {}
        for m, (re, im) in z.terms.items():
            c = scalars.get((re, im, den))
            if c is None:
                c = scalars[re, im, den] = Scalar(re, den, im, den)
            terms[tuple(names[i] for i in m)] = c
        return Poly(terms)


class _ZPoly:
    """{int monomial: (re, im)} numerators over a positive denominator `den`
    that shares no factor with all of them; zero is {} over 1.  Immutable,
    with degree, unknowns and split options cached."""

    __slots__ = ("terms", "den", "_vars", "_degree", "_splits")

    def __init__(self, terms, den):
        self.terms = terms
        self.den = den
        self._vars = None
        self._degree = None
        self._splits = None

    def variables(self):
        if self._vars is None:
            self._vars = tuple(set().union(*self.terms))
        return self._vars

    def degree(self):
        if self._degree is None:
            self._degree = max(map(len, self.terms), default=0)
        return self._degree

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def split_options(self, ring, full):
        """`_split_options` of the Poly this stands for, cached per tier.
        The conversion is skipped when no split can apply: no tier-relevant
        squared unknown and no unknown common to every monomial."""
        cache = self._splits
        if cache is None:
            cache = self._splits = {}
        if full not in cache:
            cache[full] = _split_options(ring.to_poly(self), full) if self._may_split(full) else ()
        return cache[full]

    def _may_split(self, full):
        if full or len(self.variables()) == 1:
            if any(len(set(m)) < len(m) for m in self.terms):
                return True
        common = None
        for m in self.terms:
            common = set(m) if common is None else common.intersection(m)
            if not common:
                return False
        return True


class _Batch:
    """A triangular substitution {unknown: _ZPoly}, applied in one rebuild
    per polynomial.  A term containing an unknown mapped to 0 is dropped
    before any arithmetic; the other targets are brought to one common
    denominator, so a term with k substituted factors is scaled by the
    rest of that denominator's power up to the polynomial's degree."""

    __slots__ = ("ring", "keys", "zeros", "nonzero", "targets", "scale", "_products")

    def __init__(self, ring, mapping):
        self.ring = ring
        self.keys = frozenset(mapping)
        self.zeros = frozenset(v for v, e in mapping.items() if not e.terms)
        nonzero = {v: e for v, e in mapping.items() if e.terms}
        self.nonzero = frozenset(nonzero)
        self.scale = lcm(*(e.den for e in nonzero.values()))
        self.targets = {}  # unknown -> ((monomial, numerators over scale), ...)
        for v, e in nonzero.items():
            f = self.scale // e.den
            self.targets[v] = tuple((m, (re * f, im * f)) for m, (re, im) in e.terms.items())
        self._products = {}

    def _product(self, factors):
        """Expanded product of the scaled targets of a sorted unknown tuple,
        cached for the batch."""
        mono = self.ring.mono
        prod = self.targets[factors[0]]
        for v in factors[1:]:
            acc = {}
            for m1, (a, b) in prod:
                for m2, (e, f) in self.targets[v]:
                    m = mono(tuple(sorted(m1 + m2)))
                    c = (a * e - b * f, a * f + b * e)
                    cur = acc.get(m)
                    acc[m] = c if cur is None else (cur[0] + c[0], cur[1] + c[1])
            prod = tuple((m, c) for m, c in acc.items() if c[0] or c[1])
        self._products[factors] = prod
        return prod

    def apply(self, p):
        if self.keys.isdisjoint(p.variables()):
            return p
        keys, zeros, targets = self.keys, self.zeros, self.targets
        if self.nonzero.isdisjoint(p.variables()):
            kept = {m: c for m, c in p.terms.items() if zeros.isdisjoint(m)}
            return self.ring.reduced(kept, p.den)
        intern = self.ring.monos.setdefault
        products = self._products
        top = p.degree()
        powers = [self.scale**k for k in range(top + 1)]
        s = powers[top]
        out = {}
        get = out.get
        for m, c in p.terms.items():
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
                    m2 = tuple(sorted(kept + m2))
                    m2 = intern(m2, m2)
                if im:
                    c = (re * e - im * f, re * f + im * e)
                else:
                    c = (re * e, re * f)
                cur = get(m2)
                out[m2] = c if cur is None else (cur[0] + c[0], cur[1] + c[1])
        return self.ring.build(out, p.den * powers[top])


# -- solver ------------------------------------------------------------------

_DEFAULT_BUDGET = 100_000


def _solve_linear(ring, linear):
    """Simultaneous rule (i): reduced row echelon form of the fully linear
    constraints.  Returns {pivot var: affine _ZPoly over free vars}, or None
    when the rows are inconsistent.  Fully deterministic: columns in sorted
    variable order, rows in list order."""
    rows = []
    for p in linear:
        row = {}
        const = ZERO
        for m, (re, im) in p.terms.items():
            c = Scalar(re, p.den, im, p.den)
            if m:
                row[m[0]] = c
            else:
                const = c
        rows.append([row, const])
    columns = sorted({v for row, _ in rows for v in row})
    pivots = []
    used = [False] * len(rows)
    for var in columns:
        pivot_idx = None
        for i, (row, _) in enumerate(rows):
            if not used[i] and var in row:
                pivot_idx = i
                break
        if pivot_idx is None:
            continue
        used[pivot_idx] = True
        prow, pconst = rows[pivot_idx]
        inv = prow[var].inv()
        prow = {v: inv * c for v, c in prow.items()}
        pconst = inv * pconst
        rows[pivot_idx] = [prow, pconst]
        for i, (row, const) in enumerate(rows):
            if i == pivot_idx:
                continue
            f = row.get(var)
            if f is None:
                continue
            for v, c in prow.items():
                cur = row.get(v)
                s = (cur - f * c) if cur is not None else -(f * c)
                if s.is_zero():
                    row.pop(v, None)
                else:
                    row[v] = s
            rows[i][1] = const - f * pconst
        pivots.append((var, pivot_idx))
    for i, (row, const) in enumerate(rows):
        if not used[i] and not row and not const.is_zero():
            return None
        if not used[i] and row:
            raise AssertionError("linear elimination left an unused nonzero row")
    mapping = {}
    for var, i in pivots:
        row, const = rows[i]
        terms = {}
        if not const.is_zero():
            terms[()] = -const
        for v, c in row.items():
            if v != var:
                terms[ring.mono((v,))] = -c
        mapping[var] = ring.from_scalars(terms)
    return mapping


class _Node:
    __slots__ = ("ring", "constraints", "subst", "depth")

    def __init__(self, ring, constraints, subst, depth):
        self.ring = ring
        self.constraints = constraints  # list of nonzero _ZPolys, stable order
        self.subst = subst  # {int unknown: _ZPoly}
        self.depth = depth

    def clone(self):
        return _Node(self.ring, list(self.constraints), dict(self.subst), self.depth + 1)

    def apply_batch(self, mapping):
        """Substitute a triangular batch everywhere; False when a nonzero
        constant constraint appears (dead branch)."""
        batch = _Batch(self.ring, mapping)
        for v, e in list(self.subst.items()):
            self.subst[v] = batch.apply(e)
        self.subst.update(mapping)
        out = []
        for p in self.constraints:
            q = batch.apply(p)
            if not q.terms:
                continue
            if q.is_const():
                return False
            out.append(q)
        self.constraints = out
        return True

    def apply_case(self, case):
        """Resolve one case of a split (its values are Polys in names)."""
        if case[0] == "assign":
            ring = self.ring
            return self.apply_batch({ring.index[case[1]]: ring.from_poly(case[2])})
        self.constraints.append(self.ring.from_poly(case[2]))
        return True

    def propagate(self):
        """Exhaust rule (i) by rounds of batch linear elimination; False
        when the branch dies."""
        while True:
            linear = []
            rest = []
            for p in self.constraints:
                d = p.degree()
                if d == 0:
                    return False
                (linear if d == 1 else rest).append(p)
            if not linear:
                return True
            mapping = _solve_linear(self.ring, linear)
            if mapping is None:
                return False
            self.constraints = rest
            if not self.apply_batch(mapping):
                return False

    def stall(self, reason):
        """The IrreducibleSystemError for this node's residual, in canonical
        order.  The search ends here, so each constraint is dropped as soon
        as it is converted and the two copies never coexist."""
        core, self.constraints = self.constraints, []
        residual = []
        while core:
            residual.append(self.ring.to_poly(core.pop()))
        residual.sort(key=Poly.key)
        return IrreducibleSystemError(reason, residual)

    def branch(self, universe):
        names = self.ring.names
        subst = {names[v]: self.ring.to_poly(e) for v, e in self.subst.items()}
        return Branch(subst, universe - set(subst))

    def find_split(self):
        """The best applicable split, or None.  Ranked: forced single root,
        univariate quadratic, monomial content, multivariate quadratic;
        ties broken by constraint list order (which is deterministic).
        Split analyses are cached on the constraints, which the cloned
        nodes share, so the scan stays cheap along a branch."""
        order = sorted(
            range(len(self.constraints)),
            key=lambda i: (
                self.constraints[i].degree(),
                len(self.constraints[i].variables()),
                i,
            ),
        )
        # cheap pass: univariate quadratics and monomial content, then the
        # expensive pass: multivariate quadratics
        best = None
        for full in (False, True):
            for pos in order:
                p = self.constraints[pos]
                for prio, kind, var, cases in p.split_options(self.ring, full):
                    if best is None or prio < best[0][0]:
                        best = ((prio, pos, var), pos, p, kind, var, cases)
                if best is not None and best[0][0] == 0:
                    break
            if best is not None:
                return best
        return None


def _split_options(p, full):
    """Applicable splits of one constraint.

    Priorities: 0 forced single quadratic root, 1 univariate quadratic,
    2 monomial content, 3 multivariate quadratic with a square discriminant.
    The cheap tier (full=False) covers 0-2 for univariate constraints plus
    content; the full tier adds the expensive discriminant analysis.
    """
    options = []
    pvars = sorted(p.variables())
    univariate = len(pvars) == 1
    if full or univariate:
        for var in pvars:
            if p.degree_in(var) != 2:
                continue
            quad = p.as_quadratic_in(var)
            if quad is None:
                continue
            a, b, c = quad
            if not a.is_const():
                continue
            a_val = a.const_value()
            disc = b * b - c * (a_val * Scalar(4))
            root = poly_sqrt(disc)
            if root is None:
                continue
            inv2a = (a_val + a_val).inv()
            minus_b = -b
            if root.is_zero():
                options.append((0, "quadratic", var, (("assign", var, minus_b * inv2a),)))
            else:
                r1 = (minus_b + root) * inv2a
                r2 = (minus_b - root) * inv2a
                options.append(
                    (
                        1 if univariate else 3,
                        "quadratic",
                        var,
                        (("assign", var, r1), ("assign", var, r2)),
                    )
                )
    cv = p.content_var()
    if cv is not None:
        options.append(
            (2, "content", cv, (("assign", cv, Poly()), ("replace", None, p.divide_by_var(cv))))
        )
    options.sort(key=lambda opt: (opt[0], opt[2]))
    return tuple(options)


def solve(system, split_budget=_DEFAULT_BUDGET, var_universe=None):
    """Complete solution set of {p = 0 for p in system} over Q(i).

    Raises IrreducibleSystemError when the split budget runs out or some
    residual constraint is outside the reach of the three solving moves.
    """
    if split_budget <= 0:
        raise ValueError("split budget must be positive")
    polys = [p if isinstance(p, Poly) else Poly.const(p) for p in system]
    universe = set(var_universe or ())
    for p in polys:
        universe |= p.variables()

    for p in polys:
        if p.is_const() and not p.is_zero():
            return SolutionSet([], [])

    ring = _Ring(universe)
    stack = [_Node(ring, [ring.from_poly(p) for p in polys if not p.is_zero()], {}, 0)]
    provenance = []
    raw_branches = []
    visited = 0
    while stack:
        node = stack.pop()
        visited += 1
        if visited > split_budget:
            stack.clear()  # the search ends: free the pending nodes first
            raise node.stall("budget-exhausted")
        split = None
        dead = False
        while True:
            if not node.propagate():
                dead = True
                break
            if not node.constraints:
                break
            split = node.find_split()
            if split is None:
                stack.clear()  # the search ends: free the pending nodes first
                raise node.stall("no-applicable-rule")
            _, pos, p, kind, var, cases = split
            if len(cases) > 1:
                break
            # forced move (single case): resolve in place, no new node
            del node.constraints[pos]
            if not node.apply_case(cases[0]):
                dead = True
                break
            split = None
        if dead:
            continue
        if not node.constraints:
            raw_branches.append(node.branch(universe))
            continue
        _, pos, p, kind, var, cases = split
        provenance.append(
            {
                "depth": node.depth,
                "rule": kind,
                "constraint": ring.to_poly(p).render(),
                "variable": var,
                "cases": [_case_label(case) for case in cases],
            }
        )
        children = []
        for case in cases:
            child = node.clone()
            del child.constraints[pos]
            if child.apply_case(case):
                children.append(child)
        stack.extend(reversed(children))

    branches = _canonicalize_branches(raw_branches)
    _check_branches(ring, branches, polys)
    return SolutionSet(branches, provenance)


def _check_branches(ring, branches, polys):
    """Soundness pass: every branch substituted into every input constraint
    leaves zero.  Each constraint is converted once and dropped after its
    check, so no second core copy of the system stays alive."""
    batches = [
        _Batch(ring, {ring.index[v]: ring.from_poly(e) for v, e in b.subst.items()})
        for b in branches
    ]
    for p in polys:
        z = ring.from_poly(p)
        for b, batch in zip(branches, batches):
            if batch.apply(z).terms:
                raise AssertionError(f"unsound branch {b!r} leaves residue on {p.render()}")


def _case_label(case):
    if case[0] == "assign":
        return f"{case[1]} = {case[2].render()}"
    return f"factor: {case[2].render()}"


def _canonicalize_branches(raw):
    seen = {}
    for b in raw:
        seen.setdefault(b.key(), b)
    branches = sorted(seen.values(), key=lambda b: b.key())
    kept = []
    for i, b in enumerate(branches):
        redundant = False
        for j, other in enumerate(branches):
            if i == j or not other.contains(b):
                continue
            if not b.contains(other) or j < i:
                redundant = True
                break
        if not redundant:
            kept.append(b)
    return kept
