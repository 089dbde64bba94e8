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

from math import isqrt

from hopffactor.linalg import rref
from hopffactor.poly import Poly, _Batch
from hopffactor.scalar import Scalar, _make


class IrreducibleSystemError(Exception):
    """A system (or subproblem) that the three solving moves cannot reduce."""

    def __init__(self, reason, residual):
        self.reason = reason
        self.residual = tuple(residual)
        shown = ", ".join(p.render() for p in self.residual[:8])
        extra = "" if len(self.residual) <= 8 else f", ... ({len(self.residual)} total)"
        super().__init__(f"irreducible system ({reason}): {shown}{extra}")


# -- square roots in Q(i) ----------------------------------------------------


def gaussian_sqrt(s):
    """The canonical square root of s in Q(i), or None when none exists.

    The canonical root has positive real part, or zero real part and
    nonnegative imaginary part.
    """
    # (x + yi)/den squares to s exactly when (x + yi)^2 = a + bi with
    # a = re*den and b = im*den; Z[i] is integrally closed, so x and y are
    # ints.  Then n = x^2 + y^2 is the integer root of a^2 + b^2, and
    # x^2 = (a + n)/2, y^2 = (n - a)/2, with y of the sign of b.
    a, b = s.re * s.den, s.im * s.den
    n = isqrt(a * a + b * b)
    x, y = isqrt((a + n) // 2), isqrt((n - a) // 2)
    if x * x - y * y != a or 2 * x * y != abs(b):
        return None
    return _make(x, y if b >= 0 else -y, s.den)


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
    for v in p.variables():
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
    for w in p.variables():
        if w == anchor:
            continue
        c = p.coeff((anchor, w))
        if not c.is_zero():
            terms[(w,)] = c * half_inv
    c0 = p.coeff((anchor,))
    if not c0.is_zero():
        terms[()] = c0 * half_inv
    cand = Poly(terms)
    # every unknown of a root has a nonzero square in p and the anchor is
    # the first such, so a root's leading coefficient is la, to which
    # gaussian_sqrt gives the canonical sign
    return cand if cand * cand == p else None


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

    def contains(self, other):
        """Variety containment: other is a subvariety of self."""
        return self._holds_under(_Batch(other.subst))

    def _holds_under(self, batch):
        """Whether every equation v = e of this branch vanishes under
        `batch`, the substitution of another branch: the one containment
        rule."""
        for v, e in self.subst.items():
            if not batch.apply(Poly.var(v) - e).is_zero():
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


# -- solver ------------------------------------------------------------------

_DEFAULT_BUDGET = 100_000


def _solve_linear(linear):
    """Simultaneous rule (i): reduced row echelon form of the fully linear
    constraints.  Returns {pivot var: affine Poly over free vars}, or None
    when the rows are inconsistent.  Fully deterministic: columns in sorted
    variable order, then the constant."""
    rows = [
        {m: _make(re, im, p.den) for m, (re, im) in zip(p.terms, p.nums)}
        for p in linear
    ]
    columns = sorted({m for row in rows for m in row if m}) + [()]
    mapping = {}
    for m, row in rref(rows, columns):
        if not m:
            return None  # a pivot in the constant column reads 1 = 0
        mapping[m[0]] = Poly({c: -e for c, e in row.items() if c != m})
    return mapping


class _Node:
    """A search node: constraints still to solve and the substitution made
    so far.  All nodes of one solve share `intern`, the table through which
    every batch shares its monomials and numerator pairs.  The table serves
    the right enumeration (`actions.enumerate_right_actions`), whose rounds
    of batches rebuild about a thousand quadratic constraints until the
    solve stops on its residual: when batches share nothing, every result
    holds its own tuples and the traced peak of that solve rises by about a
    quarter (tests/test_solver_pins.py pins a ceiling between the two)."""

    __slots__ = ("intern", "constraints", "subst", "depth")

    def __init__(self, intern, constraints, subst, depth):
        self.intern = intern  # the monomials and numerator pairs of the solve
        self.constraints = constraints  # list of nonzero Polys, stable order
        self.subst = subst  # {unknown: Poly}
        self.depth = depth

    def clone(self):
        return _Node(self.intern, list(self.constraints), dict(self.subst), self.depth + 1)

    def apply_batch(self, mapping):
        """Substitute a triangular batch everywhere; False when a nonzero
        constant constraint appears (dead branch)."""
        batch = _Batch(mapping, self.intern)
        for v, e in list(self.subst.items()):
            self.subst[v] = batch.apply(e)
        self.subst.update(mapping)
        constraints = []
        for p in self.constraints:
            q = batch.apply(p)
            if q.terms:
                if q.is_const():
                    return False
                constraints.append(q)
        self.constraints = constraints
        return True

    def apply_case(self, case):
        """Resolve one case of a split."""
        if case[0] == "assign":
            return self.apply_batch({case[1]: case[2]})
        self.constraints.append(case[2])
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
            mapping = _solve_linear(linear)
            if mapping is None:
                return False
            self.constraints = rest
            if not self.apply_batch(mapping):
                return False

    def stall(self, reason):
        """The IrreducibleSystemError for this node's residual, in canonical
        order."""
        return IrreducibleSystemError(reason, sorted(self.constraints, key=Poly.key))

    def branch(self, universe):
        return Branch(self.subst, universe - set(self.subst))

    def find_split(self):
        """The best applicable split, or None.  Ranked: forced single root,
        univariate quadratic, monomial content, multivariate quadratic;
        ties broken by constraint list order (which is deterministic)."""
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
                for prio, kind, var, cases in _split_options(p, full):
                    if best is None or prio < best[0][0]:
                        best = ((prio, pos, var), pos, p, kind, var, cases)
                if best is not None and best[0][0] == 0:
                    break
            if best is not None:
                break
        if best is None:
            return None
        key, pos, p, kind, var, cases = best
        if cases is None:
            # a content split, whose quotient is built only once chosen
            cases = (("assign", var, Poly()), ("replace", None, p.divide_by_var(var)))
        return key, pos, p, kind, var, cases


def _split_options(p, full):
    """Applicable splits of one constraint.

    Priorities: 0 forced single quadratic root, 1 univariate quadratic,
    2 monomial content, 3 multivariate quadratic with a square discriminant.
    The cheap tier (full=False) covers 0-2 for univariate constraints plus
    content; the full tier adds the expensive discriminant analysis.  A
    content option carries no cases: `find_split` builds them when it
    chooses the option.
    """
    options = []
    univariate = len(p.variables()) == 1
    if full or univariate:
        for var in _quadratic_unknowns(p):
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
        options.append((2, "content", cv, None))
    options.sort(key=lambda opt: (opt[0], opt[2]))
    return tuple(options)


def _quadratic_unknowns(p):
    """The unknowns of degree exactly 2 in p, sorted, from one pass over its
    monomials: in a sorted monomial the copies of an unknown are adjacent."""
    degree = {}
    for m in p.terms:
        run = 1
        for j in range(1, len(m)):
            if m[j] == m[j - 1]:
                run += 1
                if run > degree.get(m[j], 1):
                    degree[m[j]] = run
            else:
                run = 1
    return sorted(v for v, d in degree.items() if d == 2)


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
        universe.update(p.variables())

    for p in polys:
        if p.is_const() and not p.is_zero():
            return SolutionSet([], [])

    stack = [_Node({}, [p for p in polys if not p.is_zero()], {}, 0)]
    provenance = []
    raw_branches = []
    visited = 0
    while stack:
        node = stack.pop()
        visited += 1
        if visited > split_budget:
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
                "constraint": p.render(),
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
    _check_branches(branches, polys)
    return SolutionSet(branches, provenance)


def _check_branches(branches, polys):
    """Soundness pass: every branch substituted into every input constraint
    leaves zero."""
    batches = [_Batch(b.subst) for b in branches]
    for p in polys:
        for b, batch in zip(branches, batches):
            if batch.apply(p).terms:
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
    # one substitution batch per branch, shared by all its containment tests
    batches = [_Batch(b.subst) for b in branches]
    kept = []
    for i, b in enumerate(branches):
        redundant = False
        for j, other in enumerate(branches):
            if i == j or not other._holds_under(batches[i]):
                continue
            if not b._holds_under(batches[j]) or j < i:
                redundant = True
                break
        if not redundant:
            kept.append(b)
    return kept
