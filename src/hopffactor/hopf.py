"""Finite-dimensional Hopf algebras as exact structure constants.

An algebra is a frozen bundle of tables over Q(i): sparse rows of the
multiplication and the antipode, unit and counit vectors, and a sparse
comultiplication (triples per basis element).  Axioms are never assumed: the
full battery (associativity, unit, coassociativity, counit, the bialgebra
compatibilities and both antipode convolution identities) is checked
exactly on every basis tuple, and failures are reported with witnesses so
mutated or hand-entered tables can be debugged.  Associativity and
delta-multiplicativity of an algebra that a few basis elements generate
are proved from the generator tuples alone, and checked on every tuple
whenever that proof does not go through.

Group-likes are enumerated by compiling delta(x) = x (x) x, eps(x) = 1
into a polynomial system for the solver; skew-primitive spaces are kernels
of an exact linear map.  Both only depend on the coalgebra and are
memoized on its canonical key.
"""

from functools import cached_property
from math import lcm
from operator import itemgetter

from hopffactor.linalg import Mat, kernel, rref
from hopffactor.poly import Poly
from hopffactor.scalar import ONE, ZERO, Scalar, join_signed, render_term
from hopffactor.solver import solve


class HopfAlgebraData:
    """Structure constants of a finite-dimensional Hopf algebra.

    Conventions: mul[i][j] is the row of e_i * e_j and antipode[i] the row
    of S(e_i), each a tuple of (index, nonzero coefficient) pairs in index
    order; unit and counit are coordinate vectors; comul[i] lists (c, j, k)
    with delta(e_i) = sum c * e_j (x) e_k.  The constructor takes each
    row of mul and antipode as an {index: coefficient} mapping or as
    (index, coefficient) pairs; it drops zero coefficients and sorts.
    """

    def __init__(self, name, basis, mul, unit, comul, counit, antipode):
        self.name = name
        self.basis = tuple(basis)
        self.dim = d = len(self.basis)
        if len(set(self.basis)) != d:
            raise ValueError("basis labels must be unique")
        self.mul = tuple(tuple(_row(r, d) for r in block) for block in mul)
        self.unit = tuple(unit)
        self.comul = tuple(
            tuple(sorted(((c, j, k) for (c, j, k) in triples), key=lambda t: (t[1], t[2])))
            for triples in comul
        )
        self.counit = tuple(counit)
        self.antipode = tuple(_row(r, d) for r in antipode)
        if (
            len(self.mul) != d
            or any(len(b) != d for b in self.mul)
            or len(self.unit) != d
            or len(self.comul) != d
            or len(self.counit) != d
            or len(self.antipode) != d
        ):
            raise ValueError("structure constant tables have inconsistent dimensions")

    # -- cached views --------------------------------------------------------

    @cached_property
    def index(self):
        return {label: i for i, label in enumerate(self.basis)}

    @cached_property
    def unit_sparse(self):
        return tuple((i, c) for i, c in enumerate(self.unit) if not c.is_zero())

    def structure_key(self):
        """Canonical tuple of every structure constant (name excluded)."""
        return (
            self.basis,
            tuple(c.sort_key() for c in self.unit),
            tuple(tuple(tuple((k, c.sort_key()) for k, c in row) for row in block)
                  for block in self.mul),
            tuple(tuple((k, c.sort_key()) for k, c in row) for row in self.antipode),
            self.coalgebra_key(),
        )

    def coalgebra_key(self):
        """Canonical tuple of the coalgebra's constants, the memo key of
        `grouplikes` and `skew_primitives`; computed once per algebra."""
        return self._coalgebra_key

    @cached_property
    def _coalgebra_key(self):
        return (
            self.dim,
            tuple(
                tuple((j, k, c.sort_key()) for (c, j, k) in triples)
                for triples in self.comul
            ),
            tuple(c.sort_key() for c in self.counit),
        )

    # -- elements ------------------------------------------------------------

    def element(self, coords):
        coords = tuple(c if isinstance(c, Scalar) else Scalar(c) for c in coords)
        if len(coords) != self.dim:
            raise ValueError("coordinate vector has the wrong length")
        return Element(self, coords)

    def basis_element(self, which):
        """The basis element of a label in `index` or of an int in range(dim)."""
        i = self.index.get(which) if isinstance(which, str) else which
        if type(i) is not int or i not in range(self.dim):
            raise ValueError(f"{which!r} names no basis element of {self.name}")
        return Element(self, tuple(ONE if j == i else ZERO for j in range(self.dim)))

    def one(self):
        return Element(self, self.unit)

    def zero(self):
        return Element(self, (ZERO,) * self.dim)

    # -- operations ----------------------------------------------------------

    def multiply(self, x, y):
        if x.algebra is not self or y.algebra is not self:
            raise ValueError("elements belong to a different algebra")
        acc = {}
        for i, ci in enumerate(x.coords):
            if ci.is_zero():
                continue
            for j, cj in enumerate(y.coords):
                if cj.is_zero():
                    continue
                f = ci * cj
                for k, c in self.mul[i][j]:
                    _acc(acc, k, f * c)
        return Element(self, _dense(acc, self.dim))

    def comultiply(self, x):
        """delta(x) as sorted (coefficient, j, k) triples."""
        if x.algebra is not self:
            raise ValueError("element belongs to a different algebra")
        acc = {}
        for i, ci in enumerate(x.coords):
            if ci.is_zero():
                continue
            for c, j, k in self.comul[i]:
                _acc(acc, (j, k), ci * c)
        return tuple((c, j, k) for (j, k), c in sorted(acc.items()))

    def comultiply_dict(self, x):
        return {(j, k): c for (c, j, k) in self.comultiply(x)}

    def counit_of(self, x):
        if x.algebra is not self:
            raise ValueError("element belongs to a different algebra")
        acc = ZERO
        for c, e in zip(x.coords, self.counit):
            if not (c.is_zero() or e.is_zero()):
                acc = acc + c * e
        return acc

    def antipode_of(self, x):
        if x.algebra is not self:
            raise ValueError("element belongs to a different algebra")
        acc = {}
        for i, ci in enumerate(x.coords):
            if ci.is_zero():
                continue
            for j, c in self.antipode[i]:
                _acc(acc, j, ci * c)
        return Element(self, _dense(acc, self.dim))

    def __repr__(self):
        return f"HopfAlgebraData({self.name or 'unnamed'}, dim={self.dim})"


class Element:
    """A vector in a fixed algebra."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = coords

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        if other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")
        return Element(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        if other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")
        return Element(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Element(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.multiply(self, other)
        if isinstance(other, (Scalar, int)):
            c = other if isinstance(other, Scalar) else Scalar(other)
            return Element(self.algebra, tuple(c * a for a in self.coords))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            c = other if isinstance(other, Scalar) else Scalar(other)
            return Element(self.algebra, tuple(c * a for a in self.coords))
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = self.algebra.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.coords == other.coords

    def __hash__(self):
        return hash((id(self.algebra), self.coords))

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def coords_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def __repr__(self):
        return join_signed([
            render_term(c.sort_key(), label)
            for c, label in zip(self.coords, self.algebra.basis)
            if not c.is_zero()
        ])


def _acc(acc, key, val):
    """acc[key] += val, zero sums and zero first terms dropped."""
    cur = acc.get(key)
    if cur is None:
        if not val.is_zero():
            acc[key] = val
    else:
        s = cur + val
        if s.is_zero():
            del acc[key]
        else:
            acc[key] = s


def acc_outer(acc, f, u, v):
    """acc[(p, q)] += f * u[p] * v[q] over the nonzero coordinates of the
    Scalar sequences u and v, zero sums dropped."""
    for p, cp in enumerate(u):
        if cp.is_zero():
            continue
        for q, cq in enumerate(v):
            if not cq.is_zero():
                _acc(acc, (p, q), f * cp * cq)


def _dense(acc, dim):
    return tuple(acc.get(i, ZERO) for i in range(dim))


def _row(row, dim):
    """A row of mul or antipode, given as {index: coefficient} or as
    (index, coefficient) pairs, as (index, nonzero coefficient) pairs in
    index order."""
    pairs = row.items() if isinstance(row, dict) else row
    out = tuple(sorted(((k, c) for k, c in pairs if not c.is_zero()), key=itemgetter(0)))
    if any(k not in range(dim) for k, _ in out) or len({k for k, _ in out}) != len(out):
        raise ValueError(f"a structure constant row repeats an index or leaves range({dim})")
    return out


# -- axiom verification --------------------------------------------------------

AXIOM_NAMES = (
    "associativity",
    "unit",
    "coassociativity",
    "counit",
    "comultiplication-multiplicative",
    "counit-multiplicative",
    "antipode",
)


class AxiomCheck:
    __slots__ = ("name", "passed", "witnesses")

    def __init__(self, name, witnesses):
        self.name = name
        self.witnesses = tuple(witnesses)
        self.passed = not self.witnesses

    def __repr__(self):
        state = "ok" if self.passed else f"{len(self.witnesses)} failures"
        return f"AxiomCheck({self.name}: {state})"


class AxiomReport:
    __slots__ = ("algebra_name", "dim", "checks")

    def __init__(self, algebra_name, dim, checks):
        self.algebra_name = algebra_name
        self.dim = dim
        self.checks = tuple(checks)

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def failing(self):
        return tuple(c for c in self.checks if not c.passed)

    def __repr__(self):
        verdict = "all axioms hold" if self.all_passed else "AXIOM FAILURES"
        return f"AxiomReport({self.algebra_name}, dim={self.dim}: {verdict})"


def verify_axioms(H):
    """Check every Hopf axiom exactly on all basis tuples of H.

    Associativity and delta-multiplicativity are first tried on the
    generator instances only (`_certificate`); each falls back to every
    basis instance unless that passes, so the witnesses are always those of
    the full loops."""
    T = _IntTables(H)
    S = _certificate(H)
    assoc = _check_associativity(H, T, S)
    checks = [
        AxiomCheck("associativity", assoc),
        AxiomCheck("unit", _check_unit(H)),
        AxiomCheck("coassociativity", _check_coassociativity(H)),
        AxiomCheck("counit", _check_counit(H)),
        AxiomCheck("comultiplication-multiplicative",
                   _check_comul_mult(H, T, None if assoc else S)),
        AxiomCheck("counit-multiplicative", _check_counit_mult(H)),
        AxiomCheck("antipode", _check_antipode(H)),
    ]
    return AxiomReport(H.name, H.dim, checks)


# -- the generator certificate ---------------------------------------------------
#
# Let S be a set of basis indices such that the closure of span{1} under
# right multiplication by the e_s, s in S, is all of H, and let 1 be a left
# unit (1 e_j = e_j for every j).
#
# Associativity.  C = {x : (xy)z = x(yz) for all y, z} is a subspace (the
# condition is linear in x), and 1 lies in C.  If a, b lie in C, so does ab:
# ((ab)y)z = (a(by))z = a((by)z) = a(b(yz)) = (ab)(yz), using a, a, b and a
# in C in turn.  So when every e_s lies in C, C contains the closure, which
# is H: the instances (e_s, e_j, e_k) prove every instance.
#
# Delta-multiplicativity, once H is associative and delta(1) = 1 (x) 1.
# B = {a : delta(ax) = delta(a)delta(x) for all x} is a subspace, and 1
# lies in B because 1 (x) 1 is a left unit of H (x) H.  If a, b lie in B,
# delta((ab)x) = delta(a(bx)) = delta(a)delta(bx) = delta(a)(delta(b)
# delta(x)) = (delta(a)delta(b))delta(x) = delta(ab)delta(x), using the
# associativity of H and of H (x) H.  So when every e_s lies in B, B = H:
# the instances (e_s, e_j) prove every instance.
#
# The certificate only ever concludes that a law holds.  When a restricted
# loop finds a witness, or a precondition fails, the full loop runs, so the
# witness lists are those of the full loops.


def _certificate(H):
    """The generator indices for the restricted loops, or None when the
    certificate does not apply: 1 is not a left unit, or S reaches dim/2,
    where the restricted loops would save little."""
    if any(_unit_products(H, i)[0] != {i: ONE} for i in range(H.dim)):
        return None
    S = _generators(H)
    return S if 2 * len(S) < H.dim else None


def _generators(H):
    """Basis indices chosen greedily in index order: e_i joins S when it
    lies outside the span reached so far, the closure of span{1} under right
    multiplication by the e_s of S.  The span is kept in reduced row echelon
    form, where e_i lies in it exactly when its pivot row at column i is
    e_i.  The greedy stops once S reaches dim/2, which bounds the cost of
    the closure on tables that no small set generates.  When 1 is a left
    unit and S stays below dim/2, the closure of S is all of H."""
    d = H.dim
    span = rref([dict(H.unit_sparse)], range(d))
    S = []
    for i in range(d):
        if dict(span).get(i) == {i: ONE}:
            continue
        S.append(i)
        if 2 * len(S) >= d:
            break
        # span was closed under S without i: only its products with e_i are new
        span = _closure(H, span, [row for _, row in span], [i], S)
    return S


def _generates(H, S):
    """Whether the closure of span{1} under right multiplication by the e_s
    of S is all of H, so that a subspace holding 1 and the e_s and closed
    under products is H."""
    span = rref([dict(H.unit_sparse)], range(H.dim))
    return len(_closure(H, span, [row for _, row in span], S, S)) == H.dim


def _closure(H, span, frontier, first, S, left=False):
    """The closure of `span` (rref pairs) under right multiplication by the
    e_s of S (left multiplication when `left`), when only the products of
    the rows `frontier` by the e_s of `first` may lie outside it.  Each
    later round multiplies only the rows that extend the span (its rows at
    new pivot columns, a complement of the old span) by all of S."""
    columns, gens = range(H.dim), first
    while frontier:
        products = [_times(H, row, s, left) for row in frontier for s in gens]
        grown = rref([row for _, row in span] + products, columns)
        old = {c for c, _ in span}
        frontier = [row for c, row in grown if c not in old]
        span, gens = grown, S
    return span


def _times(H, row, s, left=False):
    """The sparse vector row * e_s, or e_s * row when `left`."""
    acc = {}
    for k, c in row.items():
        for m, cm in H.mul[s][k] if left else H.mul[k][s]:
            _acc(acc, m, c * cm)
    return acc


# Associativity (d^3 instances) and delta-multiplicativity (d^2 instances,
# each a product of two coproducts) are the battery's two long loops, so
# they run on an integer view of the multiplication and comultiplication:
# every constant is a Gaussian-integer numerator (re, im) over one common
# denominator D (the lcm of their denominators), and no Scalar is made per
# instance.  A side that multiplies k constants is over D^k; the two sides
# are brought to the same power and compared as dicts of numerators, zero
# entries ignored, which is exact rational equality.  The other checks
# accumulate Scalars with `_acc`, which drops zeros, and compare with ==.


class _IntTables:
    """The integer view of one algebra's tables over D, built per
    verify_axioms call.  mul[i][j]: (k, re, im); comul[i]: (j, k, re, im)."""

    __slots__ = ("D", "mul", "comul")

    def __init__(self, H):
        constants = [c for block in H.mul for row in block for _, c in row]
        constants += [c for triples in H.comul for c, _, _ in triples]
        self.D = D = lcm(*{c.den for c in constants})
        self.mul = tuple(
            tuple(tuple((k, *_num(c, D)) for k, c in row) for row in block)
            for block in H.mul
        )
        self.comul = tuple(
            tuple((j, k, *_num(c, D)) for c, j, k in triples) for triples in H.comul
        )


def _num(c, den):
    k = den // c.den
    return c.re * k, c.im * k


def _same(x, y):
    """Whether two dicts of (re, im) numerators are equal, zero entries
    ignored."""
    return x == y or _nonzero(x) == _nonzero(y)


def _nonzero(acc):
    return {k: v for k, v in acc.items() if v[0] or v[1]}


def _check_associativity(H, T, S):
    """Associativity witnesses; on the instances (e_s, e_j, e_k), s in S,
    first when S is given, and on all instances unless those pass."""
    if S is not None and not _associativity_witnesses(H, T, S):
        return []
    return _associativity_witnesses(H, T, range(H.dim))


def _associativity_witnesses(H, T, first):
    # both sides over D^2, accumulated inline, this being the battery's
    # longest loop
    witnesses = []
    mul = T.mul
    d = H.dim
    idle = [not any(block) for block in mul]  # e_j*e_k = 0 for every k
    for i in first:
        for j in range(d):
            row = mul[i][j]
            if not row and idle[j]:
                continue  # both sides vanish for every k
            for k in range(d):
                lhs = {}
                for l, a, b in row:
                    for m, c, e in mul[l][k]:
                        re, im = a * c - b * e, a * e + b * c
                        cur = lhs.get(m)
                        lhs[m] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
                rhs = {}
                for l, a, b in mul[j][k]:
                    for m, c, e in mul[i][l]:
                        re, im = a * c - b * e, a * e + b * c
                        cur = rhs.get(m)
                        rhs[m] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
                if not _same(lhs, rhs):
                    witnesses.append(
                        f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k}) "
                        f"[{H.basis[i]}, {H.basis[j]}, {H.basis[k]}]"
                    )
    return witnesses


def _unit_products(H, i):
    """(1*e_i, e_i*1) as {index: Scalar}."""
    left = {}
    right = {}
    for j, u in H.unit_sparse:
        for k, c in H.mul[j][i]:
            _acc(left, k, u * c)
        for k, c in H.mul[i][j]:
            _acc(right, k, u * c)
    return left, right


def _check_unit(H):
    witnesses = []
    for i in range(H.dim):
        left, right = _unit_products(H, i)
        if left != {i: ONE}:
            witnesses.append(f"1*{H.basis[i]} != {H.basis[i]}")
        if right != {i: ONE}:
            witnesses.append(f"{H.basis[i]}*1 != {H.basis[i]}")
    return witnesses


def _check_coassociativity(H):
    witnesses = []
    comul = H.comul
    for i in range(H.dim):
        lhs = {}
        rhs = {}
        for a, j, k in comul[i]:
            for c, p, q in comul[j]:
                _acc(lhs, (p, q, k), a * c)
            for c, p, q in comul[k]:
                _acc(rhs, (j, p, q), a * c)
        if lhs != rhs:
            witnesses.append(f"coassociativity fails on {H.basis[i]}")
    return witnesses


def _check_counit(H):
    witnesses = []
    eps = H.counit
    for i in range(H.dim):
        left = {}
        right = {}
        for a, j, k in H.comul[i]:
            _acc(left, k, a * eps[j])
            _acc(right, j, a * eps[k])
        if left != {i: ONE}:
            witnesses.append(f"(eps (x) id) delta fails on {H.basis[i]}")
        if right != {i: ONE}:
            witnesses.append(f"(id (x) eps) delta fails on {H.basis[i]}")
    return witnesses


def _check_comul_mult(H, T, S):
    """delta(1) = 1 (x) 1 and the witnesses of delta(e_i e_j) =
    delta(e_i)delta(e_j); on the pairs (e_s, e_j), s in S, first when S is
    given (H then being associative) and delta(1) = 1 (x) 1 holds, and on
    all pairs unless those pass."""
    witnesses = []
    delta_unit = {}
    for i, u in H.unit_sparse:
        for c, j, k in H.comul[i]:
            _acc(delta_unit, (j, k), u * c)
    unit_tensor = {}
    acc_outer(unit_tensor, ONE, H.unit, H.unit)
    if delta_unit != unit_tensor:
        witnesses.append("delta(1) != 1 (x) 1")
    elif S is not None and not _comul_mult_witnesses(H, T, S):
        return []
    return witnesses + _comul_mult_witnesses(H, T, range(H.dim))


def _comul_mult_witnesses(H, T, first):
    # delta(e_i e_j) over D^2, lifted to D^4, against delta(e_i)delta(e_j)
    # over D^4, both accumulated inline in the battery's costliest loop
    witnesses = []
    mul, comul = T.mul, T.comul
    scale = T.D * T.D
    for i in first:
        for j in range(H.dim):
            lhs = {}
            for k, a, b in mul[i][j]:
                a, b = a * scale, b * scale
                for p, q, c, e in comul[k]:
                    re, im = a * c - b * e, a * e + b * c
                    cur = lhs.get((p, q))
                    lhs[p, q] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
            rhs = {}
            for a, b, ar, ai in comul[i]:
                for p, q, pr, pi in comul[j]:
                    fr, fi = ar * pr - ai * pi, ar * pi + ai * pr
                    right = mul[b][q]
                    for m, c, e in mul[a][p]:
                        gr, gi = fr * c - fi * e, fr * e + fi * c
                        for n, c2, e2 in right:
                            re, im = gr * c2 - gi * e2, gr * e2 + gi * c2
                            cur = rhs.get((m, n))
                            rhs[m, n] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
            if not _same(lhs, rhs):
                witnesses.append(
                    f"delta({H.basis[i]}*{H.basis[j]}) != delta({H.basis[i]})*delta({H.basis[j]})"
                )
    return witnesses


def _check_counit_mult(H):
    witnesses = []
    eps = H.counit
    if sum((u * eps[i] for i, u in H.unit_sparse), ZERO) != ONE:
        witnesses.append("eps(1) != 1")
    for i in range(H.dim):
        for j in range(H.dim):
            if sum((c * eps[k] for k, c in H.mul[i][j]), ZERO) != eps[i] * eps[j]:
                witnesses.append(f"eps({H.basis[i]}*{H.basis[j]}) != eps*eps")
    return witnesses


def _check_antipode(H):
    witnesses = []
    mul, anti = H.mul, H.antipode
    for i in range(H.dim):
        left = {}
        right = {}
        for a, j, k in H.comul[i]:
            # S(x1) x2
            for s, c in anti[j]:
                f = a * c
                for m, c2 in mul[s][k]:
                    _acc(left, m, f * c2)
            # x1 S(x2)
            for s, c in anti[k]:
                f = a * c
                for m, c2 in mul[j][s]:
                    _acc(right, m, f * c2)
        expected = {}
        for j, u in H.unit_sparse:
            _acc(expected, j, H.counit[i] * u)
        if left != expected:
            witnesses.append(f"m(S (x) id) delta != eps*1 on {H.basis[i]}")
        if right != expected:
            witnesses.append(f"m(id (x) S) delta != eps*1 on {H.basis[i]}")
    return witnesses


# -- twisted tensor products ------------------------------------------------------
#
# The tensor product and the bicrossed products are one construction: the
# tensor coalgebra on A (x) H with the multiplication twisted by a map
# R : H (x) A -> A (x) H, the flip for the tensor product and
# R(x (x) b) = sum (x1 |> b1) (x) (x2 <| b2) for a matched pair.


def _twisted_product(A, H, twist, name):
    """The Hopf algebra A (x) H twisted by R, on the basis a (x) x with A
    index first (index a * H.dim + x), where twist[(x, b)] lists (c, b2, x2)
    with R(x (x) b) = sum c * b2 (x) x2:

        (a (x) x)(b (x) y) = sum c * (a b2) (x) (x2 y),
        S(a (x) x) = R(S(x) (x) S(a)).

    Nothing is checked here: the caller runs the axiom battery."""
    dA, dH = A.dim, H.dim
    dim = dA * dH
    basis = tuple(f"{a}⊗{x}" for a in A.basis for x in H.basis)
    unit = [ZERO] * dim
    for a, ua in A.unit_sparse:
        for x, ux in H.unit_sparse:
            unit[a * dH + x] = ua * ux
    comul = [
        [(ca * cx, a1 * dH + x1, a2 * dH + x2)
         for ca, a1, a2 in A.comul[a] for cx, x1, x2 in H.comul[x]]
        for a in range(dA) for x in range(dH)
    ]
    counit = [ea * ex for ea in A.counit for ex in H.counit]

    mul = []
    for a in range(dA):
        for x in range(dH):
            block = []
            for b in range(dA):
                for y in range(dH):
                    acc = {}
                    for c, b2, x2 in twist[(x, b)]:
                        for m, cm in A.mul[a][b2]:
                            for n, cn in H.mul[x2][y]:
                                _acc(acc, m * dH + n, c * cm * cn)
                    block.append(acc)
            mul.append(block)

    antipode = []
    for a in range(dA):
        for x in range(dH):
            acc = {}
            for n, cn in H.antipode[x]:
                for m, cm in A.antipode[a]:
                    for c, b2, x2 in twist[(n, m)]:
                        _acc(acc, b2 * dH + x2, cn * cm * c)
            antipode.append(acc)

    return HopfAlgebraData(name, basis, mul, unit, comul, counit, antipode)


def tensor_product(H1, H2):
    """Componentwise Hopf structure on the tensor basis, antipode S1 (x) S2."""
    flip = {(x, b): ((ONE, b, x),) for x in range(H2.dim) for b in range(H1.dim)}
    return _twisted_product(H1, H2, flip, f"{H1.name}⊗{H2.name}")


# -- Hopf algebra maps ------------------------------------------------------------


def check_hopf_map(A, B, images):
    """Failure strings (empty when all hold) of the linear map A -> B that
    sends e_i to images[i], an Element of B: it preserves the unit, the
    multiplication of every basis pair, the comultiplication and the
    counit, and it is injective (rank dim A)."""
    if len(images) != A.dim:
        raise ValueError(f"{len(images)} images for a map out of a {A.dim}-dimensional algebra")

    def image(pairs):
        acc = {}
        for i, c in pairs:
            for q, e in enumerate(images[i].coords):
                if not e.is_zero():
                    _acc(acc, q, c * e)
        return Element(B, _dense(acc, B.dim))

    failures = []
    if image(A.unit_sparse) != B.one():
        failures.append("does not preserve the unit")
    for i in range(A.dim):
        for j in range(A.dim):
            if images[i] * images[j] != image(A.mul[i][j]):
                failures.append(f"is not an algebra map at ({A.basis[i]}, {A.basis[j]})")
    for i in range(A.dim):
        delta = {}
        for c, j, k in A.comul[i]:
            acc_outer(delta, c, images[j].coords, images[k].coords)
        if delta != B.comultiply_dict(images[i]):
            failures.append(f"is not a coalgebra map at {A.basis[i]}")
    for i in range(A.dim):
        if A.counit[i] != B.counit_of(images[i]):
            failures.append(f"does not preserve the counit at {A.basis[i]}")
    if Mat([img.coords for img in images]).rank() != A.dim:
        failures.append("is not injective")
    return failures


# -- group-likes and skew-primitives -----------------------------------------------

_GROUPLIKE_CACHE = {}
_SKEW_CACHE = {}


def is_grouplike(H, x):
    """delta(x) = x (x) x and eps(x) = 1, checked exactly."""
    if H.counit_of(x) != ONE:
        return False
    outer = {}
    acc_outer(outer, ONE, x.coords, x.coords)
    return H.comultiply_dict(x) == outer


def grouplikes(H):
    """The complete finite set of group-like elements, solver-enumerated."""
    cache_key = H.coalgebra_key()
    cached = _GROUPLIKE_CACHE.get(cache_key)
    if cached is None:
        cached = _enumerate_grouplikes(H)
        _GROUPLIKE_CACHE[cache_key] = cached
    return tuple(H.element(coords) for coords in cached)


def _enumerate_grouplikes(H):
    d = H.dim
    width = len(str(d - 1))
    names = [f"x{i:0{width}d}" for i in range(d)]
    xs = [Poly.var(n) for n in names]
    system = []
    # eps(x) = 1
    system.append(
        sum((xs[i] * H.counit[i] for i in range(d) if not H.counit[i].is_zero()), Poly())
        - Poly.const(ONE)
    )
    # delta(x) = x (x) x, coordinatewise
    delta = {}
    for i in range(d):
        for c, j, k in H.comul[i]:
            cur = delta.setdefault((j, k), Poly())
            delta[(j, k)] = cur + xs[i] * c
    for j in range(d):
        for k in range(d):
            lhs = delta.get((j, k), Poly())
            system.append(lhs - xs[j] * xs[k])
    solset = solve(system, var_universe=names)
    points = []
    for branch in solset:
        if not branch.is_point():
            raise AssertionError(
                "group-like system produced a non-point branch; "
                "group-likes of a finite-dimensional Hopf algebra are finite"
            )
        p = branch.point()
        points.append(tuple(p[n] for n in names))
    points.sort(key=lambda coords: tuple(c.sort_key() for c in coords))
    out = []
    for coords in points:
        g = H.element(coords)
        if not is_grouplike(H, g):
            raise AssertionError("solver returned a non-group-like candidate")
        out.append(coords)
    return tuple(out)


def skew_primitives(H, a, b):
    """Basis of {x : delta(x) = x (x) a + b (x) x} for group-likes a, b.
    The anchors are checked on a cache miss only: a hit means the same
    anchors on the same coalgebra passed the check before."""
    cache_key = (H.coalgebra_key(), a.coords_key(), b.coords_key())
    if cache_key in _SKEW_CACHE:
        return tuple(H.element(c) for c in _SKEW_CACHE[cache_key])
    if not is_grouplike(H, a) or not is_grouplike(H, b):
        raise ValueError("skew-primitive spaces need group-like anchors")
    d = H.dim
    rows = {}
    for i in range(d):
        for c, j, k in H.comul[i]:
            rows.setdefault((j, k), {})
            _acc(rows[(j, k)], i, c)
    for j in range(d):
        # -(x (x) a): coordinate (j, k) loses a_k at column j
        for k, ak in enumerate(a.coords):
            if not ak.is_zero():
                rows.setdefault((j, k), {})
                _acc(rows[(j, k)], j, -ak)
        # -(b (x) x): coordinate (k, j) loses b_k at column j
        for k, bk in enumerate(b.coords):
            if not bk.is_zero():
                rows.setdefault((k, j), {})
                _acc(rows[(k, j)], j, -bk)
    basis = kernel(rows.values(), d)
    _SKEW_CACHE[cache_key] = tuple(basis)
    return tuple(H.element(v) for v in basis)
