"""Mutual actions between H8 and H4: symbolic tables, compiled constraint
systems, enumeration, and matched-pair search.

A left action table stores x |> a for every basis pair (x in H8, a in H4)
as four coefficient polynomials in named unknowns; a right action table
stores x <| a with eight coefficients.  Concrete actions are the fully
substituted special case, so one constraint generator serves both the
symbolic enumeration (solver input) and residual checks of concrete
tables.

The matched-pair search fixes the left action first, as the paper does.
The left enumeration gives all 16 left families.  Per family, stage 1
solves the right table's module-coalgebra system with the pairing
conditions that are linear in the right entries once the left table is
fixed (the left product rule and the exchange condition); stage 2
generates the right product rule, quadratic in the right entries, on the
tables each stage-1 branch substitutes, and solves it.  Each step returns
a complete solution set of its part of the system, so together they give
every solution of the whole: no pair is lost.  The search never builds
the right product rule on a symbolic right table, the costly part of the
pairing system to generate.

The enumeration and the search impose every law but the exchange
condition only at generator instances (`hopf._generators`: g, h, z of H8
and G, X of H4): the acting element of the module law and of delta
compatibility, and the middle element of each product rule.  Closure
lemmas, written out above `_generator_indices`, show that each reduced
system has exactly the solutions of the full one; the builders' default
of every basis instance serves the independent second route.

Two independent code paths guard against constraint-generation bugs: the
polynomial systems drive the solver, while `check_*` functions re-evaluate
every axiom instance on concrete tables with plain scalar arithmetic and
report witnesses.  The normalizations seen in hand derivations (group
generators acting trivially on G, the circulant shape of the G-action
matrix, vanishing of the X-action matrix) are never hard-coded for the
search: they must emerge from the solver, and the tests pin that they do.
"""

from dataclasses import dataclass

from hopffactor.hopf import _acc as _sacc, _closure, _generates, _generators, acc_outer
from hopffactor.linalg import rref
from hopffactor.poly import Poly, _Batch, acc_add, acc_mul, from_acc
from hopffactor.presentations import build_H4, build_H8
from hopffactor.scalar import I, NEG_I, NEG_ONE, ONE, ZERO, Scalar
from hopffactor.solver import Branch, SolutionSet, _canonicalize_branches, solve

_P_ZERO = Poly()
_P_ONE = Poly.const(ONE)


# -- action tables -------------------------------------------------------------


class _ActionTable:
    """Shared mechanics of the two table kinds.  `entries[(xi, ai)]` holds
    the coefficient polynomials of the action value in the target basis,
    keyed by the H8 index first on both sides.

    A right action of H4 on H8 is a left action of H4^op, so the axioms are
    stated once on entries re-keyed as (acting index, acted index) (see
    `by_acting`).  Only the order of the products in the module law and the
    product rule, the comultiplication legs of the product rule (op-cop) and
    the text of the failure witnesses depend on the side."""

    side = None
    symbol = None
    # witnesses for the acting unit, the acted unit, the module law and the
    # product rule of a matched pair
    unit_witnesses = ()
    module_law_witness = ""
    product_rule_witness = ""

    def __init__(self, entries):
        self.h8 = build_H8()
        self.h4 = build_H4()
        self.entries = entries
        if self.side == "left":
            self.acting, self.acted = self.h8, self.h4
        else:
            self.acting, self.acted = self.h4, self.h8

    def entry_key(self, u, w):
        """The (H8 index, H4 index) key of acting index u on acted index w."""
        return (u, w) if self.side == "left" else (w, u)

    def by_acting(self, entries):
        """`entries` (keyed (H8 index, H4 index)) re-keyed as
        {(acting index, acted index): row}."""
        if self.side == "left":
            return entries
        return {(ai, xi): row for (xi, ai), row in entries.items()}

    def unit_row(self, u, w):
        """The structural value of acting index u on acted index w when one of
        them is the unit: 1 . w = w and u . 1 = eps(u) 1."""
        if u == 0:
            return tuple(_P_ONE if k == w else _P_ZERO for k in range(self.acted.dim))
        eps = Poly.const(self.acting.counit[u])
        return tuple(eps if k == 0 else _P_ZERO for k in range(self.acted.dim))

    @classmethod
    def symbolic(cls):
        """Every entry an unknown, except the structural unit ones."""
        table = cls({})
        h8, h4, acting, acted = table.h8, table.h4, table.acting, table.acted
        prefix = cls.side[0]
        for u in range(acting.dim):
            for w in range(acted.dim):
                xi, ai = table.entry_key(u, w)
                if u == 0 or w == 0:
                    row = table.unit_row(u, w)
                else:
                    row = tuple(
                        Poly.var(f"{prefix}_{h8.basis[xi]}_{h4.basis[ai]}_{acted.basis[k]}")
                        for k in range(acted.dim)
                    )
                table.entries[(xi, ai)] = row
        return table

    @classmethod
    def from_generators(cls, images):
        """The table whose generators act by `images`: {(acting generator
        index, acted index): row of Scalars or Polys} on every acted index
        but the unit; a generator on the acted unit is structural.  Every
        other element acts by the module law read from its basis label, a
        word in the generators: (uv) |> w = u |> (v |> w) applies the letters
        right to left, w <| (uv) = (w <| u) <| v left to right."""
        table = cls({})
        acting, n_acted = table.acting, range(table.acted.dim)
        rows = {(g, 0): table.unit_row(g, 0) for g, _ in images}
        for key, row in images.items():
            rows[key] = tuple(c if isinstance(c, Poly) else Poly.const(c) for c in row)
        for u in range(acting.dim):
            word = [acting.index[c] for c in acting.basis[u]] if u else []
            if cls.side == "left":
                word.reverse()
            for w in n_acted:
                row = table.unit_row(0, w)
                for g in word:
                    acc = [dict() for _ in n_acted]
                    for k, p in enumerate(row):
                        for m, q in enumerate(rows[(g, k)]):
                            acc_mul(acc[m], p, q)
                    row = tuple(from_acc(d) for d in acc)
                table.entries[table.entry_key(u, w)] = row
        return table

    @classmethod
    def from_json(cls, data):
        if not (
            isinstance(data, dict)
            and data.get("schema") == "action/v1"
            and data.get("side") == cls.side
            and isinstance(data.get("entries"), list)
        ):
            raise ValueError(f"not a {cls.side} action/v1 payload")
        table = cls({})
        width = table.acted.dim
        for row in data["entries"]:
            if not (
                isinstance(row, list)
                and len(row) == 3
                and type(row[0]) is int
                and type(row[1]) is int
                and isinstance(row[2], list)
                and len(row[2]) == width
            ):
                raise ValueError(f"bad {cls.side} action entry {row!r}")
            if (row[0], row[1]) in table.entries:
                raise ValueError(f"{cls.side} action/v1 payload repeats the basis pair {row[:2]}")
            table.entries[(row[0], row[1])] = tuple(
                Poly.const(Scalar.from_json(c)) for c in row[2]
            )
        wanted = {(xi, ai) for xi in range(table.h8.dim) for ai in range(table.h4.dim)}
        if set(table.entries) != wanted:
            raise ValueError(f"{cls.side} action/v1 payload needs exactly one entry per basis pair")
        return table

    def entry(self, xi, ai):
        return self.entries[(xi, ai)]

    def acting_index(self, xi, ai):
        """The index of the acting element in the (H8 index, H4 index) key."""
        return xi if self.side == "left" else ai

    def variables(self):
        out = set()
        for row in self.entries.values():
            for p in row:
                out.update(p.variables())
        return sorted(out)

    def is_concrete(self):
        return all(p.is_const() for row in self.entries.values() for p in row)

    def substitute(self, branch):
        """The table with the branch substituted, through one batch for all
        entries."""
        batch = _Batch(branch.subst)
        new = {
            key: tuple(batch.apply(p) for p in row)
            for key, row in self.entries.items()
        }
        return type(self)(new)

    def scalar_entries(self):
        if not self.is_concrete():
            raise ValueError("table still contains unknowns")
        return {
            key: tuple(p.const_value() for p in row)
            for key, row in self.entries.items()
        }

    def table_key(self):
        return tuple(
            (key, tuple(p.key() for p in row))
            for key, row in sorted(self.entries.items())
        )

    def to_json(self):
        scalars = self.scalar_entries()
        return {
            "schema": "action/v1",
            "side": self.side,
            "entries": [
                [xi, ai, [c.to_json() for c in scalars[(xi, ai)]]]
                for (xi, ai) in sorted(scalars)
            ],
        }


class LeftActionTable(_ActionTable):
    """x |> a with values in H4.  The x = 1 row is the identity action and
    the a = 1 column is eps(x) * 1; both are structural."""

    side = "left"
    symbol = "|>"
    unit_witnesses = ("1 |> a != a", "x |> 1 != eps(x) 1")
    module_law_witness = "(xy) |> a != x |> (y |> a)"
    product_rule_witness = "h |> (ab) != (h1|>a1)((h2<|a2)|>b)"


class RightActionTable(_ActionTable):
    """x <| a with values in H8.  The x = 1 row is eps(a) * 1."""

    side = "right"
    symbol = "<|"
    unit_witnesses = ("x <| 1 != x", "1 <| a != eps(a) 1")
    module_law_witness = "x <| (ab) != (x <| a) <| b"
    product_rule_witness = "(xy) <| a != (x<|(y1|>a1))(y2<|a2)"


# -- constraint generation -------------------------------------------------------
#
# The generators accumulate each law's lhs minus its rhs in one accumulator
# of Gaussian-integer numerators (see `poly.acc_add`), with the algebras'
# Scalar structure constants, their products and -1 as factors, and
# return raw lists; `_canonical_system` makes the system the solver sees.
# The constraints share no monomial or numerator-pair tuples: the one
# sharing table is the solver's, for the terms its batches build (see
# `solver._Node`).


def _canonical_system(polys, keyed=None):
    """The nonzero constraints, one per key, ordered by degree, unknown
    count and key.

    `keyed`, the `_keyed_groups` of constraints `earlier`, makes the result
    that of `_canonical_system(earlier + polys)`, the same order and the
    same first-seen constraint per key, without keying `earlier` again."""
    seen = _keyed_groups(polys, keyed)
    return [seen[k] for k in sorted(seen)]


def _keyed_groups(polys, keyed=None):
    """{(degree, unknown count, key): first nonzero constraint of that
    key}, over the constraints of `keyed` and then `polys`."""
    seen = dict(keyed or {})
    for p in polys:
        if p.terms:
            seen.setdefault((p.degree(), len(p.variables()), p.key()), p)
    return seen


def _unit_constraints(T):
    """1 . w = w for the acting unit and u . 1 = eps(u) 1 for the acted one.
    All zero on symbolic tables, whose unit entries are structural."""
    act = T.by_acting(T.entries)
    keys = [(0, w) for w in range(T.acted.dim)] + [(u, 0) for u in range(T.acting.dim)]
    return [p - q for key in keys for p, q in zip(act[key], T.unit_row(*key))]


def _counit_constraints(T, keys):
    """eps(x . a) = eps(x) eps(a) on the given (H8, H4) index pairs."""
    sys = []
    for xi, ai in keys:
        acc = {}
        for k, p in enumerate(T.entry(xi, ai)):
            acc_add(acc, p, T.acted.counit[k])
        acc_add(acc, _P_ONE, -(T.h8.counit[xi] * T.h4.counit[ai]))
        sys.append(from_acc(acc))
    return sys


def _comultiplication_constraints(T, keys):
    """delta(x . a) = sum (x1 . a1) (x) (x2 . a2) on the given (H8, H4)
    index pairs."""
    h8, h4, acted = T.h8, T.h4, T.acted
    sys = []
    for xi, ai in keys:
        diff = {}
        for k, p in enumerate(T.entry(xi, ai)):
            for c, jj, kk in acted.comul[k]:
                acc_add(diff.setdefault((jj, kk), {}), p, c)
        for c8, x1, x2 in h8.comul[xi]:
            for c4, a1, a2 in h4.comul[ai]:
                f = -(c8 * c4)
                right_row = T.entry(x2, a2)
                for p_idx, pp in enumerate(T.entry(x1, a1)):
                    if pp.is_zero():
                        continue
                    for q_idx, qq in enumerate(right_row):
                        if not qq.is_zero():
                            acc_mul(diff.setdefault((p_idx, q_idx), {}), pp, qq, f)
        sys += [from_acc(diff[key]) for key in sorted(diff)]
    return sys


def _module_law_constraints(T, acting=None):
    """(uv) . w = u . (v . w) on the left, w . (uv) = (w . u) . v on the
    right, for u in `acting` (default every acting index), every acting v
    and every acted w."""
    act = T.by_acting(T.entries)
    mul, n_acting, n_acted = T.acting.mul, range(T.acting.dim), range(T.acted.dim)
    sys = []
    for u in n_acting if acting is None else acting:
        for v in n_acting:
            first, second = (v, u) if T.side == "left" else (u, v)
            for w in n_acted:
                diff = [dict() for _ in n_acted]
                for m, c in mul[u][v]:
                    for k, p in enumerate(act[(m, w)]):
                        acc_add(diff[k], p, c)
                for k, p in enumerate(act[(first, w)]):
                    if p.is_zero():
                        continue
                    for m, q in enumerate(act[(second, k)]):
                        if not q.is_zero():
                            acc_mul(diff[m], p, q, -1)
                sys += [from_acc(d) for d in diff]
    return sys


def _module_coalgebra_constraints(T, acting=None):
    """The unit and counit laws on every instance; delta compatibility and
    the module law with the acting element in `acting` (default every
    acting index)."""
    keys = [(xi, ai) for xi in range(T.h8.dim) for ai in range(T.h4.dim)]
    acted_by = keys if acting is None else [k for k in keys if T.acting_index(*k) in acting]
    return (
        _unit_constraints(T)
        + _counit_constraints(T, keys)
        + _comultiplication_constraints(T, acted_by)
        + _module_law_constraints(T, acting)
    )


def module_coalgebra_system(T, acting=None):
    """Constraints making T a module-coalgebra action on its side: unit
    actions, compatibility with eps and delta, and the module law, on every
    basis instance, or with the acting element in `acting` only, which
    decides the same actions when `acting` generates the acting algebra
    (see the lemmas above `_generator_indices`)."""
    return _canonical_system(_module_coalgebra_constraints(T, acting))


# one generator serves both sides; the side-named entry points stay bound
left_module_coalgebra_system = right_module_coalgebra_system = module_coalgebra_system


def _exchange_constraints(L, R, instances):
    """h1 <| a1 (x) h2 |> a2 = h2 <| a2 (x) h1 |> a1, coordinatewise in
    H8 (x) H4."""
    h8, h4 = L.h8, L.h4
    sys = []
    for hi, ai in instances:
        diff = {}
        for c8, h1, h2 in h8.comul[hi]:
            for c4, a1, a2 in h4.comul[ai]:
                f = c8 * c4
                for sign, r_key, l_key in ((f, (h1, a1), (h2, a2)), (-f, (h2, a2), (h1, a1))):
                    for q_idx, qq in enumerate(R.entries[r_key]):
                        if qq.is_zero():
                            continue
                        for p_idx, pp in enumerate(L.entries[l_key]):
                            if not pp.is_zero():
                                acc_mul(diff.setdefault((q_idx, p_idx), {}), qq, pp, sign)
        sys += [from_acc(diff[key]) for key in sorted(diff)]
    return sys


def _product_constraints(T, O, instances):
    """The product rule of T against the other table O on instances
    (u, w, v), u acting and w, v acted: u |> (wv) = (u1 |> w1)((u2 <| w2) |> v)
    on the left, (vw) <| u = (v <| (w1 |> u1))(w2 <| u2) on the right,
    coordinatewise in the acted algebra.  The right rule is the left one for
    the op-cop pair: the acted product is reversed and the comultiplication
    legs are swapped."""
    act, other = T.by_acting(T.entries), O.by_acting(O.entries)
    acting, acted, n_acted = T.acting, T.acted, range(T.acted.dim)
    left = T.side == "left"
    passed = {}  # (uo, wo, v) -> coordinates of (uo . wo) . v, the leg through O
    sys = []
    for u, w, v in instances:
        diff = [dict() for _ in n_acted]
        for m, c in acted.mul[w][v] if left else acted.mul[v][w]:
            for k, p in enumerate(act[(u, m)]):
                acc_add(diff[k], p, c)
        for cu, u1, u2 in acting.comul[u]:
            for cw, w1, w2 in acted.comul[w]:
                f = -(cu * cw)
                # one leg acts on w directly, the other passes through O to act on v
                (ud, wd), (uo, wo) = ((u1, w1), (u2, w2)) if left else ((u2, w2), (u1, w1))
                through = passed.get((uo, wo, v))
                if through is None:
                    through = [dict() for _ in n_acted]
                    for q, oq in enumerate(other[(wo, uo)]):
                        if oq.is_zero():
                            continue
                        for t, pt in enumerate(act[(q, v)]):
                            if not pt.is_zero():
                                acc_mul(through[t], oq, pt)
                    through = passed[(uo, wo, v)] = [from_acc(d) for d in through]
                direct = act[(ud, wd)]
                first, second = (direct, through) if left else (through, direct)
                for s, ps in enumerate(first):
                    if ps.is_zero():
                        continue
                    for t, pt in enumerate(second):
                        if pt.is_zero():
                            continue
                        for m, cm in acted.mul[s][t]:
                            acc_mul(diff[m], ps, pt, f * cm)
        sys += [from_acc(d) for d in diff]
    return sys


def _rule_instances(T, middle=None):
    """The instances (u, w, v) of T's product rule, u acting and v acted,
    with the middle element w in `middle` (default every acted index)."""
    n_acting, n_acted = range(T.acting.dim), range(T.acted.dim)
    middle = n_acted if middle is None else middle
    return [(u, w, v) for u in n_acting for w in middle for v in n_acted]


def _left_pairing_constraints(L, R, middle=None):
    """The pairing conditions that multiply no two right entries: the left
    product rule, with its middle element in `middle` (default every H4
    index), and the exchange condition on every basis instance.  Once L is
    fixed they are linear in R's entries."""
    exchange = [(hi, ai) for hi in range(L.h8.dim) for ai in range(L.h4.dim)]
    return _product_constraints(L, R, _rule_instances(L, middle)) + _exchange_constraints(
        L, R, exchange
    )


def matched_pair_system(cand):
    """The compatibility constraints pairing the two actions: the product
    rules for |> and <| and the exchange condition, compiled on every basis
    instance.  Facts like the circulant shape of the G-action matrix are
    consequences of this system, never inputs."""
    L, R = cand.left, cand.right
    return _canonical_system(
        _left_pairing_constraints(L, R) + _product_constraints(R, L, _rule_instances(R))
    )


# -- generator instances -----------------------------------------------------------
#
# Each law below is linear in one of its elements, and the elements at which
# it holds for all values of the others form a subspace.  When that subspace
# holds 1 and is closed under products, and S generates the algebra (the
# closure of span{1} under right multiplication by the e_s, s in S, is all
# of it; `hopf._generates`), the instances with that element in S prove
# every instance.  The module law and delta compatibility are of that kind;
# the product rules take one more step.  Sums over coproduct legs are
# implicit (u1 (x) u2 is delta(u)), and the module laws are written for
# the left action |> of H8 on H4.
#
# Module law.  C = {u : (uv) |> w = u |> (v |> w) for all v, w} holds 1 by
# 1 |> w = w.  If a, b lie in C, ((ab)v) |> w = (a(bv)) |> w = a |> ((bv) |> w)
# = a |> (b |> (v |> w)) = (ab) |> (v |> w), using associativity, then a, b
# and a (at v = b) in C.  On the right, C = {u : w <| (uv) = (w <| u) <| v
# for all v, w} and the same steps run mirrored.
#
# Delta compatibility, once the module law holds.  B = {x : delta(x |> a) =
# (x1 |> a1) (x) (x2 |> a2) for all a} holds 1 by delta(1) = 1 (x) 1 and
# 1 |> a = a.  If x, y lie in B, delta((xy) |> a) = delta(x |> (y |> a)) =
# (x1 |> (y1 |> a1)) (x) (x2 |> (y2 |> a2)) = ((x1 y1) |> a1) (x) ((x2 y2) |> a2),
# which is the law at xy because delta(xy) = x1 y1 (x) x2 y2.  The right
# action runs the same with the acting element on the right.
#
# Left product rule, once <| is a module-coalgebra action.  D = {w :
# u |> (wv) = (u1 |> w1)((u2 <| w2) |> v) for all u, v} holds 1 by
# u |> 1 = eps(u) 1, u <| 1 = u and delta(1) = 1 (x) 1.  The step to a
# product also needs the rule at the first legs of one factor, so let
# D' = {a in D : delta(a) lies in D (x) H4}.  If a lies in D' and b in D,
#   u |> ((ab)v) = u |> (a(bv)) = (u1 |> a1)((u2 <| a2) |> (bv))
#                = (u1 |> a1)((u2 <| a2) |> b1)(((u3 <| a3) <| b2) |> v)
#                = (u1 |> (a1 b1))((u2 <| (a2 b2)) |> v),
# using a, then b with delta(u <| a) = (u1 <| a1) (x) (u2 <| a2), then the
# rule at the first legs of a (at v = b1, the third legs held apart by
# coassociativity) and the module law of <|; that is the rule at ab, so
# D' D lies in D.  Let V = span{1, e_s : s in S}.  V lies in D, and an e_p
# of V whose first legs are basis vectors of V lies in D'.  So D holds the
# closure of V under left multiplication by those e_p, and when that
# closure is H4 the instances with w in S prove every instance.  On H4,
# G and X qualify: their first legs are G, and 1 and X.
#
# Right product rule, once |> is a module-coalgebra action:
# (vw) <| u = (v <| (w1 |> u1))(w2 <| u2), w in D, a subspace of H8.  It is
# the op-cop mirror of the left rule, using the module law and
# comultiplicativity of |>:
#   (v(ab)) <| u = ((va) <| (b1 |> u1))(b2 <| u2)
#                = (v <| (a1 |> (b1 |> u1)))(a2 <| (b2 |> u2))(b3 <| u3)
#                = (v <| ((a1 b1) |> u1))((a2 b2) <| u2),
# using b, then a with delta(b |> u) = (b1 |> u1) (x) (b2 |> u2), then the
# rule at the second legs of b (at v = a2) and the module law of |>.  So
# D D' lies in D for D' = {b in D : delta(b) lies in H8 (x) D}, and D holds
# the closure of V under right multiplication by the e_p of V whose second
# legs are basis vectors of V.  On H8 only g and h qualify: the second
# legs of z are z and hz.  But zg = hz and zh = gz, so the closure of
# span{1, g, h, z} under right multiplication by g and h is H8.
#
# So the search imposes the module law and delta compatibility with the
# acting element in the generators: g, h, z in `enumerate_left_actions`
# and G, X in the right-module part of stage 1.  Stage 1 holds the left
# product rule at w in {G, X}, which with <|'s laws in the same system
# gives every instance; stage 2 holds the right product rule at w in
# {g, h, z}, on left families that satisfy every instance of |>'s laws.
# Each reduced system has exactly the solutions of the full one.  The
# exchange condition keeps all 32 instances.  `module_coalgebra_system`,
# `matched_pair_system`, the union oracle (`tests/oracles.search_system`)
# and `enumerate_right_actions`, whose stall residual is that of the full
# system, keep every instance: a second route through other constraints.


def _generator_indices(H):
    """The basis indices a reduced module law or delta compatibility
    ranges over: `hopf._generators(H)` (g, h, z on H8; G, X on H4), or
    every index should they not generate H."""
    S = _generators(H)
    return S if _generates(H, S) else range(H.dim)


def _rule_middles(T):
    """The middle elements w at which T's product rule is imposed: the
    `_generator_indices` S of the acted algebra when the closure above,
    from V = span{1, e_s : s in S} by the e_p whose legs on T's side are
    basis vectors of V, is all of it; else every index."""
    H, left = T.acted, T.side == "left"
    S = _generator_indices(H)
    span = rref([dict(H.unit_sparse)] + [{s: ONE} for s in S], range(H.dim))
    inside = {c for c, row in span if row == {c: ONE}}
    leg = 1 if left else 2
    P = [s for s in S if all(t[leg] in inside for t in H.comul[s])]
    closed = _closure(H, span, [row for _, row in span], P, P, left)
    return S if len(closed) == H.dim else range(H.dim)


# -- candidates, enumeration & search ---------------------------------------------


@dataclass
class MatchedPairCandidate:
    left: LeftActionTable
    right: RightActionTable
    status: str = "unchecked"  # -> "module-valid" -> "matched"


def enumerate_left_actions():
    """All left module-coalgebra actions of H8 on H4, as solver branches.
    The module law and delta compatibility are imposed with g, h or z
    acting, which decides the same actions (see the lemmas above
    `_generator_indices`)."""
    L = LeftActionTable.symbolic()
    system = module_coalgebra_system(L, _generator_indices(L.acting))
    return solve(system, var_universe=L.variables())


def enumerate_right_actions():
    """All right module-coalgebra actions of H4 on H8.  The z-block of the
    G-action ranges over a two-dimensional family (the involutive coalgebra
    endomorphisms of a simple four-dimensional coalgebra) that is not a
    finite union of polynomial graphs, so on this input the solver is
    expected to stop with its honest irreducible-system error rather than
    return a fictitious enumeration."""
    R = RightActionTable.symbolic()
    system = module_coalgebra_system(R)
    return solve(system, var_universe=R.variables())


_SEARCH_CACHE = []  # the one (pairs, solution set) result, once the search has run


def matched_pair_search():
    """All matched pairs, found family by family; returns (verified
    candidates, solution set).  The search is deterministic, so its result
    is memoized.

    The left enumeration gives every left action, as 16 families with free
    parameters.  For each family, stage 1 solves the right table's
    module-coalgebra system together with the two conditions that do not
    multiply right entries once the left table is the family's: the left
    product rule and the exchange condition.  Its unknowns are the family's
    parameters and the right table's entries.  Stage 2 generates the right
    product rule, quadratic in the right entries, on the tables that each
    stage-1 branch substitutes, and solves it.  The left enumeration and
    every solve return complete solution sets, and a stage-2 solve on a
    stage-1 branch gives exactly the points of that branch that satisfy the
    rest of the system, so the composed branches are the solutions of the
    whole system: no pair is lost.  Every pair is then re-checked directly.

    Each system holds its laws at generator instances only: the right
    module-coalgebra laws with G or X acting and the left product rule with
    G or X as its middle element in stage 1, the right product rule with g,
    h or z as its middle element in stage 2, and the exchange condition on
    every instance.  By the lemmas above `_generator_indices` every
    solution satisfies every basis instance; a family without a partner is
    settled at a nonzero constant of the full left product rule
    (`_obstruction`).

    The solution set holds the composed branches over both tables'
    unknowns, in canonical order, and the provenance of the left
    enumeration followed by that of the per-family solves."""
    if not _SEARCH_CACHE:
        _SEARCH_CACHE.append(_matched_pair_search_uncached())
    pairs, sol = _SEARCH_CACHE[0]
    return list(pairs), sol


def _then(outer, inner):
    """The branch `outer` followed by `inner`, a branch over outer's free
    unknowns."""
    batch = _Batch(inner.subst)
    subst = {v: batch.apply(e) for v, e in outer.subst.items()}
    subst.update(inner.subst)
    return Branch(subst, inner.free)


def _obstruction(Lf, R):
    """A nonzero constant among the left product rule's constraints at the
    instances (u, GX, G), or None.  GX is no generator, so these are not
    constraints of the reduced stage-1 system; they are instances of the
    full left product rule, which every solution of that system satisfies
    (see the lemmas above `_generator_indices`).  So such a constant,
    whatever the right table, leaves the family's stage-1 system without a
    solution.  On this input it names the obstruction of all 12 left
    families without a partner, and of no other."""
    GX, G = Lf.h4.index["GX"], Lf.h4.index["G"]
    probe = [(u, GX, G) for u in range(Lf.h8.dim)]
    return next(
        (p for p in _product_constraints(Lf, R, probe) if p.is_const() and p.terms),
        None,
    )


def _matched_pair_search_uncached():
    L = LeftActionTable.symbolic()
    R = RightActionTable.symbolic()
    left = enumerate_left_actions()
    right_module = _keyed_groups(_module_coalgebra_constraints(R, _generator_indices(R.acting)))
    left_middle = _rule_middles(L)
    right_rule = _rule_instances(R, _rule_middles(R))
    branches, provenance = [], list(left.provenance)
    for family in left.branches:
        Lf = L.substitute(family)
        dead = _obstruction(Lf, R)
        if dead is None:
            system = _canonical_system(
                _left_pairing_constraints(Lf, R, left_middle), right_module
            )
        else:
            # every solution of the stage-1 system makes this constant
            # zero, so it and the constant alone both solve to no branch
            # and no provenance
            system = [dead]
        first = solve(system, var_universe=list(family.free) + R.variables())
        provenance += first.provenance
        for stage1 in first.branches:
            Rs, Ls = R.substitute(stage1), Lf.substitute(stage1)
            second = solve(
                _canonical_system(_product_constraints(Rs, Ls, right_rule)),
                var_universe=stage1.free,
            )
            provenance += second.provenance
            branches += [_then(_then(family, stage1), b) for b in second.branches]
    sol = SolutionSet(_canonicalize_branches(branches), provenance)
    pairs = []
    for branch in sol.branches:
        Lc = L.substitute(branch)
        Rc = R.substitute(branch)
        if not (Lc.is_concrete() and Rc.is_concrete()):
            raise AssertionError("matched-pair branch left unknowns free")
        concrete = MatchedPairCandidate(Lc, Rc)
        failures = settle_status(concrete)
        if failures:
            raise AssertionError(f"solver emitted an unmatched pair: {failures[0]}")
        pairs.append(concrete)
    pairs.sort(key=lambda c: (c.left.table_key(), c.right.table_key()))
    return pairs, sol


def find_matched_pairs():
    """All matched pairs (|>, <|), independently re-verified."""
    return matched_pair_search()[0]


# -- direct verification (independent of the compiled systems) ---------------------


@dataclass(frozen=True)
class CheckFailure:
    condition: str
    at: tuple
    witness: str

    def __str__(self):
        spot = ", ".join(str(x) for x in self.at)
        return f"{self.condition} fails at ({spot}): {self.witness}"


def _tensor_render(h8, h4, tensor):
    terms = []
    for (q, p), c in sorted(tensor.items()):
        terms.append(f"({c})*{h8.basis[q]}⊗{h4.basis[p]}")
    return " + ".join(terms) if terms else "0"


def _nonzero(entries):
    """Each row of `entries` as its nonzero coordinates {index: Scalar}."""
    return {key: {k: c for k, c in enumerate(row) if not c.is_zero()} for key, row in entries.items()}


def check_module_coalgebra(T):
    """Re-evaluate every module-coalgebra axiom instance of a concrete table
    with scalar arithmetic, on the table's side.  Witnesses name the
    instance in the order the law is written: (x, y, a) for (xy) |> a and
    (x, a, b) for x <| (ab)."""
    h8, h4, acting, acted = T.h8, T.h4, T.acting, T.acted
    side, s = T.side, T.symbol
    failures = []
    scalars = T.scalar_entries()
    act = T.by_acting(scalars)

    def at(u, w):
        xi, ai = T.entry_key(u, w)
        return (h8.basis[xi], h4.basis[ai])

    acting_unit, acted_unit = T.unit_witnesses
    for w in range(acted.dim):
        expected = tuple(ONE if k == w else ZERO for k in range(acted.dim))
        if act[(0, w)] != expected:
            failures.append(CheckFailure(f"{side}-unit-action", at(0, w), acting_unit))
    for u in range(acting.dim):
        expected = tuple(acting.counit[u] if k == 0 else ZERO for k in range(acted.dim))
        if act[(u, 0)] != expected:
            failures.append(CheckFailure(f"{side}-unit-action", at(u, 0), acted_unit))
    for xi in range(h8.dim):
        for ai in range(h4.dim):
            val = acted.element(scalars[(xi, ai)])
            eps = acted.counit_of(val)
            if eps != h8.counit[xi] * h4.counit[ai]:
                failures.append(
                    CheckFailure(
                        f"{side}-counit-compatibility",
                        (h8.basis[xi], h4.basis[ai]),
                        f"eps(x {s} a) = {eps}",
                    )
                )
            rhs = {}
            for c8, x1, x2 in h8.comul[xi]:
                for c4, a1, a2 in h4.comul[ai]:
                    acc_outer(rhs, c8 * c4, scalars[(x1, a1)], scalars[(x2, a2)])
            if acted.comultiply_dict(val) != rhs:
                failures.append(
                    CheckFailure(
                        f"{side}-comultiplication-compatibility",
                        (h8.basis[xi], h4.basis[ai]),
                        f"delta(x {s} a) != sum x1{s}a1 (x) x2{s}a2",
                    )
                )
    # module law, reported in the written order of the instance
    act = _nonzero(act)
    n_acting, n_acted = range(acting.dim), range(acted.dim)
    if side == "left":
        instances = [(u, v, w) for u in n_acting for v in n_acting for w in n_acted]
    else:
        instances = [(u, v, w) for w in n_acted for u in n_acting for v in n_acting]
    for u, v, w in instances:
        lhs = {}
        for m, c in acting.mul[u][v]:
            for k, e in act[(m, w)].items():
                _sacc(lhs, k, c * e)
        first, second = (v, u) if side == "left" else (u, v)
        rhs = {}
        for k, c in act[(first, w)].items():
            for m, e in act[(second, k)].items():
                _sacc(rhs, m, c * e)
        if lhs != rhs:
            names = (acting.basis[u], acting.basis[v])
            spot = names + (acted.basis[w],) if side == "left" else (acted.basis[w],) + names
            failures.append(
                CheckFailure(f"{side}-module-associativity", spot, T.module_law_witness)
            )
    return failures


def check_module_coalgebras(cand):
    return check_module_coalgebra(cand.left) + check_module_coalgebra(cand.right)


def _check_product_rule(T, O):
    """Re-evaluate the product rule of T against the other table O on every
    basis instance with scalar arithmetic.  Instances are visited and named
    in the written order of the law: (h, a, b) for h |> (ab) and (x, y, a)
    for (xy) <| a."""
    acting, acted = T.acting, T.acted
    left = T.side == "left"
    act = _nonzero(T.by_acting(T.scalar_entries()))
    other = _nonzero(O.by_acting(O.scalar_entries()))
    n_acting, n_acted = range(acting.dim), range(acted.dim)
    if left:
        instances = [(u, w, v) for u in n_acting for w in n_acted for v in n_acted]
    else:
        instances = [(u, w, v) for v in n_acted for w in n_acted for u in n_acting]
    # (wo . uo) . v, on the other table's then this table's entries: one
    # instance needs it for every term of delta(u) (x) delta(w), and other
    # instances share it, so each is computed once per call
    throughs = {}

    def through(wo, uo, v):
        out = throughs.get((wo, uo, v))
        if out is None:
            out = throughs[(wo, uo, v)] = {}
            for q, cq in other[(wo, uo)].items():
                for t, e in act[(q, v)].items():
                    _sacc(out, t, cq * e)
        return out

    failures = []
    for u, w, v in instances:
        lhs = {}
        for m, c in acted.mul[w][v] if left else acted.mul[v][w]:
            for k, e in act[(u, m)].items():
                _sacc(lhs, k, c * e)
        rhs = {}
        for cu, u1, u2 in acting.comul[u]:
            for cw, w1, w2 in acted.comul[w]:
                f = cu * cw
                (ud, wd), (uo, wo) = ((u1, w1), (u2, w2)) if left else ((u2, w2), (u1, w1))
                direct, thru = act[(ud, wd)], through(wo, uo, v)
                first, second = (direct, thru) if left else (thru, direct)
                for s, cs in first.items():
                    fs = f * cs
                    for t, ct in second.items():
                        fst = fs * ct
                        for m, cm in acted.mul[s][t]:
                            _sacc(rhs, m, fst * cm)
        if lhs != rhs:
            spot = (acting.basis[u], acted.basis[w], acted.basis[v])
            failures.append(
                CheckFailure(
                    f"{T.side}-product-compatibility",
                    spot if left else spot[::-1],
                    T.product_rule_witness,
                )
            )
    return failures


def settle_status(cand):
    """Set `cand.status` from both direct checks ("unchecked" on a module
    failure, else "module-valid" on a pairing failure, else "matched") and
    return every failure, module checks first."""
    module = check_module_coalgebras(cand)
    pairing = check_matched_pair(cand)
    cand.status = "unchecked" if module else "module-valid" if pairing else "matched"
    return module + pairing


def check_matched_pair(cand):
    """Direct evaluation of the four pairing conditions on every basis
    instance; returns witnesses for each violated instance."""
    L, R = cand.left, cand.right
    h8, h4 = L.h8, L.h4
    lsc = L.scalar_entries()
    rsc = R.scalar_entries()
    failures = []
    # unit compatibilities
    for xi in range(h8.dim):
        expected = tuple(h8.counit[xi] if k == 0 else ZERO for k in range(h4.dim))
        if lsc[(xi, 0)] != expected:
            failures.append(
                CheckFailure("unit-compatibility", (h8.basis[xi], "1"), "h |> 1 != eps(h) 1")
            )
    for ai in range(h4.dim):
        expected = tuple(h4.counit[ai] if k == 0 else ZERO for k in range(h8.dim))
        if rsc[(0, ai)] != expected:
            failures.append(
                CheckFailure("unit-compatibility", ("1", h4.basis[ai]), "1 <| a != eps(a) 1")
            )
    failures += _check_product_rule(L, R)
    failures += _check_product_rule(R, L)
    # exchange compatibility
    for hi in range(h8.dim):
        for ai in range(h4.dim):
            diff = {}
            for c8, h1, h2 in h8.comul[hi]:
                for c4, a1, a2 in h4.comul[ai]:
                    f = c8 * c4
                    acc_outer(diff, f, rsc[(h1, a1)], lsc[(h2, a2)])
                    acc_outer(diff, -f, rsc[(h2, a2)], lsc[(h1, a1)])
            if diff:
                failures.append(
                    CheckFailure(
                        "exchange-compatibility",
                        (h8.basis[hi], h4.basis[ai]),
                        f"difference = {_tensor_render(h8, h4, diff)}",
                    )
                )
    return failures


# -- the published action families --------------------------------------------------


def left_family_instance(x_family, gx_family, alpha=ONE, beta=ONE):
    """Concrete left action: x_family in 1..4 picks the action on X,
    gx_family in "a".."d" the action on GX, with the free parameter of
    each family instantiated at alpha resp. beta."""
    h4 = build_H4()
    G_img = (ZERO, ONE, ZERO, ZERO)
    inv_1pi = Scalar(1, 1, 1, 1).inv()  # 1/(1+i)
    inv_1mi = Scalar(1, 1, -1, 1).inv()  # 1/(1-i)

    def skew(aa, sign, coord):
        # aa*(G-1) + sign*coordinate-vector on X or GX slot
        base = [-aa, aa, ZERO, ZERO]
        base[coord] = base[coord] + sign
        return tuple(base)

    def family(k, p, coord):
        # the images of X (coord) or GX under g = h and z in family k (1..4),
        # with the family's free parameter at p
        fixed = skew(ZERO, ONE, coord)
        if k == 1:
            return fixed, fixed
        if k == 2:
            return fixed, skew(p, NEG_ONE, coord)
        if k == 3:
            return skew(p, NEG_ONE, coord), skew(p * inv_1pi, I, coord)
        return skew(p, NEG_ONE, coord), skew(p * inv_1mi, NEG_I, coord)

    if x_family not in (1, 2, 3, 4):
        raise ValueError("x_family must be 1..4")
    if gx_family not in ("a", "b", "c", "d"):
        raise ValueError("gx_family must be 'a'..'d'")
    gX, zX = family(x_family, alpha, h4.index["X"])
    gGX, zGX = family("abcd".index(gx_family) + 1, beta, h4.index["GX"])
    g_rows = {"G": G_img, "X": gX, "GX": gGX}
    z_rows = {"G": G_img, "X": zX, "GX": zGX}
    h8 = build_H8()
    return LeftActionTable.from_generators({
        (h8.index[gen], h4.index[a]): row
        for gen, rows in (("g", g_rows), ("h", g_rows), ("z", z_rows))
        for a, row in rows.items()
    })


def classify_left_table(L):
    """Match a concrete left action against the published family shapes;
    returns (x_family, gx_family, alpha, beta) or None."""
    scalars = L.scalar_entries()
    h4 = L.h4
    g_row, z_row = 1, 4

    def fam(col_label, coord):
        ci = h4.index[col_label]
        g_val = scalars[(g_row, ci)]
        z_val = scalars[(z_row, ci)]
        trivial = tuple(ONE if k == coord else ZERO for k in range(4))
        if g_val == trivial:
            if z_val == trivial:
                return 1, ZERO
            param = z_val[1]  # coefficient of G
            return 2, param
        param = g_val[1]
        sign = z_val[coord]
        if sign == I:
            return 3, param
        if sign == NEG_I:
            return 4, param
        return None, None

    xf, alpha = fam("X", h4.index["X"])
    gf, beta = fam("GX", h4.index["GX"])
    if xf is None or gf is None:
        return None
    gx_name = "abcd"[gf - 1]
    expected = left_family_instance(xf, gx_name, alpha, beta)
    if expected.scalar_entries() != scalars:
        return None
    return xf, gx_name, alpha, beta


# -- the small published equation systems ------------------------------------------


def _fixed_grouplike_right_table(a_matrix, b_matrix):
    """The right table with g, h, gh fixed by G and killed by X and the
    z-blocks A and B: column j of A (of B) holds the coordinates of
    (z, gz, hz, ghz)[j] <| G (<| X) on (z, gz, hz, ghz).  Entries may be
    Scalars or Polys."""
    h4 = build_H4()
    G, X = h4.index["G"], h4.index["X"]
    images = {}
    for xi in (1, 2, 3):  # g, h, gh
        images[(G, xi)] = tuple(ONE if k == xi else ZERO for k in range(8))
        images[(X, xi)] = (ZERO,) * 8
    for col, xi in enumerate((4, 5, 6, 7)):
        for g, matrix in ((G, a_matrix), (X, b_matrix)):
            images[(g, xi)] = (ZERO,) * 4 + tuple(row[col] for row in matrix)
    return RightActionTable.from_generators(images)


def _circulant(names_or_values):
    a, b, c, d = names_or_values
    return ((a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a))


def _circulant_system(a_entries, b_entries, column):
    """Counit sums on the z-block rows, the module law on every H4 product,
    and the z^2-measuring identity (z z) <| column under the trivial left
    action, for circulant z-blocks (entries Poly or Scalar)."""
    R = _fixed_grouplike_right_table(_circulant(a_entries), _circulant(b_entries))
    L = left_family_instance(1, "a")
    sys = _counit_constraints(R, [(xi, ai) for xi in (4, 5, 6, 7) for ai in range(R.h4.dim)])
    sys += _module_law_constraints(R)
    sys += _product_constraints(R, L, [(R.h4.index[column], 4, 4)])
    return _canonical_system(sys)


def g_action_circulant_system():
    """The constraint set on the circulant G-action matrix entries
    (a, b, c, d): counit row sums, the involution A^2 = E from G^2 = 1, and
    the z^2-measuring identity (z <| G)^2 = z^2 under the trivial left
    action.  Its full solution list is the published one: exactly four
    points."""
    return _circulant_system(
        tuple(Poly.var(v) for v in ("a", "b", "c", "d")), (ZERO,) * 4, "G"
    )


def x_action_circulant_system(a_values):
    """The constraint set on the circulant X-action matrix entries
    (p, q, r, s) once the G-action matrix is pinned to a concrete solution:
    counit sums, B^2 = 0 and the anticommutation with A from the H4
    relations, and the z^2-measuring identity under the trivial left
    action."""
    return _circulant_system(
        tuple(a_values), tuple(Poly.var(v) for v in ("p", "q", "r", "s")), "X"
    )
