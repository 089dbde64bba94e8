"""Bicrossed products of a matched pair, presentation checks, and
invariant reports.

The product lives on the basis a (x) x in the layout of
`hopf._tensor_coords` (H4 factor first, matching the action directions
|> : H8 (x) H4 -> H4 and <| : H8 (x) H4 -> H8), with

    (a (x) x)(b (x) y) = sum  a (x1 |> b1)  (x)  (x2 <| b2) y,

the tensor coalgebra structure, and S(a (x) x) = R(S(x) (x) S(a)), where
R(x (x) b) = sum (x1 |> b1) (x) (x2 <| b2) is the twist that
`hopf._twisted_product` applies (the same element as (1 (x) S(x))(S(a) (x) 1)
in the product).  The antipode formula is validated by the convolution
axioms rather than trusted: construction fails hard when any axiom breaks,
because a genuine matched pair must yield a Hopf algebra.
"""

from dataclasses import dataclass

from hopffactor.hopf import (
    AxiomReport,
    HopfAlgebraData,
    acc_outer,
    check_hopf_map,
    grouplikes,
    skew_primitives,
    _tensor_coords,
    _twisted_product,
    verify_axioms,
)
from hopffactor.linalg import Mat
from hopffactor.scalar import HALF, I, NEG_I, NEG_ONE, join_signed


class BicrossedConstructionError(RuntimeError):
    """A candidate pair produced a non-Hopf product (it was not matched)."""


@dataclass
class BicrossedProduct:
    algebra: HopfAlgebraData
    pair: object  # MatchedPairCandidate provenance
    axiom_report: AxiomReport  # the battery run at construction, all passed

    def embed_h4(self, element):
        """iota_A: a -> a (x) 1."""
        h4, h8 = self.algebra.factors
        if element.algebra is not h4:
            raise ValueError("element does not live in the H4 factor")
        return self.algebra.element(_tensor_coords(self.algebra, element.coords, h8.unit))

    def embed_h8(self, element):
        """iota_H: x -> 1 (x) x."""
        h4, h8 = self.algebra.factors
        if element.algebra is not h8:
            raise ValueError("element does not live in the H8 factor")
        return self.algebra.element(_tensor_coords(self.algebra, h4.unit, element.coords))

    def generator(self, name):
        h4, h8 = self.algebra.factors
        if name in ("G", "X"):
            return self.embed_h4(h4.basis_element(name))
        return self.embed_h8(h8.basis_element(name))


def build_bicrossed(pair):
    """The 32-dimensional product of a matched pair, fully axiom-checked;
    the axiom report is kept on the product."""
    h8, h4 = pair.left.h8, pair.left.h4
    lsc = pair.left.scalar_entries()  # x |> b in H4
    rsc = pair.right.scalar_entries()  # x <| b in H8

    # R(x (x) b) = sum (x1 |> b1) (x) (x2 <| b2), zero sums dropped
    twist = {}
    for x in range(h8.dim):
        for b in range(h4.dim):
            acc = {}
            for c8, x1, x2 in h8.comul[x]:
                for c4, b1, b2 in h4.comul[b]:
                    acc_outer(acc, c8 * c4, lsc[(x1, b1)], rsc[(x2, b2)])
            twist[(x, b)] = tuple((c, s, t) for (s, t), c in acc.items())

    algebra = _twisted_product(h4, h8, twist, "bicrossed")
    report = verify_axioms(algebra)
    if not report.all_passed:
        bad = report.failing()[0]
        raise BicrossedConstructionError(
            f"product of a non-matched pair: axiom {bad.name} fails "
            f"({bad.witnesses[0] if bad.witnesses else 'no witness'})"
        )
    return BicrossedProduct(algebra, pair, report)


# -- presentations ---------------------------------------------------------------

# Relations are (left word, right side) over the generator alphabet
# {g, h, z, G, X}: the right side is a word or a sum ((coefficient, word), ...)
# with Scalar coefficients, the empty sum being zero; the empty word is the unit.
_COMMON_RELATIONS = (
    ("g.g", ""),
    ("h.h", ""),
    ("G.G", ""),
    ("g.h", "h.g"),
    ("g.z", "z.h"),
    ("h.z", "z.g"),
    ("z.z", ((HALF, ""), (HALF, "g"), (HALF, "h"), (-HALF, "g.h"))),
    ("X.X", ()),
    ("G.X", ((NEG_ONE, "X.G"),)),
)

_CROSS_RELATIONS = {
    "tensor": (
        ("g.G", "G.g"),
        ("h.G", "G.h"),
        ("z.G", "G.z"),
        ("g.X", "X.g"),
        ("h.X", "X.h"),
        ("z.X", "X.z"),
    ),
    "H32_1": (
        ("g.G", "G.g"),
        ("h.G", "G.h"),
        ("z.G", "G.z"),
        ("g.X", "X.g"),
        ("h.X", "X.h"),
        ("z.X", ((NEG_ONE, "X.z"),)),
    ),
    "H32_2": (
        ("g.G", "G.g"),
        ("h.G", "G.h"),
        ("g.z.G", "G.h.z"),
        ("g.X", ((NEG_ONE, "X.g"),)),
        ("h.X", ((NEG_ONE, "X.h"),)),
        ("z.X", ((I, "X.g.z"),)),
    ),
    "H32_3": (
        ("g.G", "G.g"),
        ("h.G", "G.h"),
        ("g.z.G", "G.h.z"),
        ("g.X", ((NEG_ONE, "X.g"),)),
        ("h.X", ((NEG_ONE, "X.h"),)),
        ("z.X", ((NEG_I, "X.g.z"),)),
    ),
}

PRESENTATION_NAMES = tuple(_CROSS_RELATIONS)

# each presentation's z.X right side; the four are pairwise distinct, but
# they are presentation data, not an isomorphism invariant
_ZX_RHS = {name: dict(relations)["z.X"] for name, relations in _CROSS_RELATIONS.items()}


@dataclass(frozen=True)
class RelationCheck:
    relation: str
    holds: bool
    witness: str = ""


def _word_element(product, word):
    acc = product.algebra.one()
    if word:
        for gen in word.split("."):
            acc = acc * product.generator(gen)
    return acc


def _rhs_element(product, rhs):
    if isinstance(rhs, str):
        return _word_element(product, rhs)
    acc = product.algebra.zero()
    for coeff, word in rhs:
        acc = acc + coeff * _word_element(product, word)
    return acc


def presentation_relations(which):
    if which not in _CROSS_RELATIONS:
        raise ValueError(f"unknown presentation {which!r}")
    return _COMMON_RELATIONS + _CROSS_RELATIONS[which]


def verify_presentation(product, which):
    """Evaluate every relation of the named presentation inside the product
    via the two embeddings; failures carry the witness difference."""
    checks = []
    for lhs, rhs in presentation_relations(which):
        left_el = _word_element(product, lhs)
        right_el = _rhs_element(product, rhs)
        diff = left_el - right_el
        label = f"{_pretty_word(lhs)} = {_pretty_rhs(rhs)}"
        if diff.is_zero():
            checks.append(RelationCheck(label, True))
        else:
            checks.append(RelationCheck(label, False, witness=repr(diff)))
    return checks


def _pretty_word(word):
    return word.replace(".", "") if word else "1"


def _pretty_rhs(rhs):
    if isinstance(rhs, str):
        return _pretty_word(rhs)
    terms = []
    for coeff, word in rhs:
        w, coeff = _pretty_word(word), str(coeff)
        if coeff == "1":
            terms.append(w)
        elif coeff == "-1":
            terms.append(f"-{w}")
        elif coeff in ("i", "-i"):
            terms.append(f"{coeff}{w}" if w != "1" else coeff)
        else:
            terms.append(f"({coeff}){w}" if w != "1" else f"({coeff})")
    return join_signed(terms)


def presentation_for(product):
    """The presentation whose z.X relation holds in the product, or None."""
    zx = product.generator("z") * product.generator("X")
    for name, rhs in _ZX_RHS.items():
        if zx == _rhs_element(product, rhs):
            return name
    return None


def zx_signature(product):
    """The zX relation of the presentation whose z.X relation holds in the
    product, as text, or zX=other(...) when none does."""
    name = presentation_for(product)
    if name is None:
        zx = product.generator("z") * product.generator("X")
        return f"zX=other({zx!r})"
    return "zX=" + _pretty_rhs(_ZX_RHS[name])


# -- embeddings & factorization checks ----------------------------------------------


def check_embeddings(product):
    """iota_A and iota_H are injective Hopf algebra maps (`check_hopf_map`),
    and multiplication H4 (x) H8 -> E is a linear isomorphism.  Returns a
    list of failure strings (empty when everything holds)."""
    E = product.algebra
    h4, h8 = E.factors
    iota_a = [product.embed_h4(h4.basis_element(i)) for i in range(h4.dim)]
    iota_h = [product.embed_h8(h8.basis_element(i)) for i in range(h8.dim)]
    failures = [f"iota_A {f}" for f in check_hopf_map(h4, E, iota_a)]
    failures += [f"iota_H {f}" for f in check_hopf_map(h8, E, iota_h)]
    # factorization: products iota_A(a_i) iota_H(x_j) form a basis of E
    rows = [(a * x).coords for a in iota_a for x in iota_h]
    if Mat(rows).rank() != E.dim:
        failures.append("multiplication H4 (x) H8 -> E is not bijective")
    return failures


# -- invariant reports ------------------------------------------------------------


@dataclass
class InvariantReport:
    name: str
    dim: int
    grouplike_count: int
    grouplike_labels: tuple
    skew_dimensions: tuple  # ((i, j, dim), ...) over group-like indices
    commutative: bool
    cocommutative: bool
    zx: str
    antipode_invertible: bool

    def to_json(self):
        return {
            "schema": "invariant-report/v1",
            "name": self.name,
            "dim": self.dim,
            "grouplikes": {
                "count": self.grouplike_count,
                "elements": list(self.grouplike_labels),
            },
            "skew_primitive_dimensions": [list(t) for t in self.skew_dimensions],
            "commutative": self.commutative,
            "cocommutative": self.cocommutative,
            "zx_relation": self.zx,
            "antipode_invertible": self.antipode_invertible,
        }


def invariant_report(product):
    """Dimension, group-likes (the products of the factors' solver-enumerated
    group-likes, by the lemma above `hopf.grouplikes`, each checked),
    all skew-primitive dimensions between group-like pairs (spanned by the
    factors' skew-primitives, by the lemma above `hopf.skew_primitives`),
    commutativity flags, the zX relation shape, and antipode bijectivity."""
    E = product.algebra
    gls = grouplikes(E)
    skew_dims = []
    for i, a in enumerate(gls):
        for j, b in enumerate(gls):
            basis = skew_primitives(E, a, b)
            skew_dims.append((i, j, len(basis)))
    commutative = all(
        E.mul[i][j] == E.mul[j][i] for i in range(E.dim) for j in range(i)
    )
    cocommutative = all(
        {(j, k): c for c, j, k in E.comul[i]}
        == {(k, j): c for c, j, k in E.comul[i]}
        for i in range(E.dim)
    )
    return InvariantReport(
        name=E.name,
        dim=E.dim,
        grouplike_count=len(gls),
        grouplike_labels=tuple(repr(g) for g in gls),
        skew_dimensions=tuple(skew_dims),
        commutative=commutative,
        cocommutative=cocommutative,
        zx=zx_signature(product),
        antipode_invertible=Mat(
            [E.antipode_of(E.basis_element(i)).coords for i in range(E.dim)]
        ).is_invertible(),
    )
