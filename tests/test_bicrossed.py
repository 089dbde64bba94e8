"""Bicrossed products: construction, presentations, invariant reports."""

import pytest

from hopffactor.actions import (
    MatchedPairCandidate,
    find_matched_pairs,
    left_family_instance,
)
from hopffactor.bicrossed import (
    BicrossedConstructionError,
    PRESENTATION_NAMES,
    build_bicrossed,
    check_embeddings,
    invariant_report,
    presentation_for,
    presentation_relations,
    verify_presentation,
    zx_signature,
)
from hopffactor.hopf import check_hopf_map, tensor_product, verify_axioms
from hopffactor.linalg import kernel
from hopffactor.presentations import build_H4, build_H8
from hopffactor.scalar import HALF, I, ZERO
from oracles import antidiagonal_right_table


@pytest.fixture(scope="module")
def pairs():
    return find_matched_pairs()


@pytest.fixture(scope="module")
def products(pairs):
    return {zx_signature(E): E for E in (build_bicrossed(p) for p in pairs)}


def test_four_products_with_distinct_signatures(products):
    assert set(products) == {"zX=Xz", "zX=-Xz", "zX=iXgz", "zX=-iXgz"}


def test_products_have_dimension_32(products):
    assert all(E.algebra.dim == 32 for E in products.values())


def test_products_pass_all_axioms(products):
    for E in products.values():
        report = verify_axioms(E.algebra)
        assert report.all_passed
        # the report kept from construction is the same battery's verdict
        assert [(c.name, c.passed) for c in E.axiom_report.checks] == [
            (c.name, c.passed) for c in report.checks
        ]


def test_trivial_product_equals_tensor_product(products):
    T = tensor_product(build_H4(), build_H8())
    assert products["zX=Xz"].algebra.structure_key() == T.structure_key()


def test_zx_products_match_action_values(products):
    # (1 (x) z)(X (x) 1) lands on i (X (x) gz) for the gamma = i pair and
    # on -(X (x) z) for the family-2 pair
    E = products["zX=iXgz"]
    z, X = E.generator("z"), E.generator("X")
    g = E.generator("g")
    assert z * X == I * (X * g * z)
    E2 = products["zX=-Xz"]
    assert E2.generator("z") * E2.generator("X") == -(E2.generator("X") * E2.generator("z"))


def test_presentations_verify(products):
    mapping = {
        "zX=Xz": "tensor",
        "zX=-Xz": "H32_1",
        "zX=iXgz": "H32_2",
        "zX=-iXgz": "H32_3",
    }
    for sig, E in products.items():
        name = mapping[sig]
        assert presentation_for(E) == name
        checks = verify_presentation(E, name)
        failing = [c for c in checks if not c.holds]
        assert failing == [], f"{name}: {failing}"


_COMMON_LABELS = [
    "gg = 1", "hh = 1", "GG = 1", "gh = hg", "gz = zh", "hz = zg",
    "zz = (1/2) + (1/2)g + (1/2)h + (-1/2)gh", "XX = 0", "GX = -XG",
]
_CROSS_LABELS = {
    "tensor": ["gG = Gg", "hG = Gh", "zG = Gz", "gX = Xg", "hX = Xh", "zX = Xz"],
    "H32_1": ["gG = Gg", "hG = Gh", "zG = Gz", "gX = Xg", "hX = Xh", "zX = -Xz"],
    "H32_2": ["gG = Gg", "hG = Gh", "gzG = Ghz", "gX = -Xg", "hX = -Xh", "zX = iXgz"],
    "H32_3": ["gG = Gg", "hG = Gh", "gzG = Ghz", "gX = -Xg", "hX = -Xh", "zX = -iXgz"],
}


def test_relation_labels_pinned(products):
    # the rendered relation text of all four presentations, in table order
    for E in products.values():
        name = presentation_for(E)
        checks = verify_presentation(E, name)
        assert [c.relation for c in checks] == _COMMON_LABELS + _CROSS_LABELS[name]
        assert all(c.holds for c in checks)
    failing = [
        (c.relation, c.witness)
        for c in verify_presentation(products["zX=Xz"], "H32_2")
        if not c.holds
    ]
    assert failing == [
        ("gzG = Ghz", "G⊗gz - G⊗hz"),
        ("gX = -Xg", "2*X⊗g"),
        ("hX = -Xh", "2*X⊗h"),
        ("zX = iXgz", "X⊗z - i*X⊗gz"),
    ]


def test_ternary_relation_in_twisted_presentations(products):
    checks = verify_presentation(products["zX=iXgz"], "H32_2")
    labels = {c.relation for c in checks}
    assert "gzG = Ghz" in labels


def test_wrong_presentation_fails_with_witness(products):
    checks = verify_presentation(products["zX=Xz"], "H32_1")
    failing = [c for c in checks if not c.holds]
    assert failing
    assert all(c.witness for c in failing)
    assert any(c.relation == "zX = -Xz" for c in failing)


def test_unknown_presentation_rejected(products):
    with pytest.raises(ValueError):
        verify_presentation(products["zX=Xz"], "H99")
    assert set(PRESENTATION_NAMES) == {"tensor", "H32_1", "H32_2", "H32_3"}
    assert len(presentation_relations("tensor")) == 15


def test_embeddings_and_factorization(products):
    for E in products.values():
        assert check_embeddings(E) == []


# -- isomorphism classes -----------------------------------------------------------
#
# phi_12 : tensor -> H32_1 and phi_34 : H32_2 -> H32_3, given by the images
# of g, h, z, G, X in the target's generators; both fix the H4 factor.


def _phi_12(g, h, z, G, X):
    return {"g": g, "h": h, "z": G * z, "G": G, "X": X}


def _phi_34(g, h, z, G, X):
    return {"g": h, "h": g, "z": HALF * (G * (z - g * z + h * z + g * h * z)), "G": G, "X": X}


def _phi_34_unswapped(g, h, z, G, X):
    return dict(_phi_34(g, h, z, G, X), g=g, h=h)


def _basis_images(source, target, phi):
    """The images of source's basis a⊗x as phi(a)·phi(x), each label read
    one letter at a time."""
    gens = phi(*(target.generator(n) for n in "ghzGX"))

    def word(label):
        acc = target.algebra.one()
        for letter in "" if label == "1" else label:
            acc = acc * gens[letter]
        return acc

    return [word(a) * word(x) for a, x in (label.split("⊗") for label in source.algebra.basis)]


def _center_dimension(product):
    E = product.algebra
    mul = [[dict(row) for row in block] for block in E.mul]
    rows = [
        {i: mul[i][j].get(k, ZERO) - mul[j][i].get(k, ZERO) for i in range(E.dim)
         if mul[i][j].get(k, ZERO) != mul[j][i].get(k, ZERO)}
        for j in range(E.dim) for k in range(E.dim)
    ]
    return len(kernel(rows, E.dim))


def test_four_products_form_two_isomorphism_classes(products):
    by_name = {presentation_for(E): E for E in products.values()}

    def failures(source, target, phi):
        A, B = by_name[source], by_name[target]
        return check_hopf_map(A.algebra, B.algebra, _basis_images(A, B, phi))

    # bijective Hopf maps between 32-dimensional algebras are isomorphisms
    assert failures("tensor", "H32_1", _phi_12) == []
    assert failures("H32_2", "H32_3", _phi_34) == []
    # controls: phi_12 into H32_2, and phi_34 without the g <-> h swap
    assert len(failures("tensor", "H32_2", _phi_12)) == 320
    assert len(failures("H32_2", "H32_3", _phi_34_unswapped)) == 144
    # the center tells the two classes apart
    assert [_center_dimension(by_name[n]) for n in PRESENTATION_NAMES] == [5, 5, 8, 8]


def test_non_matched_candidate_fails_construction():
    cand = MatchedPairCandidate(
        left_family_instance(1, "a"), antidiagonal_right_table()
    )
    with pytest.raises(BicrossedConstructionError):
        build_bicrossed(cand)


def test_invariant_reports(products):
    reports = {sig: invariant_report(E) for sig, E in products.items()}
    for sig, rep in reports.items():
        assert rep.dim == 32
        assert rep.grouplike_count == 8
        assert not rep.commutative
        assert not rep.cocommutative
        assert rep.antipode_invertible
        assert rep.zx == sig
        # 8 x 8 table of skew-primitive dimensions
        assert len(rep.skew_dimensions) == 64
        assert all(dim == 0 for i, j, dim in rep.skew_dimensions if i == j)
    signatures = [rep.zx for rep in reports.values()]
    assert len(set(signatures)) == 4


def test_invariant_report_json(products):
    rep = invariant_report(products["zX=Xz"])
    payload = rep.to_json()
    assert payload["schema"] == "invariant-report/v1"
    assert payload["dim"] == 32
    assert payload["grouplikes"]["count"] == 8
    assert payload["zx_relation"] == "zX=Xz"


def test_antipode_formula_on_generators(products):
    # S(a (x) x) = (1 (x) S(x))(S(a) (x) 1) on every basis element of every
    # product, the right side multiplied inside the product
    h4, h8 = build_H4(), build_H8()
    for E in products.values():
        for a in range(h4.dim):
            for x in range(h8.dim):
                target = E.algebra.antipode_of(E.algebra.basis_element(a * h8.dim + x))
                manual = E.embed_h8(h8.antipode_of(h8.basis_element(x))) * E.embed_h4(
                    h4.antipode_of(h4.basis_element(a))
                )
                assert target == manual, E.algebra.basis[a * h8.dim + x]
    # and S(a (x) x) = S(a) (x) S(x) in the tensor product
    T = tensor_product(h4, h8)
    for a in range(h4.dim):
        sa = h4.antipode_of(h4.basis_element(a)).coords
        for x in range(h8.dim):
            sx = h8.antipode_of(h8.basis_element(x)).coords
            expected = T.element([ca * cx for ca in sa for cx in sx])
            assert T.antipode_of(T.basis_element(a * h8.dim + x)) == expected, T.basis[a * h8.dim + x]
