"""Rewriting engine and the two generator/relation presentations."""

import pytest

from hopffactor.presentations import (
    RewriteError,
    build_H4,
    build_H8,
    check_local_confluence,
    h4_presentation,
    h8_presentation,
    normalize,
)
from hopffactor.scalar import HALF, ONE, Scalar


def combo_str(pres, combo):
    return {pres.label(w): str(c) for w, c in sorted(combo.items())}


def test_normalize_zg():
    pres = h8_presentation()
    assert combo_str(pres, normalize(pres, ("z", "g"))) == {"hz": "1"}


def test_normalize_zh():
    pres = h8_presentation()
    assert combo_str(pres, normalize(pres, ("z", "h"))) == {"gz": "1"}


def test_normalize_z_squared():
    pres = h8_presentation()
    assert combo_str(pres, normalize(pres, ("z", "z"))) == {
        "1": "1/2", "g": "1/2", "h": "1/2", "gh": "-1/2"
    }


def test_normalize_x_squared():
    pres = h4_presentation()
    assert normalize(pres, ("X", "X")) == {}


def test_normalize_xg():
    pres = h4_presentation()
    assert combo_str(pres, normalize(pres, ("X", "G"))) == {"GX": "-1"}


def test_normalize_idempotent_short_words():
    for pres in (h4_presentation(), h8_presentation()):
        words = [()]
        for _ in range(4):
            words = [w + (g,) for w in words for g in pres.generators]
            for w in words:
                once = normalize(pres, w)
                again = normalize(pres, dict(once))
                assert once == again


def test_local_confluence():
    check_local_confluence(h4_presentation())
    check_local_confluence(h8_presentation())


def test_bad_rules_detected():
    pres = h8_presentation()
    # orient gz = zh the wrong way round alongside the existing rules:
    # the overlap z*g*g now has two inequivalent normal forms
    bad = type(pres)(
        name="H8-broken",
        generators=pres.generators,
        rules=pres.rules + ((("h", "z"), ((ONE, ("z", "g")),)),),
        basis_words=pres.basis_words,
        coproduct=pres.coproduct,
        counit=pres.counit,
        antipode=pres.antipode,
    )
    with pytest.raises(RewriteError):
        check_local_confluence(bad)
        # some rule sets loop instead of disagreeing; both raise RewriteError
        normalize(bad, ("h", "z", "g"))


def test_build_h4_presentation_facts():
    H4 = build_H4()
    assert H4.basis == ("1", "G", "X", "GX")
    assert H4.antipode_of(H4.basis_element("X")) == H4.basis_element("GX")
    assert H4.counit == (ONE, ONE, Scalar(0), Scalar(0))
    assert H4.basis_element("X") * H4.basis_element("G") == -H4.basis_element("GX")


def test_build_h8_presentation_facts():
    H8 = build_H8()
    assert H8.basis == ("1", "g", "h", "gh", "z", "gz", "hz", "ghz")
    assert H8.basis_element("z") ** 4 == H8.one()
    assert H8.basis_element("g") * H8.basis_element("z") == H8.basis_element("z") * H8.basis_element("h")
    idx = H8.index
    assert {(j, k): c for c, j, k in H8.comul[idx["z"]]} == {
        (idx["z"], idx["z"]): HALF,
        (idx["gz"], idx["z"]): HALF,
        (idx["z"], idx["hz"]): HALF,
        (idx["gz"], idx["hz"]): -HALF,
    }


def test_structure_constants_are_dyadic_rationals():
    # every constant of both presentations is real with denominator 1 or 2
    for H in (build_H4(), build_H8()):
        scalars = [c for block in H.mul for row in block for _, c in row]
        scalars += list(H.unit) + list(H.counit)
        scalars += [c for row in H.antipode for _, c in row]
        scalars += [c for triples in H.comul for (c, _, _) in triples]
        for c in scalars:
            assert c.imn == 0
            assert c.rd in (1, 2)


def test_presentation_violating_the_axioms_is_rejected():
    pres = h4_presentation()
    # S(X) = X instead of GX: S(X)G + S(1)X = XG + X is not eps(X) 1 = 0
    bad = type(pres)(
        name="H4-bad-antipode",
        generators=pres.generators,
        rules=pres.rules,
        basis_words=pres.basis_words,
        coproduct=pres.coproduct,
        counit=pres.counit,
        antipode={**pres.antipode, "X": ((ONE, ("X",)),)},
    )
    from hopffactor.presentations import tabulate

    with pytest.raises(RewriteError) as err:
        tabulate(bad)
    assert str(err.value) == "presentation H4-bad-antipode violates Hopf axioms: antipode"


def test_basis_words_in_normal_form_guard():
    pres = h4_presentation()
    bad = type(pres)(
        name="H4-bad-basis",
        generators=pres.generators,
        rules=pres.rules,
        basis_words=((), ("G",), ("X",), ("X", "G")),  # XG is reducible
        coproduct=pres.coproduct,
        counit=pres.counit,
        antipode=pres.antipode,
    )
    from hopffactor.presentations import tabulate

    with pytest.raises(RewriteError):
        tabulate(bad)
