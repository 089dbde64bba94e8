"""Pins of the axiom battery's witness lists on mutated structure constants.

Each mutant changes one table of H8 or of H8 (x) H4 (multiplication,
comultiplication, unit, counit or antipode), some by a non-real fraction
such as i/3.  Together they trip all seven checks, including
delta(1) != 1 (x) 1.  Each check is pinned by its witness count and by a
sha256 of the ordered witness list, so any change to the battery that adds,
drops or reorders one witness shows up here.  One mutant's
axiom-report/v1 bytes are pinned as well.
"""

import hashlib
import json

import pytest

from hopffactor import jsonio
from hopffactor.hopf import AXIOM_NAMES, HopfAlgebraData, tensor_product, verify_axioms
from hopffactor.presentations import build_H4, build_H8
from hopffactor.scalar import HALF, I, ONE, ZERO, Scalar

I_THIRD = I * Scalar(1, 3)


def _sha256(obj):
    text = json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _mutant(H, mul=(), unit=(), comul=(), counit=(), antipode=()):
    """H with each listed entry increased: mul (i, j, k, delta), unit and
    counit (i, delta), comul (i, j, k, delta) on the (j, k) triple of
    delta(e_i), added when absent, antipode (i, j, delta)."""
    m = [[dict(row) for row in block] for block in H.mul]
    for i, j, k, delta in mul:
        m[i][j][k] = m[i][j].get(k, ZERO) + delta
    u = list(H.unit)
    for i, delta in unit:
        u[i] = u[i] + delta
    cm = [{(j, k): c for c, j, k in triples} for triples in H.comul]
    for i, j, k, delta in comul:
        cm[i][(j, k)] = cm[i].get((j, k), Scalar(0)) + delta
    e = list(H.counit)
    for i, delta in counit:
        e[i] = e[i] + delta
    s = [dict(row) for row in H.antipode]
    for i, j, delta in antipode:
        s[i][j] = s[i].get(j, ZERO) + delta
    comul_triples = [[(c, j, k) for (j, k), c in d.items() if not c.is_zero()] for d in cm]
    return HopfAlgebraData(f"{H.name}-mutant", H.basis, m, u, comul_triples, e, s)


def _h8():
    return build_H8()


def _t():
    return tensor_product(build_H8(), build_H4())


# name -> (base algebra, mutation keywords); H8 indices: 0 = 1, 1 = g,
# 4 = z; H8 (x) H4 indices: 0 = 1(x)1, 1 = 1(x)G, 5 = g(x)G, 17 = z(x)G
MUTANTS = {
    "h8-mul-one": (_h8, {"mul": [(1, 4, 4, ONE)]}),
    "h8-mul-i/3": (_h8, {"mul": [(4, 4, 2, I_THIRD)]}),
    "h8-comul-unit": (_h8, {"comul": [(0, 1, 1, HALF)]}),
    "h8-comul-i/3": (_h8, {"comul": [(4, 4, 4, I_THIRD)]}),
    "h8-unit": (_h8, {"unit": [(1, HALF)]}),
    "h8-counit": (_h8, {"counit": [(4, I_THIRD)]}),
    "h8-antipode": (_h8, {"antipode": [(4, 5, -HALF)]}),
    "t-mul-i/3": (_t, {"mul": [(5, 17, 3, I_THIRD)]}),
    "t-comul-unit": (_t, {"comul": [(0, 1, 0, I_THIRD)]}),
    "t-unit": (_t, {"unit": [(0, Scalar(-1, 3))]}),
    "t-counit": (_t, {"counit": [(1, ONE)]}),
    "t-antipode": (_t, {"antipode": [(17, 17, I_THIRD)]}),
}

# name -> {check: (witness count, sha256 of the ordered witness list)},
# only checks that fail are listed
PINS = {
    "h8-antipode": {
        "antipode": (
            4,
            "31f01f63654e8730c14ab73402559523e998583c929ee69b11d2d95382116bcd",
        ),
    },
    "h8-comul-i/3": {
        "coassociativity": (
            3,
            "d454f8a71454c71357ca734be8908ee86a66e91d67da564493a977cb30d19212",
        ),
        "counit": (
            2,
            "087da3436ed541132c611ac6773255fad35fda36769869b1f9a7cd92d000a1bf",
        ),
        "comultiplication-multiplicative": (
            19,
            "d7d9e00b94e14c19f7ab96a6ab016a9de271c65b18054811675e3d2dc65bdf3a",
        ),
        "antipode": (
            2,
            "b10836c44f03613451534aff1e0f9a284dad940f177c7ab7172d03c731fa9145",
        ),
    },
    "h8-comul-unit": {
        "coassociativity": (
            1,
            "fca5cff2b24b2a1a589bed29a2f5976ebdfe5f23cf2646351c7f4e5062954d00",
        ),
        "counit": (
            2,
            "03728324d605f913af0ea6b634f490a4c61250d5ef2ff9688841591d39293605",
        ),
        "comultiplication-multiplicative": (
            35,
            "78a88a0e8d7b625544e561c6dfe7382d06823bf77ee3ae303bff430d982f4fa7",
        ),
        "antipode": (
            2,
            "b06504758f390af3fab9507c8cd7102522b47de7e4115e221a0ef4252e22c3f2",
        ),
    },
    "h8-counit": {
        "counit": (
            4,
            "8c23e4a127960b5f8a8cf70f11c8bdc6a7ad118cfd51f961cc9d2fc534e6b500",
        ),
        "counit-multiplicative": (
            19,
            "a1dad9f74e6a3b67980dc5ea77011803a9e93a47b7078a1744095bb30e1e0dad",
        ),
        "antipode": (
            2,
            "b10836c44f03613451534aff1e0f9a284dad940f177c7ab7172d03c731fa9145",
        ),
    },
    "h8-mul-i/3": {
        "associativity": (
            25,
            "1f4717f58957e6b2dfffffa96b4d7540efe42b98b9189371aa1d0ea7d587c822",
        ),
        "comultiplication-multiplicative": (
            7,
            "6768c8d5cc55e995d14e47abe4b946239657dcb271f5f9a26674e09f43831cde",
        ),
        "counit-multiplicative": (
            1,
            "6c9a4be023aac2518be29e13543b02596c8be49655433e0d82ce993225808c0d",
        ),
        "antipode": (
            2,
            "b10836c44f03613451534aff1e0f9a284dad940f177c7ab7172d03c731fa9145",
        ),
    },
    "h8-mul-one": {
        "associativity": (
            38,
            "ca11b76ebfb04e47860404f5edd0aa78d43a859ae73e96edba578e9c4f3ecc4c",
        ),
        "comultiplication-multiplicative": (
            3,
            "d87c8dd215d1aa4b77eca3b87d6dea1baf60f8786a15f5eb10349986f74f0b4a",
        ),
        "counit-multiplicative": (
            1,
            "4f5905a20fed8e5f36568e202d3092b6879b730a368dff629541fb568fce6e15",
        ),
    },
    "h8-unit": {
        "unit": (
            16,
            "31b0954bd2fdf58138f073773407d325f5d1ccece7c88264392f90704221aebd",
        ),
        "comultiplication-multiplicative": (
            1,
            "c46541cc6781a0dac0cba70bac30736b612f05496526b318a933dca4c901c3de",
        ),
        "counit-multiplicative": (
            1,
            "78d626f778a09debc3022bde6b9abadfa2273cd691929ccaf2ce4388faa74acf",
        ),
        "antipode": (
            16,
            "21b38233d3030ba267864ff0363714e6cd16dca15232b22db60a008021d897b0",
        ),
    },
    "t-antipode": {
        "antipode": (
            8,
            "ff9af6c94fb53d1d6c29a59bafa304b5c9f3ab615f5a010aaa83ec88e3021a46",
        ),
    },
    "t-comul-unit": {
        "coassociativity": (
            3,
            "64e5f217de638aac2954f6b290ab95d9c98939f29688c0a4127c7f4215808ca5",
        ),
        "counit": (
            2,
            "ea3e1d9e1b443ff04ea172c2597d197937aaa91fa394551fb84533e828223cb7",
        ),
        "comultiplication-multiplicative": (
            103,
            "5b687d42f0e33ed144c826974bcd3fc9a1fdbcc940e4210619dc30533e635b31",
        ),
        "antipode": (
            2,
            "f7f426b1f0a80c1afdf01ef39f8e738eb2df49acacbe8f5fa902c957f15e5226",
        ),
    },
    "t-counit": {
        "counit": (
            4,
            "a3576df4b1a20b2cf85c7287df1d4f68c63f99cc4f30a6e121b8ef0ff83b3bff",
        ),
        "counit-multiplicative": (
            67,
            "8b439b0f374f50376f0dbd2cb020dc0366773ecbb0077b7f38e4a27c454f22f2",
        ),
        "antipode": (
            2,
            "ac46048c6a713b3e160b0bd437165937c297be3dcce3131926c21b2377316729",
        ),
    },
    "t-mul-i/3": {
        "associativity": (
            82,
            "2472baa37a380e90624d0ab8115f76b8f1c29ade0943e15eb45f6ffcd7616f39",
        ),
        "comultiplication-multiplicative": (
            11,
            "a979ade9abb512036b13ddd90a61d98c227127f72bbf338a2c628fdc18ec5c5a",
        ),
    },
    "t-unit": {
        "unit": (
            64,
            "07ec8bc5afcfe7e554e8b4f6ce3d774b28d5fe1298cfe9d6948d88f5ef697fbb",
        ),
        "comultiplication-multiplicative": (
            1,
            "c46541cc6781a0dac0cba70bac30736b612f05496526b318a933dca4c901c3de",
        ),
        "counit-multiplicative": (
            1,
            "78d626f778a09debc3022bde6b9abadfa2273cd691929ccaf2ce4388faa74acf",
        ),
        "antipode": (
            32,
            "8ecf4e6f08d3f9333f66702e5d671354741c9a84867c9091d57fbcada2ca7d01",
        ),
    },
}

REPORT_SHA256 = "3f1e231b28a76d46aa1d0cef2545596b75993c6ace4b49337c8765969cb26cda"


@pytest.fixture(scope="module")
def reports():
    return {name: verify_axioms(_mutant(base(), **kw)) for name, (base, kw) in MUTANTS.items()}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_witnesses_pinned(reports, name):
    report = reports[name]
    assert [c.name for c in report.checks] == list(AXIOM_NAMES)
    got = {
        c.name: (len(c.witnesses), _sha256(list(c.witnesses)))
        for c in report.checks
        if not c.passed
    }
    assert got == PINS[name]


def test_every_check_tripped(reports):
    tripped = {c.name for r in reports.values() for c in r.checks if not c.passed}
    assert tripped == set(AXIOM_NAMES)
    assert any(
        "delta(1) != 1 (x) 1" in c.witnesses for r in reports.values() for c in r.checks
    )


def test_report_bytes_pinned(reports):
    text = jsonio.dumps(jsonio.axiom_report_to_json(reports["t-comul-unit"]))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_SHA256


def _nonzero(acc):
    return {key: c for key, c in acc.items() if not c.is_zero()}


def _element_witnesses(H):
    """The witnesses of unit, coassociativity, counit, delta(1) = 1 (x) 1,
    counit-multiplicativity and antipode, found with H.multiply,
    comultiply_dict, counit_of and antipode_of on basis Elements only."""
    e, b, one = [H.basis_element(n) for n in range(H.dim)], H.basis, H.one()
    eps = [H.counit_of(x) for x in e]
    delta = [H.comultiply_dict(x) for x in e]
    out = {name: [] for name in AXIOM_NAMES}
    for i in range(H.dim):
        if one * e[i] != e[i]:
            out["unit"].append(f"1*{b[i]} != {b[i]}")
        if e[i] * one != e[i]:
            out["unit"].append(f"{b[i]}*1 != {b[i]}")
    for i in range(H.dim):
        lhs, rhs = {}, {}
        for (j, k), c in delta[i].items():
            for (p, q), c2 in delta[j].items():
                lhs[p, q, k] = lhs.get((p, q, k), ZERO) + c * c2
            for (p, q), c2 in delta[k].items():
                rhs[j, p, q] = rhs.get((j, p, q), ZERO) + c * c2
        if _nonzero(lhs) != _nonzero(rhs):
            out["coassociativity"].append(f"coassociativity fails on {b[i]}")
    for i in range(H.dim):
        left = sum((c * eps[j] * e[k] for (j, k), c in delta[i].items()), H.zero())
        right = sum((c * eps[k] * e[j] for (j, k), c in delta[i].items()), H.zero())
        if left != e[i]:
            out["counit"].append(f"(eps (x) id) delta fails on {b[i]}")
        if right != e[i]:
            out["counit"].append(f"(id (x) eps) delta fails on {b[i]}")
    unit_tensor = {
        (p, q): cp * cq for p, cp in enumerate(one.coords) for q, cq in enumerate(one.coords)
    }
    if H.comultiply_dict(one) != _nonzero(unit_tensor):
        out["comultiplication-multiplicative"].append("delta(1) != 1 (x) 1")
    if H.counit_of(one) != ONE:
        out["counit-multiplicative"].append("eps(1) != 1")
    for i in range(H.dim):
        for j in range(H.dim):
            if H.counit_of(e[i] * e[j]) != eps[i] * eps[j]:
                out["counit-multiplicative"].append(f"eps({b[i]}*{b[j]}) != eps*eps")
    for i in range(H.dim):
        expected = eps[i] * one
        left = sum((c * (H.antipode_of(e[j]) * e[k]) for (j, k), c in delta[i].items()), H.zero())
        right = sum((c * (e[j] * H.antipode_of(e[k])) for (j, k), c in delta[i].items()), H.zero())
        if left != expected:
            out["antipode"].append(f"m(S (x) id) delta != eps*1 on {b[i]}")
        if right != expected:
            out["antipode"].append(f"m(id (x) S) delta != eps*1 on {b[i]}")
    return out


@pytest.mark.parametrize("name", sorted(n for n in MUTANTS if n.startswith("h8-")))
def test_witnesses_match_element_arithmetic(reports, name):
    """Every H8 mutant's witnesses for the Scalar checks equal those of an
    independent evaluation through Element arithmetic; of
    delta-multiplicativity only the delta(1) witness, which comes first."""
    base, kw = MUTANTS[name]
    oracle = _element_witnesses(_mutant(base(), **kw))
    report = {c.name: c.witnesses for c in reports[name].checks}
    for check in ("unit", "coassociativity", "counit", "counit-multiplicative", "antipode"):
        assert report[check] == tuple(oracle[check]), check
    comul = report["comultiplication-multiplicative"]
    delta_unit = oracle["comultiplication-multiplicative"]
    assert [w for w in comul if w == "delta(1) != 1 (x) 1"] == delta_unit
    assert comul[: len(delta_unit)] == tuple(delta_unit)
