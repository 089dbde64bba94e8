"""Acceptance gate: every criterion checked exactly (tolerance zero
throughout, all arithmetic in Q(i)), one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import hashlib
import json
import os
import random
from contextlib import contextmanager

import pytest

from hopffactor.actions import (
    MatchedPairCandidate,
    check_matched_pair,
    check_module_coalgebra,
    check_module_coalgebras,
    enumerate_left_actions,
    g_action_circulant_system,
    left_family_instance,
    left_module_coalgebra_system,
    matched_pair_search,
    x_action_circulant_system,
)
from hopffactor.bicrossed import (
    build_bicrossed,
    invariant_report,
    presentation_for,
    verify_presentation,
    zx_signature,
)
from hopffactor.cli import EXIT_OK, main
from hopffactor.hopf import (
    HopfAlgebraData,
    grouplikes,
    skew_primitives,
    tensor_product,
    verify_axioms,
)
from hopffactor.presentations import build_H4, build_H8
from hopffactor.scalar import HALF, ONE, ZERO, Scalar
from hopffactor.solver import solve
from oracles import antidiagonal_right_table, trivial_right_table


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}", flush=True)
        raise
    print(f"[PASS] criterion {number}: {description}", flush=True)


@pytest.fixture(scope="module")
def H4():
    return build_H4()


@pytest.fixture(scope="module")
def H8():
    return build_H8()


@pytest.fixture(scope="module")
def pairs():
    return matched_pair_search()[0]


@pytest.fixture(scope="module")
def products(pairs):
    return [build_bicrossed(p) for p in pairs]


def test_criterion_1_axiom_suite(H4, H8):
    with criterion(1, "axiom suite passes; 20 random mutations each fail"):
        T = tensor_product(H8, H4)
        for H in (H4, H8, T):
            report = verify_axioms(H)
            assert report.all_passed, f"{H.name}: {report.failing()}"
        rng = random.Random(421)
        for trial in range(20):
            i, j, k = (rng.randrange(8) for _ in range(3))
            mul = [[dict(row) for row in block] for block in H8.mul]
            mul[i][j][k] = mul[i][j].get(k, ZERO) + Scalar(rng.choice([1, -1, 2]))
            mutated = HopfAlgebraData(
                "H8-mutant", H8.basis, mul, H8.unit, H8.comul, H8.counit, H8.antipode
            )
            assert not verify_axioms(mutated).all_passed, f"trial {trial} undetected"


def test_criterion_2_presentation_facts(H4, H8):
    with criterion(2, "z^2, z^4 in H8 and S(X), XG in H4 hold exactly"):
        z = H8.basis_element("z")
        assert z * z == HALF * (
            H8.basis_element("1") + H8.basis_element("g") + H8.basis_element("h") - H8.basis_element("gh")
        )
        assert z ** 4 == H8.one()
        assert H4.antipode_of(H4.basis_element("X")) == H4.basis_element("GX")
        assert H4.basis_element("X") * H4.basis_element("G") == -(H4.basis_element("G") * H4.basis_element("X"))


def test_criterion_3_grouplikes_and_skew_spaces(H4, H8):
    with criterion(3, "group-likes and skew-primitive spaces as published"):
        gl8 = grouplikes(H8)  # solver-enumerated, not hard-coded
        assert {repr(g) for g in gl8} == {"1", "g", "h", "gh"}
        for a in gl8:
            for b in gl8:
                basis = skew_primitives(H8, a, b)
                if a == b:
                    assert basis == ()
                else:
                    assert len(basis) == 1
                    # spanned by a - b
                    lead = next(c for c in basis[0].coords if not c.is_zero())
                    diff = a - b
                    dlead = next(c for c in diff.coords if not c.is_zero())
                    assert basis[0] * lead.inv() == diff * dlead.inv()
        gl4 = grouplikes(H4)
        assert {repr(g) for g in gl4} == {"1", "G"}
        assert len(skew_primitives(H4, H4.basis_element("G"), H4.one())) == 2


def test_criterion_4_left_action_enumeration():
    with criterion(4, "16 left-action families; instances residual-free; gamma split logged"):
        sol = enumerate_left_actions()
        assert len(sol.branches) == 16
        for xf in (1, 2, 3, 4):
            for gf in "abcd":
                inst = left_family_instance(xf, gf, ONE, ONE)
                assert check_module_coalgebra(inst) == []
                assert [
                    p for p in left_module_coalgebra_system(inst) if not p.is_zero()
                ] == []
        splits = [
            e for e in sol.provenance
            if e["rule"] == "quadratic"
            and sorted(c.split(" = ")[1] for c in e["cases"]) == ["-i", "i"]
        ]
        assert any(e["variable"] == "l_z_X_X" for e in splits)


def test_criterion_5_published_equation_systems():
    with criterion(5, "circulant systems: four G-action solutions, X-action forced to zero"):
        sol = solve(g_action_circulant_system())
        points = sorted(
            tuple(str(br.point()[v]) for v in ("a", "b", "c", "d")) for br in sol
        )
        assert points == [
            ("-1/2", "1/2", "1/2", "1/2"),
            ("0", "0", "0", "1"),
            ("1", "0", "0", "0"),
            ("1/2", "1/2", "1/2", "-1/2"),
        ]
        solx = solve(x_action_circulant_system((HALF, HALF, HALF, -HALF)))
        assert len(solx.branches) == 1
        assert all(c == ZERO for c in solx.branches[0].point().values())


def test_criterion_6_matched_pair_count_and_recheck(pairs):
    with criterion(6, "exactly 4 matched pairs; compatibilities re-verified directly"):
        assert len(pairs) == 4
        for pair in pairs:
            assert check_module_coalgebras(pair) == []
            assert check_matched_pair(pair) == []  # every basis instance, exact


def test_criterion_7_products_and_presentations(pairs, products):
    with criterion(7, "four 32-dim Hopf products; presentations verify; trivial = tensor"):
        signatures = set()
        for E in products:
            assert E.algebra.dim == 32
            assert verify_axioms(E.algebra).all_passed
            sig = zx_signature(E)
            signatures.add(sig)
            name = presentation_for(E)
            checks = verify_presentation(E, name)
            assert all(c.holds for c in checks), [c for c in checks if not c.holds]
        assert signatures == {"zX=Xz", "zX=-Xz", "zX=iXgz", "zX=-iXgz"}
        trivial = next(E for E in products if zx_signature(E) == "zX=Xz")
        T = tensor_product(build_H4(), build_H8())
        assert trivial.algebra.structure_key() == T.structure_key()
        # the invariant reports carry the four pairwise distinct zX
        # relations; those are presentation data, not an isomorphism test
        sigs = [invariant_report(E).zx for E in products]
        assert len(set(sigs)) == 4


def test_criterion_8_negative_controls():
    with criterion(8, "rejected candidates fail at the published spots"):
        cand = MatchedPairCandidate(
            left_family_instance(1, "a"), antidiagonal_right_table()
        )
        assert check_module_coalgebras(cand) == []
        failures = check_matched_pair(cand)
        assert any(
            f.condition == "exchange-compatibility" and f.at == ("z", "X")
            for f in failures
        )
        witness = next(
            f.witness for f in failures
            if f.condition == "exchange-compatibility" and f.at == ("z", "X")
        )
        assert "z⊗X" in witness and "ghz⊗X" in witness

        cand2 = MatchedPairCandidate(
            left_family_instance(2, "b", ONE, ONE), trivial_right_table()
        )
        assert check_module_coalgebras(cand2) == []
        failures2 = check_matched_pair(cand2)
        assert any(
            f.condition == "left-product-compatibility" and f.at == ("z", "X", "X")
            for f in failures2
        )


# sha256 of every `theorem check` artifact, pinned from a fresh-process run
# under a different PYTHONHASHSEED (the benchmark's theorem pins)
THEOREM_ARTIFACT_SHA256 = {
    "invariants-1.json": "9a2f39f2df43681272294ea51a370cb95be0d67b4173de624c939d7c0d4a1ae5",
    "invariants-2.json": "ec5c6699c9c2e9fcfda1b05a95aaa3390e7f437eec85b4b5d1ac2dc34b172756",
    "invariants-3.json": "fefd8d2a792d68e63cf8ca53bd07036d2d6606a56fdfd1b28f964b2902c2652e",
    "invariants-4.json": "33c0c86c424db72e4f574acda9a41faf71fc0458cf4c8f72a70e1593ca317e19",
    "matched-pair-1.json": "3dec372c734f12056e56abb3e3b4c2c2189fbad69b638f82997fbdff60725e93",
    "matched-pair-2.json": "3a200ef5424a04b450996b94bb4de8fa6d5ca852eb9b6182e040df7574e5a75c",
    "matched-pair-3.json": "bc08ac3656391f6a7747a6f04d63aa382ab269546a762ab4034570d683e68527",
    "matched-pair-4.json": "42b6ee908f1fed5e93a93b6cd1eaa9ca359310d644ec0ea43ddc12961cd7141c",
    "product-1.hopf.json": "dc88b50c2057cf719fb9eeea3437caa13f00cbaee2bb491476fc88413e648089",
    "product-2.hopf.json": "b6d2ed270cd35b921c0a2aa01fb0f181aea812407b169c3c0116dcf9662d9176",
    "product-3.hopf.json": "55c6b052cf262005384720875e2fc9ea2af034623a692cd82e9f03356fc6f68e",
    "product-4.hopf.json": "bf23fd2e060115b87c0c4bf6702f35bc868798294c55ce6790674f11858b91cd",
    "theorem-report.json": "41f279b6be86e2c941bfc2df0e357b9b5b0576578f1784915fb1ca98acb15a98",
}

# sha256 of every `catalog verify --algebra all` artifact (the benchmark's
# catalog-all pins); h8xh4.hopf.json is the tensor product
CATALOG_ARTIFACT_SHA256 = {
    "h4.axiom-report.json": "02afbdfd4b78772d56cf51d40794a4376decfaf64a32cb45b1dda3e3b3187820",
    "h4.hopf.json": "40efd1634d6336d847c85428177c25813c017c2cdc599068d5a6d5a30ad3160a",
    "h8.axiom-report.json": "b89e50e8554de144ced84d6713dddb9db48570b4f45f9ea0e6c401df49e1c29a",
    "h8.hopf.json": "30a62e111b44e0e9bccf995ad74119f8d25c3828b9296506832e8b0ceb1a3bd9",
    "h8xh4.axiom-report.json": "80994489ec79158617a30b70f63935a6ed9534c9398477fc0ec9a2e74068fc19",
    "h8xh4.hopf.json": "0bcf4c37a1df26d2bd0a5e3569d937e323fbe33f212931fb6280963e5af03f0f",
}


def test_catalog_artifacts_pinned(tmp_path):
    assert main(["catalog", "verify", "--algebra", "all", "--out", str(tmp_path)]) == EXIT_OK
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in os.listdir(tmp_path)
    }
    assert digests == CATALOG_ARTIFACT_SHA256


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "two theorem-check runs emit byte-identical, pinned artifacts"):
        outputs = []
        for run in ("first", "second"):
            out = tmp_path / run
            assert main(["theorem", "check", "--out", str(out)]) == EXIT_OK
            tree = {}
            for dirpath, _dn, filenames in os.walk(out):
                for name in sorted(filenames):
                    path = os.path.join(dirpath, name)
                    with open(path, "rb") as fh:
                        tree[os.path.relpath(path, out)] = fh.read()
            outputs.append(tree)
        assert outputs[0].keys() == outputs[1].keys()
        assert outputs[0] == outputs[1]
        digests = {
            name: hashlib.sha256(data).hexdigest() for name, data in outputs[0].items()
        }
        assert digests == THEOREM_ARTIFACT_SHA256
        assert "theorem-report.json" in outputs[0]
        report = json.loads(outputs[0]["theorem-report.json"])
        assert report["matched_pair_count"] == 4
