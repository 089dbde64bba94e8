"""Command-line pipeline: artifacts, exit codes, reproducibility."""

import functools
import gzip
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hopffactor import jsonio
from hopffactor.cli import (
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_IRREDUCIBLE,
    EXIT_OK,
    main,
)
from hopffactor.actions import MatchedPairCandidate, left_family_instance
from hopffactor.presentations import build_H4, build_H8
from hopffactor.scalar import Scalar
from oracles import trivial_right_table


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tree_bytes(root):
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_catalog_verify(tmp_path, capsys):
    out = tmp_path / "cat"
    code = main(["catalog", "verify", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "h4.hopf.json").exists()
    assert (out / "h8.hopf.json").exists()
    assert (out / "h8xh4.hopf.json").exists()
    payload = read_json(out / "h8.axiom-report.json")
    assert payload["all_passed"] is True
    assert {c["name"] for c in payload["structural_checks"]} == {
        "z^2 = (1+g+h-gh)/2", "z^4 = 1", "gz = zh"
    }
    assert read_json(out / "h8xh4.hopf.json")["dim"] == 32


def test_catalog_verify_single_algebra(tmp_path):
    out = tmp_path / "single"
    assert main(["catalog", "verify", "--algebra", "h4", "--out", str(out)]) == EXIT_OK
    assert (out / "h4.hopf.json").exists()
    assert not (out / "h8.hopf.json").exists()


def test_catalog_markdown_report_mentions_z4(tmp_path):
    out = tmp_path / "md"
    code = main(["catalog", "verify", "--algebra", "h8", "--out", str(out),
                 "--format", "markdown"])
    assert code == EXIT_OK
    text = (out / "h8.axiom-report.md").read_text(encoding="utf-8")
    assert "| z^4 = 1 | pass |" in text


def test_catalog_load_roundtrip(tmp_path):
    out = tmp_path / "emit"
    main(["catalog", "verify", "--algebra", "h8", "--out", str(out)])
    reload_out = tmp_path / "re"
    code = main(["catalog", "verify", "--load", str(out / "h8.hopf.json"),
                 "--out", str(reload_out)])
    assert code == EXIT_OK


def test_catalog_load_mutated_constant_fails(tmp_path):
    out = tmp_path / "mut"
    main(["catalog", "verify", "--algebra", "h8", "--out", str(out)])
    payload = read_json(out / "h8.hopf.json")
    # perturb one multiplication constant: z*z gains an extra unit term
    for row in payload["mul"]:
        if row[0] == 4 and row[1] == 4 and row[2] == 0:
            row[3] = (Scalar.from_json(row[3]) + Scalar(1)).to_json()
            break
    bad_path = tmp_path / "h8-mutated.json"
    bad_path.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["catalog", "verify", "--load", str(bad_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CHECK_FAILED


def test_catalog_load_missing_file(tmp_path):
    code = main(["catalog", "verify", "--load", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_IO


def test_actions_enumerate_left(tmp_path, capsys):
    out = tmp_path / "left"
    code = main(["actions", "enumerate", "--side", "left", "--out", str(out)])
    assert code == EXIT_OK
    payload = read_json(out / "actions-left.solutions.json")
    assert payload["schema"] == "solutions/v1"
    assert payload["branch_count"] == 16
    assert len(payload["solutions"]) == 16
    assert "16 canonical families" in capsys.readouterr().out


def test_actions_enumerate_right_exits_irreducible(tmp_path):
    out = tmp_path / "right"
    code = main(["actions", "enumerate", "--side", "right", "--out", str(out)])
    assert code == EXIT_IRREDUCIBLE
    payload = read_json(out / "actions-right.solutions.json")
    assert payload["error"] == "irreducible-system"
    assert payload["residual_count"] > 0


def tiny_split_budget(monkeypatch):
    """The action layer's searches get a split budget of one node and a
    memo of their own, so the warm search result stays for later tests."""
    from hopffactor import actions, solver

    monkeypatch.setattr(actions, "solve", functools.partial(solver.solve, split_budget=1))
    monkeypatch.setattr(actions, "_SEARCH_CACHE", [])


def test_exhausted_split_budget_writes_the_residual(tmp_path, monkeypatch):
    tiny_split_budget(monkeypatch)
    out = tmp_path / "tiny"
    code = main(["actions", "enumerate", "--side", "left", "--out", str(out)])
    assert code == EXIT_IRREDUCIBLE
    payload = read_json(out / "actions-left.solutions.json")
    assert payload["reason"] == "budget-exhausted"


@pytest.fixture(scope="module")
def theorem_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("theorem")
    code = main(["theorem", "check", "--out", str(out), "--format", "markdown"])
    return code, out


def test_theorem_check_passes(theorem_run):
    code, out = theorem_run
    assert code == EXIT_OK
    report = read_json(out / "theorem-report.json")
    assert report["matched_pair_count"] == 4
    assert report["signatures_pairwise_distinct"] is True
    assert report["tensor_identification"] is True
    assert [r["presentation"] for r in report["rows"]] == [
        "tensor", "H32_1", "H32_2", "H32_3"
    ]
    for row in report["rows"]:
        assert row["axioms_pass"] and row["relations_pass"] and row["pair_reverified"]
        assert row["embeddings_pass"]


def test_theorem_check_artifacts(theorem_run):
    _, out = theorem_run
    for n in (1, 2, 3, 4):
        assert (out / f"product-{n}.hopf.json").exists()
        assert (out / f"invariants-{n}.json").exists()
        assert (out / f"matched-pair-{n}.json").exists()
        assert read_json(out / f"product-{n}.hopf.json")["dim"] == 32
    report = read_json(out / "theorem-report.json")
    h32_2 = next(r for r in report["rows"] if r["presentation"] == "H32_2")
    assert {"relation": "zX = iXgz", "holds": True, "witness": ""} in h32_2["relations"]


def test_theorem_markdown_table(theorem_run):
    _, out = theorem_run
    text = (out / "theorem-report.md").read_text(encoding="utf-8")
    assert "Matched pairs found: 4" in text
    assert "zX=iXgz" in text
    assert "Trivial pair product coincides with the tensor product: yes" in text


def test_matched_pairs_find(tmp_path):
    out = tmp_path / "mp"
    code = main(["matched-pairs", "find", "--out", str(out)])
    assert code == EXIT_OK
    payload = read_json(out / "matched-pair-3.json")
    assert payload["schema"] == "matched-pair/v1"
    assert payload["status"] == "matched"
    assert payload["digest"]["pair_checks_pass"] is True
    back = jsonio.matched_pair_from_json(payload)
    assert back.left.is_concrete() and back.right.is_concrete()


def test_matched_pairs_replay(tmp_path):
    out = tmp_path / "mp"
    main(["matched-pairs", "find", "--out", str(out)])
    replay_out = tmp_path / "replay"
    code = main(["matched-pairs", "find", "--load", str(out / "matched-pair-2.json"),
                 "--out", str(replay_out)])
    assert code == EXIT_OK
    payload = read_json(replay_out / "matched-pair-replay.json")
    assert payload["digest"]["pair_checks_pass"] is True
    assert payload["status"] == "matched"

    # corrupt one left-action coefficient and replay again: the stored
    # "matched" is not carried over
    stored = read_json(out / "matched-pair-2.json")
    stored["left"]["entries"][9][2][1] = (
        Scalar.from_json(stored["left"]["entries"][9][2][1]) + Scalar(1)
    ).to_json()
    bad = tmp_path / "bad-pair.json"
    bad.write_text(json.dumps(stored), encoding="utf-8")
    code = main(["matched-pairs", "find", "--load", str(bad), "--out", str(replay_out)])
    assert code == EXIT_CHECK_FAILED
    assert read_json(replay_out / "matched-pair-replay.json")["status"] == "unchecked"

    # a verified pair stored as "unchecked" comes back "matched"
    stored = read_json(out / "matched-pair-2.json")
    stored["status"] = "unchecked"
    modest = tmp_path / "unchecked-pair.json"
    modest.write_text(json.dumps(stored), encoding="utf-8")
    code = main(["matched-pairs", "find", "--load", str(modest), "--out", str(replay_out)])
    assert code == EXIT_OK
    assert read_json(replay_out / "matched-pair-replay.json")["status"] == "matched"


def test_commands_take_the_search_verdict(tmp_path, monkeypatch):
    """After the search has run, `theorem check` and `matched-pairs find`
    read each pair's status and never re-run the direct checks."""
    from hopffactor import actions

    pairs, _sol = actions.matched_pair_search()
    assert [p.status for p in pairs] == ["matched"] * 4
    failure = [actions.CheckFailure("planted", (), "a re-run check")]
    monkeypatch.setattr(actions, "check_module_coalgebras", lambda cand: failure)
    monkeypatch.setattr(actions, "check_matched_pair", lambda cand: failure)
    assert main(["matched-pairs", "find", "--out", str(tmp_path / "mp")]) == EXIT_OK
    assert main(["theorem", "check", "--out", str(tmp_path / "th")]) == EXIT_OK


def test_product_build(tmp_path, capsys):
    out = tmp_path / "pb"
    code = main(["product", "build", "--out", str(out)])
    assert code == EXIT_OK
    assert read_json(out / "product-4.hopf.json")["dim"] == 32
    assert "relations pass" in capsys.readouterr().out


def test_algebra_json_roundtrip_bytes(tmp_path):
    H8 = build_H8()
    payload = jsonio.algebra_to_json(H8)
    back = jsonio.algebra_from_json(payload)
    assert back.structure_key() == H8.structure_key()
    assert jsonio.dumps(jsonio.algebra_to_json(back)) == jsonio.dumps(payload)


def test_actions_enumerate_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["actions", "enumerate", "--side", "left", "--out", str(out1)]) == EXIT_OK
    assert main(["actions", "enumerate", "--side", "left", "--out", str(out2)]) == EXIT_OK
    assert tree_bytes(out1) == tree_bytes(out2)


# -- malformed stored files ----------------------------------------------------------


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_catalog_load_without_dim_fails_cleanly(tmp_path, capsys):
    payload = jsonio.algebra_to_json(build_H8())
    del payload["dim"]
    path = tmp_path / "no-dim.hopf.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["catalog", "verify", "--load", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CHECK_FAILED
    assert_one_line_error(capsys)
    assert not (tmp_path / "o").exists()


def test_matched_pair_load_zero_denominator_fails_cleanly(tmp_path, capsys):
    cand = MatchedPairCandidate(left_family_instance(1, "a"), trivial_right_table())
    payload = jsonio.matched_pair_to_json(cand)
    payload["left"]["entries"][0][2][0][1] = 0
    path = tmp_path / "zero-denominator.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["matched-pairs", "find", "--load", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CHECK_FAILED
    assert_one_line_error(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("side", ["left", "right"])
def test_matched_pair_load_repeated_basis_pair_fails_cleanly(tmp_path, capsys, side):
    # row 5 again with row 6's values: every pair is present, one of them twice
    cand = MatchedPairCandidate(left_family_instance(1, "a"), trivial_right_table())
    payload = jsonio.matched_pair_to_json(cand)
    entries = payload[side]["entries"]
    entries.append(entries[5][:2] + entries[6][2:])
    path = tmp_path / "repeated-pair.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["matched-pairs", "find", "--load", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CHECK_FAILED
    assert_one_line_error(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv", [["catalog", "verify", "--load"], ["matched-pairs", "find", "--load"]],
    ids=("catalog-verify", "matched-pairs-find"),
)
def test_load_deeply_nested_json_fails_cleanly(tmp_path, capsys, argv):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code = main(argv + [str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CHECK_FAILED
    assert_one_line_error(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["../escaped", "inner/../../escaped", "a\\b", ".", ".."])
def test_catalog_load_rejects_a_name_that_leaves_out(tmp_path, capsys, name):
    payload = jsonio.algebra_to_json(build_H4())
    payload["name"] = name
    path = tmp_path / "stored.hopf.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out" / "inner"
    code = main(["catalog", "verify", "--load", str(path), "--out", str(out)])
    assert code == EXIT_CHECK_FAILED
    assert_one_line_error(capsys)
    written = [os.path.join(d, f) for d, _, files in os.walk(tmp_path) for f in files]
    assert written == [str(path)]


def test_catalog_load_keeps_a_stored_product_name(tmp_path):
    payload = jsonio.algebra_to_json(build_H4())
    payload["name"] = "bicrossed"
    path = tmp_path / "product.hopf.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["catalog", "verify", "--load", str(path), "--out", str(out)]) == EXIT_OK
    assert sorted(os.listdir(out)) == ["bicrossed.axiom-report.json", "bicrossed.hopf.json"]


@pytest.mark.parametrize("name, basis", [("h8", None), ("h4", ["e0", "e1", "e2", "e3"])])
def test_catalog_load_named_like_a_built_target(tmp_path, capsys, name, basis):
    # the presentation spot checks belong to the built targets, not to a
    # loaded file that happens to carry their name
    payload = jsonio.algebra_to_json(build_H4())
    payload["name"] = name
    if basis is not None:
        payload["basis"] = basis
    path = tmp_path / "stored.hopf.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["catalog", "verify", "--load", str(path), "--out", str(out)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    report = read_json(out / f"{name}.axiom-report.json")
    assert report["all_passed"] is True
    assert report["structural_checks"] == []


# -- one error path: every subcommand reports through main --------------------------


def forbid_work(monkeypatch):
    """Fail the test if a search, enumeration, axiom battery or pair check runs."""
    from hopffactor import actions, cli

    for module, name in (
        (actions, "matched_pair_search"),
        (actions, "enumerate_left_actions"),
        (actions, "enumerate_right_actions"),
        (actions, "check_module_coalgebras"),
        (actions, "check_matched_pair"),
        (cli, "verify_axioms"),
    ):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "verify"],
        ["catalog", "verify", "--load", "h4.hopf.json"],
        ["actions", "enumerate", "--side", "left"],
        ["actions", "enumerate", "--side", "right"],
        ["matched-pairs", "find"],
        ["matched-pairs", "find", "--load", "pair.json"],
        ["product", "build"],
        ["theorem", "check"],
    ],
    ids=(
        "catalog-verify", "catalog-verify-load", "actions-enumerate-left",
        "actions-enumerate-right", "matched-pairs-find", "matched-pairs-find-load",
        "product-build", "theorem-check",
    ),
)
def test_out_is_a_regular_file_exits_io(tmp_path, capsys, monkeypatch, argv):
    """--out is checked before any work: no search, enumeration, axiom
    battery or pair check runs when it or an ancestor is a regular file."""
    jsonio.write_json(str(tmp_path / "h4.hopf.json"), jsonio.algebra_to_json(build_H4()))
    cand = MatchedPairCandidate(left_family_instance(1, "a"), trivial_right_table())
    jsonio.write_json(str(tmp_path / "pair.json"), jsonio.matched_pair_to_json(cand))
    forbid_work(monkeypatch)
    out = tmp_path / "out"
    out.write_text("not a directory\n", encoding="utf-8")
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    for target in (out, out / "below"):
        assert main(argv + ["--out", str(target)]) == EXIT_IO
        assert_one_line_error(capsys)


@pytest.mark.parametrize(
    "argv", [["matched-pairs", "find"], ["product", "build"], ["theorem", "check"]],
    ids=("matched-pairs-find", "product-build", "theorem-check"),
)
def test_search_out_of_budget_exits_irreducible(tmp_path, capsys, monkeypatch, argv):
    tiny_split_budget(monkeypatch)
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == EXIT_IRREDUCIBLE
    assert_one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "verify", "--budget", "5"],
        ["actions", "enumerate", "--side", "left", "--budget", "5"],
        ["matched-pairs", "find", "--budget", "5"],
        ["product", "build", "--budget", "5"],
        ["theorem", "check", "--budget", "5"],
        ["actions", "enumerate", "--side", "left", "--format", "json"],
        ["matched-pairs", "find", "--format", "json"],
        ["product", "build", "--format", "json"],
    ],
    ids=(
        "catalog-verify-budget", "actions-enumerate-budget", "matched-pairs-find-budget",
        "product-build-budget", "theorem-check-budget", "actions-enumerate-format",
        "matched-pairs-find-format", "product-build-format",
    ),
)
def test_removed_flags_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    """A subcommand takes only the flags it reads; any other is a usage
    error (exit 1, one `error:` line) raised before any work or write."""
    forbid_work(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_CHECK_FAILED
    assert_one_line_error(capsys)
    assert list(tmp_path.iterdir()) == []


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def mutate(payload, data):
    """Replace or delete one node of a JSON payload, chosen by hypothesis."""
    node = payload
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = keys[data.draw(st.integers(0, len(keys) - 1))]
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        if isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(json_values)
        return payload


def run_mutated(tmp_path, capsys, argv, payload):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code = main(argv + [str(path), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_IO)
    if code != EXIT_OK:
        lines = [line for line in captured.err.splitlines() if line]
        assert len(lines) <= 1, captured.err


_FUZZ = settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_FUZZ
@given(data=st.data())
def test_catalog_load_fuzzed_payload_never_crashes(tmp_path, capsys, data):
    payload = mutate(jsonio.algebra_to_json(build_H4()), data)
    run_mutated(tmp_path, capsys, ["catalog", "verify", "--load"], payload)


@_FUZZ
@given(data=st.data())
def test_matched_pair_load_fuzzed_payload_never_crashes(tmp_path, capsys, data):
    cand = MatchedPairCandidate(left_family_instance(1, "a"), trivial_right_table())
    payload = mutate(jsonio.matched_pair_to_json(cand), data)
    run_mutated(tmp_path, capsys, ["matched-pairs", "find", "--load"], payload)


STORED_INPUTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench", "inputs")


@functools.lru_cache(maxsize=None)
def stored_text(name):
    with gzip.open(os.path.join(STORED_INPUTS, name), "rt", encoding="utf-8") as fh:
        return fh.read()


def mutate_leaf(payload, data):
    """Change one leaf of a JSON payload, reached by a uniform choice of key
    at each level: give it another type, delete it, make it a huge int, or
    cut short or grow (by repeating the last item) one list on its path."""
    node, lists = payload, []
    while True:
        if isinstance(node, list):
            lists.append(node)
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child):
            break
        node = child
    kind = data.draw(st.sampled_from(["type", "delete", "huge", "resize"]))
    if kind == "resize" and lists:
        items = data.draw(st.sampled_from(lists))
        n = data.draw(st.integers(0, len(items) + 2))
        items[:] = items[:n] + items[-1:] * (n - len(items))
    elif kind == "delete":
        del node[key]
    elif kind == "huge":
        node[key] = data.draw(st.sampled_from([2**63, -(2**64), 10**100]))
    else:
        node[key] = data.draw(st.sampled_from(["x", None, 1.5, True, [], {}]))
    return payload


@pytest.mark.parametrize(
    "stored, argv",
    [
        ("product-1.hopf.json.gz", ["catalog", "verify", "--load"]),
        ("matched-pair-1.json.gz", ["matched-pairs", "find", "--load"]),
    ],
    ids=("catalog-verify", "matched-pairs-find"),
)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_hostile_stored_file_exits_0_or_1_with_at_most_one_error_line(
    tmp_path, capsys, stored, argv, data
):
    """One leaf of a stored product or matched pair changed: the command
    ends in exit 0 or 1, never in a traceback, and stderr is empty or one
    `error:` line."""
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(mutate_leaf(json.loads(stored_text(stored)), data)),
                    encoding="utf-8")
    code = main(argv + [str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
