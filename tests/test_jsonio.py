"""Byte-reproducible file output: atomic writes through a unique temp file;
and the `hopf-algebra/v1` loader's rule for repeated entries and the
memory it holds."""

import hashlib
import json
import os
import tracemalloc

import pytest

from hopffactor import jsonio
from hopffactor.cli import EXIT_CHECK_FAILED, main
from hopffactor.presentations import build_H4


def test_write_text_replaces_the_target_with_open_mode(tmp_path):
    target = tmp_path / "sub" / "artifact.json"
    jsonio.write_text(str(target), "first\n")
    jsonio.write_text(str(target), "second\n")
    assert target.read_text(encoding="utf-8") == "second\n"
    reference = tmp_path / "reference"
    reference.write_text("", encoding="utf-8")
    assert target.stat().st_mode & 0o777 == reference.stat().st_mode & 0o777
    assert sorted(os.listdir(target.parent)) == ["artifact.json"]


def test_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "artifact.json"
    jsonio.write_text(str(target), "kept\n")
    with pytest.raises(UnicodeEncodeError):
        jsonio.write_text(str(target), "lone surrogate \ud800")
    assert sorted(os.listdir(tmp_path)) == ["artifact.json"]
    assert target.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("table", ["mul", "comul", "antipode"])
def test_repeated_entries_are_summed(table):
    # one H4 entry stored as two halves loads as H4 itself, in every table
    H4 = build_H4()
    payload = jsonio.algebra_to_json(H4)
    entry = payload[table][-1]
    rn, rd, imn, imd = entry[-1]
    half = [*entry[:-1], [rn, 2 * rd, imn, 2 * imd]]
    payload[table] = payload[table][:-1] + [half, half]
    loaded = jsonio.algebra_from_json(payload)
    assert loaded.structure_key() == H4.structure_key()


def empty_tables(dim):
    """A hopf-algebra/v1 payload of a few KB whose mul, comul and antipode
    tables are empty: it names dim^3 multiplication slots and fills none."""
    one, zero = [1, 1, 0, 1], [0, 1, 0, 1]
    return {
        "schema": "hopf-algebra/v1",
        "name": "empty",
        "dim": dim,
        "basis": [f"e{i}" for i in range(dim)],
        "unit": [one] + [zero] * (dim - 1),
        "counit": [one] * dim,
        "mul": [],
        "comul": [],
        "antipode": [],
    }


def test_loader_memory_follows_the_file_not_dim_cubed():
    # 34.1 MB traced peak when the loader filled a dense dim^3 table
    payload = empty_tables(128)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        H = jsonio.algebra_from_json(payload)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert H.dim == 128
    assert peak < 2_000_000, peak


# the axiom report of the dim-128 file with empty tables, as written when
# the associativity check still visited every one of the dim^3 triples
EMPTY_REPORT_SHA256 = "64f9c69ee504173bb4b73e42d67106caf88112ef4a16e8f3ed6afba52d203860"
EMPTY_WITNESS_COUNTS = {
    "associativity": 0,
    "unit": 256,
    "coassociativity": 0,
    "counit": 256,
    "comultiplication-multiplicative": 1,
    "counit-multiplicative": 16384,
    "antipode": 256,
}


def test_verify_load_of_empty_tables_fails_the_axioms(tmp_path, capsys):
    path = tmp_path / "empty.hopf.json"
    path.write_text(json.dumps(empty_tables(128)), encoding="utf-8")
    code = main(["catalog", "verify", "--load", str(path), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == EXIT_CHECK_FAILED
    assert captured.out == "empty: dim 128, axiom checks FAILED\n"
    assert captured.err == ""
    report = (tmp_path / "o" / "empty.axiom-report.json").read_bytes()
    counts = {a["name"]: a["witness_count"] for a in json.loads(report)["axioms"]}
    assert counts == EMPTY_WITNESS_COUNTS
    assert hashlib.sha256(report).hexdigest() == EMPTY_REPORT_SHA256
