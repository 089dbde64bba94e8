"""Byte-reproducible file output: atomic writes through a unique temp file;
and the `hopf-algebra/v1` loader's rule for repeated entries."""

import os

import pytest

from hopffactor import jsonio
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
