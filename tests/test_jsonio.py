"""Byte-reproducible file output: atomic writes through a unique temp file."""

import os

import pytest

from hopffactor import jsonio


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
