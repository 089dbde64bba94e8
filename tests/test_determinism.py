"""Determinism across process and hash-seed boundaries.

Two cold interpreters with different PYTHONHASHSEED values run the left
enumeration; the solution files they write must be byte-identical and equal
to the digest pinned from the published run.  The file carries the solver's
provenance (split constraints rendered at their current scale), so any
dependence of the solver on set or dict iteration order shows up here.
"""

import hashlib
import os
import subprocess
import sys

import hopffactor

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hopffactor.__file__)))

# the "enumerate-left" artifact digest in perfbench/pins.json
LEFT_SOLUTIONS_SHA256 = "aae79ab7bd73ba4d2cea668d1864752fe06d81d9ad072e0ea8e0bf31590ce3e7"


def enumerate_left(out, seed):
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=pythonpath)
    subprocess.run(
        [sys.executable, "-m", "hopffactor.cli", "actions", "enumerate", "--side", "left",
         "--out", str(out)],
        env=env, check=True, capture_output=True, timeout=120,
    )
    return (out / "actions-left.solutions.json").read_bytes()


def test_left_enumeration_is_byte_identical_across_hash_seeds(tmp_path):
    first = enumerate_left(tmp_path / "seed1", 1)
    second = enumerate_left(tmp_path / "seed2", 2)
    assert first == second
    assert hashlib.sha256(first).hexdigest() == LEFT_SOLUTIONS_SHA256
