"""The package namespace: public names load their module on first use, and a
cold interpreter loads only the layers a command runs."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import hopffactor
from hopffactor import jsonio
from hopffactor.hopf import tensor_product
from hopffactor.presentations import build_H4, build_H8

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hopffactor.__file__)))

EXPECTED_ALL = [
    "AxiomReport", "BACKEND", "BicrossedProduct", "Branch", "Element",
    "HopfAlgebraData", "IrreducibleSystemError", "LeftActionTable", "Mat",
    "MatchedPairCandidate", "Poly", "RightActionTable", "Scalar", "SolutionSet",
    "build_H4", "build_H8", "build_bicrossed", "check_matched_pair",
    "enumerate_left_actions", "enumerate_right_actions", "find_matched_pairs",
    "gaussian_sqrt", "grouplikes", "invariant_report", "is_grouplike",
    "left_module_coalgebra_system", "matched_pair_search", "matched_pair_system",
    "right_module_coalgebra_system", "skew_primitives", "solve", "tensor_product",
    "verify_axioms", "verify_presentation", "zx_signature", "__version__",
]

# the layers that only solving, product building or replaying pairs need
SOLVER_SIDE = {"hopffactor.actions", "hopffactor.bicrossed"}

# runs in a fresh interpreter; prints the loaded module names after set-up
# and after one CLI command given as arguments
PROBE = """
import json, sys
import hopffactor
hopffactor.build_H4()
hopffactor.build_H8()
setup = sorted(sys.modules)
from hopffactor import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"setup": setup, "code": code, "command": sorted(sys.modules)}))
"""


def test_all_is_unchanged():
    assert hopffactor.__all__ == EXPECTED_ALL


def test_public_names_are_the_objects_of_their_home_module():
    for name in EXPECTED_ALL[:-1]:
        value = getattr(hopffactor, name)
        home = importlib.import_module(f"hopffactor.{hopffactor._HOME[name]}")
        assert value is getattr(home, name), name
        # the table names the defining module, not one that re-exports the name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_dir_and_star_import_cover_every_public_name():
    assert set(EXPECTED_ALL) <= set(dir(hopffactor))
    namespace = {}
    exec("from hopffactor import *", namespace)
    for name in EXPECTED_ALL:
        assert namespace[name] is getattr(hopffactor, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hopffactor.no_such_name
    assert not hasattr(hopffactor, "jsonio_typo")


def test_cold_start_loads_only_the_layers_a_command_runs(tmp_path):
    stored = tmp_path / "h8xh4.hopf.json"
    jsonio.write_json(str(stored), jsonio.algebra_to_json(tensor_product(build_H8(), build_H4())))
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, "catalog", "verify", "--load", str(stored),
         "--out", str(tmp_path / "out")],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    seen = json.loads(out.stdout.splitlines()[-1])
    setup, command = set(seen["setup"]), set(seen["command"])
    assert "hopffactor.presentations" in setup
    assert not setup & (SOLVER_SIDE | {"hopffactor.jsonio", "hopffactor.cli", "dataclasses"})
    assert seen["code"] == 0
    assert "hopffactor.jsonio" in command
    assert not command & (SOLVER_SIDE | {"dataclasses"})
