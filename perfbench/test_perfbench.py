"""Checks of the benchmark itself: span arithmetic, that tracing patches every
binding of a wrapped entry point, and that a traced run writes the same
artifacts as an untraced one.

Run with: python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import time

import run


def test_self_time_subtracts_direct_children_only():
    spans = [
        [0, -1, "cli", 0, 100],
        [1, 0, "solver.solve", 10, 70],
        [2, 1, "poly.subst_many", 20, 50],
        [3, 0, "poly.subst_many", 80, 90],
    ]
    times = run.self_times(spans)
    assert times["cli"] == (30e-9, 100e-9, 1)
    assert times["solver.solve"] == (30e-9, 60e-9, 1)
    assert times["poly.subst_many"] == (40e-9, 40e-9, 2)


def test_install_patches_every_binding():
    code = (
        "import json, child\n"
        "print(json.dumps(child.install(child.Tracer())))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([run.SRC, run.BENCH]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    patched = set(json.loads(out.stdout))
    for name in (
        "hopffactor.solver.solve",
        "hopffactor.actions.solve",
        "hopffactor.hopf.solve",
        "hopffactor.hopf.verify_axioms",
        "hopffactor.presentations.verify_axioms",
        "hopffactor.bicrossed.verify_axioms",
        "hopffactor.cli.verify_axioms",
        "hopffactor.cli.main",
        "hopffactor.poly.Poly.subst_many",
        "hopffactor.solver.Branch.apply",
    ):
        assert name in patched, name


def test_traced_and_untraced_artifacts_match_the_pins(tmp_path):
    with open(os.path.join(run.BENCH, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    runner = run.Runner(str(tmp_path), seed=7, pins=pins, deadline=time.monotonic() + 170)
    ops = run.operations(str(tmp_path / "inputs"))["enumerate"]
    plain = runner.sequence(ops)
    traced = runner.sequence(ops, traced=True)
    assert runner.failures == []
    assert runner.attempted == 4
    assert plain["traces"] == [None, None]
    layers = run.layer_metrics(traced["traces"])
    assert layers["solver.irreducible.calls"] == 1
    assert layers["solver.branches"] == 16
