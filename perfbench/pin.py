"""Regenerate perfbench/pins.json and perfbench/inputs/ from the current sources.

Usage: python3 perfbench/pin.py

Runs every well-formed operation of run.py once and pins its exit code,
stdout lines and the sha256 of every artifact it writes.  The `audit`
inputs are the product and matched-pair files that `theorem check`
writes, stored gzipped.  The two malformed-file operations are pinned to
the documented outcome (exit 1 or 2, a one-line `error:` message, no
artifacts), not to what the program does.  The pins in the repository
were made this way at the commit that added the benchmark; regenerate
them only for a change that is meant to alter the artifacts.
"""

import gzip
import json
import os
import shutil
import sys
import time

import run

MALFORMED_PIN = {"exit": [1, 2], "stdout": [], "stderr_prefix": "error:", "artifacts": {}}


def pin_operation(name, args, env, work):
    op_dir = os.path.join(work, name)
    os.makedirs(op_dir)
    out_dir = os.path.join(op_dir, "out")
    result = run.spawn([sys.executable, "-m", "hopffactor.cli"] + args + ["--out", out_dir],
                       env, op_dir, time.monotonic() + 600)
    if "Traceback" in result["stderr"]:
        raise SystemExit(f"{name} raised:\n{result['stderr']}")
    artifacts = {f: run.sha256_file(os.path.join(out_dir, f)) for f in sorted(os.listdir(out_dir))}
    pin = {"exit": [result["exit"]], "stdout": result["stdout"].splitlines(), "artifacts": artifacts}
    print(f"{name}: exit {result['exit']}, {len(artifacts)} artifact(s)")
    return pin, out_dir


def main():
    work = os.path.join(run.ROOT, ".bench_work", "pin")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = run.child_env(0)
    try:
        pins = {}
        pins["theorem"], out_dir = pin_operation("theorem", ["theorem", "check"], env, work)
        stored = os.path.join(run.BENCH, "inputs")
        os.makedirs(stored, exist_ok=True)
        for name in run.PRODUCTS + run.PAIRS:
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = gzip.compress(fh.read(), compresslevel=9, mtime=0)
            with open(os.path.join(stored, name + ".gz"), "wb") as fh:
                fh.write(data)
        inputs = os.path.join(work, "inputs")
        run.prepare_inputs(inputs, pins)
        ops = run.operations(inputs)
        for workload in ("audit", "enumerate"):
            for name, args in ops[workload]:
                if name in run.MALFORMED_OPS:
                    pins[name] = MALFORMED_PIN
                else:
                    pins[name] = pin_operation(name, args, env, work)[0]
        with open(os.path.join(run.BENCH, "pins.json"), "w", encoding="utf-8") as fh:
            json.dump(pins, fh, indent=2, sort_keys=True)
            fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
