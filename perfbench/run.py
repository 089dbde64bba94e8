"""Pipeline benchmark of hopffactor: the CLI driven from outside, as a user runs it.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload theorem|audit|enumerate|all \
      --seed N --seconds S --trace 0|1

`all` runs the three workloads one after another and prefixes each metric
of the last line with its workload.

Workloads (each operation is one CLI command in a fresh interpreter):

  theorem    `theorem check`: the user-facing claim.  About 60% of it is
             the matched-pair solve on 4,998 constraints / 252 unknowns.
  audit      replay of stored artifacts: `catalog verify --load` on the four
             product files, `matched-pairs find --load` on the four pair
             files, `catalog verify --algebra all`, and two malformed files
             (a hopf-algebra/v1 file without `dim`, a matched-pair file with
             a zero denominator).  It never calls the solver, so a solver or
             Poly change must predict "no change" here.
  enumerate  `actions enumerate --side left` (16 families) and `--side right`
             (exit 3, residual written): the solver on systems ~5x smaller.

The loop is closed with one client: the next command starts when the last
has been reaped, one child at a time.  The pipeline takes no random input;
the seed becomes PYTHONHASHSEED of every child, so the pinned artifact
digests also check that output does not depend on the hash seed.

Every command runs in a fresh interpreter because the program memoises
across calls in one process (_SEARCH_CACHE, _GROUPLIKE_CACHE, _SKEW_CACHE,
_MONO_CACHE and the lru_cache on build_H4/build_H8); an in-process repeat
would measure a different program from the one users run.

An operation fails on an unexpected exit code, a missing verdict line, an
artifact set or sha256 that differs from perfbench/pins.json (made by
perfbench/pin.py at the commit that added the benchmark), or a traceback
on stderr.  The two malformed-file operations of `audit` are expected to
end in exit 1 or 2 with a one-line error; the program answers them with a
traceback, so they count as failed until the loaders are fixed.  `correct`
is false when any other operation fails.

--trace 0 prints the end-to-end metrics: medians of wall_s, cpu_s and
peak_rss_mb per command sequence, and setup_s, the median over several
children of the time from spawn until hopffactor is imported and
build_H4()/build_H8() have returned.

--trace 1 runs each sequence once untraced and once through
perfbench/child.py, which wraps every layer entry point in a span, and
prints the per-layer metrics: self times of each layer (span time minus
nested spans), counts, and trace.overhead_s, the traced minus the untraced
wall time.
"""

import argparse
import gzip
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")

RUN_LIMIT_S = 170  # every run ends well inside the 180 s a run may take
SETUP_PROBES = 9
SCALAR_ITERATIONS = 200_000

PRODUCTS = [f"product-{n}.hopf.json" for n in range(1, 5)]
PAIRS = [f"matched-pair-{n}.json" for n in range(1, 5)]
MALFORMED_OPS = ("load-without-dim", "load-zero-denominator")
WORKLOADS = ("theorem", "audit", "enumerate")


def operations(inputs):
    """workload -> [(operation name, CLI arguments)]."""
    audit = [
        (f"verify-{name}", ["catalog", "verify", "--load", os.path.join(inputs, name)])
        for name in PRODUCTS
    ]
    audit += [
        (f"replay-{name}", ["matched-pairs", "find", "--load", os.path.join(inputs, name)])
        for name in PAIRS
    ]
    audit += [
        ("catalog-all", ["catalog", "verify", "--algebra", "all"]),
        ("load-without-dim", ["catalog", "verify", "--load", os.path.join(inputs, "no-dim.hopf.json")]),
        ("load-zero-denominator", ["matched-pairs", "find", "--load", os.path.join(inputs, "zero-denominator.json")]),
    ]
    return {
        "theorem": [("theorem", ["theorem", "check"])],
        "audit": audit,
        "enumerate": [
            ("enumerate-left", ["actions", "enumerate", "--side", "left"]),
            ("enumerate-right", ["actions", "enumerate", "--side", "right"]),
        ],
    }


# name, unit.  Times are self times unless stated otherwise in layer_metrics.
PER_LAYER = [
    ("presentations.build_s", "s"),
    ("hopf.verify_axioms_s", "s"),
    ("hopf.verify_axioms.calls", "count"),
    ("hopf.tensor_product_s", "s"),
    ("hopf.grouplikes_s", "s"),
    ("hopf.skew_primitives_s", "s"),
    ("hopf.skew_primitives.calls", "count"),
    ("actions.systems_s", "s"),
    ("actions.constraints", "count"),
    ("actions.terms", "count"),
    ("actions.unknowns", "count"),
    ("actions.recheck_s", "s"),
    ("solver.solve_s", "s"),
    ("solver.solve.calls", "count"),
    ("solver.splits", "count"),
    ("solver.branches", "count"),
    ("solver.branch_yield", "ratio"),
    ("solver.branch_apply_s", "s"),
    ("solver.irreducible.calls", "count"),
    ("poly.subst_many_s", "s"),
    ("poly.subst_many.calls", "count"),
    ("poly.subst_many.terms_out", "count"),
    ("poly.subst_many.terms_per_s", "1/s"),
    ("scalar.ops_per_s", "1/s"),
    ("linalg.mat_s", "s"),
    ("linalg.mat.calls", "count"),
    ("bicrossed.build_s", "s"),
    ("bicrossed.invariant_report_s", "s"),
    ("bicrossed.checks_s", "s"),
    ("jsonio.write_s", "s"),
    ("jsonio.bytes_written", "bytes"),
    ("jsonio.load_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- children --------------------------------------------------------------------


def child_env(seed):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "HOPF_BUDGET", "HOPFFACTOR_PURE", "PYTHONHASHSEED")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env


def spawn(argv, env, cwd, deadline):
    """Run one child to completion and measure it.  A child still running at
    the deadline is killed, which shows as a negative exit code."""
    out_path = os.path.join(cwd, "stdout.txt")
    err_path = os.path.join(cwd, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0_ns = time.monotonic_ns()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.1), proc.kill)
        killer.start()
        try:
            # wait4 gives this child's own rusage; Popen.wait would discard it
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {
        "exit": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "stdout": stdout,
        "stderr": stderr,
        "spawn_ns": t0_ns,
    }


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check(pin, result, out_dir):
    """Reasons the operation failed against its pin (empty when it passed)."""
    reasons = []
    if result["exit"] not in pin["exit"]:
        reasons.append(f"exit {result['exit']}, expected one of {pin['exit']}")
    if "Traceback (most recent call last)" in result["stderr"]:
        last = result["stderr"].strip().splitlines()[-1]
        reasons.append(f"traceback on stderr: {last}")
    lines = result["stdout"].splitlines()
    for line in pin["stdout"]:
        if line not in lines:
            reasons.append(f"missing verdict line {line!r}")
    prefix = pin.get("stderr_prefix")
    if prefix and not any(l.startswith(prefix) for l in result["stderr"].splitlines()):
        reasons.append(f"no stderr line starting with {prefix!r}")
    written = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    if written != sorted(pin["artifacts"]):
        reasons.append(f"artifacts {written}, expected {sorted(pin['artifacts'])}")
    else:
        for name in written:
            if sha256_file(os.path.join(out_dir, name)) != pin["artifacts"][name]:
                reasons.append(f"sha256 of {name} differs from the pinned reference")
    return reasons


class Runner:
    """Runs operations one at a time in fresh interpreters and checks them."""

    def __init__(self, work, seed, pins, deadline):
        self.work = work
        self.env = child_env(seed)
        self.pins = pins
        self.deadline = deadline
        self.attempted = 0
        self.failures = []  # (operation, label, reasons)
        self._n = 0

    def _fresh_dir(self):
        self._n += 1
        path = os.path.join(self.work, f"op-{self._n}")
        os.makedirs(path)
        return path

    def operation(self, name, args, traced=False):
        """One CLI command; returns its measurement (plus spans when traced)."""
        op_dir = self._fresh_dir()
        out_dir = os.path.join(op_dir, "out")
        cli = args + ["--out", out_dir]
        if traced:
            spans_path = os.path.join(op_dir, "spans.json")
            argv = [sys.executable, CHILD, "traced", spans_path, "--"] + cli
        else:
            argv = [sys.executable, "-m", "hopffactor.cli"] + cli
        result = spawn(argv, self.env, op_dir, self.deadline)
        self.attempted += 1
        reasons = check(self.pins[name], result, out_dir)
        if traced:
            try:
                with open(spans_path, encoding="utf-8") as fh:
                    result["trace"] = json.load(fh)
            except (OSError, ValueError):
                result["trace"] = None
                reasons.append("no span file written")
        if reasons:
            self.failures.append((name, name + (" (traced)" if traced else ""), reasons))
        shutil.rmtree(op_dir)
        return result

    def sequence(self, ops, traced=False):
        results = [self.operation(name, args, traced) for name, args in ops]
        return {
            "wall": sum(r["wall"] for r in results),
            "cpu": sum(r["cpu"] for r in results),
            "rss_mb": max(r["rss_mb"] for r in results),
            "traces": [r.get("trace") for r in results],
        }

    def probe(self, mode_args):
        """A child of perfbench/child.py that prints one JSON line."""
        op_dir = self._fresh_dir()
        result = spawn([sys.executable, CHILD] + mode_args, self.env, op_dir, self.deadline)
        shutil.rmtree(op_dir)
        if result["exit"] != 0:
            raise BenchError(f"child {mode_args[0]} failed: {result['stderr'].strip()[-500:]}")
        return result, json.loads(result["stdout"].strip().splitlines()[-1])

    def setup_time(self):
        """Spawn until hopffactor is imported and H4/H8 are built, in seconds."""
        result, info = self.probe(["setup"])
        package = os.path.realpath(info["package"])
        if not package.startswith(os.path.realpath(SRC) + os.sep):
            raise BenchError(f"children import hopffactor from {package}, not from {SRC}")
        return (info["done_ns"] - result["spawn_ns"]) / 1e9, info["backend"]


# -- inputs ------------------------------------------------------------------------


def prepare_inputs(inputs, pins):
    """Unpack the stored theorem artifacts (checked against the theorem pins)
    and derive the two malformed files from them."""
    os.makedirs(inputs)
    expected = pins["theorem"]["artifacts"]
    for name in PRODUCTS + PAIRS:
        with gzip.open(os.path.join(BENCH, "inputs", name + ".gz"), "rb") as fh:
            data = fh.read()
        if hashlib.sha256(data).hexdigest() != expected[name]:
            raise BenchError(f"stored input {name} does not match its pinned sha256")
        with open(os.path.join(inputs, name), "wb") as fh:
            fh.write(data)

    def rewrite(source, target, mutate):
        with open(os.path.join(inputs, source), encoding="utf-8") as fh:
            payload = json.load(fh)
        mutate(payload)
        with open(os.path.join(inputs, target), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    def drop_dim(payload):
        del payload["dim"]

    def zero_denominator(payload):
        # first left-action entry, first coefficient: [re_num, re_den, im_num, im_den]
        payload["left"]["entries"][0][2][0][1] = 0

    rewrite(PRODUCTS[0], "no-dim.hopf.json", drop_dim)
    rewrite(PAIRS[0], "zero-denominator.json", zero_denominator)


# -- metrics -----------------------------------------------------------------------


def self_times(spans):
    """name -> (summed self seconds, summed inclusive seconds, calls)."""
    child_total = [0] * len(spans)
    for sid, parent, _name, start, end in spans:
        if parent >= 0:
            child_total[parent] += end - start
    out = {}
    for sid, _parent, name, start, end in spans:
        own, incl, calls = out.get(name, (0.0, 0.0, 0))
        out[name] = (own + (end - start - child_total[sid]) / 1e9,
                     incl + (end - start) / 1e9, calls + 1)
    return out


def layer_metrics(traces):
    """Per-layer metrics of one traced command sequence."""
    times = {}
    counters = {}
    solves = []
    for trace in traces:
        if trace is None:
            continue
        for name, (own, incl, calls) in self_times(trace["spans"]).items():
            a, b, c = times.get(name, (0.0, 0.0, 0))
            times[name] = (a + own, b + incl, c + calls)
        for name, n in trace["counters"].items():
            counters[name] = counters.get(name, 0) + n
        solves.extend(trace["solves"])

    def own(name):
        return times.get(name, (0.0, 0.0, 0))[0]

    def calls(name):
        return times.get(name, (0.0, 0.0, 0))[2]

    search = [s for s in solves if s["scope"] == "search"]
    # splits, branches and yield count the action solves (enumerations and the
    # matched-pair search); the group-like solve is timed but not counted here
    actions = [s for s in solves if s["scope"] is not None and "branches" in s]
    branches = sum(s["branches"] for s in actions)
    leaves = sum(s["leaves"] for s in actions)
    subst_s = own("poly.subst_many")
    terms_out = counters.get("poly.subst_many.terms_out", 0)
    return {
        "presentations.build_s": own("presentations.build"),
        "hopf.verify_axioms_s": own("hopf.verify_axioms"),
        "hopf.verify_axioms.calls": calls("hopf.verify_axioms"),
        "hopf.tensor_product_s": own("hopf.tensor_product"),
        "hopf.grouplikes_s": own("hopf.grouplikes"),
        "hopf.skew_primitives_s": own("hopf.skew_primitives"),
        "hopf.skew_primitives.calls": calls("hopf.skew_primitives"),
        "actions.systems_s": own("actions.systems"),
        "actions.constraints": sum(s["constraints"] for s in search),
        "actions.terms": sum(s["terms"] for s in search),
        "actions.unknowns": sum(s.get("unknowns", 0) for s in search),
        "actions.recheck_s": own("actions.recheck"),
        "solver.solve_s": own("solver.solve"),
        "solver.solve.calls": calls("solver.solve"),
        "solver.splits": sum(s["splits"] for s in actions),
        "solver.branches": branches,
        "solver.branch_yield": branches / leaves if leaves else 0.0,
        # inclusive: Branch.apply is one subst_many call, so its self time
        # would be the call overhead only
        "solver.branch_apply_s": times.get("solver.branch_apply", (0.0, 0.0, 0))[1],
        "solver.irreducible.calls": sum(1 for s in solves if s.get("irreducible")),
        "poly.subst_many_s": subst_s,
        "poly.subst_many.calls": calls("poly.subst_many"),
        "poly.subst_many.terms_out": terms_out,
        "poly.subst_many.terms_per_s": terms_out / subst_s if subst_s else 0.0,
        "linalg.mat_s": own("linalg.mat"),
        "linalg.mat.calls": calls("linalg.mat"),
        "bicrossed.build_s": own("bicrossed.build"),
        "bicrossed.invariant_report_s": own("bicrossed.invariant_report"),
        "bicrossed.checks_s": own("bicrossed.checks"),
        "jsonio.write_s": own("jsonio.write"),
        "jsonio.bytes_written": counters.get("jsonio.bytes_written", 0),
        "jsonio.load_s": own("jsonio.load"),
        "cli.self_s": own("cli"),
    }


# -- environment -------------------------------------------------------------------


def environment(backend):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        revision = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hopffactor")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": sys.version.split()[0],
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "scalar_backend": backend,
    }


# -- main --------------------------------------------------------------------------


def run(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "hopffactor", "cli.py")):
        raise BenchError(f"no hopffactor sources under {SRC}")
    with open(os.path.join(BENCH, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        inputs = os.path.join(work, "inputs")
        prepare_inputs(inputs, pins)
        ops = operations(inputs)[workload]
        runner = Runner(work, seed, pins, deadline)

        setups = []
        backend = None
        for _ in range(SETUP_PROBES):
            t, backend = runner.setup_time()
            setups.append(t)

        # closed loop: start another sequence only while it is expected to end
        # inside the measuring window; always at least one
        t0 = time.monotonic()
        plain, traced, rounds = [], [], []
        while True:
            round_start = time.monotonic()
            plain.append(runner.sequence(ops))
            if trace:
                traced.append(runner.sequence(ops, traced=True))
            rounds.append(time.monotonic() - round_start)
            if time.monotonic() - t0 + statistics.median(rounds) > seconds:
                break

        metrics = {}
        if trace:
            layers = [layer_metrics(s["traces"]) for s in traced]
            _, scalar = runner.probe(["scalar", str(SCALAR_ITERATIONS)])
            for name, unit in PER_LAYER:
                if name == "scalar.ops_per_s":
                    value, n = scalar["iterations"] / scalar["seconds"], 1
                elif name == "trace.overhead_s":
                    value = (statistics.median(s["wall"] for s in traced)
                             - statistics.median(s["wall"] for s in plain))
                    n = len(traced)
                else:
                    value, n = statistics.median(l[name] for l in layers), len(layers)
                metrics[name] = (value, unit, n)
        else:
            metrics["wall_s"] = (statistics.median(s["wall"] for s in plain), "s", len(plain))
            metrics["cpu_s"] = (statistics.median(s["cpu"] for s in plain), "s", len(plain))
            metrics["peak_rss_mb"] = (statistics.median(s["rss_mb"] for s in plain), "MB", len(plain))
            metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    labels = [label for _, label, _ in runner.failures]
    print(f"workload {workload}: seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{len(plain)} sequence(s) of {len(ops)} command(s)")
    print("environment: " + json.dumps(environment(backend), sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit:6s} median of {n}")
    ratio = len(labels) / runner.attempted
    print(f"  {'failed_ratio':32s} {ratio:14.6f} {'ratio':6s} "
          f"{len(labels)} of {runner.attempted} operations")
    for label in dict.fromkeys(labels):
        reasons = next(r for _, l, r in runner.failures if l == label)
        print(f"  failed {label} ({labels.count(label)}x): {'; '.join(reasons)}")
    return {
        "correct": all(name in MALFORMED_OPS for name, _, _ in runner.failures),
        "attempted": runner.attempted,
        "failed": len(labels),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all three one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run(w, args.seed, args.seconds, args.trace) for w in names}
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
