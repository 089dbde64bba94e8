"""Child-process entry points of the pipeline benchmark.

Each mode runs in a fresh interpreter started by `perfbench/run.py`:

  python perfbench/child.py setup
      import hopffactor, build H4 and H8, then print one JSON line with the
      CLOCK_MONOTONIC reading at that moment, the scalar backend and the
      package path.  The parent subtracts its own reading taken just before
      the spawn, which gives the set-up time.
  python perfbench/child.py scalar N
      time N iterations of the scalar loop of benchmarks/bench_scalar.py
      (`acc = acc + a * b - a`) and print one JSON line.
  python perfbench/child.py traced SPANS -- ARGS...
      run `hopffactor ARGS...` with every layer entry point wrapped in a
      span, write the spans to SPANS and exit with the CLI's exit code.

Tracing works by wrapping from the outside: the program is not edited.
Each public function in LAYERS is replaced at every module attribute that
binds it (so `solve` is patched in `actions` and `hopf` as well as in
`solver`), and methods are patched on their class.
"""

import json
import sys
import time

# span name -> (module, attribute) entry points; "Class.method" patches the
# method on its class.  Span names are the layer metric names of run.py.
LAYERS = {
    "presentations.build": [
        ("presentations", "build_H4"),
        ("presentations", "build_H8"),
    ],
    "hopf.verify_axioms": [("hopf", "verify_axioms")],
    "hopf.tensor_product": [("hopf", "tensor_product")],
    "hopf.grouplikes": [("hopf", "grouplikes")],
    "hopf.skew_primitives": [("hopf", "skew_primitives")],
    "actions.systems": [
        ("actions", "left_module_coalgebra_system"),
        ("actions", "right_module_coalgebra_system"),
        ("actions", "matched_pair_system"),
        ("actions", "g_action_circulant_system"),
        ("actions", "x_action_circulant_system"),
    ],
    "actions.recheck": [
        ("actions", "check_module_coalgebras"),
        ("actions", "check_matched_pair"),
    ],
    "solver.solve": [("solver", "solve")],
    "solver.branch_apply": [("solver", "Branch.apply")],
    "poly.subst_many": [("poly", "Poly.subst_many")],
    "linalg.mat": [
        ("linalg", "Mat.rank"),
        ("linalg", "Mat.kernel"),
        ("linalg", "Mat.is_invertible"),
    ],
    "bicrossed.build": [("bicrossed", "build_bicrossed")],
    "bicrossed.invariant_report": [("bicrossed", "invariant_report")],
    "bicrossed.checks": [
        ("bicrossed", "check_embeddings"),
        ("bicrossed", "verify_presentation"),
        ("bicrossed", "zx_signature"),
    ],
    "jsonio.write": [("jsonio", "write_json"), ("jsonio", "write_text")],
    "jsonio.load": [
        ("jsonio", "algebra_from_json"),
        ("jsonio", "matched_pair_from_json"),
    ],
    "cli": [("cli", "main")],
}

# Entry points that only mark which caller a solve belongs to; they open
# no span, so their own time stays with the enclosing span.
SCOPES = {
    "search": ("actions", "matched_pair_search"),
    "enumerate-left": ("actions", "enumerate_left_actions"),
    "enumerate-right": ("actions", "enumerate_right_actions"),
}


class Tracer:
    """Spans kept in memory as [id, parent, name, start_ns, end_ns], plus
    named counters; written out once when the traced command ends."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.scopes = []
        self.counters = {}
        self.solves = []

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name, fn, after=None):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            record = [len(self.spans), parent, name, clock(), 0]
            self.spans.append(record)
            self.stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def scope(self, name, fn):
        def wrapper(*args, **kwargs):
            self.scopes.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.scopes.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": self.spans, "counters": self.counters, "solves": self.solves},
                fh,
                separators=(",", ":"),
            )


def _solve_stats(tracer, fn):
    """Wrap solve to record, per call, the system size on entry, provenance
    and branches on return, and the caller scope it ran under."""
    from hopffactor.solver import IrreducibleSystemError

    def wrapper(system, *args, **kwargs):
        system = list(system)
        record = {
            "scope": tracer.scopes[-1] if tracer.scopes else None,
            "constraints": len(system),
            "terms": sum(len(p.terms) for p in system if hasattr(p, "terms")),
        }
        tracer.solves.append(record)
        try:
            sol = fn(system, *args, **kwargs)
        except IrreducibleSystemError:
            record["irreducible"] = True
            raise
        record["splits"] = len(sol.provenance)
        record["branches"] = len(sol.branches)
        record["leaves"] = 1 + sum(len(e["cases"]) - 1 for e in sol.provenance)
        if sol.branches:
            # every branch partitions the full unknown set into substituted and free
            first = sol.branches[0]
            record["unknowns"] = len(first.subst) + len(first.free)
        return sol

    wrapper.__wrapped__ = fn
    return wrapper


def _bind(replacements):
    """Swap each original object for its wrapper at every attribute of a
    loaded hopffactor module that binds it; returns the patched names."""
    patched = []
    for modname, module in sorted(sys.modules.items()):
        if module is None or not (modname == "hopffactor" or modname.startswith("hopffactor.")):
            continue
        for attr, value in list(vars(module).items()):
            for original, wrapper in replacements:
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append(f"{modname}.{attr}")
    return patched


def install(tracer):
    """Wrap every entry point in LAYERS and SCOPES; returns the list of
    module attributes and methods that now route through the tracer."""
    import importlib

    import hopffactor.cli  # noqa: F401  (loads every module that binds an entry point)

    def module(name):
        return importlib.import_module(f"hopffactor.{name}")

    def after_subst(args, kwargs, result):
        tracer.count("poly.subst_many.terms_out", len(result.terms))

    def after_write(args, kwargs, result):
        tracer.count("jsonio.bytes_written", len(args[1].encode("utf-8")))

    after = {
        ("poly", "Poly.subst_many"): after_subst,
        ("jsonio", "write_text"): after_write,
    }
    replacements = []
    patched = []
    for name, targets in LAYERS.items():
        for modname, attr in targets:
            owner = module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, tracer.span(name, getattr(cls, meth), after.get((modname, attr))))
                patched.append(f"hopffactor.{modname}.{attr}")
                continue
            original = getattr(owner, attr)
            wrapped = tracer.span(name, original, after.get((modname, attr)))
            if (modname, attr) == ("solver", "solve"):
                wrapped = _solve_stats(tracer, wrapped)
            replacements.append((original, wrapped))
    for name, (modname, attr) in SCOPES.items():
        original = getattr(module(modname), attr)
        replacements.append((original, tracer.scope(name, original)))
    return patched + _bind(replacements)


def run_traced(spans_path, argv):
    tracer = Tracer()
    install(tracer)
    from hopffactor import cli

    try:
        code = cli.main(argv)
    finally:
        tracer.dump(spans_path)
    return code


def run_setup():
    import hopffactor
    from hopffactor.presentations import build_H4, build_H8

    build_H4()
    build_H8()
    done = time.monotonic_ns()
    from hopffactor.scalar import BACKEND

    print(json.dumps({"done_ns": done, "backend": BACKEND, "package": hopffactor.__file__}))
    return 0


def run_scalar(n):
    from hopffactor.scalar import Scalar

    a = Scalar(3, 7, 1, 2)
    b = Scalar(-5, 11, 2, 3)
    acc = Scalar(0)
    t0 = time.perf_counter()
    for _ in range(n):
        acc = acc + a * b - a
    elapsed = time.perf_counter() - t0
    if acc.is_zero():
        print("scalar loop produced zero", file=sys.stderr)
        return 1
    print(json.dumps({"iterations": n, "seconds": elapsed}))
    return 0


def main(argv):
    mode = argv[0] if argv else ""
    if mode == "setup":
        return run_setup()
    if mode == "scalar":
        return run_scalar(int(argv[1]))
    if mode == "traced" and len(argv) >= 3 and argv[2] == "--":
        return run_traced(argv[1], argv[3:])
    print("usage: child.py setup | scalar N | traced SPANS -- ARGS...", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
