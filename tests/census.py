"""Reachability census: every def in src/hopffactor is run by the command
line or is allowlisted with a reason.

    python tests/census.py

imports the package from src/, lists every `def` in it with `ast`, runs
the ten command-line forms in FORMS in this one process under
`sys.setprofile`, and exits 1 unless the defs that no form called are
exactly the names in ALLOWLIST.  It prints the difference both ways: a
def that became unreached and is not listed, and a listed def that a
form now calls (or that is gone).
"""

import ast
import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "hopffactor")

# The defs no form calls, "module:qualname" -> reason.  A reason is one of
# five kinds, each checked by tests/test_census.py:
#   "perfbench: SPAN"        bound in perfbench/child.py LAYERS[SPAN] or SCOPES[SPAN]
#   "perfbench: via NAME"    called by NAME, itself listed here as perfbench
#   "public: ..."            a name in hopffactor.__all__, or the package
#                            hook that resolves those names
#   "failure path: TEST"     a failure path, reached by TEST (file::function)
#   "rule: TEST"             a library rule or method that no command-line
#                            system takes, run by TEST (file::function)
#   "protocol: ..."          an equality, hash, truth or text protocol method
ALLOWLIST = {
    "actions:matched_pair_system": "perfbench: actions.systems",
    "actions:g_action_circulant_system": "perfbench: actions.systems",
    "actions:x_action_circulant_system": "perfbench: actions.systems",
    "actions:_circulant_system": "perfbench: via actions:g_action_circulant_system",
    "actions:_circulant": "perfbench: via actions:_circulant_system",
    "actions:_fixed_grouplike_right_table": "perfbench: via actions:_circulant_system",
    "linalg:Mat.kernel": "perfbench: linalg.mat",
    "poly:Poly.subst_many": "perfbench: poly.subst_many",
    "solver:Branch.apply": "perfbench: solver.branch_apply",
    "actions:find_matched_pairs": "public: find_matched_pairs, the README's library example",
    "__init__:__getattr__": "public: loads the module of an __all__ name on first use",
    "__init__:__dir__": "public: lists every __all__ name before it is loaded",
    "actions:CheckFailure.__str__": (
        "failure path: tests/test_actions.py::test_search_rejects_a_pair_the_direct_checks_fail"
    ),
    "actions:_tensor_render": (
        "failure path: tests/test_actions.py::test_trivial_left_with_antidiagonal_right_fails_exchange"
    ),
    "actions:check_module_coalgebra.<locals>.at": (
        "failure path: tests/test_engine_pins.py::test_check_failures_pinned_left_units"
    ),
    "cli:_Parser.error": "failure path: tests/test_cli.py::test_removed_flags_are_usage_errors",
    # the content split v*q = 0 -> v = 0 | q = 0 builds its quotient only
    # once chosen, and no system of the command line chooses one
    "poly:Poly.divide_by_var": "rule: tests/test_solver.py::test_product_split",
    # containment of one public Branch in another; the solver's own
    # canonicalisation applies the same rule through batches it builds once
    # per branch, so only library callers reach this entry point
    "solver:Branch.contains": "rule: tests/test_solver.py::test_branch_containment",
    # n - x for an int or Scalar n; the engine only ever subtracts from a
    # Scalar or a Poly, which takes __sub__
    "scalar:Scalar.__rsub__": (
        "rule: tests/test_scalar.py::test_arithmetic_matches_a_fraction_oracle"
    ),
    "poly:Poly.__rsub__": (
        "rule: tests/test_poly_oracle.py::test_arithmetic_matches_scalar_reference"
    ),
    "hopf:AxiomCheck.__repr__": "protocol: repr",
    "hopf:AxiomReport.__repr__": "protocol: repr",
    "hopf:HopfAlgebraData.__repr__": "protocol: repr",
    "hopf:Element.__hash__": "protocol: hash, consistent with ==",
    "poly:Poly.__hash__": "protocol: hash, consistent with ==",
    "poly:Poly.__repr__": "protocol: repr",
    "poly:Poly.__str__": "protocol: str, the rendered text",
    "scalar:Scalar.__bool__": "protocol: truth, false exactly when == 0",
    "scalar:Scalar.__hash__": "protocol: hash, consistent with == (ints included)",
    "scalar:Scalar.__repr__": "protocol: repr",
    "solver:Branch.__eq__": "protocol: equality of substitutions",
    "solver:Branch.__hash__": "protocol: hash, consistent with ==",
    "solver:Branch.__repr__": "protocol: repr",
    "solver:SolutionSet.__repr__": "protocol: repr",
}

# argv, expected exit code; {out} is a fresh directory per form and {stored}
# the directory the earlier forms wrote their artifacts to
FORMS = [
    (["catalog", "verify", "--out", "{stored}"], 0),
    (["catalog", "verify", "--format", "markdown", "--out", "{out}"], 0),
    (["catalog", "verify", "--load", "{stored}/h8.hopf.json", "--out", "{out}"], 0),
    (["actions", "enumerate", "--side", "left", "--out", "{out}"], 0),
    (["actions", "enumerate", "--side", "right", "--out", "{out}"], 3),
    (["matched-pairs", "find", "--out", "{stored}"], 0),
    (["matched-pairs", "find", "--load", "{stored}/matched-pair-1.json", "--out", "{out}"], 0),
    (["product", "build", "--out", "{out}"], 0),
    (["theorem", "check", "--out", "{out}"], 0),
    (["theorem", "check", "--format", "markdown", "--out", "{out}"], 0),
]


def source_defs():
    """{(path, first line): "module:qualname"} for every def in the package;
    the first line is the first decorator's, as in the code object."""
    found = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        module = name[:-3]

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first)] = f"{module}:{qualname}"
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def reached_codes():
    """Code objects of every Python function called while FORMS run."""
    from hopffactor import cli

    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        stored = os.path.join(tmp, "stored")
        for n, (argv, expected) in enumerate(FORMS):
            argv = [a.format(out=os.path.join(tmp, str(n)), stored=stored) for a in argv]
            sink = io.StringIO()
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(argv)
            finally:
                sys.setprofile(None)
            if code != expected:
                raise SystemExit(f"census: {' '.join(argv)} exited {code}, expected {expected}\n"
                                 + sink.getvalue())
    return codes


def main():
    sys.path.insert(0, os.path.dirname(SRC))
    defs = source_defs()
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in reached_codes()}
    unreached = {name for (path, line), name in defs.items()
                 if (os.path.realpath(path), line) not in reached}
    new = sorted(unreached - set(ALLOWLIST))
    stale = sorted(set(ALLOWLIST) - unreached)
    print(f"census: {len(defs)} defs, {len(defs) - len(unreached)} reached, "
          f"{len(unreached)} unreached, {len(ALLOWLIST)} allowlisted")
    for name in new:
        print(f"unreached, not allowlisted: {name}")
    for name in stale:
        print(f"allowlisted, but reached or gone: {name}")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
