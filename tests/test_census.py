"""The census allowlist (tests/census.py), checked without running the
census: every name is a def in src/hopffactor, and every reason is one of
the five kinds and holds.  `python tests/census.py` checks the names
against a traced run of the command line."""

import ast
import importlib.util
import os
import re

import census
import hopffactor

PROTOCOL_METHODS = {"__eq__", "__hash__", "__bool__", "__repr__", "__str__"}
PACKAGE_HOOKS = {"__init__:__getattr__", "__init__:__dir__"}
DEFS = {name: key for key, name in census.source_defs().items()}


def _by_kind(kind):
    """(name, detail) of the allowlisted defs whose reason is `kind: detail`."""
    out = []
    for name, reason in sorted(census.ALLOWLIST.items()):
        head, _, detail = reason.partition(":")
        if head == kind:
            out.append((name, detail.strip()))
    return out


def _perfbench_bindings():
    """{span: {(module, attr), ...}} of perfbench/child.py LAYERS and SCOPES."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_child", os.path.join(census.ROOT, "perfbench", "child.py")
    )
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    spans = {span: set(targets) for span, targets in child.LAYERS.items()}
    for span, target in child.SCOPES.items():
        spans.setdefault(span, set()).add(target)
    return spans


def _called_names(name):
    """The bare names that the body of a source def calls."""
    path, line = DEFS[name]
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    node = next(
        n for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        and min([n.lineno] + [d.lineno for d in n.decorator_list]) == line
    )
    return {
        n.func.id for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    }


def test_every_allowlisted_name_is_a_source_def():
    assert sorted(set(census.ALLOWLIST) - set(DEFS)) == []


def test_every_reason_is_one_of_four_kinds():
    kinds = ("perfbench", "public", "failure path", "rule", "protocol")
    assert [n for n, r in census.ALLOWLIST.items() if r.partition(":")[0] not in kinds] == []


def test_perfbench_reasons_name_a_binding():
    """A perfbench def is bound in the named LAYERS or SCOPES span, or is
    called by ("via") a def that is itself listed as perfbench."""
    spans = _perfbench_bindings()
    bad = []
    for name, detail in _by_kind("perfbench"):
        module, qualname = name.split(":")
        if detail.startswith("via "):
            caller = detail[len("via "):]
            ok = (
                census.ALLOWLIST.get(caller, "").startswith("perfbench:")
                and qualname in _called_names(caller)
            )
        else:
            ok = (module, qualname) in spans.get(detail, ())
        if not ok:
            bad.append(name)
    assert bad == []


def test_public_reasons_name_an_all_name():
    bad = []
    for name, _detail in _by_kind("public"):
        module, qualname = name.split(":")
        home = f"hopffactor.{module}"
        if name not in PACKAGE_HOOKS and not (
            qualname in hopffactor.__all__ and getattr(hopffactor, qualname).__module__ == home
        ):
            bad.append(name)
    assert bad == []


def test_failure_path_reasons_name_an_existing_test():
    # a rule reason names the test that runs the rule the same way
    bad = []
    for name, detail in _by_kind("failure path") + _by_kind("rule"):
        path, _, test = detail.partition("::")
        full = os.path.join(census.ROOT, path)
        if not (path.startswith("tests/") and os.path.isfile(full)):
            bad.append(name)
            continue
        with open(full, encoding="utf-8") as fh:
            if not re.search(rf"^def {re.escape(test)}\(", fh.read(), re.M):
                bad.append(name)
    assert bad == []


def test_protocol_reasons_name_a_protocol_method():
    assert [n for n, _ in _by_kind("protocol") if n.rsplit(".", 1)[-1] not in PROTOCOL_METHODS] == []
