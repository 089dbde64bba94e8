"""Versioned JSON formats and byte-reproducible file output.

Schemas: "hopf-algebra/v1" (structure constants with sparse, lexicographic
entries), "solutions/v1" (solver branches plus split provenance),
"action/v1" (concrete action tables), "matched-pair/v1" (an action pair
with its verification digest), "invariant-report/v1".  Scalars travel as
the 4-integer tuple [re_num, re_den, im_num, im_den]; everything is sorted
canonically so identical inputs serialize to identical bytes.
"""

import json
import os
import tempfile

from hopffactor.hopf import HopfAlgebraData
from hopffactor.scalar import Scalar


def dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def write_text(path, text):
    """Atomic write: a uniquely named temp file in the target directory,
    then rename, so concurrent runs into one directory never share a temp
    file.  The temp file is removed when the write fails."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # mkstemp creates the file 0600; give it the mode open() would
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _umask():
    # reading the umask means setting it; the CLI runs no other threads
    mask = os.umask(0)
    os.umask(mask)
    return mask


def write_json(path, payload):
    write_text(path, dumps(payload))


def read_json(path):
    """The JSON payload of a file.  Raises OSError when the file cannot be
    read and ValueError when it is not JSON, including nesting too deep for
    the decoder."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


# -- hopf-algebra/v1 -----------------------------------------------------------


def algebra_to_json(H):
    mul = [
        [i, j, k, c.to_json()]
        for i, block in enumerate(H.mul) for j, row in enumerate(block) for k, c in row
    ]
    comul = []
    for i in range(H.dim):
        for c, j, k in H.comul[i]:
            comul.append([i, j, k, c.to_json()])
    antipode = [[i, j, c.to_json()] for i, row in enumerate(H.antipode) for j, c in row]
    return {
        "schema": "hopf-algebra/v1",
        "name": H.name,
        "dim": H.dim,
        "basis": list(H.basis),
        "unit": [c.to_json() for c in H.unit],
        "counit": [c.to_json() for c in H.counit],
        "mul": mul,
        "comul": comul,
        "antipode": antipode,
    }


def _field(data, key, kind, schema):
    value = data.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{schema}: {key!r} is missing or not of type {kind.__name__}")
    return value


def _sparse(data, key, n_indices, dim, schema):
    """Entries [index, ..., scalar] of a sparse table, indices in range(dim)."""
    out = []
    for row in _field(data, key, list, schema):
        if not (
            isinstance(row, list)
            and len(row) == n_indices + 1
            and all(type(i) is int and 0 <= i < dim for i in row[:-1])
        ):
            raise ValueError(f"{schema}: bad {key} entry {row!r}")
        out.append((*row[:-1], Scalar.from_json(row[-1])))
    return out


def _vector(data, key, dim, schema):
    coords = _field(data, key, list, schema)
    if len(coords) != dim:
        raise ValueError(f"{schema}: {key!r} needs {dim} coordinates")
    return [Scalar.from_json(c) for c in coords]


def algebra_from_json(data):
    schema = "hopf-algebra/v1"
    if not isinstance(data, dict) or data.get("schema") != schema:
        raise ValueError(f"not a {schema} payload")
    dim = _field(data, "dim", int, schema)
    basis = _field(data, "basis", list, schema)
    if dim <= 0:
        raise ValueError(f"{schema}: 'dim' must be positive")
    if len(basis) != dim or not all(isinstance(b, str) for b in basis):
        raise ValueError(f"{schema}: 'basis' must list {dim} labels")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"{schema}: 'name' is not a string")
    # the name becomes an output file stem, so it must not leave --out
    if "/" in name or "\\" in name or name in (".", ".."):
        raise ValueError(f"{schema}: 'name' {name!r} is not a plain file name")
    # an entry listed more than once is summed, in every table; mul rows
    # are held only for the (i, j) a file lists, so memory follows the
    # file's size and not dim^3
    zero = Scalar(0)
    mul = {}
    for i, j, k, c in _sparse(data, "mul", 3, dim, schema):
        row = mul.setdefault((i, j), {})
        row[k] = row.get(k, zero) + c
    comul = [{} for _ in range(dim)]
    for i, j, k, c in _sparse(data, "comul", 3, dim, schema):
        comul[i][(j, k)] = comul[i].get((j, k), zero) + c
    antipode = [{} for _ in range(dim)]
    for i, j, c in _sparse(data, "antipode", 2, dim, schema):
        antipode[i][j] = antipode[i].get(j, zero) + c
    return HopfAlgebraData(
        name,
        basis,
        [[mul.get((i, j), ()) for j in range(dim)] for i in range(dim)],
        _vector(data, "unit", dim, schema),
        [[(c, j, k) for (j, k), c in terms.items() if not c.is_zero()] for terms in comul],
        _vector(data, "counit", dim, schema),
        antipode,
    )


# -- reports ---------------------------------------------------------------------


def axiom_report_to_json(report, extra_checks=()):
    return {
        "schema": "axiom-report/v1",
        "algebra": report.algebra_name,
        "dim": report.dim,
        "all_passed": report.all_passed,
        "axioms": [
            {
                "name": c.name,
                "passed": c.passed,
                "witnesses": list(c.witnesses[:10]),
                "witness_count": len(c.witnesses),
            }
            for c in report.checks
        ],
        "structural_checks": [
            {"name": name, "passed": passed} for name, passed in extra_checks
        ],
    }


def axiom_report_to_markdown(report, extra_checks=()):
    lines = [f"# Axiom report: {report.algebra_name} (dim {report.dim})", ""]
    lines.append("| check | result |")
    lines.append("|---|---|")
    for c in report.checks:
        lines.append(f"| {c.name} | {'pass' if c.passed else 'FAIL'} |")
    for name, passed in extra_checks:
        lines.append(f"| {name} | {'pass' if passed else 'FAIL'} |")
    lines.append("")
    verdict = "all checks pass" if (
        report.all_passed and all(p for _, p in extra_checks)
    ) else "FAILURES PRESENT"
    lines.append(f"Verdict: {verdict}")
    failing = report.failing()
    if failing:
        lines.append("")
        lines.append("## Witnesses")
        for c in failing:
            for w in c.witnesses[:5]:
                lines.append(f"- {c.name}: {w}")
    lines.append("")
    return "\n".join(lines)


def matched_pair_to_json(cand, digest=None):
    return {
        "schema": "matched-pair/v1",
        "status": cand.status,
        "left": cand.left.to_json(),
        "right": cand.right.to_json(),
        "digest": digest or {},
    }


def matched_pair_from_json(data):
    from hopffactor.actions import LeftActionTable, MatchedPairCandidate, RightActionTable

    schema = "matched-pair/v1"
    if not isinstance(data, dict) or data.get("schema") != schema:
        raise ValueError(f"not a {schema} payload")
    status = data.get("status", "unchecked")
    if not isinstance(status, str):
        raise ValueError(f"{schema}: 'status' is not a string")
    return MatchedPairCandidate(
        LeftActionTable.from_json(data.get("left")),
        RightActionTable.from_json(data.get("right")),
        status=status,
    )


def theorem_report_to_markdown(report):
    lines = ["# Factorization check: bicrossed products of H8 and H4", ""]
    lines.append(f"Matched pairs found: {report['matched_pair_count']} (expected 4)")
    lines.append("")
    lines.append("| pair | left action | zX relation | presentation | axioms | relations | matched-pair re-check |")
    lines.append("|---|---|---|---|---|---|---|")
    for row in report["rows"]:
        lines.append(
            "| {id} | {left} | {zx} | {presentation} | {ax} | {rel} | {re} |".format(
                id=row["id"],
                left=row["left_family"],
                zx=row["zx_relation"],
                presentation=row["presentation"],
                ax="pass" if row["axioms_pass"] else "FAIL",
                rel="pass" if row["relations_pass"] else "FAIL",
                re="pass" if row["pair_reverified"] else "FAIL",
            )
        )
    lines.append("")
    if report.get("tensor_identification") is not None:
        flag = "yes" if report["tensor_identification"] else "NO"
        lines.append(f"Trivial pair product coincides with the tensor product: {flag}")
    lines.append(f"Distinct zX signatures: {', '.join(report['zx_signatures'])}")
    lines.append("")
    lines.append("## Relation details")
    for row in report["rows"]:
        lines.append("")
        lines.append(f"### {row['presentation']} (pair {row['id']})")
        for rel in row["relations"]:
            mark = "pass" if rel["holds"] else f"FAIL ({rel['witness']})"
            lines.append(f"- {rel['relation']}: {mark}")
    lines.append("")
    return "\n".join(lines)
