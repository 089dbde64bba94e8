"""Batch command-line pipeline with reproducible JSON artifacts.

Subcommands expose the pipeline stages: `catalog verify` (build or replay
the base algebras and run the axiom battery), `actions enumerate` (left or
right module-coalgebra enumeration), `matched-pairs find`, `product build`
(the four bicrossed products plus relation checks), and `theorem check`
(the whole chain with a summary table).

Every subcommand takes `--out DIR`; `catalog verify` and `theorem check`
also take `--format json|markdown`.

Exit codes depend on mathematical outcomes only: 0 success, 1 failed
check, count mismatch or usage error, 2 I/O error, 3 a search the solver
cannot finish (an irreducible system or an exhausted split budget).
`main` reports a usage error or bad input value (1), an I/O error (2) or
an irreducible system (3) as one `error:` line on stderr; only `actions
enumerate` handles an irreducible system itself, to write the residual.
"""

import argparse
import errno
import os
import sys

# only what `catalog verify` runs is imported here (solver comes with hopf);
# the subcommands that solve or build products import actions and bicrossed
# when they run
from hopffactor import jsonio
from hopffactor.hopf import tensor_product, verify_axioms
from hopffactor.presentations import build_H4, build_H8
from hopffactor.scalar import Scalar
from hopffactor.solver import IrreducibleSystemError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_IO = 2
EXIT_IRREDUCIBLE = 3


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, so `main` reports it as one
    `error:` line with exit 1 (argparse itself exits 2, the I/O code)."""

    def error(self, message):
        raise ValueError(message)


def _config(args):
    # fail before any work when --out cannot become a directory (made at the first write)
    probe = args.out
    while probe and not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if probe and not os.path.isdir(probe):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), probe)


def _structural_checks(name, H):
    """Presentation spot checks reported beside the axiom battery."""
    checks = []
    if name == "h8":
        z = H.basis_element("z")
        z2 = z * z
        expected = H.element(
            [Scalar(1, 2), Scalar(1, 2), Scalar(1, 2), Scalar(-1, 2), 0, 0, 0, 0]
        )
        checks.append(("z^2 = (1+g+h-gh)/2", z2 == expected))
        checks.append(("z^4 = 1", z ** 4 == H.one()))
        checks.append(("gz = zh", H.basis_element("g") * z == z * H.basis_element("h")))
    if name == "h4":
        X, G = H.basis_element("X"), H.basis_element("G")
        checks.append(("S(X) = GX", H.antipode_of(X) == H.basis_element("GX")))
        checks.append(("XG = -GX", X * G == -(G * X)))
    return checks


def cmd_catalog_verify(args):
    targets = []
    if args.load:
        H = jsonio.algebra_from_json(jsonio.read_json(args.load))
        targets.append((H.name or "loaded", H))
    else:
        wanted = args.algebra
        if wanted in ("h4", "all"):
            targets.append(("h4", build_H4()))
        if wanted in ("h8", "all"):
            targets.append(("h8", build_H8()))
        if wanted == "all":
            targets.append(("h8xh4", tensor_product(build_H8(), build_H4())))
    all_ok = True
    for name, H in targets:
        report = verify_axioms(H)
        extra = [] if args.load else _structural_checks(name, H)
        ok = report.all_passed and all(p for _, p in extra)
        all_ok = all_ok and ok
        jsonio.write_json(os.path.join(args.out, f"{name}.hopf.json"), jsonio.algebra_to_json(H))
        if args.format == "markdown":
            jsonio.write_text(
                os.path.join(args.out, f"{name}.axiom-report.md"),
                jsonio.axiom_report_to_markdown(report, extra),
            )
        else:
            jsonio.write_json(
                os.path.join(args.out, f"{name}.axiom-report.json"),
                jsonio.axiom_report_to_json(report, extra),
            )
        verdict = "ok" if ok else "FAILED"
        print(f"{name}: dim {H.dim}, axiom checks {verdict}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_actions_enumerate(args):
    from hopffactor.actions import enumerate_left_actions, enumerate_right_actions

    side = args.side
    try:
        if side == "left":
            sol = enumerate_left_actions()
        else:
            sol = enumerate_right_actions()
    except IrreducibleSystemError as exc:
        payload = {
            "schema": "solutions/v1",
            "side": side,
            "error": "irreducible-system",
            "reason": exc.reason,
            "residual": [p.render() for p in exc.residual[:40]],
            "residual_count": len(exc.residual),
        }
        jsonio.write_json(os.path.join(args.out, f"actions-{side}.solutions.json"), payload)
        print(f"{side} enumeration: irreducible system ({exc.reason}); "
              f"residual of {len(exc.residual)} constraints written")
        return EXIT_IRREDUCIBLE
    payload = sol.to_json()
    payload["side"] = side
    payload["branch_count"] = len(sol.branches)
    jsonio.write_json(os.path.join(args.out, f"actions-{side}.solutions.json"), payload)
    print(f"{side} enumeration: {len(sol.branches)} canonical families")
    return EXIT_OK


def _pair_rows(pairs):
    """(pair, product, zX signature, presentation, left family) rows in
    the order of `PRESENTATION_NAMES`; unrecognised products come last."""
    from hopffactor.bicrossed import PRESENTATION_NAMES, build_bicrossed, presentation_for, zx_signature

    rows = []
    for pair in pairs:
        product = build_bicrossed(pair)
        pres = presentation_for(product)
        rows.append((pair, product, zx_signature(product), pres, _family_label(pair)))
    rank = PRESENTATION_NAMES + (None,)
    rows.sort(key=lambda r: rank.index(r[3]))
    return rows


def cmd_matched_pairs_find(args):
    from hopffactor.actions import matched_pair_search

    if args.load:
        return _replay_matched_pair(args.load, args.out)
    pairs, _sol = matched_pair_search()
    for n, (pair, product, sig, pres, family) in enumerate(_pair_rows(pairs), start=1):
        digest = {
            "zx_relation": sig,
            "presentation": pres,
            "left_family": family,
            "pair_checks_pass": pair.status == "matched",
        }
        jsonio.write_json(
            os.path.join(args.out, f"matched-pair-{n}.json"),
            jsonio.matched_pair_to_json(pair, digest),
        )
    print(f"matched pairs: {len(pairs)}")
    return EXIT_OK if len(pairs) == 4 else EXIT_CHECK_FAILED


def _family_label(pair):
    from hopffactor.actions import classify_left_table

    cls = classify_left_table(pair.left)
    if cls is None:
        return "unrecognized"
    xf, gf, alpha, beta = cls
    return f"x-family {xf} (alpha={alpha}), gx-family {gf} (beta={beta})"


def _replay_matched_pair(path, out):
    """Re-verify a stored matched-pair/v1 file; the copy written carries this run's status."""
    from hopffactor.actions import settle_status

    pair = jsonio.matched_pair_from_json(jsonio.read_json(path))
    failures = settle_status(pair)
    digest = {
        "left_family": _family_label(pair),
        "pair_checks_pass": not failures,
        "failures": [str(f) for f in failures[:10]],
    }
    jsonio.write_json(
        os.path.join(out, "matched-pair-replay.json"),
        jsonio.matched_pair_to_json(pair, digest),
    )
    if failures:
        print(f"stored pair FAILS {len(failures)} checks; first: {failures[0]}")
        return EXIT_CHECK_FAILED
    print("stored pair verifies: all module and pairing checks pass")
    return EXIT_OK


def cmd_product_build(args):
    from hopffactor.actions import matched_pair_search
    from hopffactor.bicrossed import verify_presentation

    pairs, _sol = matched_pair_search()
    ok = len(pairs) == 4
    for n, (pair, product, sig, pres, _family) in enumerate(_pair_rows(pairs), start=1):
        checks = verify_presentation(product, pres)
        ok = ok and all(c.holds for c in checks)
        jsonio.write_json(
            os.path.join(args.out, f"product-{n}.hopf.json"),
            jsonio.algebra_to_json(product.algebra),
        )
        print(f"product {n}: {pres}, {sig}, relations "
              f"{'pass' if all(c.holds for c in checks) else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_theorem_check(args):
    from hopffactor.actions import matched_pair_search
    from hopffactor.bicrossed import check_embeddings, invariant_report, verify_presentation

    pairs, _sol = matched_pair_search()
    rows = _pair_rows(pairs)

    tensor_identified = None
    report_rows = []
    signatures = []
    for n, (pair, product, sig, pres, family) in enumerate(rows, start=1):
        signatures.append(sig)
        axiom_rep = product.axiom_report
        checks = verify_presentation(product, pres)
        embed_fail = check_embeddings(product)
        inv = invariant_report(product)
        if pres == "tensor":
            T = tensor_product(build_H4(), build_H8())
            tensor_identified = (
                product.algebra.structure_key() == T.structure_key()
            )
        jsonio.write_json(
            os.path.join(args.out, f"matched-pair-{n}.json"),
            jsonio.matched_pair_to_json(
                pair,
                {"zx_relation": sig, "presentation": pres, "left_family": family},
            ),
        )
        jsonio.write_json(
            os.path.join(args.out, f"product-{n}.hopf.json"),
            jsonio.algebra_to_json(product.algebra),
        )
        jsonio.write_json(os.path.join(args.out, f"invariants-{n}.json"), inv.to_json())
        report_rows.append(
            {
                "id": n,
                "left_family": family,
                "zx_relation": sig,
                "presentation": pres,
                "axioms_pass": axiom_rep.all_passed,
                "relations_pass": all(c.holds for c in checks),
                "pair_reverified": pair.status == "matched",
                "embeddings_pass": not embed_fail,
                "relations": [
                    {"relation": c.relation, "holds": c.holds, "witness": c.witness}
                    for c in checks
                ],
            }
        )
    report = {
        "schema": "theorem-report/v1",
        "matched_pair_count": len(pairs),
        "expected_count": 4,
        "zx_signatures": signatures,
        "signatures_pairwise_distinct": len(set(signatures)) == len(signatures),
        "tensor_identification": tensor_identified,
        "rows": report_rows,
    }
    jsonio.write_json(os.path.join(args.out, "theorem-report.json"), report)
    if args.format == "markdown":
        jsonio.write_text(
            os.path.join(args.out, "theorem-report.md"),
            jsonio.theorem_report_to_markdown(report),
        )

    ok = (
        report["matched_pair_count"] == 4
        and all(
            row["axioms_pass"] and row["relations_pass"]
            and row["pair_reverified"] and row["embeddings_pass"]
            for row in report["rows"]
        )
        and report["tensor_identification"] is True
        and len(set(report["zx_signatures"])) == 4
    )
    print(f"matched pairs: {len(pairs)} (expected 4)")
    for row in report_rows:
        print(
            f"  pair {row['id']}: {row['presentation']:7s} {row['zx_relation']:10s} "
            f"axioms={'pass' if row['axioms_pass'] else 'FAIL'} "
            f"relations={'pass' if row['relations_pass'] else 'FAIL'} "
            f"re-check={'pass' if row['pair_reverified'] else 'FAIL'}"
        )
    print(f"verdict: {'ok' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser():
    parser = _Parser(
        prog="hopffactor",
        description="Exact verification pipeline for the bicrossed products of H8 and H4",
    )
    # every subcommand writes under --out; only the two that write a report take --format
    out = _Parser(add_help=False)
    out.add_argument("--out", default="out", help="output directory")
    report = _Parser(add_help=False, parents=[out])
    report.add_argument(
        "--format", choices=("json", "markdown"), default="json",
        help="human-readable report format",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    catalog = sub.add_parser("catalog", help="base algebra catalog")
    catalog_sub = catalog.add_subparsers(dest="subcommand", required=True)
    verify = catalog_sub.add_parser(
        "verify", parents=[report], help="build and axiom-check the algebras",
    )
    verify.add_argument("--algebra", choices=("h4", "h8", "all"), default="all")
    verify.add_argument("--load", help="verify a stored hopf-algebra/v1 file instead")
    verify.set_defaults(func=cmd_catalog_verify)

    actions = sub.add_parser("actions", help="module-coalgebra actions")
    actions_sub = actions.add_subparsers(dest="subcommand", required=True)
    enum = actions_sub.add_parser(
        "enumerate", parents=[out], help="enumerate the action families",
    )
    enum.add_argument("--side", choices=("left", "right"), required=True)
    enum.set_defaults(func=cmd_actions_enumerate)

    mp = sub.add_parser("matched-pairs", help="matched pairs of actions")
    mp_sub = mp.add_subparsers(dest="subcommand", required=True)
    find = mp_sub.add_parser("find", parents=[out], help="solve for all matched pairs")
    find.add_argument("--load", help="re-verify a stored matched-pair/v1 file instead")
    find.set_defaults(func=cmd_matched_pairs_find)

    product = sub.add_parser("product", help="bicrossed products")
    product_sub = product.add_subparsers(dest="subcommand", required=True)
    build = product_sub.add_parser(
        "build", parents=[out], help="build and check the four products",
    )
    build.set_defaults(func=cmd_product_build)

    theorem = sub.add_parser("theorem", help="the full factorization statement")
    theorem_sub = theorem.add_subparsers(dest="subcommand", required=True)
    check = theorem_sub.add_parser("check", parents=[report], help="run the whole pipeline")
    check.set_defaults(func=cmd_theorem_check)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        _config(args)
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except IrreducibleSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IRREDUCIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
