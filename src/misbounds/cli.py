"""Command-line interface.

Subcommands: report, fig1, fig2, fig3, compare-lo, compare-hi, verify.
Exit codes: 0 success, 1 invalid input, 2 a mathematical guarantee failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .errors import InvariantViolationError, MisboundsError
from .families import from_spec
from .model import JointModel, load_model
from .report import (
    BoundsReport,
    compare_hi_scan,
    compare_lo_rows,
    fig1_table,
    fig2_table,
    fig3_table,
    rows_to_csv,
    rows_to_json,
    run_verify,
    table_rows,
    table_to_csv,
    FIG2_DEFAULT_P,
    FIG3_DEFAULT_K,
    VERIFY_SUITES,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misbounds",
        description="Bayes-error bounds from class separation and conditional entropy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_format="csv", formats=("csv", "json")):
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--out", type=Path, default=None, help="write output here instead of stdout")

    p = sub.add_parser("report", help="evaluate every bound on one model or family member")
    p.add_argument("model", nargs="?", default=None, help="model file (CSV or JSON)")
    p.add_argument("--family", default=None, help='family spec JSON, e.g. {"family":"exponential","k":8,"q":0.3}')
    add_common(p, default_format="json")

    p = sub.add_parser("fig1", help="bound curves L, U, U_simpl over the separation range")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--delta-step", type=float, default=0.01)
    add_common(p)

    p = sub.add_parser("fig2", help="three-class log-scale sweep over eps per target error")
    p.add_argument("--p", type=float, nargs="+", default=FIG2_DEFAULT_P)
    add_common(p)

    p = sub.add_parser("fig3", help="binomial/exponential family sweeps over q")
    p.add_argument("--k", type=int, nargs="+", default=FIG3_DEFAULT_K)
    p.add_argument("--q-step", type=float, default=0.005)
    add_common(p)

    p = sub.add_parser("compare-lo", help="positivity margins of the separation lower bound")
    p.add_argument("--k", type=int, default=50, help="largest class count to scan")
    add_common(p)

    p = sub.add_parser("compare-hi", help="scan for where U(delta) beats the entropy upper bound")
    p.add_argument("--nu", type=float, default=2.0)
    p.add_argument("--k", type=int, default=10000, help="largest class count to scan")
    add_common(p)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument(
        "--suite",
        nargs="+",
        default=None,
        choices=tuple(VERIFY_SUITES),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sandwich-count", type=int, default=10000)
    p.add_argument("--brute-count", type=int, default=300)
    add_common(p, default_format="text", formats=("text", "json"))

    return parser


PARSER = _build_parser()  # built once: building takes far longer than parsing


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _rows(rows: list, args) -> tuple:
    return (rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows)), EXIT_OK


def _table(table: dict, args) -> tuple:
    """A column table as CSV, or as JSON dict rows."""
    if args.format == "csv":
        return table_to_csv(table), EXIT_OK
    return rows_to_json(table_rows(table)), EXIT_OK


def _cmd_report(args) -> tuple:
    if (args.model is None) == (args.family is None):
        raise MisboundsError("provide exactly one of a model file or --family")
    if args.model is not None:
        rep = BoundsReport.from_model(load_model(args.model))
    else:
        built = from_spec(json.loads(args.family))
        if isinstance(built, JointModel):
            rep = BoundsReport.from_model(built)
        else:
            rep = BoundsReport.from_profile(built)
    if args.format == "json":
        return json.dumps(rep.as_dict(), indent=2) + "\n", EXIT_OK
    return rows_to_csv([rep.as_dict()]), EXIT_OK


def _cmd_compare_hi(args) -> tuple:
    scan = compare_hi_scan(args.nu, args.k)
    if args.format == "json":
        return json.dumps(scan.as_dict(), indent=2) + "\n", EXIT_OK
    comment = f"crossover_k = {scan.crossover_k if scan.crossover_k is not None else 'none'}"
    return table_to_csv(scan.table, header_comments=(comment,)), EXIT_OK


def _cmd_verify(args) -> tuple:
    results = run_verify(
        suites=args.suite,
        seed=args.seed,
        sandwich_count=args.sandwich_count,
        brute_count=args.brute_count,
    )
    all_ok = all(r["ok"] for r in results)
    if args.format == "json":
        text = rows_to_json(results)
    else:
        lines = []
        for r in results:
            detail = {k: v for k, v in r.items() if k not in ("suite", "ok")}
            lines.append(f"{r['suite']}: {'PASS' if r['ok'] else 'FAIL'} {json.dumps(detail)}")
        lines.append("all suites passed" if all_ok else "FAILURES PRESENT")
        text = "\n".join(lines) + "\n"
    return text, EXIT_OK if all_ok else EXIT_VERIFY_FAILED


# subcommand -> handler returning (output text, exit code)
COMMANDS = {
    "report": _cmd_report,
    "fig1": lambda args: _table(fig1_table(args.k, delta_step=args.delta_step), args),
    "fig2": lambda args: _table(fig2_table(p_list=args.p), args),
    "fig3": lambda args: _table(fig3_table(k_list=args.k, q_step=args.q_step), args),
    "compare-lo": lambda args: _rows(compare_lo_rows(k_max=args.k), args),
    "compare-hi": _cmd_compare_hi,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        with warnings.catch_warnings():
            # one line per warning, in the style of an error, with no source listing
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            text, code = COMMANDS[args.command](args)
        _emit(text, args.out)
    except InvariantViolationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (MisboundsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return code


if __name__ == "__main__":
    sys.exit(main())
