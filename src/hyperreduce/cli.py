"""Command-line front end.

Commands: eval (direct series), reduce (closed form by id), verify (randomized
suite), catalog (list formulas).  Exit codes: 0 success, 1 verification
failure, 2 usage error (including non-finite input), 3 numerical error (also a
`reduce --check` case that the series oracle cannot settle).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import catalog, verifier
from .catalog import ReductionRequest
from .errors import DomainError, HyperreduceError
from .series import DEFAULT_MAX_TERMS, DEFAULT_TOL, PFQSpec, Status, eval_pfq

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_MACHINE_FMT = "{:.17g}"
_HUMAN_FMT = "{:.10g}"


def _parse_float_list(raw: str) -> list[float]:
    raw = raw.strip()
    if not raw:
        return []
    return [float(part) for part in raw.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperreduce",
        description=(
            "Evaluate generalized hypergeometric series, their closed-form "
            "reductions, and verify the two against each other."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="sum a pFq series directly")
    p_eval.add_argument("--upper", default="", help="comma-separated upper parameters")
    p_eval.add_argument("--lower", default="", help="comma-separated lower parameters")
    p_eval.add_argument("--z", type=float, required=True)
    p_eval.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_eval.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS)
    p_eval.set_defaults(run=_cmd_eval)

    p_reduce = sub.add_parser("reduce", help="evaluate a named closed-form reduction")
    p_reduce.add_argument("id", help="reduction identifier (see `catalog`)")
    for name in ("a", "b", "c", "d"):
        p_reduce.add_argument(f"--{name}", default=None, help=f"parameter {name}")
    for name in ("n", "m", "k"):
        p_reduce.add_argument(f"--{name}", type=int, default=None, help=f"shift {name}")
    p_reduce.add_argument("--z", type=float, default=None)
    p_reduce.add_argument("--check", action="store_true", help="also evaluate the series oracle")
    p_reduce.set_defaults(run=_cmd_reduce)

    p_verify = sub.add_parser("verify", help="run the randomized verification suite")
    p_verify.add_argument("--only", default=None, help="comma-separated entry ids")
    p_verify.add_argument("--cases", type=int, default=30)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p_verify.add_argument("--out", default=None, help="write the report to this path")
    p_verify.set_defaults(run=_cmd_verify)

    p_catalog = sub.add_parser("catalog", help="list the reduction catalog")
    p_catalog.add_argument("--id", default=None, help="show one entry in detail")
    p_catalog.set_defaults(run=_cmd_catalog)

    return parser


def _cmd_eval(args: argparse.Namespace) -> int:
    spec = PFQSpec(_parse_float_list(args.upper), _parse_float_list(args.lower), args.z)
    result = eval_pfq(spec, max_terms=args.max_terms, tol=args.tol)
    print("value       = " + _MACHINE_FMT.format(result.value))
    print("abs_err_est = " + _MACHINE_FMT.format(result.abs_err_est))
    print(f"terms_used  = {result.terms_used}")
    print(f"status      = {result.status.value}")
    if result.status is Status.MAX_TERMS_REACHED:
        print("error: series did not converge within the term cap", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _request_from_args(args: argparse.Namespace) -> ReductionRequest:
    entry = catalog.get_entry(args.id)
    scalars: dict = {}
    for name in ("a", "b", "c", "d"):
        raw = getattr(args, name)
        if raw is None:
            continue
        if name in entry.list_names:
            scalars[name] = tuple(_parse_float_list(raw))
        else:
            scalars[name] = float(raw)
    shifts = {
        name: getattr(args, name)
        for name in ("n", "m", "k")
        if getattr(args, name) is not None
    }
    return ReductionRequest(args.id, scalars, shifts, args.z)


def _cmd_reduce(args: argparse.Namespace) -> int:
    request = _request_from_args(args)
    result = catalog.reduce(request)
    print("value       = " + _MACHINE_FMT.format(result.value))
    print("abs_err_est = " + _MACHINE_FMT.format(result.abs_err_est))
    if not args.check:
        return EXIT_OK
    case = verifier.run_case(verifier.VerificationCase(args.id, request))
    if case.skipped:
        print(f"error: the series oracle cannot settle the case: {case.failure_kind}", file=sys.stderr)
        return EXIT_NUMERIC
    print("oracle      = " + _MACHINE_FMT.format(case.lhs_value))
    print("rel_err     = " + _MACHINE_FMT.format(case.rel_err))
    print(f"check       = {'pass' if case.passed else 'FAIL'}")
    return EXIT_OK if case.passed else EXIT_VERIFY_FAIL


def _format_table(report: verifier.Report) -> str:
    lines = []
    header = f"{'id':<18} {'pass':>5} {'fail':>5} {'skip':>5} {'worst rel err':>14} {'time (s)':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    for s in report.summaries:
        worst = _HUMAN_FMT.format(s.worst_rel_err) if s.worst_rel_err is not None else "-"
        lines.append(
            f"{s.entry_id:<18} {s.passed:>5} {s.failed:>5} {s.skipped:>5} "
            f"{worst:>14} {s.wall_time:>9.3f}"
        )
    lines.append(f"total failures: {report.total_failed}")
    return "\n".join(lines) + "\n"


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    entries = None
    if args.only is not None:
        # An unknown id raises KeyError here, before any entry runs.
        ids = [part.strip() for part in args.only.split(",") if part.strip()]
        entries = [catalog.get_entry(entry_id).id for entry_id in ids]
    report = verifier.run_suite(entries, args.cases, args.seed)
    if args.format == "json":
        payload = {
            "summary": verifier.report_summary(report),
            "results": [verifier._result_row(r) for r in report.results],
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        text = verifier.report_to_csv(report)
    else:
        text = _format_table(report)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.total_failed == 0 else EXIT_VERIFY_FAIL


def _signature(entry: catalog.CatalogEntry) -> str:
    parts = []
    for name in entry.scalar_names:
        parts.append(f"{name}=<list>" if name in entry.list_names else f"{name}=<real>")
    for name in entry.shift_names:
        parts.append(f"{name}=<int>")
    if entry.fixed_z is not None:
        parts.append(f"z fixed at {entry.fixed_z:g}")
    else:
        parts.append("z=<real>")
    return ", ".join(parts)


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.id is not None:
        entry = catalog.get_entry(args.id)
        print(f"id:          {entry.id}")
        print(f"signature:   {_signature(entry)}")
        print(f"constraints: {entry.constraints}")
        print(f"description: {entry.description}")
        return EXIT_OK
    for entry_id in catalog.catalog_ids():
        entry = catalog.get_entry(entry_id)
        print(f"{entry.id:<18} {_signature(entry)}")
        print(f"{'':<18} constraints: {entry.constraints}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except KeyError as exc:  # an unknown reduction id
        message, code = exc.args[0], EXIT_USAGE
    except (ValueError, DomainError) as exc:
        message, code = exc, EXIT_USAGE
    except (HyperreduceError, OverflowError, ZeroDivisionError) as exc:
        message, code = exc, EXIT_NUMERIC
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
