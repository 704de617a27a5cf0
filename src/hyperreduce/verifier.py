"""Randomized identity verification.

Samples in-domain requests for each catalog entry, evaluates the closed form
and the direct series oracle, and aggregates a deterministic, machine-readable
report.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import catalog
from .catalog import ReductionRequest
from .errors import DomainError, HyperreduceError
from .series import Status, eval_pfq

# Mixed tolerances: pass iff |lhs - rhs| <= max(tol_rel * |lhs|, tol_abs).
INTERIOR_TOL_REL = 1e-9
INTERIOR_TOL_ABS = 1e-12
UNITY_TOL_REL = 1e-6
UNITY_TOL_ABS = 1e-9

# Series-oracle stopping tolerance.  At z = 1 the oracle extrapolates its
# partial sums and stops once the extrapolated value changes by at most
# ORACLE_TOL_UNITY relative to itself (or by the table's rounding floor), five
# orders of magnitude inside UNITY_TOL_REL.
ORACLE_TOL_INTERIOR = 1e-15
ORACLE_TOL_UNITY = 1e-11

MISMATCH = "Mismatch"
ORACLE_NON_CONVERGENT = "OracleNonConvergent"
DOMAIN_REJECTED = "DomainRejected"


@dataclass(frozen=True)
class VerificationCase:
    case_id: str
    request: ReductionRequest


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    entry_id: str
    request: ReductionRequest
    lhs_value: float | None
    rhs_value: float | None
    rel_err: float | None
    passed: bool
    failure_kind: str | None  # Mismatch / OracleNonConvergent / DomainRejected

    @property
    def skipped(self) -> bool:
        return self.failure_kind in (ORACLE_NON_CONVERGENT, DOMAIN_REJECTED)


@dataclass(frozen=True)
class EntrySummary:
    entry_id: str
    passed: int
    failed: int
    skipped: int
    worst_rel_err: float | None
    wall_time: float


@dataclass(frozen=True)
class Report:
    seed: int
    cases_per_entry: int
    summaries: tuple[EntrySummary, ...]
    results: tuple[CaseResult, ...] = field(repr=False)

    @property
    def failures(self) -> list[CaseResult]:
        return [r for r in self.results if r.failure_kind == MISMATCH]

    @property
    def total_failed(self) -> int:
        return sum(s.failed for s in self.summaries)


def _case_tolerances(entry: catalog.CatalogEntry) -> tuple[float, float, float]:
    """(tol_rel, tol_abs, oracle_tol) for comparing the entry's two sides."""
    if entry.unity:
        return UNITY_TOL_REL, UNITY_TOL_ABS, ORACLE_TOL_UNITY
    return INTERIOR_TOL_REL, INTERIOR_TOL_ABS, ORACLE_TOL_INTERIOR


def _compare(lhs: float, rhs: float, tol_rel: float, tol_abs: float) -> tuple[bool, float]:
    """(passed, rel_err) of the closed form rhs against the oracle value lhs."""
    diff = abs(lhs - rhs)
    finite = math.isfinite(lhs) and math.isfinite(rhs)
    passed = finite and diff <= max(tol_rel * abs(lhs), tol_abs)
    rel_err = diff / abs(lhs) if lhs != 0.0 else (0.0 if diff == 0.0 else math.inf)
    return passed, rel_err


def sample_cases(entry_id: str, count: int, seed: int) -> list[VerificationCase]:
    """Deterministic in-domain cases; the stream depends only on
    (entry, seed), never on other entries."""
    if count < 1:
        raise ValueError("count must be >= 1")
    entry = catalog.get_entry(entry_id)
    rng = np.random.default_rng(np.random.SeedSequence([seed, entry.ordinal]))
    return [
        VerificationCase(f"{entry_id}-{seed}-{i:04d}", catalog.sample_request(entry_id, rng))
        for i in range(count)
    ]


def run_case(case: VerificationCase) -> CaseResult:
    """Compare closed form against the series oracle for one case."""
    entry = catalog.get_entry(case.request.id)
    tol_rel, tol_abs, oracle_tol = _case_tolerances(entry)
    try:
        spec = catalog.lhs_spec(case.request)
        rhs = catalog.reduce(case.request).value
        oracle = eval_pfq(spec, tol=oracle_tol)
    except DomainError:
        return CaseResult(case.case_id, entry.id, case.request, None, None, None, False, DOMAIN_REJECTED)
    except HyperreduceError:
        return CaseResult(case.case_id, entry.id, case.request, None, None, None, False, ORACLE_NON_CONVERGENT)
    if oracle.status is Status.MAX_TERMS_REACHED:
        return CaseResult(case.case_id, entry.id, case.request, None, rhs, None, False, ORACLE_NON_CONVERGENT)
    passed, rel_err = _compare(oracle.value, rhs, tol_rel, tol_abs)
    return CaseResult(
        case.case_id,
        entry.id,
        case.request,
        oracle.value,
        rhs,
        rel_err,
        passed,
        None if passed else MISMATCH,
    )


def run_entry(entry_id: str, cases_per_entry: int, seed: int) -> tuple[EntrySummary, list[CaseResult]]:
    start = time.perf_counter()
    results = [run_case(c) for c in sample_cases(entry_id, cases_per_entry, seed)]
    elapsed = time.perf_counter() - start
    passed = sum(1 for r in results if r.passed)
    skipped = sum(1 for r in results if r.skipped)
    failed = len(results) - passed - skipped
    errs = [r.rel_err for r in results if r.rel_err is not None and not r.skipped]
    worst = max(errs) if errs else None
    return EntrySummary(entry_id, passed, failed, skipped, worst, elapsed), results


def run_suite(
    entries: Sequence[str] | None = None,
    cases_per_entry: int = 30,
    seed: int = 0,
) -> Report:
    """Run every requested entry; the report content (excluding wall times)
    is a pure function of (entries, cases_per_entry, seed)."""
    ids = list(entries) if entries is not None else catalog.catalog_ids()
    if not ids:
        raise ValueError("entries must be non-empty")
    summaries: list[EntrySummary] = []
    results: list[CaseResult] = []
    for entry_id in ids:
        summary, entry_results = run_entry(entry_id, cases_per_entry, seed)
        summaries.append(summary)
        results.extend(entry_results)
    results.sort(key=lambda r: r.case_id)
    return Report(seed, cases_per_entry, tuple(summaries), tuple(results))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _params_dict(request: ReductionRequest) -> dict:
    out: dict = {}
    for name, value in request.scalars.items():
        out[name] = list(value) if isinstance(value, tuple) else value
    out.update(request.shifts)
    return out


def _result_row(result: CaseResult) -> dict:
    entry = catalog.get_entry(result.entry_id)
    z = entry.fixed_z if entry.fixed_z is not None else result.request.z
    return {
        "case_id": result.case_id,
        "id": result.entry_id,
        "params": _params_dict(result.request),
        "z": z,
        "lhs": result.lhs_value,
        "rhs": result.rhs_value,
        "rel_err": result.rel_err,
        "pass": result.passed,
        "failure_kind": result.failure_kind,
    }


def report_to_jsonl(report: Report) -> str:
    return "\n".join(json.dumps(_result_row(r)) for r in report.results) + "\n"


def report_summary(report: Report, include_timing: bool = True) -> dict:
    entries = []
    for s in report.summaries:
        row = {
            "id": s.entry_id,
            "passed": s.passed,
            "failed": s.failed,
            "skipped": s.skipped,
            "worst_rel_err": s.worst_rel_err,
        }
        if include_timing:
            row["wall_time"] = s.wall_time
        entries.append(row)
    return {
        "seed": report.seed,
        "cases_per_entry": report.cases_per_entry,
        "entries": entries,
        "failures": [_result_row(r) for r in report.failures],
        "total_failed": report.total_failed,
    }


_CSV_COLUMNS = ("case_id", "id", "params", "z", "lhs", "rhs", "rel_err", "pass", "failure_kind")


def report_to_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS)
    writer.writeheader()
    for r in report.results:
        row = _result_row(r)
        row["params"] = json.dumps(row["params"])
        writer.writerow(row)
    return buf.getvalue()
