import hashlib
import json

import pytest

from hyperreduce import catalog, verifier
from hyperreduce.catalog import ReductionRequest
from hyperreduce.series import EvalResult, Status, eval_pfq


def test_sample_cases_deterministic():
    a = verifier.sample_cases("F21Contiguous", 5, 42)
    b = verifier.sample_cases("F21Contiguous", 5, 42)
    assert a == b
    c = verifier.sample_cases("F21Contiguous", 5, 43)
    assert a != c
    with pytest.raises(ValueError):
        verifier.sample_cases("F21Contiguous", 0, 42)


def test_case_tolerances_by_entry_kind():
    assert verifier._case_tolerances(catalog.get_entry("F21Contiguous")) == (
        verifier.INTERIOR_TOL_REL, verifier.INTERIOR_TOL_ABS, verifier.ORACLE_TOL_INTERIOR
    )
    assert verifier._case_tolerances(catalog.get_entry("F32UnityJL")) == (
        verifier.UNITY_TOL_REL, verifier.UNITY_TOL_ABS, verifier.ORACLE_TOL_UNITY
    )


def test_run_case_trivial_n0():
    case = verifier.VerificationCase(
        "t-0",
        ReductionRequest("F21Contiguous", {"b": 0.7, "c": 1.4}, {"n": 0}, 0.3),
    )
    result = verifier.run_case(case)
    assert result.passed
    assert result.failure_kind is None
    assert result.rel_err <= 1e-13


def test_run_case_corrupted_rhs_is_mismatch(monkeypatch):
    original = catalog.reduce

    def corrupted(req):
        res = original(req)
        return EvalResult(res.value + 1e-3, res.abs_err_est, res.terms_used, res.status)

    monkeypatch.setattr(catalog, "reduce", corrupted)
    case = verifier.VerificationCase(
        "t-1",
        ReductionRequest("F21Contiguous", {"b": 0.7, "c": 1.4}, {"n": 1}, 0.3),
    )
    result = verifier.run_case(case)
    assert not result.passed
    assert result.failure_kind == verifier.MISMATCH


def test_run_case_oracle_non_convergent_is_skip(monkeypatch):
    def stuck(spec, max_terms=0, tol=0.0, **kwargs):
        return EvalResult(0.0, 1.0, 200_000, Status.MAX_TERMS_REACHED)

    monkeypatch.setattr(verifier, "eval_pfq", stuck)
    case = verifier.sample_cases("F21Contiguous", 1, 0)[0]
    result = verifier.run_case(case)
    assert not result.passed
    assert result.failure_kind == verifier.ORACLE_NON_CONVERGENT
    assert result.skipped
    summary, results = verifier.run_entry("F21Contiguous", 3, 0)
    assert summary.failed == 0
    assert summary.skipped == 3


def test_run_suite_counts_and_determinism():
    report1 = verifier.run_suite(["F21Contiguous"], 7, 3)
    assert len(report1.results) == 7
    s = report1.summaries[0]
    assert s.passed + s.failed + s.skipped == 7
    report2 = verifier.run_suite(["F21Contiguous"], 7, 3)
    assert verifier.report_to_jsonl(report1) == verifier.report_to_jsonl(report2)
    sum1 = verifier.report_summary(report1, include_timing=False)
    sum2 = verifier.report_summary(report2, include_timing=False)
    assert sum1 == sum2
    with pytest.raises(ValueError):
        verifier.run_suite([], 5, 0)


def test_run_suite_order_independent():
    pair = ["F21Contiguous", "F01Bessel"]
    fwd = verifier.run_suite(pair, 4, 9)
    rev = verifier.run_suite(list(reversed(pair)), 4, 9)
    assert verifier.report_to_jsonl(fwd) == verifier.report_to_jsonl(rev)


def test_jsonl_schema():
    report = verifier.run_suite(["F12BesselI", "Pp2Fp1Unity"], 3, 1)
    lines = verifier.report_to_jsonl(report).strip().split("\n")
    assert len(lines) == 6
    for line in lines:
        row = json.loads(line)
        assert set(row) == {
            "case_id", "id", "params", "z", "lhs", "rhs", "rel_err", "pass",
            "failure_kind",
        }
        assert isinstance(row["params"], dict)
    # unity entry rows report the fixed z = 1
    unity_rows = [json.loads(l) for l in lines if json.loads(l)["id"] == "Pp2Fp1Unity"]
    assert all(row["z"] == 1.0 for row in unity_rows)


def test_csv_schema():
    report = verifier.run_suite(["F32P0"], 10, 2)
    text = verifier.report_to_csv(report)
    rows = text.strip().split("\n")
    assert len(rows) == 11  # header + 10 cases
    assert rows[0].startswith("case_id,id,params,z,lhs,rhs,rel_err,pass")


def test_summary_matches_results():
    report = verifier.run_suite(["F11IncGamma", "F22Laguerre"], 5, 4)
    summary = verifier.report_summary(report)
    assert summary["seed"] == 4
    assert summary["cases_per_entry"] == 5
    for entry_row in summary["entries"]:
        results = [r for r in report.results if r.entry_id == entry_row["id"]]
        assert entry_row["passed"] == sum(1 for r in results if r.passed)
        assert entry_row["skipped"] == sum(1 for r in results if r.skipped)
    assert summary["total_failed"] == report.total_failed


# Hash of the deterministic report (summary without timing, plus JSONL) at
# 30 cases per entry.  A refactor must leave both unchanged; a change that
# alters a reported number must say so and update them on purpose.  Last
# changed by taking Gamma and log|Gamma| from the math module in place of a
# Lanczos fit: only the rhs and rel_err of 364 (seed 0) and 376 (seed 1) of
# the 840 rows moved, all in the 13 entries with a gamma factor (five Bessel,
# F32HalfPlusM, F32HalfMinusM, six z = 1), and with them those entries'
# worst_rel_err; no verdict changed.
GOLDEN_REPORT_SHA256 = {
    0: "021130f2d968500ca014dbc8d53f05a655c44d3fb630d75450896fc14f23e513",
    1: "bba33217e979b7915bccbcea883cf9f85aef719fe6baf88670a75023db2d05d5",
}


# The same hash over the 22 interior (z != 1) entries only.  Their oracle never
# sees |z| = 1, so a change to the z = 1 summation must leave these unchanged.
GOLDEN_INTERIOR_SHA256 = {
    0: "d367dabd7998a1673eee95f54fee8df416b2b206439e8268e473c62714ccefcb",
    1: "ad8c79621e62b2d015219d325eede643a189b518a9afa5389658f703f900e287",
}


def _report_sha256(entries, seed):
    report = verifier.run_suite(entries, 30, seed)
    text = (
        json.dumps(verifier.report_summary(report, include_timing=False), sort_keys=True)
        + "\n"
        + verifier.report_to_jsonl(report)
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN_REPORT_SHA256))
def test_golden_report_hash(seed):
    assert _report_sha256(None, seed) == GOLDEN_REPORT_SHA256[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN_INTERIOR_SHA256))
def test_golden_interior_report_hash(seed):
    interior = [i for i in catalog.catalog_ids() if not catalog.get_entry(i).unity]
    assert len(interior) == 22
    assert _report_sha256(interior, seed) == GOLDEN_INTERIOR_SHA256[seed]


def test_unity_entries_seed1_gate():
    # The six z = 1 entries at the seed-1, 200-case gate: every case reaches a
    # verdict and passes, and the oracle's error estimate covers its distance
    # from the closed form.
    unity = [i for i in catalog.catalog_ids() if catalog.get_entry(i).unity]
    assert len(unity) == 6
    report = verifier.run_suite(unity, 200, 1)
    kinds = [r.failure_kind for r in report.results]
    assert kinds.count(verifier.ORACLE_NON_CONVERGENT) == 0
    assert kinds.count(verifier.MISMATCH) == 0
    for result in report.results:
        oracle = eval_pfq(catalog.lhs_spec(result.request), tol=verifier.ORACLE_TOL_UNITY)
        assert oracle.status is Status.EXTRAPOLATED
        assert oracle.value == result.lhs_value
        rhs = result.rhs_value
        assert abs(oracle.value - rhs) <= oracle.abs_err_est + 1e-14 * abs(rhs), result.case_id
