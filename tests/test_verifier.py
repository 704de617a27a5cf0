import hashlib
import json

import numpy as np
import pytest

from hyperreduce import catalog, cli, verifier
from hyperreduce.catalog import ReductionRequest
from hyperreduce.errors import DivergentSeriesError, DomainError, PoleError
from hyperreduce.series import EvalResult, Status, eval_pfq


def test_sample_cases_deterministic():
    a = verifier.sample_cases("F21Contiguous", 5, 42)
    b = verifier.sample_cases("F21Contiguous", 5, 42)
    assert a == b
    c = verifier.sample_cases("F21Contiguous", 5, 43)
    assert a != c
    with pytest.raises(ValueError):
        verifier.sample_cases("F21Contiguous", 0, 42)
    with pytest.raises(ValueError, match="seed=-1"):
        verifier.sample_cases("F21Contiguous", 5, -1)
    # count and seed are integers, as operator.index takes them
    with pytest.raises(ValueError, match=r"count=2\.5, seed=1$"):
        verifier.sample_cases("F21Contiguous", 2.5, 1)
    with pytest.raises(ValueError, match=r"count=5, seed=1\.5$"):
        verifier.sample_cases("F21Contiguous", 5, 1.5)
    with pytest.raises(ValueError, match=r"count=5, seed=1\.5$"):
        verifier.run_suite(["F21Contiguous"], 5, 1.5)
    assert verifier.sample_cases("F21Contiguous", np.int64(5), np.int64(42)) == a


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


def test_run_suite_counts_and_determinism(monkeypatch):
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
    # The entry list is decided before any case runs: a repeated id would
    # count its cases twice, and a string would be read as one id per letter.
    with pytest.raises(ValueError, match="^entries must be distinct, got F21Contiguous more than once$"):
        verifier.run_suite(["F21Contiguous", "F01Bessel", "F21Contiguous"], 2, 0)
    for entries in ("F21Contiguous", b"F21Contiguous"):
        with pytest.raises(ValueError, match="not the string"):
            verifier.run_suite(entries, 2, 0)
    calls = []
    monkeypatch.setattr(verifier, "run_case", calls.append)
    with pytest.raises(KeyError, match="unknown reduction id 'Nope'"):
        verifier.run_suite(["F21Contiguous", "Nope"], 200, 0)
    assert calls == []


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


def test_json_document_is_summary_and_rows():
    report = verifier.run_suite(["F12BesselI", "Pp2Fp1Unity"], 3, 1)
    payload = json.loads(verifier.report_to_json(report))
    rows = verifier.report_to_jsonl(report).strip().split("\n")
    assert payload == {
        "summary": verifier.report_summary(report),
        "results": [json.loads(row) for row in rows],
    }


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
# changed by asking the z = 1 oracle for ORACLE_TOL_UNITY = 1e-8 (was 1e-11)
# with four Richardson levels at least: only the lhs and rel_err of 161
# (seed 0) and 159 (seed 1) of the 180 z = 1 rows moved, by at most 5.8e-11
# relative, and with them five z = 1 entries' worst_rel_err; no verdict changed.
GOLDEN_REPORT_SHA256 = {
    0: "6a6b88a1d465f0ed4f47371ba9634c79745b56c459b93872c6d26c177f54fa63",
    1: "60b0531e1779041296cb89cdaa24c3c5c5c7de87540a07cd8b258d6d9cb8a3ae",
}


# The same hash over the 22 interior (z != 1) entries only.  Their oracle never
# sees |z| = 1, so a change to the z = 1 summation must leave these unchanged.
GOLDEN_INTERIOR_SHA256 = {
    0: "4dee7e4120f1a68821c66eb70f5b340dbaa0050b769f2681ab6b7629df20c26a",
    1: "63e29cee3b1949b07047ba04bb6ff8b2b9a8e5ca3dbc375d7b7d3883fbb95f7b",
}


# The same hash over each case's verdict only, (case_id, pass, failure_kind),
# for all 28 entries.  A change to how either side computes its value may
# move the report hashes above, but must leave every verdict, so this, as it was.
GOLDEN_VERDICT_SHA256 = {
    0: "0a2c3606fbbff3769fc9a990f221f10d0e0086be489e8f42233416c731175931",
    1: "fae56072626b3640df287f81087e1784b31e53a25872a2667349bf8b74a42173",
}


def _report_sha256(entries, seed):
    report = verifier.run_suite(entries, 30, seed)
    text = (
        json.dumps(verifier.report_summary(report, include_timing=False), sort_keys=True)
        + "\n"
        + verifier.report_to_jsonl(report)
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN_VERDICT_SHA256))
def test_golden_verdict_hash(seed):
    report = verifier.run_suite(None, 30, seed)
    verdicts = [[r.case_id, r.passed, r.failure_kind] for r in report.results]
    assert len(verdicts) == 28 * 30
    digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
    assert digest == GOLDEN_VERDICT_SHA256[seed]


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
        # The oracle's estimate fits in the comparison budget: at most 0.33 of
        # it here, at ORACLE_TOL_UNITY 1e-8 and 1e-11 alike, since the table's
        # rounding floor sets the largest estimates, not the tolerance.
        budget = max(verifier.UNITY_TOL_REL * abs(oracle.value), verifier.UNITY_TOL_ABS)
        assert oracle.abs_err_est <= budget, result.case_id


def test_unity_oracle_estimate_bounds_its_error():
    # Every z = 1 request of the seed-1 / 200-case run: the oracle at the
    # verifier's tolerance is within its estimate of the oracle at 1e-14.
    # With three Richardson levels F32UnityJL-1-0007 stops at 64 terms and is
    # 1.26 times its estimate off.
    unity = [i for i in catalog.catalog_ids() if catalog.get_entry(i).unity]
    for entry_id in unity:
        for case in verifier.sample_cases(entry_id, 200, 1):
            spec = catalog.lhs_spec(case.request)
            loose = eval_pfq(spec, tol=verifier.ORACLE_TOL_UNITY)
            tight = eval_pfq(spec, tol=1e-14)
            assert abs(loose.value - tight.value) <= loose.abs_err_est, case.case_id


# The Mismatches of the seed-1 / 200-case run are the oracle's cancellation
# error, not the closed forms': against mpmath at 40 digits each closed form
# is within 1e-11 (worst 6.8e-12), while the oracle is off by more than the
# verifier's tolerance and its own abs_err_est already says so.
_SEED1_MISMATCHES = [
    "F21Contiguous-1-0162",
    *(f"F22IncGamma-1-{i}" for i in ("0007", "0086", "0087", "0119", "0120", "0173")),
    *(f"F32P0-1-{i}" for i in ("0018", "0087", "0176")),
]


def test_seed1_mismatches_are_oracle_cancellation():
    import mpmath

    report = verifier.run_suite(["F21Contiguous", "F22IncGamma", "F32P0"], 200, 1)
    failures = report.failures
    assert [r.case_id for r in failures] == _SEED1_MISMATCHES
    for r in failures:
        spec = catalog.lhs_spec(r.request)
        with mpmath.workdps(40):
            ref = float(mpmath.hyper(list(spec.upper), list(spec.lower), spec.z))
        oracle = eval_pfq(spec, tol=verifier.ORACLE_TOL_INTERIOR)
        assert oracle.value == r.lhs_value
        assert abs(r.rhs_value - ref) <= 1e-11 * abs(ref), r.case_id
        oracle_err = abs(oracle.value - ref)
        assert oracle_err > verifier.INTERIOR_TOL_REL * abs(ref), r.case_id
        assert oracle.abs_err_est >= oracle_err, r.case_id
        assert oracle.abs_err_est > verifier.INTERIOR_TOL_REL * abs(oracle.value), r.case_id


# ---------------------------------------------------------------------------
# one verdict per side: the closed form's failure, then the oracle's, then the
# comparison
# ---------------------------------------------------------------------------

_INTERIOR_CASE = verifier.VerificationCase(
    "t-2", ReductionRequest("F21Contiguous", {"b": 0.7, "c": 1.4}, {"n": 1}, 0.3)
)


def _raising(exc):
    def stub(*args, **kwargs):
        raise exc

    return stub


@pytest.mark.parametrize(
    "exc",
    [OverflowError("overflow"), ZeroDivisionError("division by zero"), PoleError("pole")],
    ids=lambda exc: type(exc).__name__,
)
def test_closed_form_that_raises_is_a_failure(monkeypatch, exc):
    monkeypatch.setattr(catalog, "reduce", _raising(exc))
    result = verifier.run_case(_INTERIOR_CASE)
    assert result.failure_kind == verifier.CLOSED_FORM_FAILED
    assert not result.passed
    assert not result.skipped
    assert (result.lhs_value, result.rhs_value, result.rel_err) == (None, None, None)


@pytest.mark.parametrize(
    "exc",
    [OverflowError("overflow"), DivergentSeriesError("diverges")],
    ids=lambda exc: type(exc).__name__,
)
def test_oracle_that_raises_is_a_skip(monkeypatch, exc):
    monkeypatch.setattr(verifier, "eval_pfq", _raising(exc))
    result = verifier.run_case(_INTERIOR_CASE)
    assert result.failure_kind == verifier.ORACLE_NON_CONVERGENT
    assert result.skipped
    assert result.rhs_value == catalog.reduce(_INTERIOR_CASE.request).value
    assert result.lhs_value is None and result.rel_err is None


def test_closed_form_verdict_comes_first_and_both_sides_run(monkeypatch):
    # The layer tracer counts each side's calls, so a failed closed form
    # still leaves the oracle to run, in the same order as for any case.
    calls = []
    original_lhs_spec = catalog.lhs_spec

    def lhs_spec(req):
        calls.append("lhs_spec")
        return original_lhs_spec(req)

    def reduce(req):
        calls.append("reduce")
        raise OverflowError("overflow")

    def oracle(spec, **kwargs):
        calls.append("eval_pfq")
        raise DivergentSeriesError("diverges")

    monkeypatch.setattr(catalog, "lhs_spec", lhs_spec)
    monkeypatch.setattr(catalog, "reduce", reduce)
    monkeypatch.setattr(verifier, "eval_pfq", oracle)
    assert verifier.run_case(_INTERIOR_CASE).failure_kind == verifier.CLOSED_FORM_FAILED
    assert calls == ["lhs_spec", "reduce", "eval_pfq"]


@pytest.mark.parametrize(
    "request_",
    [
        # (b)_k and (c)_k overflow to inf/inf, a NaN closed form.
        ReductionRequest("F21Contiguous", {"b": 0.5, "c": 1.0}, {"n": 1000}, 0.3),
        # Gamma(180) exceeds the double range.
        ReductionRequest("F01Bessel", {"b": 180.0}, {}, 1.0),
    ],
    ids=["F21Contiguous-n1000", "F01Bessel-b180"],
)
def test_overflowing_closed_form_is_a_failure_row(request_):
    result = verifier.run_case(verifier.VerificationCase("t-3", request_))
    assert result.failure_kind == verifier.CLOSED_FORM_FAILED
    assert not result.skipped


@pytest.mark.parametrize(
    "request_",
    [
        ReductionRequest("F21Contiguous", {"b": 0.5, "c": -1.0}, {"n": 1}, 0.3),
        ReductionRequest("F43Unity", {"a": 0.5, "b": 1.0, "c": 2.0}, {"n": 1}),
    ],
    ids=["F21Contiguous-c-negative", "F43Unity-psi-pole"],
)
def test_out_of_domain_request_raises(request_):
    with pytest.raises(DomainError):
        verifier.run_case(verifier.VerificationCase("t-4", request_))


@pytest.fixture
def failing_closed_form():
    """F21Contiguous's closed form raises OverflowError for the test's length."""
    entry = catalog.get_entry("F21Contiguous")
    original = entry.rhs
    object.__setattr__(entry, "rhs", _raising(OverflowError("overflow")))  # CatalogEntry is frozen
    yield entry.id
    object.__setattr__(entry, "rhs", original)


def test_run_suite_counts_closed_form_failures(failing_closed_form):
    report = verifier.run_suite([failing_closed_form, "F01Bessel"], 4, 0)
    broken, other = report.summaries
    assert (broken.passed, broken.failed, broken.skipped) == (0, 4, 0)
    assert broken.worst_rel_err is None
    assert other.failed == 0
    assert report.total_failed == len(report.failures) == 4
    assert {r.failure_kind for r in report.failures} == {verifier.CLOSED_FORM_FAILED}
    assert verifier.report_summary(report, include_timing=False)["total_failed"] == 4


def test_verify_exits_1_on_closed_form_failures(failing_closed_form, capsys):
    assert cli.main(["verify", "--only", failing_closed_form, "--cases", "3"]) == 1
    assert "total failures: 3" in capsys.readouterr().out
