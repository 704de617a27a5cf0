"""The three workloads and their correctness checks.

verify-interior / verify-unity run ``hyperreduce verify --format json``
in-process through ``cli.main`` on the 22 entries with z != 1 and on the six
``fixed_z = 1`` entries, one invocation per entry and verifier seed.  The
verifier seeds are the workload seed and two seeds derived from it: the cost
of a z = 1 case grows like 10^(11/margin), so a few cases near the smallest
margin carry much of the time, and 200 cases from one seed leave the
oracle's term count 21% apart between seeds (quartile distance over ten
seeds); three seeds bring that to about 6%.  library-mix makes direct
library calls over a seeded input stream (see ``mix.py``).  Every workload
is one process, one thread and a closed loop: the next call starts when the
previous one has returned.

Each repetition times every unit of work separately (an entry's invocation,
or one library call).  A unit's time is the fastest of its repetitions: a
2-vCPU virtual machine that shares its host was seen to alternate between
two speeds about 1.4x apart every second or so, and the fastest repetition
of a short unit reads the uncontended speed, while a median of whole
repetitions moved by up to 25% with the share of slow seconds in the run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import time
from collections import Counter
from dataclasses import dataclass, field

from hyperreduce import catalog, cli, verifier

import layertrace
import mix

DEFAULT_CASES = 200
VERIFIER_SEEDS = 3
SEED_STRIDE = 1_000_000
UNITY_IDS = layertrace.UNITY_IDS
INTERIOR_IDS = tuple(e for e in catalog.catalog_ids() if e not in UNITY_IDS)
VERIFY_SETS = {"verify-interior": INTERIOR_IDS, "verify-unity": UNITY_IDS}
WORKLOADS = (*VERIFY_SETS, "library-mix")
MAX_PROBLEMS = 5


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int  # operations in one repetition
    failed: int  # failed operations in one repetition
    fastest: list[float]  # each unit's fastest untraced wall time
    rep_seconds: list[float]  # untraced wall time of each whole repetition
    peak_rss_mb: float  # process peak RSS right after the untraced repetitions
    problems: list[str] = field(default_factory=list)  # failed correctness checks
    notes: list[str] = field(default_factory=list)  # human-readable findings
    layers: dict = field(default_factory=dict)  # per-layer metrics, traced runs only
    tracer: layertrace.Tracer | None = None

    @property
    def seconds(self) -> float:
        """Untraced time of one repetition, from each unit's fastest run."""
        return sum(self.fastest)

    @property
    def correct(self) -> bool:
        return not self.problems


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(rep, check, seconds: float) -> tuple[list[float], list[float]]:
    """Repeat ``rep`` until ``seconds`` of measured time have passed (at
    least twice); ``check`` runs after each repetition, outside the timing.
    Returns each unit's fastest time and the time of each repetition."""
    fastest: list[float] = []
    reps: list[float] = []
    while len(reps) < 2 or sum(reps) < seconds:
        gc.collect()
        times = rep()
        fastest = list(map(min, fastest, times)) if fastest else times
        reps.append(sum(times))
        check()
    return fastest, reps


def _traced(outcome: Outcome, rep) -> None:
    """One traced repetition after the untraced ones.  The wrappers are
    removed before this returns; the overhead is the traced wall time minus
    the untraced time of one repetition."""
    tracer = layertrace.Tracer()
    gc.collect()
    with layertrace.tracing(tracer):
        start = time.perf_counter()
        with tracer.span("bench"):
            rep(tracer)
        wall = time.perf_counter() - start
    outcome.tracer = tracer
    outcome.layers = layertrace.layer_metrics(tracer)
    outcome.layers["trace.wall_s"] = (wall, "s")
    outcome.layers["trace.untraced_s"] = (outcome.seconds, "s")
    outcome.layers["trace.overhead_s"] = (wall - outcome.seconds, "s")


# ---------------------------------------------------------------------------
# verify-interior / verify-unity
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _keep_reports(reports: list):
    """Keep each Report that ``verifier.run_suite`` hands to ``cli.main``, so
    that the timing-free report can be hashed after the timed call."""
    original = verifier.run_suite

    def keep(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    verifier.run_suite = keep
    try:
        yield
    finally:
        verifier.run_suite = original


def report_bytes(report: verifier.Report) -> bytes:
    """The deterministic report: the timing-free summary plus JSONL."""
    summary = json.dumps(verifier.report_summary(report, include_timing=False), sort_keys=True)
    return (summary + "\n" + verifier.report_to_jsonl(report)).encode()


def check_verify(rc: int, text: str, report: verifier.Report, entry_id: str, cases: int) -> list[str]:
    """Check one invocation's output: one row per case, the exit code, and
    every pass/Mismatch verdict against the verifier's stated tolerance rule."""
    problems = []
    rows = json.loads(text)["results"]
    if len(rows) != cases or {r["id"] for r in rows} != {entry_id}:
        problems.append(f"{entry_id}: report has {len(rows)} rows, expected {cases}")
    if rc != (1 if report.total_failed else 0):
        problems.append(f"{entry_id}: exit code {rc} with {report.total_failed} failures")
    tol_rel, tol_abs = mix.UNITY_TOL if catalog.get_entry(entry_id).unity else mix.INTERIOR_TOL
    for row in rows:
        if not (row["pass"] or row["failure_kind"] == verifier.MISMATCH):
            continue
        lhs, rhs = row["lhs"], row["rhs"]
        agrees = (lhs is not None and rhs is not None
                  and abs(lhs - rhs) <= max(tol_rel * abs(lhs), tol_abs))
        if row["pass"] != agrees:
            problems.append(f"{row['case_id']}: pass={row['pass']} but the tolerance rule says {agrees}")
    return problems


def verdict_metrics(reports: list[verifier.Report]) -> dict:
    """Verdict counts, and the size of the deterministic reports (the CLI's
    own output carries wall times, so its size is not an exact count)."""
    kinds = Counter(r.failure_kind for report in reports for r in report.results)
    return {
        "verdict.pass": (kinds[None], "count"),
        "verdict.mismatch": (kinds[verifier.MISMATCH], "count"),
        "verdict.skip_cap": (kinds[verifier.ORACLE_NON_CONVERGENT], "count"),
        "verdict.domain_rejected": (kinds[verifier.DOMAIN_REJECTED], "count"),
        "serialize.bytes": (sum(len(report_bytes(r)) for r in reports), "count"),
    }


def run_verify(workload: str, seed: int, seconds: float, scale: float, traced: bool) -> Outcome:
    ids = VERIFY_SETS[workload]
    cases = max(1, round(DEFAULT_CASES * scale))
    seeds = [seed + k * SEED_STRIDE for k in range(VERIFIER_SEEDS)]
    units = [(s, entry_id) for s in seeds for entry_id in ids]
    reports: list = []
    texts: list = []
    digests: set[str] = set()
    problems: list[str] = []

    def argv(verifier_seed: int, entry_id: str, count: int) -> list[str]:
        return ["verify", "--only", entry_id, "--cases", str(count), "--seed", str(verifier_seed),
                "--format", "json"]

    def rep(tracer=None) -> list[float]:
        reports.clear()
        texts.clear()
        times = []
        for unit in units:
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv(*unit, cases))
            times.append(time.perf_counter() - start)
            texts.append((rc, buf.getvalue()))
        return times

    def check() -> None:
        digests.add(hashlib.sha256(b"".join(map(report_bytes, reports))).hexdigest())
        for (_, entry_id), report, (rc, text) in zip(units, reports, texts):
            problems.extend(check_verify(rc, text, report, entry_id, cases))
        del problems[MAX_PROBLEMS:]

    with _keep_reports(reports):
        with contextlib.redirect_stdout(io.StringIO()):
            for entry_id in ids:
                cli.main(argv(seed, entry_id, 1))  # warm-up
        fastest, reps = _measure(rep, check, seconds)
        outcome = Outcome(len(units) * cases, 0, fastest, reps, _peak_rss_mb(), problems)
        if traced:
            _traced(outcome, rep)
            check()
            outcome.layers.update(verdict_metrics(reports))
    if len(digests) != 1:
        problems.append(f"report hash differs between repetitions: {sorted(digests)}")
    outcome.notes.append(f"report sha256 {min(digests)} ({len(reps) + traced} repetitions, "
                         f"{cases} cases per entry and verifier seed)")
    for verifier_seed in seeds:
        failures = Counter((r.entry_id, r.failure_kind) for report in reports for r in report.results
                           if not r.passed and report.seed == verifier_seed)
        outcome.failed += sum(failures.values())
        outcome.notes.append(f"failures at verifier seed {verifier_seed}: " + (", ".join(
            f"{entry} {kind} x{n}" for (entry, kind), n in sorted(failures.items())) or "none"))
    return outcome


# ---------------------------------------------------------------------------
# library-mix
# ---------------------------------------------------------------------------


def run_library_mix(seed: int, seconds: float, scale: float, traced: bool) -> Outcome:
    calls = mix.build_stream(seed, scale)
    outputs: list[list] = []
    problems: list[str] = []

    def rep(tracer=None) -> list[float]:
        out, times = mix.run_pass(calls, tracer)
        outputs.append(out)
        return times

    def check() -> None:
        if len(outputs) > 1 and not problems and list(map(repr, outputs.pop())) != list(map(repr, outputs[0])):
            problems.append("library-mix outputs differ between passes")

    mix.run_pass(calls[:200], None)  # warm-up
    fastest, reps = _measure(rep, check, seconds)
    outcome = Outcome(len(calls), 0, fastest, reps, _peak_rss_mb(), problems)
    if traced:
        _traced(outcome, rep)
        check()
    # mpmath references are computed after every timed and traced pass.
    judged = mix.judge(calls, outputs[0])
    reasons = Counter((call.cls, j.failure) for call, j in zip(calls, judged) if j.failure)
    outcome.failed = sum(reasons.values())
    outcome.notes.append(f"{len(calls)} calls per pass, {len(reps)} timed passes, seed {seed}")
    outcome.notes.append("failures: " + (", ".join(
        f"{cls} {why} x{n}" for (cls, why), n in sorted(reasons.items())) or "none"))
    if traced:
        outcome.layers.update(mix.latency_metrics(calls, outcome.fastest))
        outcome.layers.update(mix.calibration_metrics(calls, judged))
    return outcome


def run(workload: str, seed: int, seconds: float, scale: float, traced: bool) -> Outcome:
    if workload == "library-mix":
        return run_library_mix(seed, seconds, scale, traced)
    return run_verify(workload, seed, seconds, scale, traced)
