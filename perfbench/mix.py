"""library-mix: a seeded stream of direct library calls and its references.

Classes (per pass, at scale 1) and why each is there:

- ``reduce``: ``catalog.reduce`` on requests for the 22 entries with z != 1
  (closed form only).  The six z = 1 entries are left to verify-unity because
  an mpmath reference for a 3F2/4F3 at z = 1 takes over a second.
- ``eval_near_unity``: 2F1 at z in [0.9, 0.999), hundreds to tens of
  thousands of terms.  Only 2F1, because mpmath sums a 3F2 this close to
  z = 1 term by term, which takes up to seconds per reference.
- ``eval_unity``: 2F1/3F2 at z = +1 and z = -1 with convergence margin in
  [2.5, 4]: thousands to ~10^5 algebraically decaying terms.  The z = +1 3F2
  is Dixon's well-poised series, whose closed form is the reference.  Upper
  parameters stay in [0.2, 1.5]: with [0.2, 3] the gamma prefactor spreads
  the term counts so widely that 40 inputs differ by 21% between seeds.
- ``eval_confluent``: 0F1, 1F1, 1F2, 2F2 at |z| up to 20, both signs, so that
  negative z brings cancellation.
- ``eval_terminating``: 2F1/3F2 with an upper parameter -m, m up to 40.
- ``generic``: ``expand_main`` and ``reduce_corollary``, n+1 inner series each.

None of the eval specs is one the verifier samples.  Class sizes are chosen so
that each class takes a similar share of the pass (about 0.3 s each on the
reference machine), so no class dominates the wall time.  The quantity that
drives each class's cost (z, margin, |z|, m or n) is stratified over the
class rather than drawn independently, which keeps the cost of a pass nearly
the same from seed to seed.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from hyperreduce import catalog, reductions, series
from hyperreduce.series import PFQSpec, Status

REFERENCE_DPS = 40
# The verifier's mixed tolerance pairs (tol_rel, tol_abs), stated here so that
# results are checked against the documented rule, not against the code's
# own constants.
INTERIOR_TOL = (1e-9, 1e-12)
UNITY_TOL = (1e-6, 1e-9)
# Samples beyond the reported tail percentile, as the tail figure requires.
TAIL_SAMPLES = 10

# class -> inputs per pass at scale 1
CLASSES = {
    "reduce": 2860,
    "eval_near_unity": 500,
    "eval_unity": 80,
    "eval_confluent": 12000,
    "eval_terminating": 17000,
    "generic": 1100,
}
GROUPS = ("reduce", "eval", "generic")  # latency groups


@dataclass(frozen=True)
class Call:
    cls: str
    group: str
    owner: object  # module whose attribute is looked up at call time
    attr: str
    args: tuple
    reference: tuple  # ("hyper", upper, lower, z) or ("dixon", a, b, c)
    tol: tuple[float, float]  # (tol_rel, tol_abs)


@dataclass(frozen=True)
class Judged:
    failure: str | None  # raised / cap / nonfinite / disagree, or None
    err: float | None  # |value - reference|
    est: float | None  # the call's own abs_err_est


def _strata(rng: np.random.Generator, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of ``count`` equal slices of [lo, hi)."""
    return [lo + (hi - lo) * (i + rng.uniform()) / count for i in range(count)]


def _eval_call(cls: str, spec: PFQSpec, tol=INTERIOR_TOL, reference=None) -> Call:
    ref = reference or ("hyper", spec.upper, spec.lower, spec.z)
    return Call(cls, "eval", series, "eval_pfq", (spec,), ref, tol)


def _reduce_calls(seed: int, count: int) -> list[Call]:
    ids = [e for e in catalog.catalog_ids() if not catalog.get_entry(e).unity]
    calls = []
    for entry_id in ids:
        entry = catalog.get_entry(entry_id)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1, entry.ordinal]))
        for _ in range(max(1, count // len(ids))):
            req = catalog.sample_request(entry_id, rng)
            spec = catalog.lhs_spec(req)
            calls.append(Call("reduce", "reduce", catalog, "reduce", (req,),
                              ("hyper", spec.upper, spec.lower, spec.z), INTERIOR_TOL))
    return calls


def _near_unity(rng, count):
    calls = []
    for z in _strata(rng, count, 0.9, 0.999):
        upper = rng.uniform(0.2, 3.0, 2)
        calls.append(_eval_call("eval_near_unity", PFQSpec(upper, [rng.uniform(0.5, 5.0)], z)))
    return calls


def _unity(rng, count):
    calls = []
    for i, s in enumerate(_strata(rng, count, 2.5, 4.0)):
        kind = i % 4
        if kind < 2:  # 2F1(a, b; a+b+s; +-1)
            a, b = rng.uniform(0.2, 1.5, 2)
            spec = PFQSpec([a, b], [a + b + s], 1.0 if kind == 0 else -1.0)
            calls.append(_eval_call("eval_unity", spec, UNITY_TOL))
        elif kind == 2:  # Dixon: 3F2(a, b, c; 1+a-b, 1+a-c; 1), margin 2 + a - 2b - 2c = s
            b, c = rng.uniform(0.2, 1.5, 2)
            a = s - 2.0 + 2.0 * b + 2.0 * c
            spec = PFQSpec([a, b, c], [1.0 + a - b, 1.0 + a - c], 1.0)
            calls.append(_eval_call("eval_unity", spec, UNITY_TOL, ("dixon", a, b, c)))
        else:  # 3F2(a, b, c; d, e; -1) with d + e - a - b - c = s
            a, b, c = rng.uniform(0.2, 1.5, 3)
            d = rng.uniform(0.5, 2.5)
            spec = PFQSpec([a, b, c], [d, a + b + c + s - d], -1.0)
            calls.append(_eval_call("eval_unity", spec, UNITY_TOL))
    return calls


def _confluent(rng, count):
    calls = []
    for i, size in enumerate(_strata(rng, count, 0.0, 20.0)):
        z = size if i % 2 == 0 else -size
        p, q = ((0, 1), (1, 1), (1, 2), (2, 2))[(i // 2) % 4]
        spec = PFQSpec(rng.uniform(0.2, 3.0, p), rng.uniform(0.5, 4.0, q), z)
        calls.append(_eval_call("eval_confluent", spec))
    return calls


def _terminating(rng, count):
    calls = []
    for i, x in enumerate(_strata(rng, count, 1.0, 41.0)):
        upper = [-float(math.floor(x))] + list(rng.uniform(0.2, 3.0, 1 + i % 2))
        spec = PFQSpec(upper, rng.uniform(0.5, 5.0, 1 + i % 2), rng.uniform(-1.0, 1.0))
        calls.append(_eval_call("eval_terminating", spec))
    return calls


def _generic(rng, count):
    calls = []
    for i, x in enumerate(_strata(rng, count, 0.0, 6.0)):
        n = int(x)
        a, b, c = rng.uniform(0.2, 3.0, 3)
        d, z = rng.uniform(0.5, 4.0), rng.uniform(-0.9, 0.9)
        if i % 2 == 0:  # pFq(spec) as a sum of (p+1)F(q+1) values
            spec = PFQSpec([a, b], [d], z)
            call = Call("generic", "generic", reductions, "expand_main", (spec, c, n),
                        ("hyper", spec.upper, spec.lower, z), INTERIOR_TOL)
        else:  # collapse the pair (c+n over c)
            spec = PFQSpec([a, b, c + n], [d, c], z)
            call = Call("generic", "generic", reductions, "reduce_corollary", (spec, c, n),
                        ("hyper", spec.upper, spec.lower, z), INTERIOR_TOL)
        calls.append(call)
    return calls


_BUILDERS = {
    "eval_near_unity": _near_unity,
    "eval_unity": _unity,
    "eval_confluent": _confluent,
    "eval_terminating": _terminating,
    "generic": _generic,
}


def build_stream(seed: int, scale: float) -> list[Call]:
    """The pass's inputs, generated before any timing: a pure function of
    (seed, scale), shuffled so that the classes interleave."""
    calls = _reduce_calls(seed, round(CLASSES["reduce"] * scale))
    for k, (cls, build) in enumerate(_BUILDERS.items(), start=2):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        calls.extend(build(rng, max(1, round(CLASSES[cls] * scale))))
    order = np.random.default_rng(np.random.SeedSequence([seed, 0])).permutation(len(calls))
    return [calls[i] for i in order]


def run_pass(calls: list[Call], tracer=None) -> tuple[list, list[float]]:
    """Make every call once; return each output (or the exception it raised)
    and its wall time."""
    outputs: list = [None] * len(calls)
    times = [0.0] * len(calls)
    clock = time.perf_counter
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.case = f"mix-{i}"
        fn = getattr(call.owner, call.attr)
        start = clock()
        try:
            out = fn(*call.args)
        except Exception as exc:  # a raising call is counted as failed
            out = exc
        times[i] = clock() - start
        outputs[i] = out
    return outputs, times


# ---------------------------------------------------------------------------
# correctness against mpmath, after timing
# ---------------------------------------------------------------------------


def _reference(mpmath, ref: tuple) -> float:
    if ref[0] == "dixon":
        a, b, c = (mpmath.mpf(x) for x in ref[1:])
        g = mpmath.gamma
        value = (g(1 + a / 2) * g(1 + a - b) * g(1 + a - c) * g(1 + a / 2 - b - c)
                 / (g(1 + a) * g(1 + a / 2 - b) * g(1 + a / 2 - c) * g(1 + a - b - c)))
    else:
        _, upper, lower, z = ref
        value = mpmath.hyper(list(upper), list(lower), z)
    return float(value)


def judge(calls: list[Call], outputs: list) -> list[Judged]:
    """A call fails when it raised, hit the term cap, returned a non-finite
    value, or disagrees with the mpmath reference: beyond the verifier's
    tolerance pair for ``reduce``, beyond max(abs_err_est, tolerance) for the
    series and the generic operations."""
    import mpmath  # imported only now, so it weighs on no timing or peak RSS

    with mpmath.workdps(REFERENCE_DPS):
        return [_judge(mpmath, call, out) for call, out in zip(calls, outputs)]


def _judge(mpmath, call: Call, out) -> Judged:
    if isinstance(out, Exception):
        return Judged(f"raised {type(out).__name__}", None, None)
    if out.status is Status.MAX_TERMS_REACHED:
        return Judged("cap", None, out.abs_err_est)
    if not math.isfinite(out.value):
        return Judged("nonfinite", None, out.abs_err_est)
    ref = _reference(mpmath, call.reference)
    err = abs(out.value - ref)
    limit = max(call.tol[0] * abs(ref), call.tol[1])
    if call.group != "reduce":
        limit = max(limit, out.abs_err_est)
    return Judged("disagree" if err > limit else None, err, out.abs_err_est)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest whole percentile, at most 99, with
    at least TAIL_SAMPLES samples beyond it; (0, max) when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 0, -1):
        k = math.ceil(n * pct / 100) - 1
        if n - 1 - k >= TAIL_SAMPLES:
            return float(pct), ordered[k]
    return 0.0, ordered[-1] if ordered else 0.0


def latency_metrics(calls: list[Call], latencies: list[float]) -> dict:
    """Median and tail latency per group; each input's latency is its median
    over the timed passes."""
    m = {}
    for group in GROUPS:
        mine = [t for call, t in zip(calls, latencies) if call.group == group]
        pct, value = tail(mine)
        m[f"{group}_p50_us"] = (statistics.median(mine) * 1e6 if mine else 0.0, "us")
        m[f"{group}_tail_us"] = (value * 1e6, "us")
        m[f"{group}_tail_pct"] = (pct, "pct")
        m[f"{group}_samples"] = (len(mine), "count")
    return m


def calibration_metrics(calls: list[Call], judged: list[Judged]) -> dict:
    """Largest true error over the call's own error estimate."""
    m = {}
    for group, name in (("eval", "eval.err_over_est_max"), ("reduce", "reduce.err_over_est_max")):
        ratios = [j.err / max(j.est, 1e-300) for call, j in zip(calls, judged)
                  if call.group == group and j.err is not None]
        m[name] = (max(ratios, default=0.0), "ratio")
    return m
