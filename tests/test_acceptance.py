"""Acceptance suite: ten end-to-end properties checked against independent
oracles (direct series summation, high-precision differentiation, direct
finite sums, a second closed form).  Each test prints one pass/fail line;
run with `pytest -s tests/test_acceptance.py` to see them.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest
import scipy.special

from hyperreduce import catalog, reductions as rd, verifier
from hyperreduce.catalog import ReductionRequest
from hyperreduce.reductions import (
    bateman_next,
    expand_main,
    h_derivative,
    pfp_polynomial_coeffs,
    psi_sum_alternating,
    psi_sum_closed,
    ratio_derivative,
    reduce_corollary,
    shifted_pfp_damped,
)
from hyperreduce.series import PFQSpec, eval_pfq
from hyperreduce.special import bateman_g

mp.mp.dps = 30


def _line(number: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {text}")


def _report(number: int, ok: bool, text: str) -> None:
    _line(number, ok, text)
    assert ok, f"criterion {number} failed: {text}"


def _sample_base_spec(rng: np.random.Generator, z: float) -> tuple[list, list]:
    """Random pFq parameter lists with p <= q+1 <= 4, convergent for |z| < 1."""
    q = int(rng.integers(0, 4))
    p = int(rng.integers(0, min(q + 1, 3) + 1))
    upper = [float(rng.uniform(0.3, 3.0)) for _ in range(p)]
    lower = [float(rng.uniform(0.5, 4.0)) for _ in range(q)]
    return upper, lower


def test_criterion_01_corollary_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        z = float(rng.uniform(-0.8, 0.8))
        upper, lower = _sample_base_spec(rng, z)
        c = float(rng.uniform(0.3, 4.0))
        n = int(rng.integers(0, 7))
        spec = PFQSpec(upper + [c + n], lower + [c], z)
        oracle = eval_pfq(spec).value
        value = reduce_corollary(spec, c, n).value
        err = abs(value - oracle) / max(abs(oracle), 1e-3)
        worst = max(worst, err)
        assert err <= 1e-9, (spec, c, n, value, oracle)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(1, ok, f"contiguous-pair collapse, 200 cases, worst rel err "
                   f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_main_expansion():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        z = float(rng.uniform(-0.8, 0.8))
        upper, lower = _sample_base_spec(rng, z)
        c = float(rng.uniform(0.3, 4.0))
        n = int(rng.integers(0, 7))
        spec = PFQSpec(upper, lower, z)
        oracle = eval_pfq(spec).value
        value = expand_main(spec, c, n).value
        err = abs(value - oracle) / max(abs(oracle), 1e-3)
        worst = max(worst, err)
        assert err <= 1e-9, (spec, c, n, value, oracle)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(2, ok, f"contiguous-pair expansion, 100 cases, worst rel err "
                   f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_full_catalog_suite():
    start = time.perf_counter()
    report = verifier.run_suite(None, 30, 0)
    elapsed = time.perf_counter() - start
    bad = [s.entry_id for s in report.summaries if s.failed > 0 or s.passed < 30]
    ok = not bad and report.total_failed == 0 and elapsed < 60.0
    _report(3, ok, f"all {len(report.summaries)} catalog entries x 30 cases, "
                   f"0 mismatches, {elapsed:.1f}s" + (f"; failing: {bad}" if bad else ""))


def test_criterion_04_bateman_recursion():
    worst = 0.0
    for a in (0.3, 0.8, 1.5, 2.5):
        for n in range(7):
            err = abs(bateman_next(a, n) - bateman_g(a + n + 1.0))
            worst = max(worst, err)
    ok = worst <= 1e-9
    _report(4, ok, f"G-function recursion on the (a, n) grid, worst abs err {worst:.2e}")


def test_criterion_05_psi_sum_lemmas():
    rng = np.random.default_rng(105)
    worst = 0.0
    checked = 0
    while checked < 100:
        b = float(rng.uniform(0.3, 3.5))
        c = float(rng.uniform(0.4, 4.0))
        n = int(rng.integers(0, 9))
        if abs(b - c) < 0.05:
            continue
        if any(
            x < 0.5 and abs(x - round(x)) < 0.05
            for x in (1.0 + b - c, 1.0 + b - c - n)
        ):
            continue
        direct = sum(
            math.comb(n, k)
            * (-1.0) ** k
            * scipy.special.poch(b, k)
            / scipy.special.poch(c, k)
            * scipy.special.psi(b + k)
            for k in range(n + 1)
        )
        err = abs(psi_sum_closed(b, c, n) - direct)
        worst = max(worst, err)
        if n >= 1:
            direct_simple = sum(
                math.comb(n, k) * (-1.0) ** k * scipy.special.psi(b + k)
                for k in range(n + 1)
            )
            worst = max(worst, abs(psi_sum_alternating(b, n) - direct_simple))
        checked += 1
    ok = worst <= 1e-10
    _report(5, ok, f"psi-sum closed forms vs direct sums, 100 cases, worst abs err {worst:.2e}")


def test_criterion_06_beta_derivative_operator():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(0, 4))
        alpha = float(rng.uniform(0.4, 3.0))
        beta = float(rng.uniform(-2.0, 3.0))
        g = float(rng.uniform(-1.5, 2.5))
        z = float(rng.uniform(0.15, 0.85))
        oracle = float(mp.diff(lambda t: mp.mpf(t) ** g * mp.betainc(alpha, beta, 0, t), z, n))
        err = abs(h_derivative(n, alpha, beta, g, z) - oracle) / max(abs(oracle), 1e-9)
        worst = max(worst, err)
    worst_unity = 0.0
    for _ in range(20):
        n = int(rng.integers(0, 4))
        alpha = float(rng.uniform(0.4, 3.0))
        beta = float(rng.uniform(n + 0.2, n + 4.0))
        g = float(rng.uniform(-1.5, 2.5))
        expected = (
            (-1.0) ** n
            * scipy.special.poch(-g, n)
            * scipy.special.beta(alpha, beta)
        )
        err = abs(h_derivative(n, alpha, beta, g, 1.0) - expected) / max(abs(expected), 1e-12)
        worst_unity = max(worst_unity, err)
    ok = worst <= 1e-6 and worst_unity <= 1e-10
    _report(6, ok, f"n-th derivative of z^g B_z, worst rel err interior {worst:.2e}, "
                   f"at z=1 {worst_unity:.2e}")


def test_criterion_07_ratio_derivative():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(30):
        m = int(rng.integers(0, 5))
        alpha = float(rng.uniform(0.3, 3.0))
        beta = float(rng.uniform(-1.5, 3.0))
        z = float(rng.uniform(0.1, 0.9))
        oracle = float(mp.diff(lambda t: mp.mpf(t) ** alpha / (1 - mp.mpf(t)) ** beta, z, m))
        err = abs(ratio_derivative(m, alpha, beta, z) - oracle) / max(abs(oracle), 1e-9)
        worst = max(worst, err)
    ok = worst <= 1e-6
    _report(7, ok, f"m-th derivative of z^a/(1-z)^b, 30 cases, worst rel err {worst:.2e}")


def test_criterion_08_polynomial_conjecture():
    # Two routes to e^{-z} pFp(a+n; a; z): the closed-form polynomial of
    # degree N = sum(n) and the oracle's damped series, at N + 2 nodes.
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(20):
        p = int(rng.integers(1, 4))
        while True:
            shifts = [int(rng.integers(0, 4)) for _ in range(p)]
            if 1 <= sum(shifts) <= 5:
                break
        a = [float(rng.uniform(0.4, 3.0)) for _ in range(p)]
        coeffs = pfp_polynomial_coeffs(a, shifts)
        nodes = [float(x) for x in np.linspace(-1.0, 1.0, sum(shifts) + 2)]
        values = [shifted_pfp_damped(a, shifts, x) for x in nodes]
        poly = [sum(c * x**j for j, c in enumerate(coeffs)) for x in nodes]
        diff = max(abs(u - v) for u, v in zip(poly, values))
        worst = max(worst, diff / max(abs(v) for v in values))
    ok = worst <= 1e-12
    _report(8, ok, f"damped shifted-pFp polynomial against the oracle, worst "
                   f"difference ratio {worst:.2e}")


def test_criterion_09_cross_form_equivalences():
    rng = np.random.default_rng(109)
    worst_h = 0.0
    for _ in range(50):
        req = catalog.sample_request("Pp3Fp2H", rng)
        v1 = catalog.reduce(req).value
        v2 = catalog.reduce(
            ReductionRequest("Pp3Fp2IncBeta", req.scalars, req.shifts, req.z)
        ).value
        worst_h = max(worst_h, abs(v1 - v2) / max(abs(v1), 1e-12))
    assert worst_h <= 1e-9

    worst_unity = 0.0
    checked = 0
    while checked < 50:
        p = int(rng.integers(1, 4))
        n = int(rng.integers(0, 3))
        b = min(1.0 - n, p - n - 1.55) - float(rng.uniform(0.05, 2.0))
        a = tuple(sorted(float(rng.uniform(0.3, 4.0)) for _ in range(p)))
        if any(a[i + 1] - a[i] < 0.1 for i in range(p - 1)):
            continue
        c = float(rng.uniform(0.5, 4.0))
        if any(abs(c - al + j) < 0.05 for al in a for j in range(n)):
            continue
        v_beta, _ = rd.pp2_inc_beta_rhs(a, b, c, n, 1.0)
        v_unity, _ = rd.pp2_unity_rhs(a, b, c, n)
        worst_unity = max(worst_unity, abs(v_beta - v_unity) / max(abs(v_unity), 1e-12))
        checked += 1
    assert worst_unity <= 1e-10

    worst_p0 = 0.0
    for _ in range(50):
        b = float(rng.uniform(0.3, 3.0))
        c = float(rng.uniform(0.5, 4.0))
        n = int(rng.integers(0, 5))
        m = int(rng.integers(0, 5))
        z = float(rng.uniform(-0.8, 0.9))
        v1, _ = rd.f32_p0_rhs(b, c, b, n, m, z)
        v2, _ = rd.f21_contiguous_rhs(b + m, c, n, z)
        worst_p0 = max(worst_p0, abs(v1 - v2) / max(abs(v2), 1e-12))

    # Specializations on the verifier's seed-1 draws: a shift at 0 removes a
    # contiguous pair, F43UnityNM is Pp3Fp2Unity at p = 1, and the Bateman-G
    # form of 2F1(a, a+n; a+1; 1/2) is F21Contiguous's elementary sum.
    def laguerre_22(s, sh, z):
        return (ReductionRequest("F22Laguerre", s, {**sh, "m": 0}, z),
                ReductionRequest("F11Laguerre", {"a": s["a"]}, {"n": sh["n"]}, z))

    def laguerre_33(s, sh, z):
        return (ReductionRequest("F33Laguerre", s, {**sh, "k": 0}, z),
                ReductionRequest("F22Laguerre", {"a": s["a"], "b": s["b"]},
                                 {"n": sh["n"], "m": sh["m"]}, z))

    def unity_nm(s, sh, z):
        return (ReductionRequest("F43UnityNM", s, sh, z),
                ReductionRequest("Pp3Fp2Unity",
                                 {"a": (s["b"],), "b": s["a"], "c": s["b"] + 1.0, "d": s["c"]},
                                 {"n": sh["n"] - 1, "m": sh["m"]}))

    def half_bateman(s, sh, z):
        if sh["n"] < 1:
            return None
        return (ReductionRequest("F21HalfBateman", s, sh, z),
                ReductionRequest("F21Contiguous", {"b": s["a"], "c": s["a"] + 1.0},
                                 {"n": sh["n"] - 1}, 0.5))

    def literature(s, sh, z):  # the same left-hand side; Literature's domain lies inside IncBeta's
        return (ReductionRequest("Pp2Fp1Literature", s, sh, z),
                ReductionRequest("Pp2Fp1IncBeta", s, sh, z))

    worst_routes = {}
    for entry_id, pair in (("F22Laguerre", laguerre_22), ("F33Laguerre", laguerre_33),
                           ("F43UnityNM", unity_nm), ("F21HalfBateman", half_bateman),
                           ("Pp2Fp1Literature", literature)):
        worst_routes[entry_id] = 0.0
        for case in verifier.sample_cases(entry_id, 50, 1):
            req = case.request
            requests = pair(req.scalars, req.shifts, req.z)
            if requests is None:
                continue
            v1, v2 = (catalog.reduce(r).value for r in requests)
            rel = abs(v1 - v2) / max(abs(v2), 1e-12)
            worst_routes[entry_id] = max(worst_routes[entry_id], rel)
    routes = " / ".join(f"{w:.2e}" for w in worst_routes.values())
    ok = (worst_h <= 1e-9 and worst_unity <= 1e-10 and worst_p0 <= 1e-11
          and max(worst_routes.values()) <= 1e-11)
    _report(9, ok, f"cross-form equivalences, worst rel errs {worst_h:.2e} / "
                   f"{worst_unity:.2e} / {worst_p0:.2e} / {routes}")


def test_criterion_10_half_minus_disambiguation():
    cases = verifier.sample_cases("F32HalfMinusM", 30, 0)
    signed_fail = 0
    unsigned_fail = 0
    shifted_cases = 0
    for case in cases:
        p = dict(case.request.scalars)
        n, m = case.request.shifts["n"], case.request.shifts["m"]
        if m >= 1:
            shifted_cases += 1
        oracle = eval_pfq(catalog.lhs_spec(case.request), tol=1e-16).value
        signed, _ = rd.f32_half_minus_signed_rhs(p["a"], p["b"], p["c"], n, m)
        unsigned, _ = rd.f32_half_minus_unsigned_rhs(p["a"], p["b"], p["c"], n, m)
        tol = max(1e-9 * abs(oracle), 1e-12)
        if abs(signed - oracle) > tol:
            signed_fail += 1
        if abs(unsigned - oracle) > tol:
            unsigned_fail += 1
    ok = signed_fail == 0 and unsigned_fail > 0 and shifted_cases > 0
    _report(10, ok, f"shifted half-argument variants: kept form {30 - signed_fail}/30 "
                    f"pass, negative control fails {unsigned_fail}/30")
