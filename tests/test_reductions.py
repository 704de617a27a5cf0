import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperreduce import ReductionRequest, lhs_spec, reduce, reductions
from hyperreduce.errors import (
    DegenerateParametersError,
    DomainError,
)
from hyperreduce.reductions import (
    bateman_next,
    expand_main,
    f21_neg_unit_bateman_rhs,
    f21_neg_unit_direct_rhs,
    f32_half_minus_signed_rhs,
    f32_half_minus_unsigned_rhs,
    h_derivative,
    pfp_polynomial_coeffs,
    psi_sum_alternating,
    psi_sum_closed,
    ratio_derivative,
    reduce_corollary,
    shifted_pfp_damped,
)
from hyperreduce.series import PFQSpec, Status, eval_pfq, is_nonpositive_integer
from hyperreduce.special import bateman_g, complete_beta, incomplete_beta, pochhammer

mp.mp.dps = 30


# -- psi sum lemmas ----------------------------------------------------------


def _psi_sum_direct(b: float, c: float, n: int) -> float:
    total = 0.0
    for k in range(n + 1):
        total += (
            math.comb(n, k)
            * (-1.0) ** k
            * scipy.special.poch(b, k)
            / scipy.special.poch(c, k)
            * scipy.special.psi(b + k)
        )
    return total


def test_psi_sum_closed_n0():
    assert psi_sum_closed(0.9, 2.3, 0) == pytest.approx(scipy.special.psi(0.9), rel=1e-13)


def test_psi_sum_closed_random():
    rng = np.random.default_rng(30)
    for _ in range(60):
        b = rng.uniform(0.3, 3.0)
        c = rng.uniform(0.4, 4.0)
        n = int(rng.integers(0, 9))
        args = [1.0 + b - c, 1.0 + b - c - n]
        if abs(b - c) < 0.05:
            continue
        if any(x <= 0.05 and abs(x - round(x)) < 0.05 for x in args):
            continue
        assert psi_sum_closed(b, c, n) == pytest.approx(
            _psi_sum_direct(b, c, n), abs=1e-10
        )


def test_psi_sum_closed_rejects_equal_parameters():
    with pytest.raises(DegenerateParametersError):
        psi_sum_closed(1.0, 1.0, 2)


def test_psi_sum_alternating():
    assert psi_sum_alternating(1.0, 1) == pytest.approx(-1.0, rel=1e-14)
    rng = np.random.default_rng(31)
    for _ in range(40):
        b = rng.uniform(0.3, 4.0)
        n = int(rng.integers(1, 9))
        direct = sum(
            math.comb(n, k) * (-1.0) ** k * scipy.special.psi(b + k)
            for k in range(n + 1)
        )
        assert psi_sum_alternating(b, n) == pytest.approx(direct, abs=1e-11)
    with pytest.raises(DomainError):
        psi_sum_alternating(1.0, 0)


# -- Bateman recursion -------------------------------------------------------


def test_closed_forms_reject_minus_infinity():
    # Bateman's G and psi of -inf once raised OverflowError from round(-inf).
    with pytest.raises(DomainError):
        bateman_next(-math.inf, 2)
    with pytest.raises(DomainError):
        psi_sum_closed(-math.inf, 1.0, 2)
    # A NaN or infinite parameter once gave nan, -0.0, ZeroDivisionError or a
    # non-converged continued fraction here.
    nan, inf = math.nan, math.inf
    for call in (
        lambda: psi_sum_alternating(nan, 2),
        lambda: psi_sum_alternating(inf, 2),
        lambda: psi_sum_alternating(-inf, 2),
        lambda: ratio_derivative(1, nan, 0.5, 0.3),
        lambda: ratio_derivative(1, -inf, 0.5, 0.3),
        lambda: ratio_derivative(1, 1.0, inf, 0.3),
        lambda: ratio_derivative(1, 1.0, nan, 0.3),
        lambda: h_derivative(1, nan, 0.5, 0.3, 0.5),
        lambda: h_derivative(1, inf, 0.5, 0.3, 0.5),
        lambda: h_derivative(1, 1.0, nan, 0.3, 0.5),
        lambda: h_derivative(1, 1.0, -inf, 0.3, 0.5),
        lambda: h_derivative(1, 1.0, 0.5, nan, 0.5),
        lambda: h_derivative(1, 1.0, 0.5, inf, 0.5),
        lambda: h_derivative(1, 1.0, 0.5, -inf, 0.5),
        lambda: pfp_polynomial_coeffs([nan], [2]),
        lambda: pfp_polynomial_coeffs([1.5, inf], [1, 1]),
        lambda: incomplete_beta(0.5, nan, 1.0),
        lambda: incomplete_beta(0.5, inf, 1.0),
        lambda: incomplete_beta(0.5, 1.0, nan),
        lambda: incomplete_beta(0.5, 1.0, -inf),
        lambda: incomplete_beta(1.0, 1.0, nan),
    ):
        with pytest.raises(DomainError):
            call()
    # A shift that is no integer >= 0 (>= 1 for psi_sum_alternating) once
    # raised TypeError from range or math.factorial, naming no parameter.
    pair = PFQSpec([0.5, 2.2], [1.5, 1.2], 0.3)
    for name, call in (
        ("n_i", lambda: pfp_polynomial_coeffs([1.0], [1.5])),
        ("n_i", lambda: pfp_polynomial_coeffs([1.0, 2.0], [1, -1])),
        ("n", lambda: psi_sum_alternating(1.0, 2.5)),
        ("n", lambda: psi_sum_alternating(1.0, 0)),
        ("n", lambda: psi_sum_closed(0.5, 1.5, 2.5)),
        ("n", lambda: psi_sum_closed(0.5, 1.5, -1)),
        ("n", lambda: bateman_next(1.0, 1.5)),
        ("n", lambda: bateman_next(1.0, 2.0)),
        ("n", lambda: bateman_next(1.0, True)),
        ("n", lambda: h_derivative(1.5, 1.0, 0.5, 0.3, 0.5)),
        ("n", lambda: h_derivative(-1, 1.0, 0.5, 0.3, 0.5)),
        ("m", lambda: ratio_derivative(1.5, 1.0, 0.5, 0.3)),
        ("m", lambda: ratio_derivative(-1, 1.0, 0.5, 0.3)),
        ("n", lambda: expand_main(PFQSpec([0.5], [1.5], 0.3), 1.2, 1.5)),
        ("n", lambda: expand_main(PFQSpec([0.5], [1.5], 0.3), 1.2, -1)),
        ("n", lambda: reduce_corollary(pair, 1.2, 1.5)),
        ("n", lambda: reduce_corollary(pair, 1.2, -1)),
    ):
        with pytest.raises(DomainError, match=f"^{name} must be an integer >= "):
            call()
    # What operator.index accepts is a shift.
    assert bateman_next(1.0, np.int64(2)) == bateman_next(1.0, 2)
    assert reduce_corollary(pair, 1.2, np.int64(1)) == reduce_corollary(pair, 1.2, 1)


def test_lemmas_raise_on_a_vanishing_pochhammer_divisor():
    for call, message in (
        (lambda: psi_sum_closed(0.5, -1.0, 3), r"^\(-1\.0\)_3 = 0$"),
        (lambda: psi_sum_alternating(-1.0, 3), r"^\(-1\.0\)_3 = 0$"),
        (lambda: ratio_derivative(2, 0.0, 0.5, 0.3), r"^\(-1\.0\)_2 = 0 in terminating 2F1$"),
    ):
        with pytest.raises(ZeroDivisionError, match=message):
            call()


def test_bateman_next_base():
    # G(1) = ln 2 and G(1) + G(2) = 1 force G(2) = 1 - ln 2.
    assert bateman_next(1.0, 0) == pytest.approx(1.0 - math.log(2.0), rel=1e-12)


def test_bateman_next_rejects_negative_n():
    # The loop over k <= n would not run and leave 0.0.
    with pytest.raises(DomainError):
        bateman_next(1.0, -1)


def test_bateman_next_matches_direct():
    for a in (0.3, 0.8, 1.5, 2.5):
        for n in range(7):
            assert bateman_next(a, n) == pytest.approx(
                bateman_g(a + n + 1.0), abs=1e-10
            )


# -- the two terminating 2F1(-1) forms --------------------------------------


def test_neg_unit_forms_agree():
    rng = np.random.default_rng(32)
    for _ in range(60):
        a = rng.uniform(0.3, 4.0)
        n = int(rng.integers(0, 7))
        v1, _ = f21_neg_unit_bateman_rhs(a, n)
        v2, _ = f21_neg_unit_direct_rhs(a, n)
        assert v1 == pytest.approx(v2, abs=1e-11)


# -- derivative lemmas -------------------------------------------------------


def test_h_derivative_n0():
    # zeroth derivative: z^g B_z(alpha, beta)
    z, alpha, beta, g = 0.4, 1.3, 2.1, 0.7
    expected = z**g * float(mp.betainc(alpha, beta, 0, z))
    assert h_derivative(0, alpha, beta, g, z) == pytest.approx(expected, rel=1e-12)


def test_h_derivative_matches_mp_diff():
    rng = np.random.default_rng(33)
    checked = 0
    while checked < 25:
        n = int(rng.integers(0, 4))
        alpha = rng.uniform(0.4, 3.0)
        beta = rng.uniform(-2.0, 3.0)
        g = rng.uniform(-1.5, 2.5)
        z = rng.uniform(0.15, 0.85)
        f = lambda t: mp.mpf(t) ** g * mp.betainc(alpha, beta, 0, t)
        oracle = float(mp.diff(f, z, n))
        value = h_derivative(n, alpha, beta, g, z)
        assert value == pytest.approx(oracle, rel=1e-6, abs=1e-9)
        checked += 1


# h_derivative against mpmath's numerical derivative at 30 digits, with
# alpha - k < 0 for k < n wherever alpha < n - 1.  The error is measured
# against the larger of the value and the B_z term (-gamma)_n z^(gamma-n)
# B_z(alpha, beta), which the correction sum cancels down to the value.  An
# integer alpha < n would put a lower parameter on a pole.  Over
# 1 000 random points (n <= 3) the worst was 7.2e-15 of that scale.
def _not_at_a_lower_pole(p):
    n, alpha = p[0], p[1]
    return alpha >= n or abs(alpha - round(alpha)) >= 0.05


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.tuples(
        st.integers(0, 3),
        st.floats(0.3, 4.0),
        st.floats(-3.0, 3.0),
        st.floats(-1.5, 2.5),
        st.floats(0.05, 0.95),
    ).filter(_not_at_a_lower_pole)
)
@example((3, 0.6, 1.7, 0.4, 0.5))
@example((3, 1.3, -2.2, -0.8, 0.9))
def test_h_derivative_against_mpmath(p):
    n, alpha, beta, g, z = p
    with mp.workdps(30):
        ref = mp.diff(lambda t: mp.mpf(t) ** g * mp.betainc(alpha, beta, 0, t), z, n)
        main = mp.mpf(z) ** (g - n) * mp.rf(-g, n) * mp.betainc(alpha, beta, 0, z)
        scale = max(abs(ref), abs(main))
        assert abs(h_derivative(n, alpha, beta, g, z) - ref) <= 5e-14 * scale


def test_h_derivative_at_unity():
    # Exactly (-1)^n (-g)_n B(alpha, beta) when beta > n: z^(g-n) and z^alpha
    # are 1.0 and the correction sum is skipped.
    for n, alpha, beta, g in (
        (0, 0.7, 0.3, 2.2), (2, 1.3, 3.5, 0.4), (1, 0.8, 2.2, 1.7), (3, 2.0, 4.5, -0.6)
    ):
        expected = (-1.0) ** n * pochhammer(-g, n) * complete_beta(alpha, beta)
        assert h_derivative(n, alpha, beta, g, 1.0) == expected
    with pytest.raises(DomainError):
        h_derivative(3, 1.3, 2.5, 0.4, 1.0)  # beta <= n
    with pytest.raises(DomainError):
        h_derivative(1, -0.5, 2.5, 0.4, 0.5)  # alpha <= 0
    with pytest.raises(DomainError):
        h_derivative(1, 1.0, 2.5, 0.4, 1.5)  # z out of range


def test_ratio_derivative_hand_value():
    # d/dz [z^2/(1-z)] at 1/2: (2z - z^2)/(1-z)^2 = 3
    assert ratio_derivative(1, 2.0, 1.0, 0.5) == pytest.approx(3.0, rel=1e-13)
    # m = 0: the function itself
    assert ratio_derivative(0, 1.7, 0.9, 0.3) == pytest.approx(
        0.3**1.7 / 0.7**0.9, rel=1e-13
    )


def test_ratio_derivative_matches_mp_diff():
    rng = np.random.default_rng(34)
    for _ in range(25):
        m = int(rng.integers(0, 5))
        alpha = rng.uniform(0.3, 3.0)
        beta = rng.uniform(-1.5, 3.0)
        z = rng.uniform(0.1, 0.9)
        f = lambda t: mp.mpf(t) ** alpha / (1 - mp.mpf(t)) ** beta
        oracle = float(mp.diff(f, z, m))
        assert ratio_derivative(m, alpha, beta, z) == pytest.approx(
            oracle, rel=1e-6, abs=1e-9
        )
    with pytest.raises(DomainError):
        ratio_derivative(1, 1.0, 1.0, 1.0)


# -- expansion / contraction of a contiguous pair ----------------------------


def test_expand_main_n0_is_identity():
    spec = PFQSpec([0.8], [1.7], 0.6)
    assert expand_main(spec, 1.2, 0).value == pytest.approx(
        eval_pfq(spec).value, rel=1e-13
    )


def test_expand_main_examples():
    for spec, c, n in (
        (PFQSpec([0.8], [1.7], 0.6), 1.2, 2),
        (PFQSpec([0.5, 1.5], [2.5], -0.3), 0.9, 3),
    ):
        assert expand_main(spec, c, n).value == pytest.approx(
            eval_pfq(spec).value, rel=1e-10
        )
    with pytest.raises(DomainError):
        expand_main(PFQSpec([0.8], [1.7], 0.6), 1.2, -1)


def test_reduce_corollary_examples():
    c = 1.1
    spec = PFQSpec([0.7, c + 1.0], [1.9, c], 0.5)
    assert reduce_corollary(spec, c, 1).value == pytest.approx(
        eval_pfq(spec).value, rel=1e-11
    )
    c = 0.8
    spec = PFQSpec([0.6, 1.4, c + 2.0], [2.2, c], -0.6)
    assert reduce_corollary(spec, c, 2).value == pytest.approx(
        eval_pfq(spec).value, rel=1e-11
    )
    # n = 0: single term, exact
    spec = PFQSpec([0.7, 1.1], [1.9, 1.1], 0.5)
    assert reduce_corollary(spec, 1.1, 0).value == pytest.approx(
        eval_pfq(PFQSpec([0.7], [1.9], 0.5)).value, rel=1e-13
    )


def test_pair_sum_reports_inner_term_cap():
    # Near z = 1 the inner series stop at their cap; the sum must say so.
    res = expand_main(PFQSpec([0.5, 1.0], [1.5], 0.999999), 1.0, 1)
    assert res.status is Status.MAX_TERMS_REACHED
    res = reduce_corollary(PFQSpec([0.5, 1.0, 2.0], [1.5, 1.0], 0.999999), 1.0, 1)
    assert res.status is Status.MAX_TERMS_REACHED
    assert expand_main(PFQSpec([0.8], [1.7], 0.6), 1.2, 2).status is Status.CONVERGED


def test_reduce_corollary_missing_pair():
    with pytest.raises(DomainError):
        reduce_corollary(PFQSpec([0.7, 2.0], [1.9, 1.0], 0.5), 0.5, 1)


# Parameters in [-3.5, 5], at least 0.05 from the poles 0, -1, -2, ...; p <= q + 1
# <= 4, z in [-10, 10] when p <= q and in [-0.99, 0.99] when p = q + 1; n <= 15.
_off_pole = st.floats(-3.5, 5.0).filter(lambda x: not is_nonpositive_integer(x, within=0.05))
_identity_case = st.integers(0, 3).flatmap(
    lambda q: st.integers(0, q + 1).flatmap(
        lambda p: st.tuples(
            st.lists(_off_pole, min_size=p, max_size=p),
            st.lists(_off_pole, min_size=q, max_size=q),
            st.floats(-0.99, 0.99) if p == q + 1 else st.floats(-10.0, 10.0),
            _off_pole,
            st.integers(0, 15),
        )
    )
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_identity_case)
def test_identity_estimate_bounds_the_error(case):
    # Both the expansion and the collapse stay within their estimates of the
    # pFq they stand for, at 30 digits.
    upper, lower, z, c, n = case
    expanded = expand_main(PFQSpec(upper, lower, z), c, n)
    collapsed = reduce_corollary(PFQSpec(upper + [c + n], lower + [c], z), c, n)
    with mp.workdps(30):
        ref = mp.hyper(upper, lower, z)
        assert abs(mp.mpf(expanded.value) - ref) <= expanded.abs_err_est
        ref = mp.hyper(upper + [c + n], lower + [c], z)
        assert abs(mp.mpf(collapsed.value) - ref) <= collapsed.abs_err_est


# -- polynomial form of pFp with integer-shifted upper parameters ------------


def test_pfp_polynomial_trivial():
    # e^{-z} 1F1(2;1;z) = 1 + z
    coeffs = pfp_polynomial_coeffs([1.0], [1])
    assert coeffs == pytest.approx([1.0, 1.0], abs=1e-12)


def test_pfp_polynomial_matches_laguerre():
    # e^{-z} 1F1(a+n;a;z) = (n!/(a)_n) L_n^(a-1)(-z)
    a, n = 2.0, 2
    coeffs = pfp_polynomial_coeffs([a], [n])
    for z in (-0.9, 0.0, 0.7):
        poly = sum(c * z**j for j, c in enumerate(coeffs))
        expected = (
            math.factorial(n)
            / scipy.special.poch(a, n)
            * scipy.special.eval_genlaguerre(n, a - 1.0, -z)
        )
        assert poly == pytest.approx(expected, rel=1e-10)


def test_pfp_polynomial_matches_oracle():
    # Two routes: the closed-form polynomial and the oracle's damped pFp agree
    # at N + 2 nodes, so the values lie on a polynomial of degree N.
    a = [1.3, 2.1]
    n = [1, 2]
    coeffs = pfp_polynomial_coeffs(a, n)
    nodes = [float(x) for x in np.linspace(-1.0, 1.0, sum(n) + 2)]
    values = [shifted_pfp_damped(a, n, x) for x in nodes]
    poly = [sum(c * x**j for j, c in enumerate(coeffs)) for x in nodes]
    worst = max(abs(u - v) for u, v in zip(poly, values))
    assert worst <= 1e-12 * max(abs(v) for v in values)


def test_pfp_polynomial_validation():
    with pytest.raises(DomainError):
        pfp_polynomial_coeffs([1.0, 2.0], [1])  # length mismatch


def _pfp_coeffs_exact(a, n):
    """Delta^j P(0) / j! in rationals, P(k) = prod (a_i + k)_{n_i} / (a_i)_{n_i}."""
    a = [Fraction(x) for x in a]

    def P(k):
        return math.prod((ai + k + t) / (ai + t) for ai, ni in zip(a, n) for t in range(ni))

    values = [P(k) for k in range(sum(n) + 1)]
    return [
        sum((-1) ** (j - k) * math.comb(j, k) * values[k] for k in range(j + 1))
        / math.factorial(j)
        for j in range(len(values))
    ]


def test_pfp_polynomial_is_exact():
    # Each coefficient to within 1e-15 relative of the rational one.
    rng = np.random.default_rng(35)
    for _ in range(60):
        p = int(rng.integers(1, 7))
        a = [float(x) for x in rng.uniform(0.3, 4.0, p)]
        n = [int(x) for x in rng.integers(0, 4, p)]
        coeffs = pfp_polynomial_coeffs(a, n)
        exact = _pfp_coeffs_exact(a, n)
        assert len(coeffs) == len(exact)
        for got, want in zip(coeffs, exact):
            assert abs(Fraction(got) - want) <= Fraction(1e-15) * abs(want)


def test_pfp_polynomial_rejects_nonpositive_integer_a():
    # At a = -2, n = 1 the function is e^{-z} (1 + z/2), no polynomial.
    for a in ([-2.0], [0.0, 1.5], [1.5, -1.0 + 1e-13]):
        with pytest.raises(DomainError):
            pfp_polynomial_coeffs(a, [1] * len(a))


# -- the two printed variants of the shifted half-argument formula -----------


def test_half_minus_variants_differ_and_only_signed_matches():
    a, b, c, n, m = 0.7, 2.6, 1.4, 1, 2
    lhs = eval_pfq(
        PFQSpec([a, b - m, c + n], [(a + b + 1.0) / 2.0, c], 0.5), tol=1e-16
    ).value
    signed, _ = f32_half_minus_signed_rhs(a, b, c, n, m)
    unsigned, _ = f32_half_minus_unsigned_rhs(a, b, c, n, m)
    assert signed == pytest.approx(lhs, rel=1e-12)
    assert abs(unsigned - lhs) > 1e-3 * abs(lhs)


def test_half_minus_variants_coincide_at_m0():
    a, b, c = 0.7, 2.6, 1.4
    assert f32_half_minus_signed_rhs(a, b, c, 2, 0)[0] == pytest.approx(
        f32_half_minus_unsigned_rhs(a, b, c, 2, 0)[0], rel=1e-14
    )


# -- incomplete-beta closed forms ---------------------------------------------


def test_pp3_inc_beta_evaluates_each_beta_once(monkeypatch):
    # B_z(a + k + s, 1 - b - k - s) depends on j = k + s only: for each of
    # the two a's, n = m = 2 gives 9 pairs (k, s) and 5 distinct j.
    calls = []

    def counting(z, a, b):
        calls.append((a, b))
        return incomplete_beta(z, a, b)

    monkeypatch.setattr(reductions, "incomplete_beta", counting)
    req = ReductionRequest(
        "Pp3Fp2IncBeta", {"a": (0.5, 1.25), "b": -0.5, "c": 1.3, "d": 0.8}, {"n": 2, "m": 2}, 0.4
    )
    res = reduce(req)
    assert len(calls) == len(set(calls)) == 10
    assert res.value == pytest.approx(eval_pfq(lhs_spec(req)).value, rel=1e-12)
