import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hyperreduce import series
from hyperreduce.catalog import POLE_DIST
from hyperreduce.errors import (
    DivergentSeriesError,
    DomainError,
    LowerPoleError,
    NonConvergentAtUnityError,
)
from hyperreduce.series import (
    DEFAULT_MAX_TERMS,
    DEFAULT_TOL,
    RICHARDSON_FIRST_N,
    RICHARDSON_MIN_LEVELS,
    RICHARDSON_NOISE,
    RICHARDSON_SAFETY,
    SMALL_TERM_STREAK,
    EvalResult,
    PFQSpec,
    Status,
    INTEGER_SNAP,
    eval_pfq,
    is_nonpositive_integer,
    terminating_order,
    unity_margin,
)


def test_spec_coerces_to_floats():
    spec = PFQSpec([1, 2], [3], 0.5)
    assert spec.upper == (1.0, 2.0)
    assert spec.lower == (3.0,)
    assert isinstance(spec.z, float)


def test_log_series():
    # 2F1(1,1;2;z) = -ln(1-z)/z
    for z in (0.5, -0.7, 0.9, 0.1):
        res = eval_pfq(PFQSpec([1.0, 1.0], [2.0], z))
        assert res.status is Status.CONVERGED
        assert res.value == pytest.approx(-math.log(1.0 - z) / z, rel=1e-13)


def test_exponential_and_binomial_series():
    res = eval_pfq(PFQSpec([], [], 1.3))
    assert res.value == pytest.approx(math.exp(1.3), rel=1e-14)
    res = eval_pfq(PFQSpec([0.7], [], -0.4))
    assert res.value == pytest.approx(1.4 ** (-0.7), rel=1e-13)


def test_gauss_summation_at_unity():
    # 2F1(a,b;c;1) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b))
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.uniform(0.1, 0.8)
        b = rng.uniform(0.1, 0.8)
        c = a + b + rng.uniform(1.6, 3.0)
        res = eval_pfq(PFQSpec([a, b], [c], 1.0), tol=1e-12)
        expected = (
            scipy.special.gamma(c)
            * scipy.special.gamma(c - a - b)
            / (scipy.special.gamma(c - a) * scipy.special.gamma(c - b))
        )
        assert res.value == pytest.approx(expected, rel=1e-7)
        assert abs(res.value - expected) <= res.abs_err_est


def test_chu_vandermonde():
    # 2F1(-n,a;c;1) = (c-a)_n / (c)_n
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(0, 9))
        a = rng.uniform(0.2, 3.0)
        c = rng.uniform(0.4, 4.0)
        res = eval_pfq(PFQSpec([-float(n), a], [c], 1.0))
        expected = scipy.special.poch(c - a, n) / scipy.special.poch(c, n)
        assert res.status in (Status.TERMINATED, Status.CONVERGED)
        assert res.value == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_differentiation_identity():
    # d^n/dz^n [z^g pFq(a;b;z)]
    #   = (g-n+1)_n z^(g-n) (p+1)F(q+1)(g+1,a; g+1-n,b; z)   for n = 1, 2
    import mpmath as mp

    mp.mp.dps = 30
    rng = np.random.default_rng(9)
    for _ in range(6):
        n = int(rng.integers(1, 3))
        g = rng.uniform(0.5, 3.0)
        a = [rng.uniform(0.3, 2.0)]
        b = [rng.uniform(2.5, 4.0)]
        z = rng.uniform(0.1, 0.7)
        if abs((g + 1.0 - n) - round(g + 1.0 - n)) < 0.05 and g + 1.0 - n <= 0:
            continue
        f = lambda t: mp.mpf(t) ** g * mp.hyper(a, b, t)
        oracle = float(mp.diff(f, z, n))
        rhs = (
            scipy.special.poch(g - n + 1.0, n)
            * z ** (g - n)
            * eval_pfq(PFQSpec([g + 1.0] + a, [g + 1.0 - n] + b, z)).value
        )
        assert rhs == pytest.approx(oracle, rel=1e-6)


def _pole_rule_before_infinities(x, within):
    return x < 0.5 and abs(x - round(x)) < within


def test_nonpositive_integer_rule_unchanged_on_finite_input():
    # Deciding +-inf must not move a finite verdict: the rule is compared with
    # its former formula on both sides of every boundary and at random.
    values = [0.5, math.nextafter(0.5, -math.inf), 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]
    for n in range(0, -6, -1):
        for d in (INTEGER_SNAP, POLE_DIST):
            for x in (n + d, n - d):
                values += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    rng = np.random.default_rng(31)
    values += [float(x) for x in rng.uniform(-40.0, 2.0, 5000)]
    values += [float(x) for x in rng.integers(-40, 1, 5000) + rng.normal(0.0, 0.05, 5000)]
    for x in values:
        for within in (INTEGER_SNAP, POLE_DIST):
            assert is_nonpositive_integer(x, within) is _pole_rule_before_infinities(x, within)


def test_nonpositive_integer_rule_rejects_infinities():
    for x in (-math.inf, math.inf, math.nan):
        assert is_nonpositive_integer(x) is False
        assert is_nonpositive_integer(x, 0.05) is False
    assert terminating_order(PFQSpec([-math.inf], [1.0], 0.5)) is None


def test_terminating_order():
    assert terminating_order(PFQSpec([-3.0, 0.5], [1.0], 0.5)) == 3
    assert terminating_order(PFQSpec([-3.0, -1.0], [1.0], 0.5)) == 1
    assert terminating_order(PFQSpec([0.5], [1.0], 0.5)) is None


def test_unity_margin():
    assert unity_margin(PFQSpec([0.5, 1.0], [2.5], 1.0)) == pytest.approx(1.0)


def test_divergence_policing():
    with pytest.raises(DivergentSeriesError):
        eval_pfq(PFQSpec([1.0, 1.0, 1.0], [2.0], 0.5))
    with pytest.raises(DivergentSeriesError):
        eval_pfq(PFQSpec([1.0, 1.0], [2.0], 1.5))
    with pytest.raises(NonConvergentAtUnityError):
        eval_pfq(PFQSpec([1.0, 1.5], [2.0], 1.0))


def test_terminating_series_escapes_divergence_rules():
    # p > q+1 but terminating: a plain polynomial.
    res = eval_pfq(PFQSpec([-2.0, 1.0, 1.0], [], 0.3))
    assert res.status is Status.TERMINATED
    # sum_{k<=2} (-2)_k (1)_k (1)_k 0.3^k / k! = 1 - 2*0.6/... direct:
    direct = 1.0 + (-2.0) * 1.0 * 1.0 * 0.3 + ((-2.0) * (-1.0)) * 2.0 * 2.0 * 0.09 / 2.0
    assert res.value == pytest.approx(direct, rel=1e-14)


def test_lower_pole_rules():
    # Non-terminating series with a lower pole: refuse.
    with pytest.raises(LowerPoleError):
        eval_pfq(PFQSpec([0.5], [-2.0], 0.3))
    # Pole strictly after termination: fine.
    res = eval_pfq(PFQSpec([-2.0, 1.0], [-5.0], 0.3))
    assert res.status is Status.TERMINATED
    # Pole at or before termination: refuse.
    with pytest.raises(LowerPoleError):
        eval_pfq(PFQSpec([-5.0, 1.0], [-2.0], 0.3))
    # Of two terminating uppers the smaller order ends the sum.
    res = eval_pfq(PFQSpec([-5.0, -2.0], [1.5], 0.3))
    assert (res.status, res.terms_used) == (Status.TERMINATED, 2)
    # The pole just past the termination (term index 3 > 2) is never formed.
    res = eval_pfq(PFQSpec([-2.0, 1.0], [-2.0], 0.3))
    assert (res.status, res.terms_used) == (Status.TERMINATED, 2)
    # The pole at the termination (term index 2) is formed.
    with pytest.raises(LowerPoleError):
        eval_pfq(PFQSpec([-2.0, 1.0], [-1.0], 0.3))


def test_max_terms_reached():
    res = eval_pfq(PFQSpec([0.5], [], 0.99), max_terms=10)
    assert res.status is Status.MAX_TERMS_REACHED
    assert res.terms_used == 10
    # The same cap on the unit circle, where the partial sums are extrapolated.
    res = eval_pfq(PFQSpec([0.5, 0.5], [1.2], 1.0), max_terms=40)
    assert res.status is Status.MAX_TERMS_REACHED
    assert res.terms_used == 40
    with pytest.raises(ValueError):
        eval_pfq(PFQSpec([], [], 0.5), max_terms=0)
    # A fractional cap is refused off the circle and on it.
    for spec, cap in ((PFQSpec([1.0], [2.0], 0.5), 10.5), (PFQSpec([0.5, 0.5], [1.2], 1.0), 1000.5)):
        with pytest.raises(ValueError, match=rf"^max_terms must be an integer >= 1, got {cap}$"):
            eval_pfq(spec, max_terms=cap)


def test_terminated_only_within_the_cap():
    # (-5)_k vanishes from k = 6 on: the sum stops after forming t_1 ... t_5,
    # and it has terminated only if the cap would have let it go on.
    spec = PFQSpec([-5.0, 1.0], [2.0], 0.3)
    res = eval_pfq(spec, max_terms=5)
    assert (res.status, res.terms_used) == (Status.MAX_TERMS_REACHED, 5)
    res = eval_pfq(spec, max_terms=6)
    assert (res.status, res.terms_used) == (Status.TERMINATED, 5)
    res = eval_pfq(PFQSpec([0.0], [], 0.3), max_terms=1)
    assert (res.status, res.value, res.terms_used) == (Status.TERMINATED, 1.0, 0)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tol_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError):
        eval_pfq(PFQSpec([1.0, 1.0], [2.0], 0.5), tol=tol)


def test_error_estimate_self_consistency():
    # Halving tol changes the value by less than the reported estimate.
    rng = np.random.default_rng(10)
    for _ in range(20):
        spec = PFQSpec(
            [rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)],
            [rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)],
            rng.uniform(-0.9, 0.9),
        )
        loose = eval_pfq(spec, tol=1e-10)
        tight = eval_pfq(spec, tol=5e-11)
        assert abs(loose.value - tight.value) <= loose.abs_err_est


def test_result_is_frozen():
    res = eval_pfq(PFQSpec([], [], 0.0))
    assert isinstance(res, EvalResult)
    with pytest.raises(AttributeError):
        res.value = 2.0


@pytest.mark.parametrize(
    "spec",
    [
        PFQSpec([1.0], [2.0], math.nan),
        PFQSpec([math.nan], [2.0], 0.5),
        PFQSpec([1.0], [math.inf], 0.5),
        # Finiteness is checked before the lower pole rule.
        PFQSpec([math.nan], [-1.0], 0.3),
    ],
)
def test_non_finite_spec_rejected(spec):
    with pytest.raises(DomainError):
        eval_pfq(spec)


# ---------------------------------------------------------------------------
# Off the unit circle: the summation loop generated per shape (p, q)
# ---------------------------------------------------------------------------


def _per_term_off_circle(spec, max_terms=DEFAULT_MAX_TERMS, tol=DEFAULT_TOL):
    """The off-circle sum of eval_pfq with loops over the parameters.

    The reference for the loop generated per shape: the same limit, term
    recurrence (factor *= a + k for each upper a, factor /= b + k for each
    lower b), Kahan sum, stop rule and estimates, written out again.  It does
    not police convergence.
    """
    eps = math.ulp(1.0)
    n_stop = terminating_order(spec)
    if n_stop is not None and n_stop < max_terms:
        limit, status = n_stop, Status.TERMINATED
    else:
        limit, status = max_terms, Status.MAX_TERMS_REACHED
    z = spec.z
    total, comp, abs_sum, term, prev, streak, k = 1.0, 0.0, 1.0, 1.0, 1.0, 0, 0
    while k < limit:
        factor = z / (k + 1)
        for a in spec.upper:
            factor *= a + k
        for b in spec.lower:
            factor /= b + k
        prev = term
        term *= factor
        k += 1
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_sum += abs(term)
        # A non-finite term makes the sum non-finite too.
        if not math.isfinite(total):
            raise OverflowError("series term or partial sum overflowed to non-finite value")
        if abs(term) <= tol * abs(total):
            streak += 1
            if streak >= SMALL_TERM_STREAK:
                status = Status.CONVERGED
                break
        else:
            streak = 0
    if abs_sum == math.inf:
        raise OverflowError("sum of the terms' magnitudes overflowed to non-finite value")
    width = len(spec.upper) + len(spec.lower) + 1  # rounded operations per term
    rounding = RICHARDSON_NOISE * eps * math.sqrt(k * width) * abs_sum
    if status is Status.TERMINATED:
        err = rounding
    elif status is Status.CONVERGED:
        ratio = abs(term) / abs(prev) if prev != 0.0 else 0.0
        tail = abs(term) * ratio / (1.0 - ratio) if ratio < 0.999999 else abs(term) * k
        err = max(tail, 3.0 * abs(term)) + rounding
    else:
        err = abs(term) * k + rounding
    return EvalResult(total, err, k, status)


def _outcome(evaluate, spec, max_terms, tol):
    """(value, abs_err_est, terms_used, status) with the floats in hex, or the
    type of the exception raised."""
    try:
        res = evaluate(spec, max_terms=max_terms, tol=tol)
    except Exception as exc:
        return type(exc)
    return res.value.hex(), res.abs_err_est.hex(), res.terms_used, res.status


_wide = st.floats(-30.0, 30.0)
# q <= 5 lower parameters and p <= q + 1 upper ones, some of them terminating
# (up to order 40).
_off_circle_spec = st.integers(0, 5).flatmap(
    lambda q: st.integers(0, q + 1).flatmap(
        lambda p: st.tuples(
            st.lists(st.one_of(_wide, st.integers(-40, 0).map(float)), min_size=p, max_size=p),
            st.lists(_wide, min_size=q, max_size=q),
        )
    )
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    drawn=_off_circle_spec,
    z=st.one_of(st.sampled_from([0.0, 1e-300, -1e-300, 1e300, -1e300]), _wide),
    max_terms=st.integers(1, DEFAULT_MAX_TERMS),
    tol=st.floats(-16.0, -6.0).map(lambda e: 10.0**e),
)
@example(drawn=([], [1.5]), z=2.0, max_terms=DEFAULT_MAX_TERMS, tol=DEFAULT_TOL)
@example(
    drawn=([0.5, -7.0, 1.25, 2.0, 3.5, 0.75], [1.5, 2.5, 0.25, 4.0, 5.5]),
    z=-0.7,
    max_terms=DEFAULT_MAX_TERMS,
    tol=DEFAULT_TOL,
)
# t_k = z^k: t_2 underflows to +0.0 and t_3 to -0.0.
@example(drawn=([1.0, 1.0], [1.0]), z=-1e-300, max_terms=DEFAULT_MAX_TERMS, tol=DEFAULT_TOL)
def test_generated_loop_matches_per_term_loop(drawn, z, max_terms, tol):
    # Value and estimate bitwise, terms_used, status and the exception type
    # are those of the per-parameter loop.
    upper, lower = drawn
    spec = PFQSpec(upper, lower, z)
    on_circle = len(upper) == len(lower) + 1 and abs(z) == 1.0
    assume(not (on_circle and terminating_order(spec) is None))
    got = _outcome(eval_pfq, spec, max_terms, tol)
    # Specs the prologue rejects never reach the loop.
    assume(got not in (LowerPoleError, DivergentSeriesError))
    assert got == _outcome(_per_term_off_circle, spec, max_terms, tol)
    # == would let a float count such as 11.0 through.
    if isinstance(got, tuple):
        assert type(got[2]) is int


def test_small_term_streak_at_least_two():
    # The generated loop stores prev only when a term is small; the returned
    # prev is the previous term at a converged stop only because that term
    # was small too, which needs a streak of at least two.
    assert SMALL_TERM_STREAK >= 2


def test_overflow_off_circle_raises_without_warning():
    # t_1 = 1e303 and t_2 overflows, in the loop of the p = 0 shape.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            eval_pfq(PFQSpec([], [1e-3], 1e300))


@pytest.mark.parametrize(
    "spec",
    [
        PFQSpec([1e150], [1.0], 1e150),  # 1F1: t_1 = 1e300
        PFQSpec([1e100, 1e100], [1.0], 0.5),  # 2F1: t_1 = 5e199
        PFQSpec([1e100, 1e100, 1e100], [1.0, 1.0], 0.5),  # 3F2: t_1 = 5e299
        PFQSpec([], [1.0], 1e300),  # 0F1: t_1 = 1e300
        # Every term is finite (the largest about 3e306), and the partial sum
        # passes the double range; its Kahan compensation made it NaN, and the
        # sum ran to the term cap.
        PFQSpec([], [], 709.9),
        PFQSpec([1.0], [1.0], 709.9),
        # The terms alternate and the sum stays near e^-709.9, but sum |t_k|
        # passes the double range; the small-term rule stopped the sum at
        # 1.03e290 with status Converged.
        PFQSpec([], [], -709.9),
    ],
    ids=["1F1", "2F1", "3F2", "0F1", "0F0-sum", "1F1-sum", "0F0-abs-sum"],
)
def test_overflow_mid_series_matches_per_term_loop(spec):
    # t_1 is finite and t_2 or the partial sum overflows, in the generated
    # loop of each shape: the same outcome as the per-parameter loop, and no
    # warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(eval_pfq, spec, DEFAULT_MAX_TERMS, DEFAULT_TOL)
    assert got is OverflowError
    assert got == _outcome(_per_term_off_circle, spec, DEFAULT_MAX_TERMS, DEFAULT_TOL)


# Parameters in [-4.5, 5], at least 0.05 from the poles 0, -1, -2, ...
_off_pole = st.floats(-4.5, 5.0).filter(lambda x: not is_nonpositive_integer(x, within=0.05))
# (upper, lower, z): terminating of order <= 40 with |z| <= 3, confluent
# (p <= q <= 3) with |z| <= 20, and p = q + 1 with |z| <= 0.95.
_terminating_spec = st.tuples(
    st.integers(0, 40),
    st.lists(_off_pole, max_size=2),
    st.lists(_off_pole, max_size=3),
    st.floats(-3.0, 3.0),
).map(lambda t: ([-float(t[0])] + t[1], t[2], t[3]))
_confluent_spec = st.integers(0, 3).flatmap(
    lambda q: st.tuples(
        st.lists(_off_pole, max_size=q),
        st.lists(_off_pole, min_size=q, max_size=q),
        st.floats(-20.0, 20.0),
    )
)
_inside_spec = st.integers(0, 2).flatmap(
    lambda q: st.tuples(
        st.lists(_off_pole, min_size=q + 1, max_size=q + 1),
        st.lists(_off_pole, min_size=q, max_size=q),
        st.floats(-0.95, 0.95),
    )
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn=st.one_of(_terminating_spec, _confluent_spec, _inside_spec))
# 1.16e-8 off, where the floor eps * sum|t_k| read 8.2e-10.
@example(
    drawn=(
        [-40.0, 0.37987343522049616, 1.3732929532160303],
        [4.301976010783306, 1.1427708533639303],
        -0.8497447608061075,
    )
)
def test_off_circle_estimate_bounds_the_error(drawn):
    res = eval_pfq(PFQSpec(*drawn))
    with mpmath.workdps(30):
        ref = mpmath.hyper(*drawn)
        assert abs(mpmath.mpf(res.value) - ref) <= res.abs_err_est


# ---------------------------------------------------------------------------
# |z| = 1: Richardson extrapolation of the partial sums
# ---------------------------------------------------------------------------

# Parameters are multiples of 2^-10, so that c = a + b + s and Dixon's lower
# parameters are exact in double precision and the references below are the
# values of exactly the spec that was summed.
_STEP = 1.0 / 1024.0
_margin = st.integers(52, 4096).map(lambda i: i * _STEP)  # s in [0.05, 4]
_param = st.integers(-2560, 3072).map(lambda i: i * _STEP)  # [-2.5, 3]
_unity_settings = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _is_pole(x):
    return x <= 0.0 and x == math.floor(x)


def _gauss(a, b, c):
    """2F1(a, b; c; 1) by Gauss's formula at 30 digits."""
    with mpmath.workdps(30):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        return float(
            mpmath.gamma(c) * mpmath.gamma(c - a - b) * mpmath.rgamma(c - a) * mpmath.rgamma(c - b)
        )


def _dixon(a, b, c):
    """3F2(a, b, c; 1+a-b, 1+a-c; 1) by Dixon's formula at 30 digits."""
    with mpmath.workdps(30):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        g, rg = mpmath.gamma, mpmath.rgamma
        return float(
            g(1 + a / 2) * g(1 + a - b) * g(1 + a - c) * g(1 + a / 2 - b - c)
            * rg(1 + a) * rg(1 + a / 2 - b) * rg(1 + a / 2 - c) * rg(1 + a - b - c)
        )


@_unity_settings
@given(a=_param, b=_param, s=_margin, z=st.sampled_from([1.0, -1.0]))
# Small margin, default tol: the sum runs to 4096 terms, where the rounding
# that the terms carry from their recurrence sets the error.
@example(a=2.698184166742702, b=2.2615879007899444, s=0.1267656876, z=1.0)
def test_2f1_at_unit_circle_within_estimate(a, b, s, z):
    c = a + b + s
    assume(not _is_pole(c))
    res = eval_pfq(PFQSpec([a, b], [c], z))
    if z == 1.0:
        ref = _gauss(a, b, c)
    else:
        with mpmath.workdps(30):
            ref = float(mpmath.hyp2f1(a, b, c, -1))
    assert res.status in (Status.EXTRAPOLATED, Status.TERMINATED)
    assert abs(res.value - ref) <= res.abs_err_est


@_unity_settings
@given(
    b=st.integers(102, 2048).map(lambda i: i * _STEP),
    c=st.integers(102, 2048).map(lambda i: i * _STEP),
    s=_margin,
)
def test_dixon_at_unity_within_estimate(b, c, s):
    a = s - 2.0 + 2.0 * b + 2.0 * c  # margin 2 + a - 2b - 2c = s
    lower = [1.0 + a - b, 1.0 + a - c]
    assume(not any(map(_is_pole, lower)) and not _is_pole(a))
    res = eval_pfq(PFQSpec([a, b, c], lower, 1.0))
    assert res.status is Status.EXTRAPOLATED
    assert abs(res.value - _dixon(a, b, c)) <= res.abs_err_est


def test_slow_alternating_series_at_minus_one():
    # Terms decay like k^-1.2; summed term by term it stops at the 200 000-term
    # cap with an error estimate of 0.025.
    res = eval_pfq(PFQSpec([0.5, 0.5], [1.2], -1.0))
    with mpmath.workdps(30):
        ref = float(mpmath.hyp2f1(0.5, 0.5, 1.2, -1))
    assert res.status is Status.EXTRAPOLATED
    assert res.terms_used < 4096
    assert abs(res.value - ref) <= res.abs_err_est <= 1e-12


@pytest.mark.parametrize(
    "spec, tol, ref",
    [
        # A Pp3Fp2Unity spec: with three Richardson levels it stopped at 64
        # terms, 10.2 times its estimate off.
        (
            PFQSpec(
                [0.8554694901878621, 2.287804150059813, 3.358590547208908,
                 -1.2571579060128752, 0.6312025665398927, 3.6318756596444564],
                [1.8554694901878621, 3.287804150059813, 4.358590547208908,
                 0.6312025665398927, 2.6318756596444564],
                1.0,
            ),
            1e-10,
            "0.606369425522347255100062",
        ),
        # F32UnityJL-1-0007 of the verifier: 1.26 times its estimate off at
        # three levels.
        (
            PFQSpec(
                [-0.9514855805272231, 1.5058663103601544, 1.5058663103601544],
                [2.5058663103601546, 2.5058663103601546],
                1.0,
            ),
            1e-8,
            "0.6506063275404376837993875",
        ),
    ],
    ids=["Pp3Fp2Unity", "F32UnityJL"],
)
def test_circle_estimate_bounds_the_error_at_loose_tol(spec, tol, ref):
    # References: mpmath.hyper at 30 digits.
    res = eval_pfq(spec, tol=tol)
    assert res.status is Status.EXTRAPOLATED
    with mpmath.workdps(30):
        assert abs(mpmath.mpf(res.value) - mpmath.mpf(ref)) <= res.abs_err_est
    assert res.terms_used >= 8 * RICHARDSON_FIRST_N - 1  # four levels at least


def test_large_margin_at_unity():
    # 2F1(1, 1; c; 1) = (c - 1) / (c - 2); a margin of 1998 must not overflow 2^sigma.
    res = eval_pfq(PFQSpec([1.0, 1.0], [2000.0], 1.0))
    assert res.status is Status.EXTRAPOLATED
    assert abs(res.value - 1999.0 / 1998.0) <= res.abs_err_est <= 1e-13


def _per_term_partial_sums(spec, max_terms):
    """The checkpoints of the unit-circle sum, computed one term at a time.

    Yields (N, exactly rounded S_N, sum |t_k|, t_{N-1}) at N = 16 * 2^i and
    at the cap N = max_terms + 1, with each term formed as
    term *= z (a+k)... / ((k+1) (b+k)...); the exactly rounded S_N is
    math.fsum of all terms so far.
    """
    z = spec.z
    terms = [1.0]
    abs_sum, term, k = 1.0, 1.0, 0
    next_n = RICHARDSON_FIRST_N
    while True:
        stop = min(next_n - 1, max_terms)
        while k < stop:
            factor = z / (k + 1)
            for a in spec.upper:
                factor *= a + k
            for b in spec.lower:
                factor /= b + k
            term *= factor
            if not math.isfinite(term):
                raise OverflowError("series term overflowed to non-finite value")
            k += 1
            terms.append(term)
            abs_sum += abs(term)
        yield k + 1, math.fsum(terms), abs_sum, term
        if stop == max_terms:
            return
        next_n *= 2


def _per_term_on_circle(spec, max_terms=DEFAULT_MAX_TERMS, tol=DEFAULT_TOL):
    """The unit-circle sum of eval_pfq over the per-term partial sums.

    The reference for the pass-at-a-time sum: the same Richardson table, stop
    rule and estimates, written out again.
    """
    eps = math.ulp(1.0)
    z = spec.z
    sigma = unity_margin(spec) + (0.0 if z > 0.0 else 1.0)
    row, divisors, amplification = [], [], 1.0
    for n, total, abs_sum, term in _per_term_partial_sums(spec, max_terms):
        k = n - 1
        if k == max_terms:
            width = len(spec.upper) + len(spec.lower) + 1
            rounding = RICHARDSON_NOISE * eps * math.sqrt(k * width) * abs_sum
            return EvalResult(total, abs(term) * k + rounding, k, Status.MAX_TERMS_REACHED)
        prev_row, row = row, [total]
        for j, prev in enumerate(prev_row):
            row.append(row[j] + (row[j] - prev) / divisors[j])
        if len(row) >= RICHARDSON_MIN_LEVELS:
            delta = abs(row[-1] - prev_row[-1])
            noise = RICHARDSON_NOISE * eps * math.sqrt(n) * abs_sum * amplification
            if delta <= max(tol * abs(row[-1]), noise):
                if not (math.isfinite(row[-1]) and math.isfinite(noise)):
                    raise OverflowError("extrapolated sum overflowed to non-finite value")
                return EvalResult(
                    row[-1], RICHARDSON_SAFETY * delta + noise, k, Status.EXTRAPOLATED
                )
        divisors.append(2.0 ** min(sigma + len(divisors), 64.0) - 1.0)
        amplification *= 1.0 + 2.0 / divisors[-1]


def _checkpoints(partial_sums, last_n):
    """The checkpoints up to N = last_n, ending in OverflowError if one raised it."""
    out = []
    try:
        for checkpoint in partial_sums:
            out.append(checkpoint)
            if checkpoint[0] >= last_n:
                break
    except OverflowError:
        out.append(OverflowError)
    return out


# pFq with p in {2, 3, 4} on the unit circle: p upper parameters in [-2.5, 3],
# p - 2 lower ones in [0.05, 4], and the last lower one set by the margin.
_circle_spec = st.integers(2, 4).flatmap(
    lambda p: st.tuples(
        st.lists(_param, min_size=p, max_size=p),
        st.lists(_margin, min_size=p - 2, max_size=p - 2),
        _margin,
        st.sampled_from([1.0, -1.0]),
    )
)

@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    drawn=_circle_spec,
    tol=st.sampled_from([1e-15, 1e-11, 1e-6]),
    # 255/256/257, 511/512/513, 1023/1024 and 4097 sit at the ends of the
    # first passes (N = 256, 512, 1024, ..., 4096).
    max_terms=st.sampled_from(
        [
            1, 15, 16, 17, 37, 255, 256, 257, 511, 512, 513,
            1000, 1023, 1024, 4097, DEFAULT_MAX_TERMS,
        ]
    ),
)
# Overflow of a term in the first pass (a = 1000) and in a later one (1500),
# of a partial sum (517.755), and of the Richardson table (517.5).
@example(drawn=([1000.0, 1000.0], [], 1.5, 1.0), tol=1e-15, max_terms=DEFAULT_MAX_TERMS)
@example(drawn=([1500.0, 1500.0], [], 1.5, 1.0), tol=1e-15, max_terms=DEFAULT_MAX_TERMS)
@example(drawn=([517.755, 517.755], [], 1.5, 1.0), tol=1e-15, max_terms=DEFAULT_MAX_TERMS)
@example(drawn=([517.5, 517.5], [], 1.5, 1.0), tol=1e-15, max_terms=DEFAULT_MAX_TERMS)
# Terms growing from 1 to 1e54 over 4 097 terms, summed to the cap in a later pass.
@example(drawn=([100.0, 100.0], [], 1.5, 1.0), tol=1e-15, max_terms=4097)
# An alternating sum that keeps 4e-8 of sum |t_k| (16 383 terms).
@example(drawn=([10.0, 10.0], [], 0.5, -1.0), tol=1e-15, max_terms=DEFAULT_MAX_TERMS)
# Exact ties left to math.fsum: at N = 1024, in the fourth pass, and at the
# cap, N = 16.
@example(drawn=([-2.5, 0.5], [], 2.5, 1.0), tol=1e-15, max_terms=DEFAULT_MAX_TERMS)
@example(drawn=([-2.5, 1.0], [], 0.25, 1.0), tol=1e-15, max_terms=15)
def test_segments_match_per_term_sum(drawn, tol, max_terms):
    # The whole result (value, estimate, terms used, status) is bitwise the
    # per-term one: the terms and sum |t_k| are the per-term recurrence's and
    # each partial sum is the exactly rounded one; an overflow raises in both.
    upper, lower, s, z = drawn
    lower = lower + [sum(upper) - sum(lower) + s]
    assume(not any(map(_is_pole, upper + lower)))
    spec = PFQSpec(upper, lower, z)
    assert unity_margin(spec) == s
    try:
        ref = _per_term_on_circle(spec, max_terms=max_terms, tol=tol)
    except OverflowError:
        with pytest.raises(OverflowError):
            eval_pfq(spec, max_terms=max_terms, tol=tol)
        return
    res = eval_pfq(spec, max_terms=max_terms, tol=tol)
    assert type(res.terms_used) is int
    assert (res.value.hex(), res.abs_err_est.hex(), res.terms_used, res.status) == (
        ref.value.hex(), ref.abs_err_est.hex(), ref.terms_used, ref.status
    )


def _checkpoint_sum(terms):
    """S_N of the terms t_0 ... t_{N-1} as a unit-circle checkpoint takes it
    when they form one pass: the running sums of series._running_sums rounded
    by series._rounded_partial_sum, or None where that leaves S_N to
    math.fsum."""
    xs = np.array(terms, dtype=float)
    sums, errors, spare = np.empty(len(xs)), np.empty(len(xs)), np.empty(len(xs) - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        series._running_sums(xs, sums, errors, spare, xs[0].item(), 0.0)
        abs_sum = np.add.accumulate(np.abs(xs))[-1].item()
    return series._rounded_partial_sum(sums[-1].item(), errors[-1].item(), len(xs), abs_sum)


_UNDECIDED = [
    [1.0, 2.0**-53],  # halfway between 1 and its successor: fsum rounds to even
    [1.0, 2.0**-53, 2.0**-200],  # just past halfway, which the running sum cannot see
    [2.0, -(2.0**-53)],  # halfway below a power of two, where the spacing halves
    [2.0, -(2.0**-53), -(2.0**-100)],
    [1e200, 1.0, 1e-200, -1e200],  # sum |t_k| is too large for the bound to decide
]


@pytest.mark.parametrize("terms", _UNDECIDED + [[-t for t in ts] for ts in _UNDECIDED])
def test_checkpoint_sum_leaves_near_ties_to_fsum(terms):
    assert _checkpoint_sum(terms) is None


@pytest.mark.parametrize(
    "terms",
    [
        [1.0, -(2.0**-54), -(2.0**-60)],  # lands just below 1: 1 - 2^-53
        [4.0, -0.75 * 2.0**-52],  # rounds up to the power of two 4
        [1.0, 1.0 - 2.0**-53, 2.0**-60],
        [math.comb(8, k) * (-0.9) ** k for k in range(9)],  # (1 - 0.9)^8: 10 digits cancel
        [1e200, 1.0, 1e-200, -3e199, 1e-100],
        [1e-200, 3e-201, -1e-300, 1e-250],
        [1.0, 0.1, 0.01, -0.3, 1e-17, 1e-300],
    ],
)
def test_checkpoint_sum_is_the_correctly_rounded_sum(terms):
    for n in range(1, len(terms) + 1):
        got = _checkpoint_sum(terms[:n])
        assert got is None or got.hex() == math.fsum(terms[:n]).hex()
    assert _checkpoint_sum(terms).hex() == math.fsum(terms).hex()
    assert _checkpoint_sum([-t for t in terms]).hex() == math.fsum([-t for t in terms]).hex()


def test_checkpoint_sum_that_overflows_is_left_to_fsum():
    # The running sum passes the double range: the sum is math.fsum's, which
    # raises, as it did when every checkpoint was one fsum.
    for terms in ([1e308, 1e308, -1e308], [1.0, 1.7e308, 1.7e308]):
        assert _checkpoint_sum(terms) is None
        with pytest.raises(OverflowError):
            math.fsum(terms)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    terms=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40)
    | st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=300)
)
def test_checkpoint_sum_is_fsum_or_left_to_it(terms):
    got = _checkpoint_sum(terms)
    if got is not None:
        assert got.hex() == math.fsum(terms).hex()


def test_overflow_on_circle_raises_without_warning():
    # The terms grow like 500^k at first and overflow at term 605.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            eval_pfq(PFQSpec([1000, 1000], [2001.5], 1.0))


def test_overflow_in_later_pass_raises_without_warning():
    # The terms grow like 750^k at first and overflow at term 390: the first
    # pass (terms up to 255) is finite, and the second one holds the overflow.
    spec = PFQSpec([1500, 1500], [3001.5], 1.0)
    per_term = _checkpoints(_per_term_partial_sums(spec, DEFAULT_MAX_TERMS), math.inf)
    assert [c if c is OverflowError else c[0] for c in per_term[-2:]] == [256, OverflowError]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            eval_pfq(spec)


@pytest.mark.parametrize("a", [517.5, 517.755, 518.0])
def test_overflow_of_partial_sum_on_circle_raises(a):
    # Every term stays finite, but the partial sum passes the double range
    # between two checkpoints (517.755) or inside a segment (518), where the
    # per-term sum came out NaN with status MaxTermsReached; or the partial
    # sums stay finite and the Richardson table overflows (517.5), where the
    # value came out inf with status Extrapolated.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            eval_pfq(PFQSpec([a, a], [2.0 * a + 1.5], 1.0))
