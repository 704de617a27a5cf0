import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

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
    EvalResult,
    PFQSpec,
    Status,
    _circle_partial_sums,
    eval_pfq,
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
    ],
)
def test_non_finite_spec_rejected(spec):
    with pytest.raises(DomainError):
        eval_pfq(spec)


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


def test_large_margin_at_unity():
    # 2F1(1, 1; c; 1) = (c - 1) / (c - 2); a margin of 1998 must not overflow 2^sigma.
    res = eval_pfq(PFQSpec([1.0, 1.0], [2000.0], 1.0))
    assert res.status is Status.EXTRAPOLATED
    assert abs(res.value - 1999.0 / 1998.0) <= res.abs_err_est <= 1e-13


def _per_term_partial_sums(spec, max_terms):
    """The checkpoints of the unit-circle sum, computed one term at a time.

    Yields (N, Kahan S_N, exactly rounded S_N, sum |t_k|, t_{N-1}) at
    N = 16 * 2^i and at the cap N = max_terms + 1, with each term formed as
    term *= z (a+k)... / ((k+1) (b+k)...) and summed by Kahan's compensated
    loop; the exactly rounded S_N is math.fsum of all terms so far.
    """
    z = spec.z
    terms = [1.0]
    total, comp, abs_sum, term, k = 1.0, 0.0, 1.0, 1.0, 0
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
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            abs_sum += abs(term)
        yield k + 1, total, math.fsum(terms), abs_sum, term
        if stop == max_terms:
            return
        next_n *= 2


def _per_term_on_circle(spec, max_terms=DEFAULT_MAX_TERMS, tol=DEFAULT_TOL):
    """The unit-circle sum of eval_pfq over the per-term Kahan partial sums.

    The reference for the pass-at-a-time sum: the same Richardson table, stop
    rule and estimates, written out again.
    """
    eps = math.ulp(1.0)
    z = spec.z
    sigma = unity_margin(spec) + (0.0 if z > 0.0 else 1.0)
    row, divisors, amplification = [], [], 1.0
    for n, total, _, abs_sum, term in _per_term_partial_sums(spec, max_terms):
        k = n - 1
        if k == max_terms:
            return EvalResult(total, abs(term) * k + eps * abs_sum, k, Status.MAX_TERMS_REACHED)
        prev_row, row = row, [total]
        for j, prev in enumerate(prev_row):
            row.append(row[j] + (row[j] - prev) / divisors[j])
        if len(row) >= RICHARDSON_MIN_LEVELS:
            delta = abs(row[-1] - prev_row[-1])
            noise = RICHARDSON_NOISE * eps * math.sqrt(n) * abs_sum * amplification
            if delta <= max(tol * abs(row[-1]), noise):
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
def test_segments_match_per_term_sum(drawn, tol, max_terms):
    # The terms and sum |t_k| are bitwise the per-term recurrence's at every
    # checkpoint, each partial sum is the exactly rounded one (math.fsum of
    # the reference terms), and the stop (terms_used, status) is the per-term
    # one.
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
        last_n = max_terms + 1
    else:
        res = eval_pfq(spec, max_terms=max_terms, tol=tol)
        assert (res.terms_used, res.status) == (ref.terms_used, ref.status)
        if ref.status is Status.EXTRAPOLATED:
            assert abs(res.value - ref.value) <= ref.abs_err_est
        else:  # at the cap the estimate depends only on the last term and sum |t_k|
            assert res.abs_err_est == ref.abs_err_est
        last_n = ref.terms_used + 1
    new = _checkpoints(_circle_partial_sums(spec, max_terms), last_n)
    old = _checkpoints(_per_term_partial_sums(spec, max_terms), last_n)
    assert len(new) == len(old)
    for got, want in zip(new, old):
        if want is OverflowError:
            assert got is OverflowError
            continue
        n, partial, abs_sum, term = got
        n_ref, _, exact, abs_ref, term_ref = want
        assert (n, abs_sum.hex(), term.hex()) == (n_ref, abs_ref.hex(), term_ref.hex())
        assert partial.hex() == exact.hex()


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
