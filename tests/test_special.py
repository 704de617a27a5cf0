import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperreduce.errors import DomainError, PoleError
from hyperreduce.special import (
    EULER_GAMMA,
    bateman_g,
    bessel_i,
    bessel_j,
    binomial,
    complete_beta,
    digamma,
    gamma_fn,
    gamma_ratio,
    incomplete_beta,
    is_nonpositive_integer,
    laguerre,
    ln_gamma,
    lower_incomplete_gamma,
    off_poles,
    pochhammer,
)


def test_gamma_matches_scipy_positive():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.uniform(0.05, 25.0)
        assert gamma_fn(x) == pytest.approx(scipy.special.gamma(x), rel=1e-13)


def test_gamma_matches_scipy_negative():
    rng = np.random.default_rng(12)
    count = 0
    for _ in range(300):
        x = rng.uniform(-20.0, -0.05)
        if abs(x - round(x)) < 0.05:
            continue
        count += 1
        assert gamma_fn(x) == pytest.approx(scipy.special.gamma(x), rel=1e-12)
    assert count > 200


def test_gamma_pole_raises():
    for x in (0.0, -1.0, -7.0, -3.0 + 1e-13):
        with pytest.raises(PoleError):
            gamma_fn(x)


def test_nan_is_not_a_pole():
    # round(nan) raises, so the pole test must decide NaN before rounding.
    assert not is_nonpositive_integer(math.nan)
    assert math.isnan(ln_gamma(math.nan)[0])
    assert math.isnan(digamma(math.nan))


def test_ln_gamma_sign():
    # Gamma alternates sign between consecutive negative integers.
    assert ln_gamma(-0.5)[1] == -1
    assert ln_gamma(-1.5)[1] == 1
    assert ln_gamma(-2.5)[1] == -1
    assert ln_gamma(3.7)[1] == 1


def test_gamma_overflow():
    with pytest.raises(OverflowError):
        gamma_fn(400.0)


def test_gamma_ratio_large_arguments_cancel():
    # Individually overflowing gammas whose ratio is tame.
    expected = math.exp(scipy.special.gammaln(250.3) - scipy.special.gammaln(250.0))
    assert gamma_ratio((250.3,), (250.0,)) == pytest.approx(expected, rel=1e-11)


def test_digamma_matches_scipy():
    rng = np.random.default_rng(13)
    for _ in range(300):
        x = rng.uniform(-15.0, 20.0)
        if is_nonpositive_integer(round(x)) and abs(x - round(x)) < 0.05:
            continue
        if x <= 0 and abs(x - round(x)) < 0.05:
            continue
        assert digamma(x) == pytest.approx(scipy.special.psi(x), rel=1e-12, abs=1e-12)


def test_digamma_known_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-14)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-14)


def test_bateman_g_integral_oracle():
    # G(a) = integral_0^1 t^(a-1)/(1+t) dt for a > 0.
    rng = np.random.default_rng(14)
    for _ in range(20):
        a = rng.uniform(0.2, 6.0)
        oracle, err = scipy.integrate.quad(
            lambda t: t ** (a - 1.0) / (1.0 + t), 0.0, 1.0
        )
        assert err < 5e-8
        assert bateman_g(a) == pytest.approx(oracle, rel=1e-7)


def test_bateman_g_at_one():
    # psi(1) = -gamma, psi(1/2) = -gamma - 2 ln 2
    assert bateman_g(1.0) == pytest.approx(math.log(2.0), rel=1e-13)


def test_pochhammer_against_gamma():
    rng = np.random.default_rng(15)
    for _ in range(100):
        x = rng.uniform(0.1, 5.0)
        k = int(rng.integers(0, 12))
        expected = scipy.special.gamma(x + k) / scipy.special.gamma(x)
        assert pochhammer(x, k) == pytest.approx(expected, rel=1e-12)


def test_pochhammer_negative_index():
    # (x)_{-n} = (-1)^n / (1-x)_n
    assert pochhammer(3.0, -2) == pytest.approx(1.0 / ((-2.0) * (-1.0)), rel=1e-14)
    with pytest.raises(ZeroDivisionError):
        pochhammer(1.0, -1)  # (1)_{-1} needs (0)_1 = 0


def test_pochhammer_zero_and_large():
    assert pochhammer(2.5, 0) == 1.0
    assert pochhammer(-3.0, 5) == 0.0
    assert pochhammer(0.5, 100) == pytest.approx(
        scipy.special.poch(0.5, 100), rel=1e-11
    )


def test_binomial():
    assert binomial(6, 2) == 15.0
    assert binomial(6, 0) == 1.0
    assert binomial(6, 7) == 0.0
    assert binomial(6, -1) == 0.0


def test_complete_beta():
    rng = np.random.default_rng(16)
    for _ in range(50):
        a, b = rng.uniform(0.1, 8.0, size=2)
        assert complete_beta(a, b) == pytest.approx(scipy.special.beta(a, b), rel=1e-12)


def test_incomplete_beta_quad_oracle():
    rng = np.random.default_rng(17)
    for _ in range(40):
        a = rng.uniform(0.2, 5.0)
        b = rng.uniform(-3.0, 4.0)
        z = rng.uniform(0.05, 0.95)
        oracle, err = scipy.integrate.quad(
            lambda t: t ** (a - 1.0) * (1.0 - t) ** (b - 1.0), 0.0, z
        )
        assert err < 5e-8
        assert incomplete_beta(z, a, b) == pytest.approx(oracle, rel=1e-7, abs=1e-10)


def test_incomplete_beta_at_one():
    assert incomplete_beta(1.0, 1.2, 2.3) == pytest.approx(
        scipy.special.beta(1.2, 2.3), rel=1e-13
    )
    with pytest.raises(DomainError):
        incomplete_beta(1.0, 1.2, -0.5)


def test_incomplete_beta_domain():
    with pytest.raises(DomainError):
        incomplete_beta(0.5, -1.0, 1.0)
    with pytest.raises(DomainError):
        incomplete_beta(1.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        incomplete_beta(0.0, 1.0, 1.0)


def test_lower_incomplete_gamma():
    rng = np.random.default_rng(18)
    for _ in range(50):
        a = rng.uniform(0.2, 6.0)
        z = rng.uniform(0.01, 25.0)
        expected = scipy.special.gammainc(a, z) * scipy.special.gamma(a)
        assert lower_incomplete_gamma(a, z) == pytest.approx(expected, rel=1e-12)
    assert lower_incomplete_gamma(1.5, 0.0) == 0.0


def test_bessel_i_matches_scipy():
    rng = np.random.default_rng(19)
    for _ in range(80):
        nu = rng.uniform(-0.9, 8.0)
        if nu < 0 and abs(nu - round(nu)) < 0.05:
            continue
        x = rng.uniform(0.0, 30.0)
        assert bessel_i(nu, x) == pytest.approx(scipy.special.iv(nu, x), rel=1e-11, abs=1e-13)


def test_bessel_j_matches_scipy():
    rng = np.random.default_rng(20)
    for _ in range(80):
        nu = rng.uniform(-0.9, 8.0)
        if nu < 0 and abs(nu - round(nu)) < 0.05:
            continue
        x = rng.uniform(0.0, 12.0)
        assert bessel_j(nu, x) == pytest.approx(scipy.special.jv(nu, x), rel=1e-9, abs=1e-12)


def test_laguerre_matches_scipy():
    rng = np.random.default_rng(21)
    for _ in range(80):
        n = int(rng.integers(0, 9))
        alpha = rng.uniform(-0.9, 5.0)
        x = rng.uniform(-4.0, 4.0)
        expected = scipy.special.eval_genlaguerre(n, alpha, x)
        assert laguerre(n, alpha, x) == pytest.approx(expected, rel=1e-11, abs=1e-12)


def test_off_poles():
    assert off_poles([0.3, 1.0, 2.5])
    assert not off_poles([0.01])
    assert not off_poles([-2.02])
    assert off_poles([-2.5])


def test_lower_incomplete_gamma_overflow_raises():
    # The ascending series overflows past z ~ 709; below that it still holds.
    assert lower_incomplete_gamma(0.5, 700.0) == pytest.approx(
        scipy.special.gammainc(0.5, 700.0) * scipy.special.gamma(0.5), rel=1e-12
    )
    for z in (800.0, 1000.0):
        with pytest.raises(OverflowError):
            lower_incomplete_gamma(0.5, z)


# Gamma and the complete beta against mpmath at 40 digits.  The beta bound is
# 1.8 times the worst relative error measured on 200 000 random pairs
# (2.5e-14 near a = b = 12, where the log-space assembly loses most).
_EPS = math.ulp(1.0)
_mp_settings = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _rel_err(value, ref):
    return float(abs(mpmath.mpf(value) - ref) / abs(ref))


@_mp_settings
@given(x=st.floats(0.05, 170.0))
def test_gamma_positive_within_8_ulp(x):
    with mpmath.workdps(40):
        assert _rel_err(gamma_fn(x), mpmath.gamma(x)) <= 8 * _EPS
    assert ln_gamma(x)[1] == 1


@_mp_settings
@given(x=st.floats(-20.0, -0.05).filter(lambda x: abs(x - round(x)) >= 0.05))
def test_gamma_negative_within_8_ulp_and_sign(x):
    with mpmath.workdps(40):
        ref = mpmath.gamma(x)
        assert _rel_err(gamma_fn(x), ref) <= 8 * _EPS
    assert ln_gamma(x)[1] == (1 if ref > 0 else -1)


@_mp_settings
@given(a=st.floats(0.05, 12.0), b=st.floats(0.05, 12.0))
def test_complete_beta_against_mpmath(a, b):
    with mpmath.workdps(40):
        assert _rel_err(complete_beta(a, b), mpmath.beta(a, b)) <= 4.5e-14
