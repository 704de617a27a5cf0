import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperreduce import special
from hyperreduce.catalog import POLE_DIST
from hyperreduce.errors import DomainError, HyperreduceError, PoleError
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
    # The gamma family rejects a NaN argument as it does +-inf.
    for fn in (gamma_fn, ln_gamma, digamma):
        with pytest.raises(DomainError):
            fn(math.nan)


@pytest.mark.parametrize("x", [-math.inf, math.inf])
def test_gamma_family_rejects_infinite_argument(x):
    # round(-inf) raises OverflowError, so -inf used to escape as one.
    for fn in (gamma_fn, ln_gamma, digamma):
        with pytest.raises(DomainError):
            fn(x)


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


def test_gamma_ratio_reaches_the_largest_double():
    # ln Gamma(171.6) = 709.66 lies between 709 and ln(DBL_MAX) = 709.78.
    assert gamma_ratio((171.6,), ()) == pytest.approx(math.gamma(171.6), rel=1e-12)
    with pytest.raises(OverflowError):
        gamma_ratio((171.7,), ())


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


def test_pochhammer_zero_and_large():
    assert pochhammer(2.5, 0) == 1.0
    assert pochhammer(-3.0, 5) == 0.0
    assert pochhammer(0.5, 100) == pytest.approx(
        scipy.special.poch(0.5, 100), rel=1e-11
    )


def test_pochhammer_negative_index_raises_and_product_overflows_to_inf():
    with pytest.raises(DomainError):
        pochhammer(0.5, -1)
    # (0.5)_200 ~ 1e373: the product overflows like any float product.
    assert pochhammer(0.5, 200) == math.inf
    assert pochhammer(-0.5, 201) == -math.inf


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
            lambda t: t ** (a - 1.0) * (1.0 - t) ** (b - 1.0), 0.0, z, epsabs=0.0, epsrel=1e-13
        )
        assert err < 1e-12 * oracle
        assert incomplete_beta(z, a, b) == pytest.approx(oracle, rel=1e-12)


def test_incomplete_beta_at_one():
    assert incomplete_beta(1.0, 1.2, 2.3) == pytest.approx(
        scipy.special.beta(1.2, 2.3), rel=1e-13
    )
    with pytest.raises(DomainError):
        incomplete_beta(1.0, 1.2, -0.5)


# The incomplete beta's continued fraction (DLMF 8.17.22, with the symmetry
# of DLMF 8.17.4 past its turning point) against mpmath at 30 digits.  Over
# the 13 528 calls that verify makes at 200 cases and seeds 1, 1 000 001 and
# 2 000 001 (every fifth checked) the worst relative error was 7.1e-15.
_beta_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _beta_rel_err(z, a, b):
    with mpmath.workdps(30):
        return _rel_err(incomplete_beta(z, a, b), mpmath.betainc(a, b, 0, z))


@_beta_settings
@given(a=st.floats(0.3, 10.0), b=st.floats(-5.5, 3.0), z=st.floats(1e-3, 0.9))
@example(a=2.5, b=-3.0, z=0.9)
@example(a=0.3, b=-5.5, z=0.9)
@example(a=1.5, b=-2.0, z=0.5)
def test_incomplete_beta_against_mpmath(a, b, z):
    assert _beta_rel_err(z, a, b) <= 1e-13


@_beta_settings
@given(a=st.floats(0.3, 10.0), b=st.floats(0.01, 3.0), z=st.floats(0.5, 1.0 - 1e-6))
@example(a=10.0, b=0.01, z=1.0 - 1e-6)
def test_incomplete_beta_near_unity_against_mpmath(a, b, z):
    assert _beta_rel_err(z, a, b) <= 1e-13


def test_incomplete_beta_near_unity_regression():
    # The Gauss series used to stop at its 200 000-term cap here and return a
    # value 4.1e-3 off; the symmetry B(a, b) - B_{1-z}(b, a) needs a few steps.
    assert _beta_rel_err(0.999999, 0.5, 0.3) <= 1e-14


# For b < 0 and 1 - z < min(0.01, 0.1 / a), B(a, b) - B_{1-z}(b, a) with
# B_{1-z}(b, a) from its own fraction; b is kept 0.05 from the poles 0, -1,
# -2, ...  There the fraction of B_z(a, b) converges slowly or not within its
# step limit, and can be 5.6e-13 off; every point of the box is checked,
# including those with 1 - z >= 0.01, where that fraction is kept.
@_beta_settings
@given(
    a=st.floats(0.5, 4.0),
    b=st.floats(-3.0, 0.0).filter(lambda b: not is_nonpositive_integer(b, within=0.05)),
    z=st.floats(-6.0, -1.0).map(lambda e: 1.0 - 10.0**e),
)
@example(a=2.0, b=-1.5, z=0.99999)
def test_incomplete_beta_negative_b_near_unity_against_mpmath(a, b, z):
    assert _beta_rel_err(z, a, b) <= 1e-13


@pytest.mark.parametrize(
    "z, a, b, expected",
    [
        # The fraction converged here but was 5.6e-13 and 5.0e-13 off.
        (0.9999964415907674, 1.4235374680829131, -2.1046342085867304, "139455411183.7974552491128"),
        (0.99999, 2.5, -2.125, "19843979086.60895711627508"),
    ],
)
def test_incomplete_beta_negative_b_near_unity_pinned(z, a, b, expected):
    assert _rel_err(incomplete_beta(z, a, b), mpmath.mpf(expected)) <= 1e-15


def test_incomplete_beta_negative_b_near_unity_skips_fraction(monkeypatch):
    # The symmetric route is chosen up front: the fraction runs once, on
    # B_{1-z}(b, a), and the fraction of B_z(a, b) is never tried (it would
    # spend its step limit here and fail).
    calls = []
    fraction = special._incomplete_beta_fraction

    def recorder(z, a, b):
        calls.append((z, a, b))
        return fraction(z, a, b)

    monkeypatch.setattr(special, "_incomplete_beta_fraction", recorder)
    value = incomplete_beta(0.99999, 2.0, -1.5)
    assert calls == [(1.0 - 0.99999, -1.5, 2.0)]
    assert _rel_err(value, mpmath.mpf("21081219.94573440985051008")) <= 1e-15


def test_incomplete_beta_fraction_fails_loudly():
    # Within 0.05 of a pole of Gamma(b) the symmetric route is not taken: near
    # z = 1 the fraction converges too slowly for its step limit, and it
    # raises, naming its arguments.
    with pytest.raises(HyperreduceError, match=r"z = 0\.99999, a = 2\.0, b = -1\.02"):
        incomplete_beta(0.99999, 2.0, -1.02)


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


def test_bessel_j_refuses_arguments_past_its_digits():
    # The alternating series cancels terms up to e^x / sqrt(2 pi x): at x = 60
    # it read 1.48e7 where scipy reads -0.0314.  I has no cancellation.
    with pytest.raises(HyperreduceError, match="loses its digits to cancellation"):
        bessel_j(0.5, 60.0)
    with pytest.raises(HyperreduceError, match="loses its digits to cancellation"):
        bessel_j(-3, 60.0)
    assert bessel_i(0.5, 60.0) == pytest.approx(scipy.special.iv(0.5, 60.0), rel=1e-11)
    # Up to the bound it is still good to about 1e-8 absolute.
    x = special._BESSEL_J_MAX_X
    assert bessel_j(0.5, x) == pytest.approx(scipy.special.jv(0.5, x), rel=0.0, abs=1e-8)


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 2.0])
def test_bessel_at_zero_matches_scipy(nu):
    # A negative order is infinite at x = 0: it once read 0.0 there.
    for ours, theirs in ((bessel_i, scipy.special.iv), (bessel_j, scipy.special.jv)):
        if math.isinf(theirs(nu, 0.0)):
            with pytest.raises(OverflowError, match=f"order {nu} is infinite at x = 0"):
                ours(nu, 0.0)
        else:
            assert ours(nu, 0.0) == theirs(nu, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bessel_negative_integer_order_matches_scipy(n):
    # I_{-n} = I_n and J_{-n} = (-1)^n J_n: finite, and 0 at x = 0.  They once
    # raised PoleError from Gamma(1 - n).  At x = 20 the alternating series
    # cancels terms near 1e9, so J is good to about 1e-9 absolute there, as
    # for the positive order it equals.
    for x in (0.0, 0.5, 3.0, 20.0):
        assert bessel_i(-n, x) == pytest.approx(scipy.special.iv(-n, x), rel=1e-14, abs=0.0)
        assert bessel_j(-n, x) == pytest.approx(scipy.special.jv(-n, x), rel=1e-9, abs=2e-9)
        assert bessel_j(-n, x) == (-1) ** n * bessel_j(n, x)
    for f in (bessel_i, bessel_j):
        with pytest.raises(DomainError, match="finite argument"):
            f(math.nan, 0.0)


def test_laguerre_matches_scipy():
    rng = np.random.default_rng(21)
    for _ in range(80):
        n = int(rng.integers(0, 9))
        alpha = rng.uniform(-0.9, 5.0)
        x = rng.uniform(-4.0, 4.0)
        expected = scipy.special.eval_genlaguerre(n, alpha, x)
        assert laguerre(n, alpha, x) == pytest.approx(expected, rel=1e-11, abs=1e-12)
    with pytest.raises(DomainError, match="^Laguerre degree must be non-negative$"):
        laguerre(-1, 0.5, 1.0)


def test_off_poles():
    assert not any(is_nonpositive_integer(x, POLE_DIST) for x in (0.3, 1.0, 2.5))
    assert is_nonpositive_integer(0.01, POLE_DIST)
    assert is_nonpositive_integer(-2.02, POLE_DIST)
    assert not is_nonpositive_integer(-2.5, POLE_DIST)
    assert not is_nonpositive_integer(math.nan, POLE_DIST)


@pytest.mark.parametrize("a, z", [(math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan), (0.5, math.inf)])
def test_lower_incomplete_gamma_rejects_non_finite(a, z):
    with pytest.raises(DomainError):
        lower_incomplete_gamma(a, z)


def test_lower_incomplete_gamma_past_series_overflow():
    # The ascending series overflows past z ~ 709 (or its e^-z factor leaves
    # the normal range); there the value is Gamma(a) - Gamma(a, z).
    for z in (700.0, 800.0, 1000.0):
        assert lower_incomplete_gamma(0.5, z) == pytest.approx(
            scipy.special.gammainc(0.5, z) * scipy.special.gamma(0.5), rel=1e-12
        )
    # An overflowing Gamma(a) still raises.
    with pytest.raises(OverflowError):
        lower_incomplete_gamma(180.0, 1000.0)


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


# The product (x)_k against mpmath at 40 digits for k up to 150, with x at
# least POLE_DIST from the zeros at 0, -1, -2, ...  The bound is 1.9 times the
# worst relative error measured on 200 000 random pairs with k in [120, 150]
# (9.4e-15, at x = 29.9, k = 150); each factor adds one rounding to it.
@_mp_settings
@given(
    x=st.floats(-30.0, 30.0).filter(lambda x: not is_nonpositive_integer(x, POLE_DIST)),
    k=st.integers(0, 150),
)
def test_pochhammer_against_mpmath(x, k):
    with mpmath.workdps(40):
        assert _rel_err(pochhammer(x, k), mpmath.rf(x, k)) <= 1.8e-14


# The lower incomplete gamma for large z against mpmath at 40 digits.  The
# bound is 2 times the worst relative error measured on 30 000 random pairs
# (3.5e-14, at a = 24.8, z = 704.8, where the ascending series still holds);
# past z ~ 708.4, Gamma(a) - Gamma(a, z) was within 9.5e-16.
@_mp_settings
@given(
    a=st.floats(0.1, 50.0),
    z=st.floats(math.log(700.0), math.log(1e5)).map(math.exp),
)
def test_lower_incomplete_gamma_large_z_against_mpmath(a, z):
    with mpmath.workdps(40):
        assert _rel_err(lower_incomplete_gamma(a, z), mpmath.gammainc(a, 0, z)) <= 7e-14


# Where z^a alone overflows but gamma(a, z) is finite, the prefactor is formed
# in log space.  Against mpmath at 40 digits these read 9.1e-14, 3.5e-14 and
# 1.5e-14; the bound is 2 times the worst of them.
@pytest.mark.parametrize("a, z", [(150.0, 700.0), (120.0, 600.0), (170.0, 160.0)])
def test_lower_incomplete_gamma_power_overflow(a, z):
    with mpmath.workdps(40):
        assert _rel_err(lower_incomplete_gamma(a, z), mpmath.gammainc(a, 0, z)) <= 1.83e-13


@pytest.mark.parametrize("a, z", [(300.0, 700.0), (180.0, 650.0)])
def test_lower_incomplete_gamma_true_overflow_raises(a, z):
    with pytest.raises(OverflowError):
        lower_incomplete_gamma(a, z)


def test_lower_incomplete_gamma_numpy_floats_do_not_warn():
    # The ascending sum overflows at z = 708; with NumPy scalars that used
    # to warn before the continued fraction took over.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = lower_incomplete_gamma(np.float64(0.001), np.float64(708.0))
    assert type(value) is float
    assert value == lower_incomplete_gamma(0.001, 708.0) == 999.4237724845954


# a in [170, 180], where z^a e^{-z} can overflow while the value is still a
# double (175, 110 gives 4.4e307): there log of the sum joins the prefactor's
# exponent.  Against mpmath at 40 digits over 20 000 random pairs (z
# log-uniform in [1, 700]) the worst relative error was 1.9e-13, at a = 170.2,
# z = 492.6, where only z^a overflows; the bound is 2 times that.  A value past
# the double range raises.
@_mp_settings
@given(a=st.floats(170.0, 180.0), z=st.floats(0.0, math.log(700.0)).map(math.exp))
@example(a=175.0, z=110.0)
@example(a=180.0, z=200.0)
def test_lower_incomplete_gamma_prefactor_overflow_against_mpmath(a, z):
    with mpmath.workdps(40):
        ref = mpmath.gammainc(a, 0, z)
        if ref > sys.float_info.max:
            with pytest.raises(OverflowError):
                lower_incomplete_gamma(a, z)
        else:
            assert _rel_err(lower_incomplete_gamma(a, z), ref) <= 3.75e-13
