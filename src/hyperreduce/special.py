"""Scalar special functions: gamma family, digamma, Bateman's G, beta and
incomplete beta, lower incomplete gamma, Bessel I/J, generalized Laguerre
polynomials, Pochhammer and binomial utilities.

Everything works in real double precision.  Gamma and log|Gamma| come from
Python's ``math`` module; ln_gamma carries the sign of Gamma separately, from
the parity of floor(x) for negative x, so that products of many gamma factors
can be assembled in log space.  The Pochhammer symbol (x)_k is the plain
product of its k factors for every k >= 0, so its error is about 2k roundings;
like any float product it overflows to +-inf rather than raising.

The incomplete beta (DLMF 8.17.22) and the upper incomplete gamma (DLMF 8.9.2)
are continued fractions summed by one modified Lentz loop, _lentz; every
incomplete-beta value comes from the one fraction, applied to B_z(a, b) or,
through B(a, b) - B_{1-z}(b, a), to B_{1-z}(b, a).  No function here calls the
series oracle eval_pfq, so a defect in the oracle cannot hit both sides of a
verification.
"""

from __future__ import annotations

import math
import sys
from itertools import islice
from typing import Iterable, Iterator

from .errors import DomainError, HyperreduceError, PoleError
from .series import is_nonpositive_integer

# No function here calls the oracle.  The name stays importable because the
# benchmark's tracer (perfbench/layertrace.py) still wraps special.eval_pfq.
from .series import eval_pfq  # noqa: F401

EULER_GAMMA = 0.5772156649015328606065120900824024

_LOG_DOUBLE_MAX = math.log(sys.float_info.max)  # math.exp overflows past it

# The alternating series of J_nu(x) cancels terms whose magnitudes sum to
# I_nu(x) <= e^x (nu >= 0), so its rounding error is up to about eps * e^x,
# while |J_nu(x)| falls like sqrt(2 / (pi x)).  Past this x, eps * e^x exceeds
# 1e-6 and the digits left go on falling until none are (J_0.5(60) read 1.5e7,
# not -0.031).  The sampler's arguments stay below 2 sqrt(20) = 8.9.
_BESSEL_J_MAX_X = math.log(1e-6 / math.ulp(1.0))  # 22.2

# Asymptotic digamma: psi(x) ~ ln x - 1/(2x) - sum B_2n / (2n x^2n).
_DIGAMMA_ASYMPTOTIC = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def _check_pole(x: float) -> None:
    if not math.isfinite(x):
        raise DomainError(f"gamma family requires a finite argument, got x = {x}")
    if is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x = {x}")


def ln_gamma(x: float) -> tuple[float, int]:
    """Return (log|Gamma(x)|, sign of Gamma(x)).

    Raises PoleError when x is within 1e-12 of a non-positive integer.
    """
    _check_pole(x)
    return math.lgamma(x), -1 if x < 0.0 and math.floor(x) % 2 else 1


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x away from non-positive integers."""
    _check_pole(x)
    try:
        return math.gamma(x)
    except OverflowError:
        raise OverflowError(f"Gamma({x}) exceeds double range") from None


def gamma_ratio(numerator: Iterable[float], denominator: Iterable[float]) -> float:
    """prod Gamma(n_i) / prod Gamma(d_j), assembled in log space with signs."""
    log_acc = 0.0
    sign = 1
    for x in numerator:
        lg, s = ln_gamma(x)
        log_acc += lg
        sign *= s
    for x in denominator:
        lg, s = ln_gamma(x)
        log_acc -= lg
        sign *= s
    if log_acc > _LOG_DOUBLE_MAX:
        raise OverflowError("gamma ratio exceeds double range")
    return sign * math.exp(log_acc)


def digamma(x: float) -> float:
    """psi(x) via upward recurrence to x >= 8, then the asymptotic expansion."""
    _check_pole(x)
    if x < 0.0:
        # psi(x) = psi(1-x) - pi cot(pi x)
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = inv2
    for c in _DIGAMMA_ASYMPTOTIC:
        series += c * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - series


def bateman_g(x: float) -> float:
    """Bateman's G function: (psi((x+1)/2) - psi(x/2)) / 2."""
    return 0.5 * (digamma(0.5 * (x + 1.0)) - digamma(0.5 * x))


def pochhammer(x: float, k: int) -> float:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1) for k >= 0, as a product.

    The product overflows to +-inf like any float product; k < 0 raises
    DomainError.
    """
    if k < 0:
        raise DomainError(f"Pochhammer index must be non-negative, got k = {k}")
    acc = 1.0
    for j in range(k):
        acc *= x + j
    return acc


def binomial(n: int, k: int) -> float:
    """Binomial coefficient as a float (exact integer arithmetic underneath)."""
    if k < 0 or k > n:
        return 0.0
    return float(math.comb(n, k))


def complete_beta(a: float, b: float) -> float:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b)."""
    return gamma_ratio((a, b), (a + b,))


# A continued fraction stops when a step changes it by less than this
# relative amount, or gives up after this many steps.
_FRACTION_TOL = math.ulp(1.0)
_FRACTION_MAX_STEPS = 1_000
_LENTZ_TINY = 1e-300

# For b < 0 near z = 1, B_z(a, b) is B(a, b) - B_{1-z}(b, a) only for b this
# far from the poles 0, -1, -2, ... of Gamma(b) and of B_{1-z}(b, a)'s fraction.
_BETA_POLE_MARGIN = 0.05


def _lentz(b0: float, steps: Iterator[tuple[float, float]]) -> float | None:
    """1/(b0 + a_1/(b_1 + a_2/(b_2 + ...))) by the modified Lentz method, the
    pairs (a_i, b_i) taken from the iterator steps; None when it has not
    converged after _FRACTION_MAX_STEPS steps."""
    c = 1.0 / _LENTZ_TINY
    d = 1.0 / b0
    frac = d
    for an, bn in islice(steps, _FRACTION_MAX_STEPS):
        d = an * d + bn
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = bn + an / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        step = d * c
        frac *= step
        if abs(step - 1.0) <= _FRACTION_TOL:
            return frac
    return None


def incomplete_beta(z: float, a: float, b: float) -> float:
    """Incomplete beta B_z(a, b) for 0 < z <= 1, a > 0 and finite b.

    For z < 1 every value is the continued fraction of DLMF 8.17.22
    (_incomplete_beta_fraction), applied to B_z(a, b), which it continues
    analytically to b <= 0, or to B_{1-z}(b, a) in B(a, b) - B_{1-z}(b, a)
    (DLMF 8.17.4).  The symmetric form is taken where b > 0, z is past
    (a+1)/(a+b+2) and b >= 1 or z > 0.97, since there it converges faster: on
    the calls that verify makes, the worst error against mpmath read 7.1e-15
    this way and 3.0e-14 with the symmetry wherever b > 0.  It is also taken,
    by analytic continuation, where b < 0, 1 - z < min(0.01, 0.1/a) and b is
    at least _BETA_POLE_MARGIN from a non-positive integer: there the fraction
    of B_z(a, b) converges slowly, or not within _FRACTION_MAX_STEPS steps, and
    loses accuracy (to 6e-13 against mpmath for a < 30, where the symmetric
    form reads 9.4e-15; at larger a (1 - z) the difference loses digits to
    cancellation), so it is not tried.  A fraction that does not converge
    raises HyperreduceError.  At z = 1 (requires b > 0) it is B(a, b).
    """
    if not 0.0 < a < math.inf:
        raise DomainError(f"incomplete beta requires 0 < a < inf, got a = {a}")
    if not -math.inf < b < math.inf:
        raise DomainError(f"incomplete beta requires a finite b, got b = {b}")
    if not 0.0 < z <= 1.0:
        raise DomainError(f"incomplete beta requires 0 < z <= 1, got z = {z}")
    if z == 1.0:
        if b <= 0.0:
            raise DomainError("incomplete beta at z = 1 requires b > 0")
        return complete_beta(a, b)
    if (b > 0.0 and z * (a + b + 2.0) > a + 1.0 and (b >= 1.0 or z > 0.97)) or (
        b < 0.0 and 1.0 - z < min(0.01, 0.1 / a) and not is_nonpositive_integer(b, _BETA_POLE_MARGIN)
    ):
        return complete_beta(a, b) - _incomplete_beta_fraction(1.0 - z, b, a)
    return _incomplete_beta_fraction(z, a, b)


def _incomplete_beta_fraction(z: float, a: float, b: float) -> float:
    """B_z(a, b) = z^a (1-z)^b / a * 1/(1 + d_1/(1 + d_2/(1 + ...))) for
    0 < z < 1 and a > 0, or a < 0 off the poles (B_{1-z}(b, a) with b < 0),
    by DLMF 8.17.22, summed as its even contraction
    1/(1 + d_1 - d_1 d_2/(1 + d_2 + d_3 - d_3 d_4/(1 + d_4 + d_5 - ...)))."""
    d1 = -(a + b) * z / (a + 1.0)
    frac = _lentz(1.0 + d1, _beta_fraction_steps(z, a, b, d1))
    if frac is None:
        raise HyperreduceError(
            f"continued fraction of B_z(a, b) at z = {z}, a = {a}, b = {b} did not converge"
        )
    return z**a * (1.0 - z) ** b / a * frac


def _beta_fraction_steps(
    z: float, a: float, b: float, d_odd: float
) -> Iterator[tuple[float, float]]:
    """The pairs (-d_{2m-1} d_{2m}, 1 + d_{2m} + d_{2m+1}), m = 1, 2, ..., where
    d_{2m} = m (b - m) z / ((a + 2m - 1)(a + 2m)) and
    d_{2m+1} = -(a + m)(a + b + m) z / ((a + 2m)(a + 2m + 1))."""
    apb = a + b
    m = 0
    while True:
        m += 1
        a2m = a + 2 * m
        d_even = m * (b - m) * z / ((a2m - 1.0) * a2m)
        an = -d_odd * d_even
        d_odd = -(a + m) * (apb + m) * z / (a2m * (a2m + 1.0))
        yield an, 1.0 + d_even + d_odd


def lower_incomplete_gamma(a: float, z: float) -> float:
    """Lower incomplete gamma via the stable ascending series
    z^a e^{-z} sum_k z^k / (a)_{k+1}.

    Past z ~ 708, where e^{-z} is no longer a normal double, or once the sum
    overflows, the value is Gamma(a) - Gamma(a, z) with Gamma(a, z) from its
    continued fraction (_upper_gamma_fraction); an overflowing Gamma(a)
    raises OverflowError.  Where z^a alone overflows, the prefactor
    z^a e^{-z} is formed in log space, and where that overflows too, log of
    the sum joins its exponent; a value past the double range raises
    OverflowError.
    """
    a = float(a)
    z = float(z)
    if not 0.0 < a < math.inf:
        raise DomainError(f"incomplete gamma requires finite a > 0, got a = {a}")
    if not 0.0 <= z < math.inf:
        raise DomainError(f"incomplete gamma requires finite z >= 0, got z = {z}")
    if z == 0.0:
        return 0.0
    decay = math.exp(-z)
    if decay >= sys.float_info.min:
        term = 1.0 / a
        total = term
        k = 0
        while k < 10_000:
            k += 1
            term *= z / (a + k)
            total += term
            if abs(term) <= 1e-17 * abs(total):
                break
        if math.isfinite(total):
            try:
                return z**a * decay * total
            except OverflowError:
                log_prefactor = a * math.log(z) - z
                try:
                    value = math.exp(log_prefactor) * total
                except OverflowError:  # so does the prefactor: fold the sum into the exponent
                    log_value = log_prefactor + math.log(total)
                    value = math.exp(log_value) if log_value <= _LOG_DOUBLE_MAX else math.inf
                if not math.isfinite(value):
                    raise OverflowError(f"lower incomplete gamma({a}, {z}) exceeds double range")
                return value
    return gamma_fn(a) - _upper_gamma_fraction(a, z)


def _upper_gamma_fraction(a: float, z: float) -> float:
    """Gamma(a, z) = z^a e^{-z} / (z + 1 - a - 1 (1 - a) / (z + 3 - a - 2 (2 - a) / ...)).

    The even contraction of DLMF 8.9.2, evaluated by the modified Lentz
    method.  It converges quickly for z > a + 1; the prefactor is formed in
    log space, so it underflows to 0 rather than overflowing.
    """
    b0 = z + 1.0 - a
    frac = _lentz(b0, _upper_gamma_steps(a, b0))
    if frac is None:
        raise HyperreduceError(f"continued fraction of Gamma({a}, {z}) did not converge")
    return math.exp(a * math.log(z) - z) * frac


def _upper_gamma_steps(a: float, b: float) -> Iterator[tuple[float, float]]:
    """The pairs (-i (i - a), b + 2i) of DLMF 8.9.2's even contraction."""
    i = 0
    while True:
        i += 1
        b += 2.0
        yield -i * (i - a), b


def _bessel_series(nu: float, x: float, alternating: bool) -> float:
    if x < 0.0:
        raise DomainError(f"Bessel series requires x >= 0, got x = {x}")
    if x > 700.0:
        raise OverflowError(f"Bessel argument x = {x} too large for ascending series")
    if alternating and x > _BESSEL_J_MAX_X:
        raise HyperreduceError(
            f"Bessel J series at x = {x} loses its digits to cancellation"
            f" (x > {_BESSEL_J_MAX_X:.1f})"
        )
    if nu < 0.0 and float(nu).is_integer():  # I_{-n} = I_n and J_{-n} = (-1)^n J_n
        value = _bessel_series(-nu, x, alternating)
        return -value if alternating and nu % 2 else value
    if x == 0.0:
        _check_pole(nu + 1.0)  # a non-finite order raises, as for x > 0
        if nu < 0.0:
            raise OverflowError(f"Bessel function of order {nu} is infinite at x = 0")
        return 1.0 if nu == 0.0 else 0.0
    half = 0.5 * x
    log_pref = nu * math.log(half)
    lg, sign = ln_gamma(nu + 1.0)
    log_pref -= lg
    if log_pref > _LOG_DOUBLE_MAX:
        raise OverflowError("Bessel series prefactor overflows")
    term = sign * math.exp(log_pref)
    quarter_sq = half * half
    if alternating:
        quarter_sq = -quarter_sq
    total = term
    k = 0
    while k < 10_000:
        k += 1
        term *= quarter_sq / (k * (nu + k))
        total += term
        if abs(term) <= 1e-17 * (abs(total) + 1e-300):
            break
    return total


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function I_nu(x) by its ascending series; I_{-n} = I_n."""
    return _bessel_series(nu, x, alternating=False)


def bessel_j(nu: float, x: float) -> float:
    """Bessel function J_nu(x) by its alternating ascending series;
    J_{-n} = (-1)^n J_n.  HyperreduceError for x > _BESSEL_J_MAX_X (22.2),
    where the series' rounding error, up to about eps * e^x, passes 1e-6."""
    return _bessel_series(nu, x, alternating=True)


def laguerre(n: int, alpha: float, x: float) -> float:
    """Generalized Laguerre polynomial L_n^alpha(x) by three-term recurrence."""
    if n < 0:
        raise DomainError("Laguerre degree must be non-negative")
    if n == 0:
        return 1.0
    prev = 1.0
    cur = alpha + 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + alpha + 1.0 - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur
