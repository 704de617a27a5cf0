"""Scalar special functions: gamma family, digamma, Bateman's G, beta and
incomplete beta, lower incomplete gamma, Bessel I/J, generalized Laguerre
polynomials, Pochhammer and binomial utilities.

Everything works in real double precision.  Gamma and log|Gamma| come from
Python's ``math`` module; ln_gamma carries the sign of Gamma separately, from
the parity of floor(x) for negative x, so that products of many gamma factors
can be assembled in log space.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import DomainError, PoleError
from .series import PFQSpec, eval_pfq, is_nonpositive_integer

EULER_GAMMA = 0.5772156649015328606065120900824024

_MAX_EXP_ARG = 709.0

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
    if log_acc > _MAX_EXP_ARG:
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
    """Rising factorial (x)_k for any integer k.

    Negative index uses (x)_{-n} = (-1)^n / (1-x)_n; raises ZeroDivisionError
    when that denominator vanishes.
    """
    if k == 0:
        return 1.0
    if k < 0:
        n = -k
        den = pochhammer(1.0 - x, n)
        if den == 0.0:
            raise ZeroDivisionError(f"(1 - {x})_{n} = 0 in negative-index Pochhammer")
        return (-1.0) ** (n % 2) / den
    if k <= 64:
        acc = 1.0
        for j in range(k):
            acc *= x + j
        return acc
    # Large shift: log-gamma form; exact zeros only occur for x a
    # non-positive integer with x + k > 0, handled by the direct loop above.
    if is_nonpositive_integer(x) and x + k > 0.5:
        return 0.0
    return gamma_ratio((x + k,), (x,))


def binomial(n: int, k: int) -> float:
    """Binomial coefficient as a float (exact integer arithmetic underneath)."""
    if k < 0 or k > n:
        return 0.0
    return float(math.comb(n, k))


def complete_beta(a: float, b: float) -> float:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b)."""
    return gamma_ratio((a, b), (a + b,))


def incomplete_beta(z: float, a: float, b: float) -> float:
    """Incomplete beta B_z(a, b) for 0 < z <= 1, a > 0.

    Computed through the Gauss series B_z(a,b) = (z^a / a) 2F1(a, 1-b; a+1; z),
    which agrees with the integral for b > 0 and analytically continues it to
    b <= 0 when z < 1.  At z = 1 (requires b > 0) the complete beta is used.
    """
    if a <= 0.0:
        raise DomainError(f"incomplete beta requires a > 0, got a = {a}")
    if not 0.0 < z <= 1.0:
        raise DomainError(f"incomplete beta requires 0 < z <= 1, got z = {z}")
    if z == 1.0:
        if b <= 0.0:
            raise DomainError("incomplete beta at z = 1 requires b > 0")
        return complete_beta(a, b)
    res = eval_pfq(PFQSpec([a, 1.0 - b], [a + 1.0], z), tol=1e-16)
    return z**a / a * res.value


def lower_incomplete_gamma(a: float, z: float) -> float:
    """Lower incomplete gamma via the stable ascending series
    z^a e^{-z} sum_k z^k / (a)_{k+1}; raises OverflowError once the sum
    overflows, near z = 709."""
    if a <= 0.0:
        raise DomainError(f"incomplete gamma requires a > 0, got a = {a}")
    if z < 0.0:
        raise DomainError(f"incomplete gamma requires z >= 0, got z = {z}")
    if z == 0.0:
        return 0.0
    term = 1.0 / a
    total = term
    k = 0
    while k < 10_000:
        k += 1
        term *= z / (a + k)
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    if not math.isfinite(total):
        raise OverflowError(f"incomplete gamma series overflows at z = {z}")
    return z**a * math.exp(-z) * total


def _bessel_series(nu: float, x: float, alternating: bool) -> float:
    if x < 0.0:
        raise DomainError(f"Bessel series requires x >= 0, got x = {x}")
    if x > 700.0:
        raise OverflowError(f"Bessel argument x = {x} too large for ascending series")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    half = 0.5 * x
    log_pref = nu * math.log(half)
    lg, sign = ln_gamma(nu + 1.0)
    log_pref -= lg
    if log_pref > _MAX_EXP_ARG:
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
    """Modified Bessel function I_nu(x) by its ascending series."""
    return _bessel_series(nu, x, alternating=False)


def bessel_j(nu: float, x: float) -> float:
    """Bessel function J_nu(x) by its alternating ascending series."""
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


def off_poles(values: Sequence[float], min_dist: float = 0.05) -> bool:
    """True when every value stays at least min_dist away from gamma poles."""
    for x in values:
        if x >= min_dist:
            continue
        if abs(x - round(x)) < min_dist and round(x) <= 0:
            return False
    return True
