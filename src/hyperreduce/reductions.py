"""Closed-form right-hand sides for the reduction formulas, plus the scalar
lemmas (psi sums, Bateman recursion, the n-th derivative of z^g * B_z(a,b),
the power/ratio derivative lemma, and the polynomial form of pFp with
integer-shifted parameters).

Every ``*_rhs`` evaluator returns ``(value, magnitude)`` where ``magnitude``
accumulates the absolute values of the summands, so callers can turn it into
a cancellation-based error estimate (magnitude * machine epsilon).  Their
parameter names and annotations are the catalog's request keys and kinds (see
``catalog.CatalogEntry``).  They assume arguments that ``catalog._validate``
has accepted and do not check their formula's domain again; the exported
lemmas below them check their own input.  No ``*_rhs`` and no lemma calls the
series oracle ``eval_pfq``, so a defect in the oracle cannot hit both sides of
a verification; only expand_main and reduce_corollary (the identity itself, a
sum of pFq values) and shifted_pfp_damped (the oracle's reference) do.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from .errors import DegenerateParametersError, DomainError
from .series import EvalResult, PFQSpec, Status, eval_pfq, is_nonpositive_integer
from .special import (
    bateman_g,
    bessel_i,
    bessel_j,
    binomial,
    complete_beta,
    digamma,
    gamma_fn,
    gamma_ratio,
    incomplete_beta,
    laguerre,
    lower_incomplete_gamma,
    pochhammer,
)

_EPS = math.ulp(1.0)

DISTINCT_TOL = 1e-6


class _Acc:
    """Signed sum that also tracks the total magnitude of its summands."""

    __slots__ = ("total", "magnitude")

    def __init__(self) -> None:
        self.total = 0.0
        self.magnitude = 0.0

    def add(self, x: float) -> None:
        self.total += x
        self.magnitude += abs(x)

    def add_scaled(self, coef: float, inner: _Acc) -> None:
        """Add coef times an inner sum, keeping the magnitude of its summands."""
        self.total += coef * inner.total
        self.magnitude += abs(coef) * inner.magnitude


def _shift(name: str, value: object, least: int = 0) -> int:
    """A lemma's integer shift: what operator.index accepts, at least ``least``,
    but not a bool, which operator.index reads as 0 or 1."""
    if isinstance(value, bool) or not hasattr(value, "__index__") or operator.index(value) < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return operator.index(value)


def _partial_fraction_sum(a_list: Sequence[float], f) -> _Acc:
    """sum_l f(a_l) / prod_{j != l} (a_j - a_l), as used by the arbitrary-p
    formulas with pairwise-distinct denominators."""
    acc = _Acc()
    for idx, al in enumerate(a_list):
        den = 1.0
        for j, aj in enumerate(a_list):
            if j != idx:
                den *= aj - al
        acc.add(f(al) / den)
    return acc


# ---------------------------------------------------------------------------
# z = 1/2 and z = +-1 families (Bateman G / psi / beta closed forms)
# ---------------------------------------------------------------------------


def f32_half_bateman_rhs(a: float, c: float, n: int) -> tuple[float, float]:
    """3F2(a,a,c+n; a+1,c; 1/2) as a * 2^a * sum of Bateman-G values."""
    pre = a * 2.0**a
    acc = _Acc()
    for k in range(n + 1):
        acc.add(binomial(n, k) * pochhammer(a, k) / pochhammer(c, k) * bateman_g(a + k))
    return pre * acc.total, abs(pre) * acc.magnitude


def f21_half_bateman_rhs(a: float, n: int) -> tuple[float, float]:
    """2F1(a,a+n; a+1; 1/2): the c = a collapse of the 3F2 form."""
    pre = a * 2.0**a
    acc = _Acc()
    for k in range(n + 1):
        acc.add(binomial(n, k) * bateman_g(a + k))
    return pre * acc.total, abs(pre) * acc.magnitude


def f21_neg_unit_bateman_rhs(a: float, n: int) -> tuple[float, float]:
    """2F1(-n,a; a+1; -1) as a * sum_{k<=n+1} C(n+1,k) G(a+k)."""
    acc = _Acc()
    for k in range(n + 2):
        acc.add(binomial(n + 1, k) * bateman_g(a + k))
    return a * acc.total, abs(a) * acc.magnitude


def f21_neg_unit_direct_rhs(a: float, n: int) -> tuple[float, float]:
    """2F1(-n,a; a+1; -1) summed termwise: a * sum C(n,k)/(a+k)."""
    acc = _Acc()
    for k in range(n + 1):
        acc.add(binomial(n, k) / (a + k))
    return a * acc.total, abs(a) * acc.magnitude


def _f32_half_shifted(
    a: float, b: float, c: float, n: int, m: int, sign_s: bool, down_shift: int
) -> tuple[float, float]:
    """Common kernel of the two z=1/2 gamma-ratio formulas.

    down_shift is 0 for the (b+m) upward family and m for the (b-m) downward
    family, where it also shifts the inner gamma denominator.
    """
    pre = 2.0 ** (a - 1.0) * gamma_ratio(((a + b + 1.0) / 2.0,), (a,))
    b_eff = b - down_shift if down_shift else b + m
    acc = _Acc()
    for k in range(n + 1):
        outer = binomial(n, k) * pochhammer(b_eff, k) / pochhammer(c, k)
        inner = _Acc()
        for s in range(m + 1):
            g = gamma_ratio(
                ((a + k + s) / 2.0,), ((1.0 + b + k + s) / 2.0 - down_shift,)
            )
            if sign_s and s % 2 == 1:
                g = -g
            inner.add(binomial(m, s) * g)
        acc.add_scaled(outer, inner)
    return pre * acc.total, abs(pre) * acc.magnitude


def f32_half_plus_rhs(a: float, b: float, c: float, n: int, m: int) -> tuple[float, float]:
    """3F2(a,b+m,c+n; (a+b+1)/2,c; 1/2) via a double gamma-ratio sum."""
    return _f32_half_shifted(a, b, c, n, m, sign_s=False, down_shift=0)


def f32_half_minus_signed_rhs(
    a: float, b: float, c: float, n: int, m: int
) -> tuple[float, float]:
    """3F2(a,b-m,c+n; (a+b+1)/2,c; 1/2), variant carrying the (-1)^s factor
    together with the Gamma((b-a+1)/2-m)/Gamma((b-a+1)/2) prefactor.

    This is the variant that survives oracle testing (see the negative
    control below and the verifier suite)."""
    value, mag = _f32_half_shifted(a, b, c, n, m, sign_s=True, down_shift=m)
    ratio = gamma_ratio(((b - a + 1.0) / 2.0 - m,), ((b - a + 1.0) / 2.0,))
    return value * ratio, mag * abs(ratio)


def f32_half_minus_unsigned_rhs(
    a: float, b: float, c: float, n: int, m: int
) -> tuple[float, float]:
    """Negative-control variant of the b-m formula: same gamma prefactor but
    without the (-1)^s factor.  Retained because it fails oracle testing and
    documents the resolved ambiguity."""
    value, mag = _f32_half_shifted(a, b, c, n, m, sign_s=False, down_shift=m)
    ratio = gamma_ratio(((b - a + 1.0) / 2.0 - m,), ((b - a + 1.0) / 2.0,))
    return value * ratio, mag * abs(ratio)


def f32_unity_jl_rhs(a: float, b: float) -> tuple[float, float]:
    """3F2(a,b,b; b+1,b+1; 1) = b^2 B(1-a,b) [psi(1+b-a) - psi(b)]."""
    pre = b * b * complete_beta(1.0 - a, b)
    psi_ba = digamma(1.0 + b - a)
    psi_b = digamma(b)
    return pre * (psi_ba - psi_b), abs(pre) * (abs(psi_ba) + abs(psi_b))


def f43_unity_rhs(a: float, b: float, c: float, n: int) -> tuple[float, float]:
    """4F3(a,b,b,c+n; b+1,b+1,c; 1) in terms of beta and psi values (b != c)."""
    pre = (
        b * b * complete_beta(1.0 - a, b) * pochhammer(c - b, n) / pochhammer(c, n)
    )
    terms = (
        digamma(1.0 + b - a),
        -digamma(1.0 + b - c),
        -digamma(b),
        digamma(1.0 + b - c - n),
    )
    return pre * math.fsum(terms), abs(pre) * sum(abs(t) for t in terms)


def f32_unity_bb_rhs(a: float, b: float, n: int) -> tuple[float, float]:
    """3F2(a,b,b+n; b+1,b+1; 1) = (n-1)! b^2 B(1-a,b) / (b)_n, n >= 1."""
    value = (
        math.factorial(n - 1) * b * b * complete_beta(1.0 - a, b) / pochhammer(b, n)
    )
    return value, abs(value)


def f43_unity_nm_rhs(a: float, b: float, c: float, n: int, m: int) -> tuple[float, float]:
    """4F3(a,b,b+n,c+m; b+1,b+1,c; 1), n >= 1."""
    value, mag = f32_unity_bb_rhs(a, b, n)
    ratio = pochhammer(c - b, m) / pochhammer(c, m)
    return value * ratio, mag * abs(ratio)


# ---------------------------------------------------------------------------
# Bessel, incomplete-gamma and Laguerre families (finite p, arbitrary z)
# ---------------------------------------------------------------------------


def f01_bessel_rhs(b: float, z: float) -> tuple[float, float]:
    """0F1(;b;z) = z^((1-b)/2) Gamma(b) I_{b-1}(2 sqrt(z)), z > 0: the n = 0
    case of f12_bessel_i_rhs, where c only enters as (c)_0 = 1."""
    return f12_bessel_i_rhs(b, 1.0, 0, z)


def _f12_bessel(b: float, c: float, n: int, z: float, modified: bool) -> tuple[float, float]:
    root = 2.0 * math.sqrt(z)
    pre = z ** ((1.0 - b) / 2.0) * gamma_fn(b)
    acc = _Acc()
    for k in range(n + 1):
        bess = bessel_i(b + k - 1.0, root) if modified else bessel_j(b + k - 1.0, root)
        term = binomial(n, k) * z ** (k / 2.0) / pochhammer(c, k) * bess
        if not modified and k % 2 == 1:
            term = -term
        acc.add(term)
    return pre * acc.total, abs(pre) * acc.magnitude


def f12_bessel_i_rhs(b: float, c: float, n: int, z: float) -> tuple[float, float]:
    """1F2(c+n; b,c; z) as a finite sum of modified Bessel I values."""
    return _f12_bessel(b, c, n, z, modified=True)


def f12_bessel_j_rhs(b: float, c: float, n: int, z: float) -> tuple[float, float]:
    """1F2(c+n; b,c; -z) as an alternating finite sum of Bessel J values."""
    return _f12_bessel(b, c, n, z, modified=False)


def _f23_bessel(
    b: float, c: float, d: float, n: int, m: int, z: float, modified: bool
) -> tuple[float, float]:
    root = 2.0 * math.sqrt(z)
    pre = z ** ((1.0 - b) / 2.0) * gamma_fn(b) * gamma_fn(d)
    acc = _Acc()
    for k in range(n + 1):
        outer = binomial(n, k) * pochhammer(d + m, k) / pochhammer(c, k)
        for ell in range(m + 1):
            nu = b + k + ell - 1.0
            bess = bessel_i(nu, root) if modified else bessel_j(nu, root)
            term = (
                outer
                * binomial(m, ell)
                * z ** ((k + ell) / 2.0)
                / gamma_fn(d + k + ell)
                * bess
            )
            if not modified and (k + ell) % 2 == 1:
                term = -term
            acc.add(term)
    return pre * acc.total, abs(pre) * acc.magnitude


def f23_bessel_i_rhs(
    b: float, c: float, d: float, n: int, m: int, z: float
) -> tuple[float, float]:
    """2F3(c+n,d+m; b,c,d; z) as a double finite sum of Bessel I values."""
    return _f23_bessel(b, c, d, n, m, z, modified=True)


def f23_bessel_j_rhs(
    b: float, c: float, d: float, n: int, m: int, z: float
) -> tuple[float, float]:
    """2F3(c+n,d+m; b,c,d; -z) as a double finite sum of Bessel J values."""
    return _f23_bessel(b, c, d, n, m, z, modified=False)


def f11_inc_gamma_rhs(a: float, z: float) -> tuple[float, float]:
    """1F1(a; a+1; -z) = a z^{-a} gamma_lower(a, z), z > 0: the n = 0 case of
    f22_inc_gamma_rhs, where c only enters as (c)_0 = 1."""
    return f22_inc_gamma_rhs(a, 1.0, 0, z)


def f22_inc_gamma_rhs(a: float, c: float, n: int, z: float) -> tuple[float, float]:
    """2F2(a,c+n; a+1,c; -z) as an alternating sum of incomplete gammas."""
    pre = a * z ** (-a)
    acc = _Acc()
    for k in range(n + 1):
        term = binomial(n, k) * lower_incomplete_gamma(a + k, z) / pochhammer(c, k)
        if k % 2 == 1:
            term = -term
        acc.add(term)
    return pre * acc.total, abs(pre) * acc.magnitude


def f11_laguerre_rhs(a: float, n: int, z: float) -> tuple[float, float]:
    """1F1(a+n; a; z) = n!/(a)_n e^z L_n^{a-1}(-z)."""
    value = (
        math.factorial(n) / pochhammer(a, n) * math.exp(z) * laguerre(n, a - 1.0, -z)
    )
    return value, abs(value)


def f22_laguerre_rhs(a: float, b: float, n: int, m: int, z: float) -> tuple[float, float]:
    """2F2(a+n,b+m; a,b; z) = m! e^z/(b)_m * sum_k C(n,k) z^k L_m^{b+k-1}(-z)/(a)_k."""
    pre = math.factorial(m) * math.exp(z) / pochhammer(b, m)
    acc = _Acc()
    for k in range(n + 1):
        acc.add(binomial(n, k) * z**k * laguerre(m, b + k - 1.0, -z) / pochhammer(a, k))
    return pre * acc.total, abs(pre) * acc.magnitude


def f33_laguerre_rhs(
    a: float, b: float, c: float, n: int, m: int, k: int, z: float
) -> tuple[float, float]:
    """3F3(a+n,b+m,c+k; a,b,c; z) as a double finite Laguerre sum."""
    pre = math.factorial(m) * math.exp(z) / (pochhammer(b, m) * pochhammer(a, n))
    acc = _Acc()
    for ell in range(k + 1):
        outer = binomial(k, ell) / pochhammer(c, ell)
        for s in range(n + 1):
            # Gamma(a+n+ell) / Gamma(a+ell+s) = (a+ell+s)_{n-s}
            acc.add(
                outer
                * binomial(n, s)
                * z ** (ell + s)
                * laguerre(m, b + ell + s - 1.0, -z)
                * pochhammer(a + ell + s, n - s)
            )
    return pre * acc.total, abs(pre) * acc.magnitude


# ---------------------------------------------------------------------------
# Arbitrary p families (incomplete beta partial fractions)
# ---------------------------------------------------------------------------


def m1m_inc_beta_rhs(a: Sequence[float], b: float, z: float) -> tuple[float, float]:
    """(m+1)Fm(b, a_1..a_m; a_1+1..a_m+1; z) as a partial-fraction sum of
    incomplete beta values, pairwise-distinct a's: the n = m = 0 case of
    pp3_inc_beta_rhs, where c and d only enter as (c)_0 = (d)_0 = 1."""
    return pp3_inc_beta_rhs(a, b, 1.0, 1.0, 0, 0, z)


def pp2_inc_beta_rhs(
    a: Sequence[float], b: float, c: float, n: int, z: float
) -> tuple[float, float]:
    """(p+2)F(p+1)(a_1..a_p,b,c+n; a_1+1..a_p+1,c; z) via incomplete betas:
    the m = 0 case of pp3_inc_beta_rhs, where d only enters as (d)_0 = 1."""
    return pp3_inc_beta_rhs(a, b, c, 1.0, n, 0, z)


def pp2_literature_rhs(
    a: Sequence[float], b: float, c: float, n: int, z: float
) -> tuple[float, float]:
    """Same left-hand side as pp2_inc_beta_rhs but through the n-th derivative
    operator acting on z^g B_z, the formulation found in earlier literature."""
    pre = z ** (1.0 - c) / pochhammer(c, n) * math.prod(a)
    acc = _partial_fraction_sum(
        a, lambda al: h_derivative(n, al, 1.0 - b, n + c - al - 1.0, z)
    )
    return pre * acc.total, abs(pre) * acc.magnitude


def f21_contiguous_rhs(b: float, c: float, n: int, z: float) -> tuple[float, float]:
    """2F1(b,c+n; c; z) = (1-z)^{-b} sum_k C(n,k) (b)_k/(c)_k (z/(1-z))^k."""
    ratio = z / (1.0 - z)
    pre = (1.0 - z) ** (-b)
    acc = _Acc()
    for k in range(n + 1):
        acc.add(binomial(n, k) * pochhammer(b, k) / pochhammer(c, k) * ratio**k)
    return pre * acc.total, abs(pre) * acc.magnitude


def pp2_unity_rhs(
    a: Sequence[float], b: float, c: float, n: int
) -> tuple[float, float]:
    """(p+2)F(p+1)(a_1..a_p,b,c+n; a_1+1..a_p+1,c; 1) as a beta-function sum:
    the m = 0 case of pp3_unity_rhs, where d only enters as (d)_0 = 1."""
    return pp3_unity_rhs(a, b, c, 1.0, n, 0)


def pp3_h_rhs(
    a: Sequence[float], b: float, c: float, d: float, n: int, m: int, z: float
) -> tuple[float, float]:
    """(p+3)F(p+2)(a_1..a_p,b,c+n,d+m; a_1+1..a_p+1,c,d; z) through the m-th
    derivative operator acting on z^g B_z."""
    pre = z ** (1.0 - d) * math.prod(a) / pochhammer(d, m)
    total = _Acc()
    for k in range(n + 1):
        coef = binomial(n, k) * pochhammer(b, k) / pochhammer(c, k)
        inner = _partial_fraction_sum(
            a,
            lambda al, k=k: h_derivative(m, al + k, 1.0 - b - k, m + d - al - 1.0, z),
        )
        total.add_scaled(coef, inner)
    return pre * total.total, abs(pre) * total.magnitude


def pp3_inc_beta_rhs(
    a: Sequence[float], b: float, c: float, d: float, n: int, m: int, z: float
) -> tuple[float, float]:
    """Same left-hand side as pp3_h_rhs, written directly through incomplete
    beta values (the simpler of the two equivalent forms).  Each distinct
    B_z(al + k + s, 1 - b - k - s) is evaluated once per call: the value
    depends on k + s only, and the key is the pair of arguments as computed,
    since (al + k) + s may round apart from al + (k + s)."""
    pre = math.prod(a) / pochhammer(d, m)
    betas: dict[tuple[float, float], float] = {}

    def beta(x: float, y: float) -> float:
        if (x, y) not in betas:
            betas[x, y] = incomplete_beta(z, x, y)
        return betas[x, y]

    total = _Acc()
    for k in range(n + 1):
        outer = binomial(n, k) * pochhammer(b, k) / pochhammer(c, k)
        for s in range(m + 1):
            coef = (
                outer
                * binomial(m, s)
                * pochhammer(b + k, s)
                * pochhammer(d + k + s, m - s)
            )
            inner = _partial_fraction_sum(
                a,
                lambda al, k=k, s=s: z ** (-al) * beta(al + k + s, 1.0 - b - k - s),
            )
            total.add_scaled(coef, inner)
    return pre * total.total, abs(pre) * total.magnitude


def pp3_unity_rhs(
    a: Sequence[float], b: float, c: float, d: float, n: int, m: int
) -> tuple[float, float]:
    """(p+3)F(p+2)(...; 1) as a pure beta-function partial-fraction sum;
    requires b < 1 - max(n, m)."""
    pre = math.prod(a) / (pochhammer(d, m) * pochhammer(c, n))
    acc = _partial_fraction_sum(
        a,
        lambda al: pochhammer(d - al, m)
        * pochhammer(c - al, n)
        * complete_beta(al, 1.0 - b),
    )
    return pre * acc.total, abs(pre) * acc.magnitude


def f32_p0_rhs(
    b: float, c: float, d: float, n: int, m: int, z: float
) -> tuple[float, float]:
    """3F2(b,c+n,d+m; c,d; z), z != 1, via terminating inner 2F1 sums."""
    ratio = z / (1.0 - z)
    pre = (1.0 - z) ** (-(b + m))
    acc = _Acc()
    for k in range(n + 1):
        inner = _terminating_2f1(m, d - b, d + k, z)
        acc.add(
            binomial(n, k)
            * pochhammer(b, k)
            * pochhammer(d + m, k)
            / (pochhammer(c, k) * pochhammer(d, k))
            * ratio**k
            * inner
        )
    return pre * acc.total, abs(pre) * acc.magnitude


def _terminating_2f1(m: int, upper: float, lower: float, z: float) -> float:
    """2F1(-m, upper; lower; z) summed exactly over its m+1 terms."""
    total = 0.0
    for ell in range(m + 1):
        den = pochhammer(lower, ell)
        if den == 0.0:
            raise ZeroDivisionError(f"({lower})_{ell} = 0 in terminating 2F1")
        term = binomial(m, ell) * pochhammer(upper, ell) * z**ell / den
        if ell % 2 == 1:
            term = -term
        total += term
    return total


# ---------------------------------------------------------------------------
# Expansion / contraction of a contiguous pair
# ---------------------------------------------------------------------------


def _pair_sum(
    upper: Sequence[float],
    lower: Sequence[float],
    z: float,
    n: int,
    den: float,
    pair: tuple[tuple[float, ...], tuple[float, ...]] = ((), ()),
) -> EvalResult:
    """sum_{k<=n} C(n,k) z^k prod (a)_k / ((den)_k prod (b)_k) times
    F(upper+k, pair[0]+k; lower+k, pair[1]+k; z), the loop shared by
    expand_main (pair adjoined, den = c+n) and reduce_corollary (no pair,
    den = c).  The status is MaxTermsReached when an inner series stopped
    at its cap, Converged otherwise."""
    inner_upper = tuple(upper) + pair[0]
    inner_lower = tuple(lower) + pair[1]
    total = 0.0
    mag = 0.0
    err = 0.0
    terms = 0
    status = Status.CONVERGED
    for k in range(n + 1):
        coef = binomial(n, k) * z**k / pochhammer(den, k)
        for a in upper:
            coef *= pochhammer(a, k)
        for b in lower:
            coef /= pochhammer(b, k)
        inner = eval_pfq(
            PFQSpec(
                tuple(a + k for a in inner_upper),
                tuple(b + k for b in inner_lower),
                z,
            )
        )
        total += coef * inner.value
        mag += abs(coef * inner.value)
        err += abs(coef) * inner.abs_err_est
        terms += inner.terms_used
        if inner.status is Status.MAX_TERMS_REACHED:
            status = Status.MAX_TERMS_REACHED
    return EvalResult(total, err + _EPS * mag, terms, status)


def expand_main(spec: PFQSpec, c: float, n: int) -> EvalResult:
    """Rewrite pFq(spec) as the finite binomial sum of (p+1)F(q+1) values
    obtained by adjoining the contiguous pair (c+k over c+n+k)."""
    n = _shift("n", n)
    return _pair_sum(spec.upper, spec.lower, spec.z, n, c + n, ((c,), (c + n,)))


def reduce_corollary(spec_with_pair: PFQSpec, c: float, n: int) -> EvalResult:
    """Collapse the contiguous pair (upper c+n, lower c) of a (p+1)F(q+1)
    into the finite binomial sum of shifted pFq values."""
    n = _shift("n", n)
    upper = list(spec_with_pair.upper)
    lower = list(spec_with_pair.lower)
    try:
        upper.remove(next(a for a in upper if abs(a - (c + n)) <= 1e-9))
        lower.remove(next(b for b in lower if abs(b - c) <= 1e-9))
    except StopIteration:
        raise DomainError(
            f"spec does not contain the contiguous pair ({c + n} upper, {c} lower)"
        ) from None
    return _pair_sum(upper, lower, spec_with_pair.z, n, c)


# ---------------------------------------------------------------------------
# Scalar lemmas
# ---------------------------------------------------------------------------


def psi_sum_closed(b: float, c: float, n: int) -> float:
    """Closed form of sum_k C(n,k)(-1)^k (b)_k/(c)_k psi(b+k), b != c."""
    n = _shift("n", n)
    if abs(b - c) < DISTINCT_TOL:
        raise DegenerateParametersError("requires b != c")
    den = pochhammer(c, n)
    if den == 0.0:
        raise ZeroDivisionError(f"({c})_{n} = 0")
    return (
        pochhammer(c - b, n)
        / den
        * (digamma(1.0 + b - c) + digamma(b) - digamma(1.0 + b - c - n))
    )


def psi_sum_alternating(b: float, n: int) -> float:
    """Closed form of sum_k C(n,k)(-1)^k psi(b+k) = -(n-1)!/(b)_n, n >= 1."""
    n = _shift("n", n, 1)
    if not -math.inf < b < math.inf:
        raise DomainError(f"requires a finite b, got {b}")
    den = pochhammer(b, n)
    if den == 0.0:
        raise ZeroDivisionError(f"({b})_{n} = 0")
    return -math.factorial(n - 1) / den


def bateman_next(a: float, n: int) -> float:
    """G(a+n+1) recursively from G(a)..G(a+n):
    sum_k C(n,k) [1/(a+k) - (n+1)/(n+1-k) G(a+k)]."""
    n = _shift("n", n)
    total = 0.0
    for k in range(n + 1):
        total += binomial(n, k) * (
            1.0 / (a + k) - (n + 1.0) / (n + 1.0 - k) * bateman_g(a + k)
        )
    return total


def h_derivative(n: int, alpha: float, beta: float, gamma: float, z: float) -> float:
    """n-th derivative of z^gamma * B_z(alpha, beta) in closed form,
    (-1)^n z^(gamma-n) [(-gamma)_n B_z(alpha, beta) - z^alpha sum_{k<n}
    C(n, k+1) (-gamma)_{n-k-1} (1-alpha)_k 2F1(alpha, 1-beta; alpha-k; z)].

    B_z is incomplete_beta's continued fraction.  Each inner 2F1 carries the
    contiguous pair alpha over alpha - k, so it collapses to F21Contiguous's
    (k+1)-term sum f21_contiguous_rhs(1 - beta, alpha - k, k, z).  At z = 1
    (requires beta > n) incomplete_beta returns the complete beta and the
    correction sum vanishes identically, so it is skipped.  A non-finite
    beta raises DomainError from incomplete_beta."""
    n = _shift("n", n)
    if not (0.0 < alpha < math.inf and -math.inf < gamma < math.inf):
        raise DomainError(f"requires 0 < alpha < inf and a finite gamma, got {alpha}, {gamma}")
    if not 0.0 < z <= 1.0:
        raise DomainError("requires 0 < z <= 1")
    if z == 1.0 and beta <= n:
        raise DomainError("z = 1 requires beta > n")
    main = pochhammer(-gamma, n) * incomplete_beta(z, alpha, beta)
    corr = 0.0
    for k in range(n if z < 1.0 else 0):
        inner, _ = f21_contiguous_rhs(1.0 - beta, alpha - k, k, z)
        corr += (
            binomial(n, k + 1)
            * pochhammer(-gamma, n - k - 1)
            * pochhammer(1.0 - alpha, k)
            * inner
        )
    value = z ** (gamma - n) * (main - z**alpha * corr)
    return value if n % 2 == 0 else -value


def ratio_derivative(m: int, alpha: float, beta: float, z: float) -> float:
    """m-th derivative of z^alpha / (1-z)^beta in closed form, 0 < z < 1."""
    m = _shift("m", m)
    if not 0.0 < z < 1.0:
        raise DomainError("requires 0 < z < 1")
    if not (-math.inf < alpha < math.inf and -math.inf < beta < math.inf):
        raise DomainError(f"requires finite alpha and beta, got {alpha}, {beta}")
    inner = _terminating_2f1(m, 1.0 - m + alpha - beta, 1.0 - m + alpha, z)
    return (
        z ** (alpha - m)
        / (1.0 - z) ** (beta + m)
        * pochhammer(alpha - m + 1.0, m)
        * inner
    )


# ---------------------------------------------------------------------------
# Polynomial form of pFp with integer-shifted parameters
# ---------------------------------------------------------------------------


def shifted_pfp_damped(a: Sequence[float], n: Sequence[int], z: float) -> float:
    """e^{-z} * pFp(a_1+n_1..a_p+n_p; a_1..a_p; z)."""
    upper = [ai + ni for ai, ni in zip(a, n)]
    res = eval_pfq(PFQSpec(upper, list(a), z), tol=1e-16)
    return math.exp(-z) * res.value


def pfp_polynomial_coeffs(a: Sequence[float], n: Sequence[int]) -> list[float]:
    """Ascending coefficients of e^{-z} pFp(a+n; a; z), a polynomial of degree sum(n).

    With P(k) = prod_i (a_i+k)_{n_i} / (a_i)_{n_i}, the z^j coefficient is
    Delta^j P(0) / j! (Newton series), that of the falling factorial k^(j) in
    P.  Each factor is sum_j C(n_i, j) k^(j) / (a_i)_j, and k^(i) k^(j) =
    sum_l C(i, l) j!/(j-l)! k^(i+j-l): no summand cancels when every a_i > 0.
    Any p >= 1 is accepted.  A non-finite a_i or one at a non-positive
    integer raises DomainError."""
    if not a or len(n) != len(a):
        raise DomainError("requires len(a) = len(n) >= 1")
    n = [_shift("n_i", ni) for ni in n]
    if not all(-math.inf < ai < math.inf and not is_nonpositive_integer(ai) for ai in a):
        raise DomainError(f"requires every a_i finite and off 0, -1, -2, ..., got {list(a)}")
    coeffs = [1.0]  # of k^(0), k^(1), ... in the product of the factors so far
    for ai, ni in zip(a, n):
        factor = [binomial(ni, j) / pochhammer(ai, j) for j in range(ni + 1)]
        product = [0.0] * (len(coeffs) + ni)
        for i, ci in enumerate(coeffs):
            for j, fj in enumerate(factor):
                for ell in range(min(i, j) + 1):
                    product[i + j - ell] += ci * fj * (math.comb(i, ell) * math.perm(j, ell))
        coeffs = product
    return coeffs
