"""Direct truncated summation of the generalized hypergeometric series.

This module is the ground-truth oracle of the package: it knows nothing about
closed forms and evaluates sum_k  prod_i (a_i)_k z^k / [k! prod_j (b_j)_k]
by the term recurrence t_{k+1} = t_k z prod_i (a_i + k) / [(k+1) prod_j (b_j + k)],
with convergence policing and a tail-based error estimate.  Off the unit
circle it sums term by term and stops on small terms.

On the unit circle (p = q + 1, |z| = 1, not terminating) the terms decay only
like k^-(1+s), s = unity_margin, and summing them until they are small takes
10^3 to 10^5 terms.  The partial sums S_N at N = 16, 32, 64, ... terms are
extrapolated instead by Richardson's rule with the exponents the remainder is
known to have: S - S_N is a series in N^-sigma_j with sigma_j = s + j at
z = +1 and sigma_j = s + 1 + j at z = -1 (N is even, so the alternating
remainder keeps its sign).  There the terms between two such N are formed as
one NumPy array, bitwise equal to the term-by-term recurrence, and only their
Kahan sum runs one term at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DivergentSeriesError,
    DomainError,
    LowerPoleError,
    NonConvergentAtUnityError,
)

DEFAULT_MAX_TERMS = 200_000
DEFAULT_TOL = 1e-15

# A parameter within this distance of a non-positive integer is treated as one.
INTEGER_SNAP = 1e-12

# Number of consecutive relatively-small terms required before declaring
# convergence; a single small term is unreliable for alternating series.
SMALL_TERM_STREAK = 3

# Richardson extrapolation on the unit circle: partial sums are taken at
# N = RICHARDSON_FIRST_N * 2^i terms, and the sum stops no earlier than
# RICHARDSON_MIN_LEVELS levels.  The rounding floor of the table is
# RICHARDSON_NOISE * eps * sqrt(N) * sum|t_k| times the table's amplification
# prod_j (2^sigma_j + 1) / (2^sigma_j - 1): term k carries the rounding of the
# k products that formed it, which grows like sqrt(k).  The error estimate is
# RICHARDSON_SAFETY times the last change of the diagonal plus that floor.
RICHARDSON_FIRST_N = 16
RICHARDSON_MIN_LEVELS = 3
RICHARDSON_NOISE = 2.0
RICHARDSON_SAFETY = 4.0

_EPS = math.ulp(1.0)


class Status(enum.Enum):
    CONVERGED = "Converged"
    TERMINATED = "Terminated"
    EXTRAPOLATED = "Extrapolated"
    MAX_TERMS_REACHED = "MaxTermsReached"


@dataclass(frozen=True)
class PFQSpec:
    """One generalized hypergeometric value: upper/lower parameter lists and z."""

    upper: tuple[float, ...]
    lower: tuple[float, ...]
    z: float

    def __init__(self, upper: Sequence[float], lower: Sequence[float], z: float):
        object.__setattr__(self, "upper", tuple(float(a) for a in upper))
        object.__setattr__(self, "lower", tuple(float(b) for b in lower))
        object.__setattr__(self, "z", float(z))


@dataclass(frozen=True)
class EvalResult:
    value: float
    abs_err_est: float
    terms_used: int
    status: Status


def _nonpositive_integer_index(x: float) -> int | None:
    """If x is (within snap of) a non-positive integer -m, return m, else None."""
    if x > 0.5:
        return None
    m = round(x)
    if m <= 0 and abs(x - m) <= INTEGER_SNAP:
        return -m
    return None


def unity_margin(spec: PFQSpec) -> float:
    """Convergence margin sum(lower) - sum(upper) governing behaviour at z=1."""
    return math.fsum(spec.lower) - math.fsum(spec.upper)


def terminating_order(spec: PFQSpec) -> int | None:
    """Smallest m with some upper parameter equal to -m, or None."""
    orders = [m for a in spec.upper if (m := _nonpositive_integer_index(a)) is not None]
    return min(orders) if orders else None


def eval_pfq(
    spec: PFQSpec,
    max_terms: int = DEFAULT_MAX_TERMS,
    tol: float = DEFAULT_TOL,
) -> EvalResult:
    """Sum the hypergeometric series directly.

    Stops when the running term stays below tol * |partial sum| for three
    consecutive terms (CONVERGED), when an upper parameter terminates the
    series exactly (TERMINATED), or at max_terms (MAX_TERMS_REACHED).

    On the unit circle (p = q + 1, |z| = 1, not terminating) the small-term
    rule does not apply.  The partial sums at N = 16 * 2^i terms feed a
    Richardson table with the remainder's known exponents (see the module
    docstring); once it has at least three levels the sum stops when the
    newest diagonal entry T differs from the previous one by at most
    max(tol * |T|, rounding floor of the table) (EXTRAPOLATED).  There tol is
    a relative tolerance on that change, the value is T, and abs_err_est is
    four times the change plus the rounding floor.  The terms of each segment
    are computed as arrays, with the same values as one at a time.

    Raises ValueError unless max_terms >= 1 and 0 < tol < inf, DomainError
    for a non-finite parameter or z, and
    DivergentSeriesError / NonConvergentAtUnityError / LowerPoleError when the
    spec cannot be summed at all.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be positive")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not all(map(math.isfinite, (*spec.upper, *spec.lower, spec.z))):
        raise DomainError(f"parameters and z must be finite, got {spec}")

    p, q, z = len(spec.upper), len(spec.lower), spec.z
    n_stop = terminating_order(spec)

    # A lower parameter at a non-positive integer -m poisons the term at
    # index m+1; it is only tolerable if the series terminates strictly first.
    for b in spec.lower:
        m = _nonpositive_integer_index(b)
        if m is not None and (n_stop is None or m + 1 <= n_stop):
            raise LowerPoleError(
                f"lower parameter {b} hits a pole before the series terminates"
            )

    if n_stop is None:
        if p > q + 1:
            raise DivergentSeriesError(
                f"{p}F{q} has zero radius of convergence for z != 0"
            )
        if p == q + 1 and abs(z) > 1.0:
            raise DivergentSeriesError(f"{p}F{q} series diverges for |z| = {abs(z)} > 1")
        if p == q + 1 and abs(z) == 1.0:
            margin = unity_margin(spec)
            if margin <= 0.0:
                raise NonConvergentAtUnityError(f"convergence margin {margin:g} <= 0 at |z| = 1")
            return _extrapolate_on_circle(spec, margin, max_terms, tol)

    total = 1.0  # k = 0 term
    comp = 0.0  # Kahan compensation
    abs_sum = 1.0
    term = 1.0
    prev_abs = 1.0
    ratio = 0.0
    streak = 0
    k = 0
    status = Status.MAX_TERMS_REACHED
    while k < max_terms:
        if n_stop is not None and k >= n_stop:
            status = Status.TERMINATED
            break
        factor = z / (k + 1)
        for a in spec.upper:
            factor *= a + k
        for b in spec.lower:
            factor /= b + k
        term *= factor
        if not math.isfinite(term):
            raise OverflowError("series term overflowed to non-finite value")
        k += 1
        # Kahan-compensated accumulation
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_term = abs(term)
        abs_sum += abs_term
        ratio = abs_term / prev_abs if prev_abs > 0.0 else 0.0
        prev_abs = abs_term if abs_term > 0.0 else prev_abs
        if abs_term <= tol * abs(total):
            streak += 1
            if streak >= SMALL_TERM_STREAK:
                status = Status.CONVERGED
                break
        else:
            streak = 0

    rounding = _EPS * abs_sum
    if status is Status.TERMINATED:
        err = rounding
    elif status is Status.CONVERGED:
        # Geometric tail bound from the observed ratio; for slowly decaying
        # (algebraic) tails the ratio is near 1 and the bound inflates, which
        # is the conservative direction.
        if ratio < 0.999999:
            tail = abs(term) * ratio / (1.0 - ratio)
        else:
            tail = abs(term) * k
        err = max(tail, 3.0 * abs(term)) + rounding
    else:
        err = abs(term) * k + rounding
    return EvalResult(value=total, abs_err_est=err, terms_used=k, status=status)


def _extrapolate_on_circle(
    spec: PFQSpec, margin: float, max_terms: int, tol: float
) -> EvalResult:
    """Sum a series on the unit circle in segments and extrapolate at each end.

    Segment i holds the terms that bring the partial sum to N = 16 * 2^i terms
    (or to max_terms).  Its factors z (a+k)... / ((k+1) (b+k)...) are formed as
    arrays in the per-term recurrence's order, and its terms by a sequential
    product seeded with the previous term, so every term is bitwise the one
    that recurrence gives.  The Kahan sum of the terms stays a scalar loop.
    """
    z = spec.z
    total = 1.0  # k = 0 term
    comp = 0.0  # Kahan compensation
    abs_sum = 1.0
    term = 1.0
    k = 0
    next_n = RICHARDSON_FIRST_N
    sigma = margin + (0.0 if z > 0.0 else 1.0)
    row: list[float] = []  # the newest row of the Richardson table
    divisors: list[float] = []  # 2^sigma_j - 1
    amplification = 1.0  # prod_j (2^sigma_j + 1) / (2^sigma_j - 1)
    while True:
        stop = min(next_n - 1, max_terms)
        ks = np.arange(k, stop, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = z / (ks + 1.0)
            for a in spec.upper:
                terms *= a + ks
            for b in spec.lower:
                terms /= b + ks
            terms[0] *= term
            np.multiply.accumulate(terms, out=terms)
            # A sequential running sum (not numpy's pairwise one), seeded like
            # the product: bitwise abs_sum += |t| term by term.
            magnitudes = np.abs(terms)
            magnitudes[0] += abs_sum
            np.add.accumulate(magnitudes, out=magnitudes)
        segment = terms.tolist()
        term = segment[-1]
        # A non-finite term stays non-finite through the product, so the last
        # one tells whether any overflowed.
        if not math.isfinite(term):
            raise OverflowError("series term overflowed to non-finite value")
        k = stop
        for t in segment:
            # Kahan-compensated accumulation
            y = t - comp
            s = total + y
            comp = (s - total) - y
            total = s
        abs_sum = magnitudes[-1].item()
        # Neither stop of the per-term loop applies here, so every segment
        # runs to its end, and one that ends at max_terms is the cap.
        if stop == max_terms:
            return EvalResult(
                value=total,
                abs_err_est=abs(term) * k + _EPS * abs_sum,
                terms_used=k,
                status=Status.MAX_TERMS_REACHED,
            )
        # total holds the first N = next_n terms: one more row of the table.
        prev_row, row = row, [total]
        for j, prev in enumerate(prev_row):
            row.append(row[j] + (row[j] - prev) / divisors[j])
        if len(row) >= RICHARDSON_MIN_LEVELS:
            delta = abs(row[-1] - prev_row[-1])
            noise = RICHARDSON_NOISE * _EPS * math.sqrt(next_n) * abs_sum * amplification
            if delta <= max(tol * abs(row[-1]), noise):
                return EvalResult(
                    value=row[-1],
                    abs_err_est=RICHARDSON_SAFETY * delta + noise,
                    terms_used=k,
                    status=Status.EXTRAPOLATED,
                )
        # Past 2^64 a correction is below rounding; the cap keeps it finite.
        divisors.append(2.0 ** min(sigma + len(divisors), 64.0) - 1.0)
        amplification *= 1.0 + 2.0 / divisors[-1]
        next_n *= 2
