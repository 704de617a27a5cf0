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
remainder keeps its sign).  There no Python loop runs over single terms: they
are formed as NumPy arrays, up to N = 256 in the first pass and one level per
pass after it, bitwise equal to the term-by-term recurrence, and each S_N is
math.fsum over the first N terms, the correctly rounded partial sum.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

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

# The unit-circle terms are formed in passes: the first covers the Richardson
# levels up to CIRCLE_FIRST_PASS_N terms, each later one the next level.
CIRCLE_FIRST_PASS_N = 256

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


def is_nonpositive_integer(x: float) -> bool:
    """Whether x is within INTEGER_SNAP of 0, -1, -2, ...; False for NaN."""
    return x < 0.5 and abs(x - round(x)) <= INTEGER_SNAP


def unity_margin(spec: PFQSpec) -> float:
    """Convergence margin sum(lower) - sum(upper) governing behaviour at z=1."""
    return math.fsum(spec.lower) - math.fsum(spec.upper)


def terminating_order(spec: PFQSpec) -> int | None:
    """Smallest m with some upper parameter equal to -m, or None."""
    orders = [-round(a) for a in spec.upper if is_nonpositive_integer(a)]
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
    four times the change plus the rounding floor.  The terms are computed as
    arrays, with the same values as one at a time, and each partial sum is
    rounded once (math.fsum over its terms), not once per term.

    Raises ValueError unless max_terms >= 1 and 0 < tol < inf, DomainError
    for a non-finite parameter or z,
    DivergentSeriesError / NonConvergentAtUnityError / LowerPoleError when the
    spec cannot be summed at all, and OverflowError when a term overflows or,
    on the unit circle, when a partial sum, the extrapolated value or its
    rounding floor does.
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
        if is_nonpositive_integer(b) and (n_stop is None or 1 - round(b) <= n_stop):
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

    # The loop stops at n_stop only when the series terminates within the cap.
    if n_stop is not None and n_stop < max_terms:
        limit, status = n_stop, Status.TERMINATED
    else:
        limit, status = max_terms, Status.MAX_TERMS_REACHED
    total = 1.0  # k = 0 term
    comp = 0.0  # Kahan compensation
    abs_sum = 1.0
    term = prev = 1.0
    streak = 0
    k = 0
    while k < limit:
        factor = z / (k + 1)
        for a in spec.upper:
            factor *= a + k
        for b in spec.lower:
            factor /= b + k
        prev = term
        term *= factor
        if not math.isfinite(term):
            raise OverflowError("series term overflowed to non-finite value")
        k += 1
        # Kahan-compensated accumulation
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_sum += abs(term)
        if abs(term) <= tol * abs(total):
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
        # Geometric tail bound from the last ratio |t_k / t_{k-1}|; for slowly
        # decaying (algebraic) tails the ratio is near 1 and the bound
        # inflates, which is the conservative direction.  A zero t_{k-1}
        # makes t_k zero too, and the ratio 0.
        ratio = abs(term) / abs(prev) if prev != 0.0 else 0.0
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
    """Extrapolate the unit-circle partial sums at N = 16 * 2^i terms."""
    sigma = margin + (0.0 if spec.z > 0.0 else 1.0)
    row: list[float] = []  # the newest row of the Richardson table
    divisors: list[float] = []  # 2^sigma_j - 1
    amplification = 1.0  # prod_j (2^sigma_j + 1) / (2^sigma_j - 1)
    for n, total, abs_sum, term in _circle_partial_sums(spec, max_terms):
        # Neither stop of the per-term loop applies here, so the sum runs to
        # the next checkpoint, and one that ends at max_terms is the cap.
        if n > max_terms:
            break
        # total holds the first n terms: one more row of the table.
        prev_row, row = row, [total]
        for j, prev in enumerate(prev_row):
            row.append(row[j] + (row[j] - prev) / divisors[j])
        if len(row) >= RICHARDSON_MIN_LEVELS:
            delta = abs(row[-1] - prev_row[-1])
            noise = RICHARDSON_NOISE * _EPS * math.sqrt(n) * abs_sum * amplification
            if delta <= max(tol * abs(row[-1]), noise):
                if not (math.isfinite(row[-1]) and math.isfinite(noise)):
                    raise OverflowError("extrapolated sum overflowed to non-finite value")
                return EvalResult(
                    value=row[-1],
                    abs_err_est=RICHARDSON_SAFETY * delta + noise,
                    terms_used=n - 1,
                    status=Status.EXTRAPOLATED,
                )
        # Past 2^64 a correction is below rounding; the cap keeps it finite.
        divisors.append(2.0 ** min(sigma + len(divisors), 64.0) - 1.0)
        amplification *= 1.0 + 2.0 / divisors[-1]
    return EvalResult(
        value=total,
        abs_err_est=abs(term) * max_terms + _EPS * abs_sum,
        terms_used=max_terms,
        status=Status.MAX_TERMS_REACHED,
    )


def _circle_partial_sums(
    spec: PFQSpec, max_terms: int
) -> Iterator[tuple[int, float, float, float]]:
    """Yield (N, S_N, sum |t_k|, t_{N-1}) over the first N terms of a unit-circle series.

    N runs over N = 16 * 2^i and ends at the cap N = max_terms + 1.  The terms
    are formed in passes: the first ends at N = 256, each later one at the next
    N (or at the cap).  A pass forms the factors z (a+k)... / ((k+1) (b+k)...)
    as arrays in the per-term recurrence's order and the terms by a sequential
    product seeded with the previous term, so every term is bitwise the one
    that recurrence gives; sum |t_k| is a sequential running sum, bitwise the
    scalar one.  S_N is math.fsum over all N terms kept so far: the correctly
    rounded partial sum.

    The first pass forms terms past the point where its caller may stop, so
    its NumPy operations neither warn nor raise.  A non-finite term stays
    non-finite through the product, so OverflowError is raised at the first
    checkpoint whose last term is not finite, exactly when the per-term
    recurrence would have met an overflowed term.  A partial sum that
    overflows with finite terms raises OverflowError from math.fsum.
    """
    z = spec.z
    kept = [1.0]  # the terms t_0 ... t_{N-1} summed so far
    abs_sum = 1.0
    term = 1.0
    k = 0  # index of the last term formed
    n = RICHARDSON_FIRST_N
    while True:
        stop = min(max(n, CIRCLE_FIRST_PASS_N) - 1, max_terms)
        ks = np.arange(k, stop, dtype=float)
        terms = np.empty(stop - k + 1)  # terms[i] is t_{k + i}
        terms[0] = term
        factors = terms[1:]
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(z, ks + 1.0, out=factors)
            for a in spec.upper:
                factors *= a + ks
            for b in spec.lower:
                factors /= b + ks
            np.multiply.accumulate(terms, out=terms)
            magnitudes = np.abs(terms)
            magnitudes[0] = abs_sum
            np.add.accumulate(magnitudes, out=magnitudes)
        ends = []
        while n <= stop + 1:
            ends.append(n)
            n *= 2
        if stop == max_terms and stop + 1 not in ends:
            ends.append(stop + 1)
        for end in ends:
            term = terms[end - 1 - k].item()
            if not math.isfinite(term):
                raise OverflowError("series term overflowed to non-finite value")
            kept += terms[len(kept) - k : end - k].tolist()
            yield end, math.fsum(kept), magnitudes[end - 1 - k].item(), term
        if stop == max_terms:
            return
        abs_sum = magnitudes[-1].item()
        k = stop
