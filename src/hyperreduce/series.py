"""Direct truncated summation of the generalized hypergeometric series.

This module is the ground-truth oracle of the package: it knows nothing about
closed forms and evaluates sum_k  prod_i (a_i)_k z^k / [k! prod_j (b_j)_k]
term by term, with convergence policing and a tail-based error estimate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

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

_EPS = math.ulp(1.0)


class Status(enum.Enum):
    CONVERGED = "Converged"
    TERMINATED = "Terminated"
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

    Raises DomainError for a non-finite parameter or z, and
    DivergentSeriesError / NonConvergentAtUnityError / LowerPoleError when the
    spec cannot be summed at all.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be positive")
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
        if p == q + 1 and abs(z) == 1.0 and unity_margin(spec) <= 0.0:
            raise NonConvergentAtUnityError(
                f"convergence margin {unity_margin(spec):g} <= 0 at |z| = 1"
            )

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
