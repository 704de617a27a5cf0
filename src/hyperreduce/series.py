"""Direct truncated summation of the generalized hypergeometric series.

This module is the ground-truth oracle of the package: it knows nothing about
closed forms and evaluates sum_k  prod_i (a_i)_k z^k / [k! prod_j (b_j)_k]
by the term recurrence t_{k+1} = t_k z prod_i (a_i + k) / [(k+1) prod_j (b_j + k)],
with convergence policing and a tail-based error estimate.  Off the unit
circle it sums term by term and stops on small terms, in a loop generated once
per shape (p, q): every term is bitwise the per-parameter recurrence's, and
OverflowError is raised when a term or the running sum leaves the double
range (see the comment above _OFF_CIRCLE_SOURCE), or when sum |t_k| has left
it by the end of the loop.

On the unit circle (p = q + 1, |z| = 1, not terminating) the terms decay only
like k^-(1+s), s = unity_margin, and summing them until they are small takes
10^3 to 10^5 terms.  The partial sums S_N at N = 16, 32, 64, ... terms are
extrapolated instead by Richardson's rule with the exponents the remainder is
known to have: S - S_N is a series in N^-sigma_j with sigma_j = s + j at
z = +1 and sigma_j = s + 1 + j at z = -1 (N is even, so the alternating
remainder keeps its sign).  The terms are formed in NumPy passes, bitwise
equal to the term-by-term recurrence.  Each S_N is the correctly rounded
partial sum, read off a running sum and the running sum of its steps' exact
rounding errors (TwoSum; Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
2008), which the same passes form; math.fsum over the terms takes the rare
sums that this cannot round, such as exact ties (see _extrapolate_on_circle).
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from typing import NamedTuple, Sequence

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
# RICHARDSON_MIN_LEVELS levels, that is after N = 128 terms.  Three levels
# are too few for the error estimate to bound the error once tol >= 1e-10: a
# 3F2 stopped at N = 64 was 10x its estimate off.  The rounding floor of the
# table is RICHARDSON_NOISE * eps * sqrt(N) * sum|t_k| times the table's
# amplification prod_j (2^sigma_j + 1) / (2^sigma_j - 1): term k carries the
# rounding of the k products that formed it, which grows like sqrt(k).  The
# error estimate is RICHARDSON_SAFETY times the last change of the diagonal
# plus that floor.  A sum of k terms that is not extrapolated has the floor
# RICHARDSON_NOISE * eps * sqrt(k (p+q+1)) * sum|t_k|, counting the p+q+1
# rounded operations per term (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 3).
RICHARDSON_FIRST_N = 16
RICHARDSON_MIN_LEVELS = 4
RICHARDSON_NOISE = 2.0
RICHARDSON_SAFETY = 4.0

_EPS = math.ulp(1.0)


class Status(enum.Enum):
    CONVERGED = "Converged"
    TERMINATED = "Terminated"
    EXTRAPOLATED = "Extrapolated"
    MAX_TERMS_REACHED = "MaxTermsReached"


class _PFQFields(NamedTuple):
    upper: tuple[float, ...]
    lower: tuple[float, ...]
    z: float


class PFQSpec(_PFQFields):
    """One generalized hypergeometric value: upper/lower parameter lists and z."""

    __slots__ = ()

    def __new__(cls, upper: Sequence[float], lower: Sequence[float], z: float) -> PFQSpec:
        return tuple.__new__(cls, (tuple(map(float, upper)), tuple(map(float, lower)), float(z)))


class EvalResult(NamedTuple):
    value: float
    abs_err_est: float
    terms_used: int
    status: Status


def is_nonpositive_integer(x: float, within: float = INTEGER_SNAP) -> bool:
    """Whether x lies closer than ``within`` to one of 0, -1, -2, ...

    The default treats x as an integer up to rounding; the catalog passes its
    wider pole distance to reject parameters near a gamma or psi pole.
    False for NaN and for +-inf.  The bound x < 0.5 is tested first, so a
    positive x costs one comparison.
    """
    return x < 0.5 and x > -math.inf and abs(x - round(x)) < within


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
    series exactly (TERMINATED), or at max_terms (MAX_TERMS_REACHED), with
    abs_err_est the rounding floor (see RICHARDSON_NOISE; 0 at order 0) plus a
    geometric tail bound (CONVERGED) or k times the last term (at the cap).
    The spec is checked once, in this order: finiteness, one loop over the
    upper parameters for the terminating order and one over the lower ones for
    a pole, then the convergence rules.  Off the circle the terms are summed
    by a loop generated for the shape (len(upper), len(lower)), which forms
    each term bitwise as the per-parameter recurrence does (see the comment
    above _OFF_CIRCLE_SOURCE).

    On the unit circle (p = q + 1, |z| = 1, not terminating) the small-term
    rule does not apply.  The partial sums at N = 16 * 2^i terms feed a
    Richardson table with the remainder's known exponents (see the module
    docstring); once it has at least four levels (N = 128) the sum stops
    when the newest diagonal entry T differs from the previous one by at most
    max(tol * |T|, rounding floor of the table) (EXTRAPOLATED).  There tol is
    a relative tolerance on that change, the value is T, and abs_err_est is
    four times the change plus the rounding floor.  The terms and partial sums
    are formed as _extrapolate_on_circle states.

    Raises ValueError unless max_terms is an integer >= 1 and 0 < tol < inf,
    DomainError for a non-finite parameter or z,
    DivergentSeriesError / NonConvergentAtUnityError / LowerPoleError when the
    spec cannot be summed at all, and OverflowError when a term or a partial
    sum leaves the double range, off the unit circle when sum |t_k| does, and
    on it when the extrapolated value or its rounding floor does.
    """
    if not hasattr(max_terms, "__index__") or max_terms < 1:
        raise ValueError(f"max_terms must be an integer >= 1, got {max_terms!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    upper, lower, z = spec
    if not all(map(math.isfinite, (*upper, *lower, z))):
        raise DomainError(f"parameters and z must be finite, got {spec}")

    # The terminating order: the smallest m with some upper parameter -m.
    # is_nonpositive_integer is false at 0.5 and above, so it is called only
    # below.
    n_stop = None
    for a in upper:
        if a < 0.5 and is_nonpositive_integer(a) and (n_stop is None or -round(a) < n_stop):
            n_stop = -round(a)
    # A lower parameter at a non-positive integer -m poisons the term at
    # index m+1; it is only tolerable if the series terminates strictly first.
    for b in lower:
        if b < 0.5 and is_nonpositive_integer(b) and (n_stop is None or 1 - round(b) <= n_stop):
            raise LowerPoleError(
                f"lower parameter {b} hits a pole before the series terminates"
            )

    p, q = len(upper), len(lower)
    if n_stop is None:
        if p > q + 1:
            raise DivergentSeriesError(f"{p}F{q} has zero radius of convergence for z != 0")
        if p == q + 1 and abs(z) > 1.0:
            raise DivergentSeriesError(f"{p}F{q} series diverges for |z| = {abs(z)} > 1")
        if p == q + 1 and abs(z) == 1.0:
            margin = unity_margin(spec)
            if margin <= 0.0:
                raise NonConvergentAtUnityError(f"convergence margin {margin:g} <= 0 at |z| = 1")
            return _extrapolate_on_circle(spec, margin, max_terms, tol)

    # The loop stops at n_stop only when the series terminates within the cap.
    terminates = n_stop is not None and n_stop < max_terms
    total, abs_sum, term, prev, k, converged = _off_circle_loop(p, q)(
        upper, lower, z, n_stop if terminates else max_terms, tol
    )
    if abs_sum == math.inf:
        # Finite terms whose magnitudes sum past the double range: what their
        # alternating sum kept is cancellation noise, and the estimate is inf.
        raise OverflowError("sum of the terms' magnitudes overflowed to non-finite value")
    rounding = RICHARDSON_NOISE * _EPS * math.sqrt(k * (p + q + 1)) * abs_sum
    # Built with tuple.__new__, as PFQSpec builds itself: the NamedTuple's own
    # __new__ is one more Python call per result.
    if converged:
        # Geometric tail bound from the last ratio |t_k / t_{k-1}|; for slowly
        # decaying (algebraic) tails the ratio is near 1 and the bound
        # inflates, which is the conservative direction.  A zero t_{k-1}
        # makes t_k zero too, and the ratio 0.
        mag = abs(term)
        ratio = mag / abs(prev) if prev != 0.0 else 0.0
        tail = mag * ratio / (1.0 - ratio) if ratio < 0.999999 else mag * k
        return tuple.__new__(
            EvalResult, (total, max(tail, 3.0 * mag) + rounding, k, Status.CONVERGED)
        )
    if terminates:
        return tuple.__new__(EvalResult, (total, rounding, k, Status.TERMINATED))
    return tuple.__new__(
        EvalResult, (total, abs(term) * k + rounding, k, Status.MAX_TERMS_REACHED)
    )


# The off-circle loop, written out for one shape (p, q), with the parameters
# unpacked into locals u0 ..., l0 ..., so no loop over them runs per term and
# no builtin is called per term.  Each term is
# term *= z / x1 * (u0 + x) * ... / (l0 + x) ..., left to right, which is the
# order of the per-parameter recurrence.  The index k is carried only as the
# float x, and x1 = k + 1: an int below 2^53 converts to float exactly, so
# every factor is bitwise the one that recurrence gives with the int k, the
# arithmetic is float with float throughout, and int(x) is the count.
# "t if t >= 0.0 else -t" is abs(t) but for t = -0.0, which adds nothing to
# abs_sum >= 1 and compares as 0.  "not size <= max_finite" is true exactly
# for +-inf and NaN, as "not isfinite(total)" is; a non-finite term makes the
# Kahan sum non-finite in the same step, so this one test raises when a term
# or the sum of finite terms leaves the double range (a sum left to run on
# turns NaN through its compensation and never stops).  prev is stored only
# in the small-term branch, after the streak test: its one reader is the
# converged return, and with SMALL_TERM_STREAK >= 2 the term before a
# converged stop was small too, so prev is then the previous term.
_OFF_CIRCLE_SOURCE = """\
def _sum(upper, lower, z, limit, tol):
    ({uppers}) = upper
    ({lowers}) = lower
    max_finite = MAX_FINITE
    total = 1.0  # k = 0 term
    comp = 0.0  # Kahan compensation
    abs_sum = 1.0
    term = prev = 1.0
    streak = 0
    x = 0.0  # the index k, as a float
    end = float(limit)
    while x < end:
        x1 = x + 1.0
        term *= {factor}
        x = x1
        # Kahan-compensated accumulation
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mag = term if term >= 0.0 else -term
        abs_sum += mag
        size = total if total >= 0.0 else -total
        if not size <= max_finite:
            raise OverflowError("series term or partial sum overflowed to non-finite value")
        if mag <= tol * size:
            streak += 1
            if streak >= SMALL_TERM_STREAK:
                return total, abs_sum, term, prev, int(x), True
            prev = term
        else:
            streak = 0
    return total, abs_sum, term, prev, int(x), False
"""


@functools.lru_cache(maxsize=None)
def _off_circle_loop(p: int, q: int):
    """The off-circle summation loop for p upper and q lower parameters.

    Returns _sum(upper, lower, z, limit, tol) -> (total, abs_sum, term, prev,
    k, converged): the Kahan sum of the terms t_0 ... t_k, sum |t_k|, the last
    term, prev, the number k of terms after t_0 (an int), and whether the
    small-term rule stopped the sum.  prev is the previous term t_{k-1} at a
    converged stop, the one place it is read.  Every term is bitwise the
    per-parameter recurrence's, and OverflowError is raised when a term or
    the running sum leaves the double range (see the comment above
    _OFF_CIRCLE_SOURCE).  The source holds only names built from p and q.
    """
    uppers = [f"u{i}" for i in range(p)]
    lowers = [f"l{j}" for j in range(q)]
    factor = "z / x1" + "".join(f" * ({u} + x)" for u in uppers)
    factor += "".join(f" / ({b} + x)" for b in lowers)
    source = _OFF_CIRCLE_SOURCE.format(
        uppers="".join(f"{u}, " for u in uppers),
        lowers="".join(f"{b}, " for b in lowers),
        factor=factor,
    )
    namespace = {"MAX_FINITE": sys.float_info.max, "SMALL_TERM_STREAK": SMALL_TERM_STREAK}
    exec(compile(source, f"<off-circle loop {p}F{q}>", "exec"), namespace)
    return namespace["_sum"]


# The exact partial sums on the circle (see _extrapolate_on_circle).  A pass
# forms the running sum s_j = s_{j-1} + t_j one step at a time and, for each
# step, its exact rounding error e_j by Knuth's TwoSum, with their running sum
# E_j.  Then S_N = s_{N-1} + sum e_j exactly, and E_{N-1} is that sum up to its
# own rounding, at most gamma_N sum |e_j| <= N^2 eps^2 / 4 * sum |t_k| since
# |e_j| <= eps/2 |s_j|; the bound used is four times that.  Below
# _TWO_SUM_LIMIT for sum |t_k| no running sum, step or error can overflow, so
# TwoSum stays exact.
_TWO_SUM_LIMIT = 2.0 ** 1020

# A pass of at most this many terms (every pass up to N = 8192) takes its
# plan from a small cache shared by all calls; a longer pass builds its own.
_CACHED_PASS_TERMS = 4096


@functools.lru_cache(maxsize=32)
def _circle_pass(z: float, k: int, stop: int, n: int, last: int):
    """The plan of a unit-circle pass that forms t_{k+1} ... t_stop.

    Returns ks (k ... stop - 1 as floats), steps = z / (ks + 1), the pass's
    checkpoints n, 2n, ... up to last, the index of t_{N-1} in the pass for
    each checkpoint N followed by that of t_stop, and the next checkpoint.
    The arrays are read-only, since the cache shares them among calls.
    """
    import numpy as np

    ks = np.arange(k, stop, dtype=float)
    steps = np.divide(z, ks + 1.0)
    checkpoints = []
    while n <= last:
        checkpoints.append(n)
        n *= 2
    index = np.array([c - 1 - k for c in checkpoints] + [stop - k])
    ks.flags.writeable = steps.flags.writeable = index.flags.writeable = False
    return ks, steps, tuple(checkpoints), index, n


def _running_sums(terms, sums, errors, spare, total: float, error: float) -> None:
    """The running sum of a pass's terms and the exact errors of its steps.

    terms[1:] are the new terms t_j of the pass.  sums[0] becomes total and
    sums[i] the running sum s_j through terms[i]; errors[0] becomes error and
    errors[i] the running sum of the exact errors
    e_j = (s_{j-1} - (s_j - bb)) + (t_j - bb), bb = s_j - s_{j-1} (Knuth's
    TwoSum), in that order of operations.  spare is scratch of len(terms) - 1
    elements.  Overflow is left to the caller's np.errstate.
    """
    import numpy as np

    term, terms[0] = terms[0], total  # terms[0] seeds the sequential sum
    np.add.accumulate(terms, out=sums)
    terms[0] = term
    s, s_prev, step_errors = sums[1:], sums[:-1], errors[1:]
    np.subtract(s, s_prev, out=spare)
    np.subtract(s, spare, out=step_errors)
    np.subtract(s_prev, step_errors, out=step_errors)
    np.subtract(terms[1:], spare, out=spare)
    step_errors += spare
    errors[0] = error
    np.add.accumulate(errors, out=errors)


def _rounded_partial_sum(total: float, error: float, n: int, abs_sum: float) -> float | None:
    """S_N = t_0 + ... + t_{N-1} rounded to nearest, or None if undecided.

    total is the running sum s_{N-1}, error the running sum E_{N-1} of its
    steps' exact errors and abs_sum sum |t_k|, for N = n terms.  The exact S_N
    lies within n^2 eps^2 abs_sum of total + error (see _TWO_SUM_LIMIT).
    TwoSum splits total + error into r + r_err exactly, and r is the correctly
    rounded S_N when |r_err| plus that bound is below half the smaller spacing
    of doubles next to r: ulp(r) / 2, or ulp(r) / 4 when |r| is a power of
    two.  None means that test fails (a near tie, or S_N so far below abs_sum
    that the bound passes its spacing), or abs_sum is not below _TWO_SUM_LIMIT.
    """
    if not abs_sum < _TWO_SUM_LIMIT:
        return None
    r = total + error
    bb = r - total
    r_err = (total - (r - bb)) + (error - bb)
    half = 0.5 * math.ulp(r)
    if abs(math.frexp(r)[0]) == 0.5:
        half *= 0.5
    return r if abs(r_err) + n * n * _EPS * _EPS * abs_sum < half else None


def _extrapolate_on_circle(
    spec: PFQSpec, margin: float, max_terms: int, tol: float
) -> EvalResult:
    """Extrapolate the unit-circle (q = p - 1) partial sums at N = 16 * 2^i terms.

    The terms are formed in NumPy passes: the first ends at N = 256, one level
    past the earliest stop (RICHARDSON_MIN_LEVELS levels, N = 128), each later
    one at the next level, and the last at the cap, term max_terms.  A pass
    forms the factors z (a+k)... / ((k+1) (b+k)...) as arrays in the per-term
    recurrence's order and the terms by a sequential product seeded with the
    previous term, so every term is bitwise the one that recurrence gives;
    sum |t_k| is a sequential running sum, bitwise the scalar one.  The same
    pass forms the running sum of the terms, the exact error of each of its
    steps (TwoSum) and their running sum, each seeded with the previous pass's
    last value, and reads what every checkpoint needs in one gather.

    Each checkpoint N of the pass with N <= max_terms adds S_N, the correctly
    rounded sum of the first N terms, to the Richardson table, which stops the
    sum or moves on.  S_N is read off the running sum and its error
    (_rounded_partial_sum); where that cannot decide the rounding (a near tie,
    a sum far below sum |t_k|, or sums near the double range) it is math.fsum
    over the terms kept from every pass.  After the last pass the sum of all
    max_terms + 1 terms, taken the same way, is returned as MAX_TERMS_REACHED.

    The first pass forms terms past the point where the sum may stop, so its
    NumPy operations neither warn nor raise.  A non-finite term stays
    non-finite through the product, so OverflowError is raised at the first
    checkpoint whose last term is not finite, exactly when the per-term
    recurrence would have met an overflowed term.  A partial sum that
    overflows with finite terms raises OverflowError from math.fsum.
    """
    import numpy as np  # only the circle path needs it; importing the package does not

    z = spec.z
    first, *upper = spec.upper  # p = q + 1 >= 1
    sigma = margin + (0.0 if z > 0.0 else 1.0)
    row: list[float] = []  # the newest row of the Richardson table
    divisors: list[float] = []  # 2^sigma_j - 1
    amplification = 1.0  # prod_j (2^sigma_j + 1) / (2^sigma_j - 1)
    kept: list = [[1.0]]  # t_0, then each pass's new terms, for math.fsum
    # t_stop, sum |t_k|, the running sum and its running error up to it,
    # which seed the next pass
    term = abs_sum = total = 1.0
    error = 0.0
    stop = 0
    n = RICHARDSON_FIRST_N
    with np.errstate(over="ignore", invalid="ignore"):
        while stop < max_terms:
            k, stop = stop, min(max(n, RICHARDSON_FIRST_N << RICHARDSON_MIN_LEVELS) - 1, max_terms)
            plan = _circle_pass if stop - k <= _CACHED_PASS_TERMS else _circle_pass.__wrapped__
            ks, steps, checkpoints, index, n = plan(z, k, stop, n, min(stop + 1, max_terms))
            width = stop - k
            work = np.empty((5, width + 1))
            terms, magnitudes, sums, errors, scratch = work  # [i] is at index k + i
            new, spare = terms[1:], scratch[1:]
            terms[0] = term
            np.add(ks, first, out=new)
            new *= steps
            for a in upper:
                new *= np.add(ks, a, out=spare)
            for b in spec.lower:
                new /= np.add(ks, b, out=spare)
            np.multiply.accumulate(terms, out=terms)
            np.abs(terms, out=magnitudes)
            magnitudes[0] = abs_sum
            np.add.accumulate(magnitudes, out=magnitudes)
            _running_sums(terms, sums, errors, spare, total, error)
            kept.append(new)
            ends, abs_sums, totals, errs = work[:4].take(index, axis=1).tolist()
            term, abs_sum, total, error = ends[-1], abs_sums[-1], totals[-1], errs[-1]
            for c, last, c_abs_sum, c_total, c_error in zip(
                checkpoints, ends, abs_sums, totals, errs
            ):
                if not math.isfinite(last):
                    raise OverflowError("series term overflowed to non-finite value")
                # S_N of the first c terms: one more row of the table.
                partial = _rounded_partial_sum(c_total, c_error, c, c_abs_sum)
                if partial is None:
                    partial = math.fsum(np.concatenate([*kept[:-1], new[: c - 1 - k]]).tolist())
                prev_row, row = row, [partial]
                for j, prev in enumerate(prev_row):
                    row.append(row[j] + (row[j] - prev) / divisors[j])
                if len(row) >= RICHARDSON_MIN_LEVELS:
                    delta = abs(row[-1] - prev_row[-1])
                    noise = RICHARDSON_NOISE * _EPS * math.sqrt(c) * c_abs_sum * amplification
                    if delta <= max(tol * abs(row[-1]), noise):
                        if not (math.isfinite(row[-1]) and math.isfinite(noise)):
                            raise OverflowError("extrapolated sum overflowed to non-finite value")
                        return EvalResult(
                            value=row[-1],
                            abs_err_est=RICHARDSON_SAFETY * delta + noise,
                            terms_used=c - 1,
                            status=Status.EXTRAPOLATED,
                        )
                # Past 2^64 a correction is below rounding; the cap keeps it finite.
                divisors.append(2.0 ** min(sigma + len(divisors), 64.0) - 1.0)
                amplification *= 1.0 + 2.0 / divisors[-1]
        if not math.isfinite(term):
            raise OverflowError("series term overflowed to non-finite value")
        value = _rounded_partial_sum(total, error, max_terms + 1, abs_sum)
        if value is None:
            value = math.fsum(np.concatenate(kept).tolist())
    rounding = RICHARDSON_NOISE * _EPS * math.sqrt(max_terms * 2 * len(spec.upper)) * abs_sum
    return EvalResult(
        value, abs(term) * max_terms + rounding, max_terms, Status.MAX_TERMS_REACHED
    )
