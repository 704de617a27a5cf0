"""Catalog of named reduction formulas.

Each entry ties together a formula identifier, its parameter signature, the
left-hand side hypergeometric spec, the closed-form right-hand side, domain
constraints, and a sampling domain for randomized verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import reductions as rd
from .errors import (
    DegenerateParametersError,
    DomainError,
    UnsatisfiableDomainError,
)
from .series import EvalResult, PFQSpec, Status, unity_margin
from .special import off_poles

_EPS = math.ulp(1.0)

# Minimum convergence margin enforced when sampling z = 1 cases; keeps the
# series oracle's tail short enough for desk-scale runtimes.
SAMPLING_UNITY_MARGIN = 1.55

POLE_DIST = 0.05
_MAX_DRAWS = 500


@dataclass(frozen=True)
class ReductionRequest:
    """A fully-specified invocation of one catalog formula."""

    id: str
    scalars: Mapping[str, float | tuple[float, ...]]
    shifts: Mapping[str, int]
    z: float | None = None


@dataclass(frozen=True)
class CatalogEntry:
    """One named reduction: ``pFq(lhs(p)) == rhs(...)`` on the entry's domain.

    ``p`` is the flattened parameter dict: every scalar (a list parameter is
    a tuple of floats), every shift, and ``z`` (``fixed_z`` when it is set).

    - ``rhs`` takes its arguments positionally: the scalars in
      ``scalar_names`` order, then the shifts in ``shift_names`` order, then
      ``z`` when ``fixed_z`` is None.  It returns ``(value, magnitude)``.
    - The domain is checked in one place for every caller (``reduce``,
      ``lhs_spec`` and ``sample_request``).  Shared rules come first: each
      name in ``positive`` must be > 0; each list parameter must be pairwise
      distinct with every element > 0.  Then ``check`` adds only the rules
      specific to the entry (poles, bounds tied to shifts, the z range), and
      last, when ``fixed_z == 1``, ``lhs(p)`` must converge at z = 1.
    - ``ordinal`` is the registration order.  It seeds the entry's sampling
      stream, so reordering entries changes every verifier report.
    """

    id: str
    ordinal: int
    scalar_names: tuple[str, ...]
    list_names: tuple[str, ...]
    shift_names: tuple[str, ...]
    description: str
    constraints: str
    fixed_z: float | None = None
    positive: tuple[str, ...] = ()
    lhs: Callable[[dict], PFQSpec] = field(repr=False, compare=False, default=None)
    rhs: Callable[..., tuple[float, float]] = field(
        repr=False, compare=False, default=None
    )
    check: Callable[[dict], None] | None = field(
        repr=False, compare=False, default=None
    )
    draw: Callable[[np.random.Generator], dict] = field(
        repr=False, compare=False, default=None
    )

    @property
    def unity(self) -> bool:
        return self.fixed_z == 1.0


_ENTRIES: dict[str, CatalogEntry] = {}


def _register(
    id: str,
    scalars: tuple[str, ...],
    shifts: tuple[str, ...],
    *,
    lists: tuple[str, ...] = (),
    **fields,
) -> None:
    _ENTRIES[id] = CatalogEntry(
        id=id,
        ordinal=len(_ENTRIES),
        scalar_names=scalars,
        list_names=lists,
        shift_names=shifts,
        **fields,
    )


def catalog_ids() -> list[str]:
    return list(_ENTRIES)


def get_entry(entry_id: str) -> CatalogEntry:
    try:
        return _ENTRIES[entry_id]
    except KeyError:
        raise KeyError(f"unknown reduction id {entry_id!r}") from None


def _signature_mismatch(entry: CatalogEntry, req: ReductionRequest) -> str:
    parts = []
    for kind, got, want in (
        ("scalars", set(req.scalars), set(entry.scalar_names)),
        ("shifts", set(req.shifts), set(entry.shift_names)),
    ):
        if want - got:
            parts.append(f"missing {kind} {sorted(want - got)}")
        if got - want:
            parts.append(f"unexpected {kind} {sorted(got - want)}")
    return f"{entry.id}: " + "; ".join(parts)


def _unpack(entry: CatalogEntry, req: ReductionRequest) -> dict:
    """Check the request against the entry's signature and domain, and
    flatten it into the params dict in rhs argument order: scalars, shifts,
    then z."""
    if set(req.scalars) != set(entry.scalar_names) or (
        set(req.shifts) != set(entry.shift_names)
    ):
        raise ValueError(_signature_mismatch(entry, req))
    params: dict = {}
    for name in entry.scalar_names:
        value = req.scalars[name]
        if name in entry.list_names:
            value = tuple(map(float, value))
            if not value:
                raise ValueError(f"{entry.id}: parameter list {name!r} is empty")
            finite = all(map(math.isfinite, value))
        else:
            value = float(value)
            finite = math.isfinite(value)
        if not finite:
            raise DomainError(f"{entry.id}: {name} must be finite, got {value}")
        params[name] = value
    for name in entry.shift_names:
        shift = req.shifts[name]
        if int(shift) != shift or int(shift) < 0:
            raise ValueError(f"{entry.id}: shift {name!r} must be a non-negative integer")
        params[name] = int(shift)
    if entry.fixed_z is not None:
        if req.z is not None and req.z != entry.fixed_z:
            raise ValueError(
                f"{entry.id}: z is fixed at {entry.fixed_z}, got {req.z}"
            )
        params["z"] = entry.fixed_z
    else:
        if req.z is None:
            raise ValueError(f"{entry.id}: z is required")
        z = float(req.z)
        if not math.isfinite(z):
            raise DomainError(f"{entry.id}: z must be finite, got {z}")
        params["z"] = z
    _validate(entry, params)
    return params


def _validate(entry: CatalogEntry, p: dict) -> None:
    """Raise DomainError unless p lies in the entry's domain (see CatalogEntry)."""
    for name in entry.positive:
        if not p[name] > 0.0:
            raise DomainError(f"requires {name} > 0")
    for name in entry.list_names:
        rd.require_distinct(p[name])
        for value in p[name]:
            if not value > 0.0:
                raise DomainError(f"requires every {name} > 0")
    if entry.check is not None:
        entry.check(p)
    if entry.unity and unity_margin(entry.lhs(p)) <= 0.0:
        raise DomainError("series does not converge at z = 1")


def reduce(req: ReductionRequest) -> EvalResult:
    """Evaluate the closed-form right-hand side of a catalog formula."""
    entry = get_entry(req.id)
    params = _unpack(entry, req)
    args = list(params.values())
    if entry.fixed_z is not None:
        del args[-1]  # a fixed z is part of the formula, not an rhs argument
    value, magnitude = entry.rhs(*args)
    return EvalResult(value, _EPS * magnitude, 0, Status.CONVERGED)


def lhs_spec(req: ReductionRequest) -> PFQSpec:
    """The hypergeometric spec the formula's right-hand side claims to equal."""
    entry = get_entry(req.id)
    return entry.lhs(_unpack(entry, req))


def sample_request(entry_id: str, rng: np.random.Generator) -> ReductionRequest:
    """Draw one in-domain request for the entry, rejection-sampling on the
    entry's constraints; raises UnsatisfiableDomainError after bounded retries."""
    entry = get_entry(entry_id)
    for _ in range(_MAX_DRAWS):
        params = entry.draw(rng)
        if entry.fixed_z is not None:
            params["z"] = entry.fixed_z
        try:
            _validate(entry, params)
        except DomainError:
            continue
        scalars = {
            name: params[name] for name in entry.scalar_names
        }
        shifts = {name: params[name] for name in entry.shift_names}
        z = None if entry.fixed_z is not None else params["z"]
        return ReductionRequest(entry_id, scalars, shifts, z)
    raise UnsatisfiableDomainError(
        f"could not sample an in-domain case for {entry_id} in {_MAX_DRAWS} draws"
    )


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _n(rng: np.random.Generator, lo: int, hi: int) -> int:
    return int(rng.integers(lo, hi + 1))


def _distinct_list(
    rng: np.random.Generator, count: int, lo: float, hi: float
) -> tuple[float, ...]:
    for _ in range(200):
        vs = sorted(_u(rng, lo, hi) for _ in range(count))
        if all(vs[i + 1] - vs[i] >= 0.1 for i in range(count - 1)):
            return tuple(vs)
    raise UnsatisfiableDomainError("could not draw a pairwise-distinct list")


# ---------------------------------------------------------------------------
# entry-specific domain rules
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DomainError(message)


def _require_off_poles(values: Sequence[float], what: str) -> None:
    if not off_poles(values, POLE_DIST):
        raise DomainError(f"{what} too close to a non-positive integer")


def _z_in_unit_interval(p: dict) -> None:
    _require(0.0 < p["z"] < 1.0, "requires 0 < z < 1")


def _z_in_unit_disk(p: dict) -> None:
    _require(abs(p["z"]) < 1.0, "requires |z| < 1")


# ---------------------------------------------------------------------------
# entry definitions
# ---------------------------------------------------------------------------


# -- z = 1/2 and z = -1 family ----------------------------------------------

_register(
    "F32HalfBateman",
    ("a", "c"),
    ("n",),
    lhs=lambda p: PFQSpec([p["a"], p["a"], p["c"] + p["n"]], [p["a"] + 1.0, p["c"]], p["z"]),
    rhs=rd.f32_half_bateman_rhs,
    positive=("a", "c"),
    draw=lambda rng: {"a": _u(rng, 0.3, 3.0), "c": _u(rng, 0.5, 4.0), "n": _n(rng, 0, 6)},
    description=(
        "3F2(a,a,c+n; a+1,c; 1/2) as a*2^a times a binomial sum of Bateman "
        "G-function values"
    ),
    constraints="a > 0, c > 0",
    fixed_z=0.5,
)

_register(
    "F21HalfBateman",
    ("a",),
    ("n",),
    lhs=lambda p: PFQSpec([p["a"], p["a"] + p["n"]], [p["a"] + 1.0], p["z"]),
    rhs=rd.f21_half_bateman_rhs,
    positive=("a",),
    draw=lambda rng: {"a": _u(rng, 0.3, 3.0), "n": _n(rng, 0, 6)},
    description=(
        "2F1(a,a+n; a+1; 1/2) as a*2^a times a binomial sum of Bateman "
        "G-function values (the c = a collapse of F32HalfBateman)"
    ),
    constraints="a > 0",
    fixed_z=0.5,
)

_register(
    "F21NegUnit",
    ("a",),
    ("n",),
    lhs=lambda p: PFQSpec([-float(p["n"]), p["a"]], [p["a"] + 1.0], p["z"]),
    rhs=rd.f21_neg_unit_bateman_rhs,
    positive=("a",),
    draw=lambda rng: {"a": _u(rng, 0.3, 4.0), "n": _n(rng, 0, 6)},
    description=(
        "terminating 2F1(-n,a; a+1; -1) as a binomial sum of Bateman "
        "G-function values; the same value also equals a*sum C(n,k)/(a+k), "
        "which is the cross-check that pins down the G-function recursion"
    ),
    constraints="a > 0",
    fixed_z=-1.0,
)

_register(
    "F32HalfPlusM",
    ("a", "b", "c"),
    ("n", "m"),
    lhs=lambda p: PFQSpec(
        [p["a"], p["b"] + p["m"], p["c"] + p["n"]],
        [(p["a"] + p["b"] + 1.0) / 2.0, p["c"]],
        p["z"],
    ),
    rhs=rd.f32_half_plus_rhs,
    positive=("a", "b", "c"),
    draw=lambda rng: {
        "a": _u(rng, 0.3, 2.5),
        "b": _u(rng, 0.3, 2.5),
        "c": _u(rng, 0.5, 4.0),
        "n": _n(rng, 0, 4),
        "m": _n(rng, 0, 4),
    },
    description=(
        "3F2(a,b+m,c+n; (a+b+1)/2,c; 1/2) as a double binomial sum of "
        "half-argument gamma ratios"
    ),
    constraints="a, b, c > 0",
    fixed_z=0.5,
)


def _f32_half_minus_check(p: dict) -> None:
    m = p["m"]
    _require_off_poles(
        [(p["b"] - p["a"] + 1.0) / 2.0 - m, (p["b"] - p["a"] + 1.0) / 2.0],
        "gamma prefactor argument",
    )
    # Inner gamma arguments (1+b+k+s)/2 - m for k+s >= 0 must stay off poles.
    _require_off_poles([(1.0 + p["b"]) / 2.0 - m], "inner gamma argument")
    _require((1.0 + p["b"]) / 2.0 - m > 0.0, "requires (1+b)/2 > m")


def _f32_half_minus_draw(rng: np.random.Generator) -> dict:
    m = _n(rng, 0, 3)
    a = _u(rng, 0.3, 1.5)
    b = a + 2.0 * m - 0.9 + _u(rng, 0.3, 2.5)
    return {"a": a, "b": b, "c": _u(rng, 0.5, 4.0), "n": _n(rng, 0, 3), "m": m}


_register(
    "F32HalfMinusM",
    ("a", "b", "c"),
    ("n", "m"),
    lhs=lambda p: PFQSpec(
        [p["a"], p["b"] - p["m"], p["c"] + p["n"]],
        [(p["a"] + p["b"] + 1.0) / 2.0, p["c"]],
        p["z"],
    ),
    rhs=rd.f32_half_minus_signed_rhs,
    positive=("a", "c"),
    check=_f32_half_minus_check,
    draw=_f32_half_minus_draw,
    description=(
        "3F2(a,b-m,c+n; (a+b+1)/2,c; 1/2) as a double binomial sum of "
        "half-argument gamma ratios with an alternating inner sign; of the "
        "two candidate printed forms this is the one that survives oracle "
        "testing (the other is kept in tests as a negative control)"
    ),
    constraints="a, c > 0; (1+b)/2 > m; (b-a+1)/2 and (b-a+1)/2 - m off poles",
    fixed_z=0.5,
)

# -- z = 1 psi/beta family ---------------------------------------------------


def _f32_unity_jl_check(p: dict) -> None:
    _require(1.0 - p["a"] > 0.0, "requires a < 1")
    _require_off_poles([1.0 + p["b"] - p["a"]], "psi argument")


_register(
    "F32UnityJL",
    ("a", "b"),
    (),
    lhs=lambda p: PFQSpec([p["a"], p["b"], p["b"]], [p["b"] + 1.0, p["b"] + 1.0], p["z"]),
    rhs=rd.f32_unity_jl_rhs,
    positive=("b",),
    check=_f32_unity_jl_check,
    draw=lambda rng: {"a": _u(rng, -3.0, 0.4), "b": _u(rng, 0.3, 3.0)},
    description=(
        "3F2(a,b,b; b+1,b+1; 1) as b^2 B(1-a,b) [psi(1+b-a) - psi(b)]"
    ),
    constraints="b > 0, a < 1, convergent at z = 1 (a < 2)",
    fixed_z=1.0,
)


def _f43_unity_check(p: dict) -> None:
    _require(1.0 - p["a"] > 0.0, "requires a < 1")
    if abs(p["b"] - p["c"]) < POLE_DIST:
        raise DegenerateParametersError(f"requires |b - c| >= {POLE_DIST}")
    n = p["n"]
    _require_off_poles(
        [1.0 + p["b"] - p["a"], 1.0 + p["b"] - p["c"], 1.0 + p["b"] - p["c"] - n],
        "psi argument",
    )
    _require_off_poles([p["c"] - p["b"] + j for j in range(n)], "(c-b)_n factor")


_register(
    "F43Unity",
    ("a", "b", "c"),
    ("n",),
    lhs=lambda p: PFQSpec(
        [p["a"], p["b"], p["b"], p["c"] + p["n"]],
        [p["b"] + 1.0, p["b"] + 1.0, p["c"]],
        p["z"],
    ),
    rhs=rd.f43_unity_rhs,
    positive=("b", "c"),
    check=_f43_unity_check,
    draw=lambda rng: (
        lambda n: {
            "a": _u(rng, -3.0, 0.4) - n,
            "b": _u(rng, 0.3, 3.0),
            "c": _u(rng, 0.5, 4.0),
            "n": n,
        }
    )(_n(rng, 0, 3)),
    description=(
        "4F3(a,b,b,c+n; b+1,b+1,c; 1) as b^2 B(1-a,b) (c-b)_n/(c)_n times a "
        "four-term psi combination, b != c"
    ),
    constraints="b, c > 0; a < 1; |b - c| >= 0.05; psi arguments off poles; convergent at z = 1",
    fixed_z=1.0,
)

def _f32_unity_bb_check(p: dict) -> None:
    _require(p["n"] >= 1, "requires n >= 1")
    _require(1.0 - p["a"] > 0.0, "requires a < 1")


_register(
    "F32UnityBB",
    ("a", "b"),
    ("n",),
    lhs=lambda p: PFQSpec(
        [p["a"], p["b"], p["b"] + p["n"]], [p["b"] + 1.0, p["b"] + 1.0], p["z"]
    ),
    rhs=rd.f32_unity_bb_rhs,
    positive=("b",),
    check=_f32_unity_bb_check,
    draw=lambda rng: (
        lambda n: {"a": _u(rng, -3.0, 0.45) - n, "b": _u(rng, 0.3, 3.0), "n": n}
    )(_n(rng, 1, 4)),
    description=(
        "3F2(a,b,b+n; b+1,b+1; 1) as (n-1)! b^2 B(1-a,b) / (b)_n, n >= 1"
    ),
    constraints="n >= 1; b > 0; a < 1; convergent at z = 1 (a < 2 - n)",
    fixed_z=1.0,
)


def _f43_unity_nm_check(p: dict) -> None:
    _f32_unity_bb_check(p)
    _require_off_poles([p["c"] - p["b"] + j for j in range(p["m"])], "(c-b)_m factor")


_register(
    "F43UnityNM",
    ("a", "b", "c"),
    ("n", "m"),
    lhs=lambda p: PFQSpec(
        [p["a"], p["b"], p["b"] + p["n"], p["c"] + p["m"]],
        [p["b"] + 1.0, p["b"] + 1.0, p["c"]],
        p["z"],
    ),
    rhs=rd.f43_unity_nm_rhs,
    positive=("b", "c"),
    check=_f43_unity_nm_check,
    draw=lambda rng: (
        lambda n, m: {
            "a": _u(rng, -3.0, 0.4) - n - m,
            "b": _u(rng, 0.3, 3.0),
            "c": _u(rng, 0.5, 4.0),
            "n": n,
            "m": m,
        }
    )(_n(rng, 1, 3), _n(rng, 0, 3)),
    description=(
        "4F3(a,b,b+n,c+m; b+1,b+1,c; 1) as the F32UnityBB value times "
        "(c-b)_m/(c)_m, n >= 1"
    ),
    constraints="n >= 1; b, c > 0; a < 1; (c-b)_m off zero; convergent at z = 1",
    fixed_z=1.0,
)

# -- Bessel family -----------------------------------------------------------

_register(
    "F01Bessel",
    ("b",),
    (),
    lhs=lambda p: PFQSpec([], [p["b"]], p["z"]),
    rhs=rd.f01_bessel_rhs,
    positive=("b", "z"),
    draw=lambda rng: {"b": _u(rng, 0.3, 5.0), "z": _u(rng, 0.05, 20.0)},
    description=(
        "0F1(;b;z) in terms of the modified Bessel function of the first kind, "
        "z^((1-b)/2) Gamma(b) I_{b-1}(2 sqrt(z))"
    ),
    constraints="b > 0, z > 0",
)

_register(
    "F12BesselI",
    ("b", "c"),
    ("n",),
    lhs=lambda p: PFQSpec([p["c"] + p["n"]], [p["b"], p["c"]], p["z"]),
    rhs=rd.f12_bessel_i_rhs,
    positive=("b", "c", "z"),
    draw=lambda rng: {
        "b": _u(rng, 0.3, 5.0),
        "c": _u(rng, 0.5, 4.0),
        "n": _n(rng, 0, 6),
        "z": _u(rng, 0.05, 20.0),
    },
    description=(
        "1F2(c+n; b,c; z) as a finite binomial sum over the modified Bessel "
        "function of the first kind"
    ),
    constraints="b, c > 0, z > 0",
)

_register(
    "F23BesselI",
    ("b", "c", "d"),
    ("n", "m"),
    lhs=lambda p: PFQSpec(
        [p["c"] + p["n"], p["d"] + p["m"]], [p["b"], p["c"], p["d"]], p["z"]
    ),
    rhs=rd.f23_bessel_i_rhs,
    positive=("b", "c", "d", "z"),
    draw=lambda rng: {
        "b": _u(rng, 0.3, 5.0),
        "c": _u(rng, 0.5, 4.0),
        "d": _u(rng, 0.5, 4.0),
        "n": _n(rng, 0, 4),
        "m": _n(rng, 0, 4),
        "z": _u(rng, 0.05, 20.0),
    },
    description=(
        "2F3(c+n,d+m; b,c,d; z) as a double finite sum over the modified "
        "Bessel function of the first kind"
    ),
    constraints="b, c, d > 0, z > 0",
)

_register(
    "F12BesselJ",
    ("b", "c"),
    ("n",),
    lhs=lambda p: PFQSpec([p["c"] + p["n"]], [p["b"], p["c"]], -p["z"]),
    rhs=rd.f12_bessel_j_rhs,
    positive=("b", "c", "z"),
    draw=lambda rng: {
        "b": _u(rng, 0.3, 5.0),
        "c": _u(rng, 0.5, 4.0),
        "n": _n(rng, 0, 6),
        "z": _u(rng, 0.05, 20.0),
    },
    description=(
        "1F2(c+n; b,c; -z), z > 0, as an alternating finite sum over the "
        "Bessel function of the first kind"
    ),
    constraints="b, c > 0, z > 0 (series argument is -z)",
)

_register(
    "F23BesselJ",
    ("b", "c", "d"),
    ("n", "m"),
    lhs=lambda p: PFQSpec(
        [p["c"] + p["n"], p["d"] + p["m"]], [p["b"], p["c"], p["d"]], -p["z"]
    ),
    rhs=rd.f23_bessel_j_rhs,
    positive=("b", "c", "d", "z"),
    draw=lambda rng: {
        "b": _u(rng, 0.3, 5.0),
        "c": _u(rng, 0.5, 4.0),
        "d": _u(rng, 0.5, 4.0),
        "n": _n(rng, 0, 4),
        "m": _n(rng, 0, 4),
        "z": _u(rng, 0.05, 20.0),
    },
    description=(
        "2F3(c+n,d+m; b,c,d; -z), z > 0, as an alternating double finite sum "
        "over the Bessel function of the first kind"
    ),
    constraints="b, c, d > 0, z > 0 (series argument is -z)",
)

# -- incomplete gamma / Laguerre family -------------------------------------

_register(
    "F11IncGamma",
    ("a",),
    (),
    lhs=lambda p: PFQSpec([p["a"]], [p["a"] + 1.0], -p["z"]),
    rhs=rd.f11_inc_gamma_rhs,
    positive=("a", "z"),
    draw=lambda rng: {"a": _u(rng, 0.3, 4.0), "z": _u(rng, 0.1, 8.0)},
    description=(
        "1F1(a; a+1; -z), z > 0, as a z^(-a) times the lower incomplete gamma "
        "function at (a, z)"
    ),
    constraints="a > 0, z > 0 (series argument is -z)",
)

_register(
    "F22IncGamma",
    ("a", "c"),
    ("n",),
    lhs=lambda p: PFQSpec([p["a"], p["c"] + p["n"]], [p["a"] + 1.0, p["c"]], -p["z"]),
    rhs=rd.f22_inc_gamma_rhs,
    positive=("a", "c", "z"),
    draw=lambda rng: {
        "a": _u(rng, 0.3, 4.0),
        "c": _u(rng, 0.5, 4.0),
        "n": _n(rng, 0, 6),
        "z": _u(rng, 0.1, 8.0),
    },
    description=(
        "2F2(a,c+n; a+1,c; -z), z > 0, as an alternating binomial sum of "
        "lower incomplete gamma values"
    ),
    constraints="a, c > 0, z > 0 (series argument is -z)",
)

_register(
    "F11Laguerre",
    ("a",),
    ("n",),
    lhs=lambda p: PFQSpec([p["a"] + p["n"]], [p["a"]], p["z"]),
    rhs=rd.f11_laguerre_rhs,
    positive=("a",),
    draw=lambda rng: {"a": _u(rng, 0.3, 4.0), "n": _n(rng, 0, 6), "z": _u(rng, -3.0, 3.0)},
    description=(
        "1F1(a+n; a; z) as n!/(a)_n e^z times the generalized Laguerre "
        "polynomial L_n^(a-1)(-z)"
    ),
    constraints="a > 0",
)

_register(
    "F22Laguerre",
    ("a", "b"),
    ("n", "m"),
    lhs=lambda p: PFQSpec([p["a"] + p["n"], p["b"] + p["m"]], [p["a"], p["b"]], p["z"]),
    rhs=rd.f22_laguerre_rhs,
    positive=("a", "b"),
    draw=lambda rng: {
        "a": _u(rng, 0.3, 4.0),
        "b": _u(rng, 0.3, 4.0),
        "n": _n(rng, 0, 4),
        "m": _n(rng, 0, 4),
        "z": _u(rng, -3.0, 3.0),
    },
    description=(
        "2F2(a+n,b+m; a,b; z) as a binomial sum of generalized Laguerre "
        "polynomial values times e^z"
    ),
    constraints="a, b > 0",
)

_register(
    "F33Laguerre",
    ("a", "b", "c"),
    ("n", "m", "k"),
    lhs=lambda p: PFQSpec(
        [p["a"] + p["n"], p["b"] + p["m"], p["c"] + p["k"]],
        [p["a"], p["b"], p["c"]],
        p["z"],
    ),
    rhs=rd.f33_laguerre_rhs,
    positive=("a", "b", "c"),
    draw=lambda rng: {
        "a": _u(rng, 0.3, 4.0),
        "b": _u(rng, 0.3, 4.0),
        "c": _u(rng, 0.3, 4.0),
        "n": _n(rng, 0, 3),
        "m": _n(rng, 0, 3),
        "k": _n(rng, 0, 3),
        "z": _u(rng, -3.0, 3.0),
    },
    description=(
        "3F3(a+n,b+m,c+k; a,b,c; z) as a double binomial sum of generalized "
        "Laguerre polynomial values times e^z"
    ),
    constraints="a, b, c > 0",
)

# -- arbitrary-p incomplete-beta family -------------------------------------


_register(
    "Mp1FmIncBeta",
    ("a", "b"),
    (),
    lhs=lambda p: PFQSpec(
        list(p["a"]) + [p["b"]], [al + 1.0 for al in p["a"]], p["z"]
    ),
    rhs=rd.m1m_inc_beta_rhs,
    check=_z_in_unit_interval,
    draw=lambda rng: {
        "a": _distinct_list(rng, _n(rng, 1, 4), 0.3, 4.0),
        "b": _u(rng, -2.0, 0.8),
        "z": _u(rng, 0.1, 0.9),
    },
    description=(
        "(m+1)Fm(b,a_1..a_m; a_1+1..a_m+1; z) as a partial-fraction sum of "
        "incomplete beta values, pairwise-distinct a's"
    ),
    constraints="a's > 0 and pairwise distinct; 0 < z < 1",
    lists=("a",),
)

def _pp2_lhs(p: dict) -> PFQSpec:
    return PFQSpec(
        list(p["a"]) + [p["b"], p["c"] + p["n"]],
        [al + 1.0 for al in p["a"]] + [p["c"]],
        p["z"],
    )


_register(
    "Pp2Fp1IncBeta",
    ("a", "b", "c"),
    ("n",),
    lhs=_pp2_lhs,
    rhs=rd.pp2_inc_beta_rhs,
    positive=("c",),
    check=_z_in_unit_interval,
    draw=lambda rng: {
        "a": _distinct_list(rng, _n(rng, 1, 3), 0.3, 4.0),
        "b": _u(rng, -2.0, 0.8),
        "c": _u(rng, 0.5, 4.0),
        "n": _n(rng, 0, 4),
        "z": _u(rng, 0.1, 0.9),
    },
    description=(
        "(p+2)F(p+1)(a_1..a_p,b,c+n; a_1+1..a_p+1,c; z) as a binomial sum of "
        "incomplete-beta partial fractions"
    ),
    constraints="a's > 0 pairwise distinct; c > 0; 0 < z < 1",
    lists=("a",),
)


def _pp2_literature_check(p: dict) -> None:
    n = p["n"]
    for al in p["a"]:
        # inner Gauss series carries lower parameters a - k for k < n
        _require(al - (n - 1) > POLE_DIST, "requires every a > n - 1")
    _z_in_unit_interval(p)


_register(
    "Pp2Fp1Literature",
    ("a", "b", "c"),
    ("n",),
    lhs=_pp2_lhs,
    rhs=rd.pp2_literature_rhs,
    positive=("c",),
    check=_pp2_literature_check,
    draw=lambda rng: (
        lambda n: {
            "a": _distinct_list(
                rng, _n(rng, 1, 3), max(0.3, n - 0.5), max(0.3, n - 0.5) + 3.5
            ),
            "b": _u(rng, -2.0, 0.8),
            "c": _u(rng, 0.5, 4.0),
            "n": n,
            "z": _u(rng, 0.15, 0.85),
        }
    )(_n(rng, 0, 3)),
    description=(
        "same left-hand side as Pp2Fp1IncBeta, written through the n-th "
        "derivative of z^g B_z(a,b) as found in earlier literature"
    ),
    constraints="a's > max(0, n-1) pairwise distinct; c > 0; 0 < z < 1",
    lists=("a",),
)

_register(
    "F21Contiguous",
    ("b", "c"),
    ("n",),
    lhs=lambda p: PFQSpec([p["b"], p["c"] + p["n"]], [p["c"]], p["z"]),
    rhs=rd.f21_contiguous_rhs,
    positive=("c",),
    check=_z_in_unit_disk,
    draw=lambda rng: {
        "b": _u(rng, 0.3, 3.0),
        "c": _u(rng, 0.5, 4.0),
        "n": _n(rng, 0, 6),
        "z": _u(rng, -0.8, 0.9),
    },
    description=(
        "2F1(b,c+n; c; z) as (1-z)^(-b) times a terminating binomial sum in "
        "z/(1-z)"
    ),
    constraints="c > 0, |z| < 1",
)


def _pp2_unity_check(p: dict) -> None:
    _require(1.0 - p["b"] > 0.0, "requires b < 1")
    for al in p["a"]:
        _require_off_poles([p["c"] - al + j for j in range(p["n"])], "(c-a)_n factor")


_register(
    "Pp2Fp1Unity",
    ("a", "b", "c"),
    ("n",),
    lhs=_pp2_lhs,
    rhs=rd.pp2_unity_rhs,
    positive=("c",),
    check=_pp2_unity_check,
    draw=lambda rng: (
        lambda p_count, n: {
            "a": _distinct_list(rng, p_count, 0.3, 4.0),
            "b": min(p_count - n - SAMPLING_UNITY_MARGIN, 0.8) - _u(rng, 0.0, 2.0),
            "c": _u(rng, 0.5, 4.0),
            "n": n,
        }
    )(_n(rng, 1, 3), _n(rng, 0, 2)),
    description=(
        "(p+2)F(p+1)(a_1..a_p,b,c+n; a_1+1..a_p+1,c; 1) as a beta-function "
        "partial-fraction sum"
    ),
    constraints="a's > 0 pairwise distinct; c > 0; b < 1; convergent at z = 1",
    fixed_z=1.0,
    lists=("a",),
)


def _pp3_lhs(p: dict) -> PFQSpec:
    return PFQSpec(
        list(p["a"]) + [p["b"], p["c"] + p["n"], p["d"] + p["m"]],
        [al + 1.0 for al in p["a"]] + [p["c"], p["d"]],
        p["z"],
    )


def _pp3_h_check(p: dict) -> None:
    m = p["m"]
    for al in p["a"]:
        _require(al - (m - 1) > POLE_DIST, "requires every a > m - 1")
    _z_in_unit_interval(p)


_register(
    "Pp3Fp2H",
    ("a", "b", "c", "d"),
    ("n", "m"),
    lhs=_pp3_lhs,
    rhs=rd.pp3_h_rhs,
    positive=("c", "d"),
    check=_pp3_h_check,
    draw=lambda rng: (
        lambda m: {
            "a": _distinct_list(
                rng, _n(rng, 1, 3), max(0.3, m - 0.5), max(0.3, m - 0.5) + 3.5
            ),
            "b": _u(rng, -2.0, 0.8),
            "c": _u(rng, 0.5, 4.0),
            "d": _u(rng, 0.5, 4.0),
            "n": _n(rng, 0, 2),
            "m": m,
            "z": _u(rng, 0.15, 0.85),
        }
    )(_n(rng, 0, 2)),
    description=(
        "(p+3)F(p+2)(a_1..a_p,b,c+n,d+m; a_1+1..a_p+1,c,d; z) through the "
        "m-th derivative of z^g B_z(a,b)"
    ),
    constraints="a's > max(0, m-1) pairwise distinct; c, d > 0; 0 < z < 1",
    lists=("a",),
)

_register(
    "Pp3Fp2IncBeta",
    ("a", "b", "c", "d"),
    ("n", "m"),
    lhs=_pp3_lhs,
    rhs=rd.pp3_inc_beta_rhs,
    positive=("c", "d"),
    check=_z_in_unit_interval,
    draw=lambda rng: {
        "a": _distinct_list(rng, _n(rng, 1, 3), 0.3, 4.0),
        "b": _u(rng, -2.0, 0.8),
        "c": _u(rng, 0.5, 4.0),
        "d": _u(rng, 0.5, 4.0),
        "n": _n(rng, 0, 3),
        "m": _n(rng, 0, 3),
        "z": _u(rng, 0.1, 0.9),
    },
    description=(
        "same left-hand side as Pp3Fp2H, written directly as a double "
        "binomial sum of incomplete-beta partial fractions"
    ),
    constraints="a's > 0 pairwise distinct; c, d > 0; 0 < z < 1",
    lists=("a",),
)


def _pp3_unity_check(p: dict) -> None:
    _require(
        p["b"] < 1.0 - max(p["n"], p["m"]), "requires b < 1 - max(n, m)"
    )
    for al in p["a"]:
        _require_off_poles([p["c"] - al + j for j in range(p["n"])], "(c-a)_n factor")
        _require_off_poles([p["d"] - al + j for j in range(p["m"])], "(d-a)_m factor")


_register(
    "Pp3Fp2Unity",
    ("a", "b", "c", "d"),
    ("n", "m"),
    lhs=_pp3_lhs,
    rhs=rd.pp3_unity_rhs,
    positive=("c", "d"),
    check=_pp3_unity_check,
    draw=lambda rng: (
        lambda p_count, n, m: {
            "a": _distinct_list(rng, p_count, 0.3, 4.0),
            "b": min(p_count - n - m - SAMPLING_UNITY_MARGIN, -max(n, m) + 0.8)
            - _u(rng, 0.0, 2.0),
            "c": _u(rng, 0.5, 4.0),
            "d": _u(rng, 0.5, 4.0),
            "n": n,
            "m": m,
        }
    )(_n(rng, 1, 3), _n(rng, 0, 2), _n(rng, 0, 2)),
    description=(
        "(p+3)F(p+2)(a_1..a_p,b,c+n,d+m; a_1+1..a_p+1,c,d; 1) as a pure "
        "beta-function partial-fraction sum, b < 1 - max(n, m)"
    ),
    constraints=(
        "a's > 0 pairwise distinct; c, d > 0; b < 1 - max(n, m); convergent at z = 1"
    ),
    fixed_z=1.0,
    lists=("a",),
)

_register(
    "F32P0",
    ("b", "c", "d"),
    ("n", "m"),
    lhs=lambda p: PFQSpec(
        [p["b"], p["c"] + p["n"], p["d"] + p["m"]], [p["c"], p["d"]], p["z"]
    ),
    rhs=rd.f32_p0_rhs,
    positive=("c", "d"),
    check=_z_in_unit_disk,
    draw=lambda rng: {
        "b": _u(rng, 0.3, 3.0),
        "c": _u(rng, 0.5, 4.0),
        "d": _u(rng, 0.5, 4.0),
        "n": _n(rng, 0, 4),
        "m": _n(rng, 0, 4),
        "z": _u(rng, -0.8, 0.9),
    },
    description=(
        "3F2(b,c+n,d+m; c,d; z), z != 1, as (1-z)^(-b-m) times a binomial sum "
        "with terminating Gauss-series factors"
    ),
    constraints="c, d > 0, |z| < 1",
)
