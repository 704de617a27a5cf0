"""Catalog of named reduction formulas.

Each entry ties together a formula identifier, its parameter signature, the
left-hand side hypergeometric spec, the closed-form right-hand side, domain
constraints, and a sampling domain for randomized verification.
"""

from __future__ import annotations

import math
from itertools import combinations
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

from . import reductions as rd
from .errors import (
    DegenerateParametersError,
    DomainError,
    UnsatisfiableDomainError,
)
from .series import EvalResult, PFQSpec, Status, is_nonpositive_integer, unity_margin

_EPS = math.ulp(1.0)

# Minimum convergence margin enforced when sampling z = 1 cases; keeps the
# series oracle's tail short enough for desk-scale runtimes.
SAMPLING_UNITY_MARGIN = 1.55

POLE_DIST = 0.05
_MAX_DRAWS = 500


class ReductionRequest(NamedTuple):
    """A fully-specified invocation of one catalog formula."""

    id: str
    scalars: Mapping[str, float | tuple[float, ...]]
    shifts: Mapping[str, int]
    z: float | None = None


class _SampledRequest(ReductionRequest):
    """A request from ``sample_request``: ``scalars`` and ``shifts`` are
    read-only views of values that were flattened and checked when it was
    drawn, so ``_unpack`` does not check them again."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable) -> ReductionRequest:
        # _replace builds through _make: an edited request is one the caller
        # built, and is checked in full.
        return ReductionRequest._make(iterable)


class CatalogEntry:
    """One named reduction: ``pFq(lhs(p)) == rhs(...)`` on the entry's domain.

    ``p`` is the flattened parameter dict: every scalar (a list parameter is
    a tuple of floats), every shift, and ``z`` (``fixed_z`` when it is set).

    - The fields are declared once, as the annotations below, which are also
      the slots and the constructor's keywords.
    - ``rhs`` states the signature, which ``_register`` reads: its parameter
      names are the request keys, scalars (annotated ``float``, or
      ``Sequence[float]`` for a list), then shifts (``int``), then ``z`` when
      ``fixed_z`` is None.  It returns ``(value, magnitude)``.
    - The domain is checked by one function, ``_validate``: it applies
      ``rules`` in order and raises for the first that p breaks (see
      ``_rule``).  ``sample_request`` runs it on each draw, then ``_flatten``
      (signature, types, finiteness, shifts) once on the accepted draw; its
      request is read-only, so ``reduce`` and ``lhs_spec`` take its params
      unchecked.  Any other request is flattened and validated in full by
      each of them.  An entry states the names that must be > 0
      (``_positive``), then, with a list parameter, ``_A_LIST``, then its own
      rules (poles, bounds tied to shifts, the z range); ``_register``
      appends ``convergent at z = 1`` when ``fixed_z == 1``.
    - ``constraints`` is the texts of ``rules``, joined with "; ".
    - ``ordinal`` is the registration order.  It seeds the entry's sampling
      stream, so reordering entries changes every verifier report.

    An entry is read-only, and there is one per id, so entries compare by
    identity.
    """

    id: str
    ordinal: int
    scalar_names: tuple[str, ...]
    list_names: tuple[str, ...]
    shift_names: tuple[str, ...]
    description: str
    constraints: str
    fixed_z: float | None
    lhs: Callable[[dict], PFQSpec]
    rhs: Callable[..., tuple[float, float]]
    rules: tuple[tuple[str, Callable[[dict], bool], type[DomainError]], ...]
    draw: Callable[[np.random.Generator], dict]

    __slots__ = tuple(__annotations__)
    _SHOWN = __slots__[:8]  # the repr leaves out the callables and the rules
    _FIELDS = frozenset(__slots__)

    def __init__(self, **fields) -> None:
        fields = {"fixed_z": None, "rules": (), **fields}
        if fields.keys() != self._FIELDS:
            raise TypeError(f"CatalogEntry: missing fields {sorted(self._FIELDS - fields.keys())}, "
                            f"unknown fields {sorted(fields.keys() - self._FIELDS)}")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"CatalogEntry is read-only: cannot set {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._SHOWN)
        return f"CatalogEntry({shown})"

    @property
    def unity(self) -> bool:
        return self.fixed_z == 1.0


_ENTRIES: dict[str, CatalogEntry] = {}


def _rhs_signature(rhs: Callable, fixed_z: float | None) -> tuple[tuple[str, ...], ...]:
    """(scalar_names, list_names, shift_names) from rhs's parameters (see CatalogEntry)."""
    names = rhs.__code__.co_varnames[: rhs.__code__.co_argcount]
    if (fixed_z is None) != (names[-1:] == ("z",)):
        raise TypeError(f"{rhs.__name__}: z must be the last parameter if it is free, else absent")
    if fixed_z is None:
        names = names[:-1]
    kinds: dict = {"float": [], "Sequence[float]": [], "int": []}
    for name in names:
        kind = rhs.__annotations__.get(name)
        if kind not in kinds or name == "z" or (kind != "int" and kinds["int"]):
            raise TypeError(f"{rhs.__name__}: parameter {name!r} must be annotated float, "
                            "Sequence[float] or int, with the int shifts after the rest")
        kinds[kind].append(name)
    shifts = tuple(kinds["int"])
    return names[: len(names) - len(shifts)], tuple(kinds["Sequence[float]"]), shifts


def _register(id: str, rules: tuple = (), **fields) -> None:
    scalars, lists, shifts = _rhs_signature(fields["rhs"], fields.get("fixed_z"))
    if fields.get("fixed_z") == 1.0:
        lhs = fields["lhs"]
        rules += (_rule("convergent at z = 1", lambda p: not unity_margin(lhs(p)) <= 0.0),)
    _ENTRIES[id] = CatalogEntry(id=id, ordinal=len(_ENTRIES), scalar_names=scalars,
                                list_names=lists, shift_names=shifts, rules=rules,
                                constraints="; ".join(text for text, _, _ in rules), **fields)


def catalog_ids() -> list[str]:
    return list(_ENTRIES)


def get_entry(entry_id: str) -> CatalogEntry:
    try:
        return _ENTRIES[entry_id]
    except KeyError:
        raise KeyError(f"unknown reduction id {entry_id!r}") from None


def _unpack(entry: CatalogEntry, req: ReductionRequest) -> dict:
    """The params dict in rhs argument order: scalars, shifts, then z.  A
    sampled request was checked when it was drawn and cannot change since;
    any other is checked against the entry's signature and domain here."""
    if type(req) is _SampledRequest:
        return {**req.scalars, **req.shifts, "z": entry.fixed_z if req.z is None else req.z}
    params = _flatten(entry, req)
    _validate(entry, params)
    return params


def _number(entry: CatalogEntry, name: str, value: object) -> float:
    # float() would parse a string: "0.7" is not a parameter value.
    if isinstance(value, (str, bytes)):
        raise ValueError(f"{entry.id}: parameter {name!r} must be a number, got {value!r}")
    return float(value)


def _flatten(entry: CatalogEntry, req: ReductionRequest) -> dict:
    """Check the request against the entry's signature, with finite values
    and shifts that are integers >= 0, and flatten it into the params dict
    (see ``_unpack``); the domain rules are ``_validate``'s."""
    mismatch = [
        f"{verb} {kind} {sorted(names)}"
        for kind, got, want in (("scalars", set(req.scalars), set(entry.scalar_names)),
                                ("shifts", set(req.shifts), set(entry.shift_names)))
        if got != want
        for verb, names in (("missing", want - got), ("unexpected", got - want))
        if names
    ]
    if mismatch:
        raise ValueError(f"{entry.id}: " + "; ".join(mismatch))
    params: dict = {}
    for name in entry.scalar_names:
        value = req.scalars[name]
        if name in entry.list_names:
            if isinstance(value, (str, bytes)):
                raise ValueError(f"{entry.id}: parameter list {name!r} must be numbers, got {value!r}")
            value = tuple(_number(entry, name, v) for v in value)
            if not value:
                raise ValueError(f"{entry.id}: parameter list {name!r} is empty")
            finite = all(map(math.isfinite, value))
        else:
            value = _number(entry, name, value)
            finite = math.isfinite(value)
        if not finite:
            raise DomainError(f"{entry.id}: {name} must be finite, got {value}")
        params[name] = value
    for name in entry.shift_names:
        params[name] = rd._shift(name, req.shifts[name])
    if entry.fixed_z is not None:
        if req.z is not None and req.z != entry.fixed_z:
            raise ValueError(f"{entry.id}: z is fixed at {entry.fixed_z}, got {req.z!r}")
        params["z"] = entry.fixed_z
    else:
        if req.z is None:
            raise ValueError(f"{entry.id}: z is required")
        z = _number(entry, "z", req.z)
        if not math.isfinite(z):
            raise DomainError(f"{entry.id}: z must be finite, got {z}")
        params["z"] = z
    return params


def _validate(entry: CatalogEntry, p: dict) -> None:
    """Raise DomainError unless p lies in the entry's domain (see CatalogEntry)."""
    for text, holds, error in entry.rules:
        if not holds(p):
            raise error(f"requires {text}")


def reduce(req: ReductionRequest) -> EvalResult:
    """Evaluate a catalog formula's closed form; OverflowError if it is not finite."""
    entry = get_entry(req.id)
    params = _unpack(entry, req)
    args = list(params.values())
    if entry.fixed_z is not None:
        del args[-1]  # a fixed z is part of the formula, not an rhs argument
    try:
        value, magnitude = entry.rhs(*args)
    except OverflowError as exc:  # name the entry; the message says what overflowed
        raise OverflowError(f"{entry.id}: {exc}") from exc
    if not math.isfinite(value):
        raise OverflowError(f"{entry.id}: closed form value {value} is not finite")
    return EvalResult(value, _EPS * magnitude, 0, Status.CONVERGED)


def lhs_spec(req: ReductionRequest) -> PFQSpec:
    """The hypergeometric spec the formula's right-hand side claims to equal."""
    entry = get_entry(req.id)
    return entry.lhs(_unpack(entry, req))


def sample_request(entry_id: str, rng: np.random.Generator) -> ReductionRequest:
    """Draw one in-domain request for the entry, rejection-sampling on the
    entry's constraints; raises UnsatisfiableDomainError after bounded retries.

    The request is read-only: its ``scalars`` and ``shifts`` are
    ``MappingProxyType`` views, checked once here, so ``reduce`` and
    ``lhs_spec`` do not check them again.  A ``ReductionRequest`` rebuilt
    from them is checked in full."""
    entry = get_entry(entry_id)
    for _ in range(_MAX_DRAWS):
        params = entry.draw(rng)
        if entry.fixed_z is not None:
            params["z"] = entry.fixed_z
        try:
            _validate(entry, params)
        except DomainError:
            continue
        scalars = {name: params[name] for name in entry.scalar_names}
        shifts = {name: params[name] for name in entry.shift_names}
        z = None if entry.fixed_z is not None else params["z"]
        p = _flatten(entry, ReductionRequest(entry_id, scalars, shifts, z))
        return _SampledRequest(
            entry_id,
            MappingProxyType({name: p[name] for name in entry.scalar_names}),
            MappingProxyType({name: p[name] for name in entry.shift_names}),
            None if entry.fixed_z is not None else p["z"],
        )
    raise UnsatisfiableDomainError(
        f"could not sample an in-domain case for {entry_id} in {_MAX_DRAWS} draws"
    )


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    # Generator.uniform(lo, hi) is lo + (hi - lo) * random(): the same draw.
    return lo + (hi - lo) * rng.random()


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
# domain rules
# ---------------------------------------------------------------------------


def _rule(text: str, holds: Callable[[dict], bool], error: type[DomainError] = DomainError):
    """One domain rule, stated once: where ``holds(p)`` is false, ``_validate``
    raises ``error("requires <text>")``, and ``text`` is its constraints clause."""
    return text, holds, error


def _off_poles(values: Iterable[float]) -> bool:
    return not any(is_nonpositive_integer(x, POLE_DIST) for x in values)


def _pairwise_distinct(values: Sequence[float]) -> bool:
    return not any(abs(x - y) < rd.DISTINCT_TOL for x, y in combinations(values, 2))


def _positive(*names: str):
    return _rule(", ".join(names) + " > 0", lambda p: min(map(p.__getitem__, names)) > 0.0)


# The rules of the list parameter a: the partial-fraction sums divide by a_j - a_l.
_A_LIST = (
    _rule("a's pairwise distinct", lambda p: _pairwise_distinct(p["a"]),
          DegenerateParametersError),
    _rule("a's > 0", lambda p: min(p["a"]) > 0.0),
)

_A_BELOW_1 = _rule("a < 1", lambda p: 1.0 - p["a"] > 0.0)
_Z_IN_UNIT_INTERVAL = _rule("0 < z < 1", lambda p: 0.0 < p["z"] < 1.0)
_Z_IN_UNIT_DISK = _rule("|z| < 1", lambda p: abs(p["z"]) < 1.0)
_N_POSITIVE_A_BELOW_1 = (_rule("n >= 1", lambda p: p["n"] >= 1), _A_BELOW_1)


def _a_above(shift: str):
    # The inner Gauss series carry lower parameters a - k for k < the shift.
    return _rule(f"a's > {shift} - 1 + {POLE_DIST}",
                 lambda p: all(al - (p[shift] - 1) > POLE_DIST for al in p["a"]))


# ---------------------------------------------------------------------------
# entry definitions
# ---------------------------------------------------------------------------


# -- z = 1/2 and z = -1 family ----------------------------------------------

_register(
    "F32HalfBateman",
    lhs=lambda p: PFQSpec([p["a"], p["a"], p["c"] + p["n"]], [p["a"] + 1.0, p["c"]], p["z"]),
    rhs=rd.f32_half_bateman_rhs,
    rules=(_positive("a", "c"),),
    draw=lambda rng: {"a": _u(rng, 0.3, 3.0), "c": _u(rng, 0.5, 4.0), "n": _n(rng, 0, 6)},
    description=(
        "3F2(a,a,c+n; a+1,c; 1/2) as a*2^a times a binomial sum of Bateman "
        "G-function values"
    ),
    fixed_z=0.5,
)

_register(
    "F21HalfBateman",
    lhs=lambda p: PFQSpec([p["a"], p["a"] + p["n"]], [p["a"] + 1.0], p["z"]),
    rhs=rd.f21_half_bateman_rhs,
    rules=(_positive("a"),),
    draw=lambda rng: {"a": _u(rng, 0.3, 3.0), "n": _n(rng, 0, 6)},
    description=(
        "2F1(a,a+n; a+1; 1/2) as a*2^a times a binomial sum of Bateman "
        "G-function values (the c = a collapse of F32HalfBateman)"
    ),
    fixed_z=0.5,
)

_register(
    "F21NegUnit",
    lhs=lambda p: PFQSpec([-float(p["n"]), p["a"]], [p["a"] + 1.0], p["z"]),
    rhs=rd.f21_neg_unit_bateman_rhs,
    rules=(_positive("a"),),
    draw=lambda rng: {"a": _u(rng, 0.3, 4.0), "n": _n(rng, 0, 6)},
    description=(
        "terminating 2F1(-n,a; a+1; -1) as a binomial sum of Bateman "
        "G-function values; the same value also equals a*sum C(n,k)/(a+k), "
        "which is the cross-check that pins down the G-function recursion"
    ),
    fixed_z=-1.0,
)

_register(
    "F32HalfPlusM",
    lhs=lambda p: PFQSpec(
        [p["a"], p["b"] + p["m"], p["c"] + p["n"]],
        [(p["a"] + p["b"] + 1.0) / 2.0, p["c"]],
        p["z"],
    ),
    rhs=rd.f32_half_plus_rhs,
    rules=(_positive("a", "b", "c"),),
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
    fixed_z=0.5,
)


def _f32_half_minus_draw(rng: np.random.Generator) -> dict:
    m = _n(rng, 0, 3)
    a = _u(rng, 0.3, 1.5)
    b = a + 2.0 * m - 0.9 + _u(rng, 0.3, 2.5)
    return {"a": a, "b": b, "c": _u(rng, 0.5, 4.0), "n": _n(rng, 0, 3), "m": m}


_register(
    "F32HalfMinusM",
    lhs=lambda p: PFQSpec(
        [p["a"], p["b"] - p["m"], p["c"] + p["n"]],
        [(p["a"] + p["b"] + 1.0) / 2.0, p["c"]],
        p["z"],
    ),
    rhs=rd.f32_half_minus_signed_rhs,
    rules=(
        _positive("a", "c"),
        _rule("(b-a+1)/2 - m, (b-a+1)/2 off poles",
              lambda p: _off_poles(((p["b"] - p["a"] + 1.0) / 2.0 - p["m"],
                                    (p["b"] - p["a"] + 1.0) / 2.0))),
        # Inner gamma arguments (1+b+k+s)/2 - m for k+s >= 0 must stay off poles.
        _rule("(1+b)/2 - m off poles", lambda p: _off_poles(((1.0 + p["b"]) / 2.0 - p["m"],))),
        _rule("(1+b)/2 > m", lambda p: (1.0 + p["b"]) / 2.0 - p["m"] > 0.0),
    ),
    draw=_f32_half_minus_draw,
    description=(
        "3F2(a,b-m,c+n; (a+b+1)/2,c; 1/2) as a double binomial sum of "
        "half-argument gamma ratios with an alternating inner sign; of the "
        "two candidate printed forms this is the one that survives oracle "
        "testing (the other is kept in tests as a negative control)"
    ),
    fixed_z=0.5,
)

# -- z = 1 psi/beta family ---------------------------------------------------


_register(
    "F32UnityJL",
    lhs=lambda p: PFQSpec([p["a"], p["b"], p["b"]], [p["b"] + 1.0, p["b"] + 1.0], p["z"]),
    rhs=rd.f32_unity_jl_rhs,
    rules=(_positive("b"), _A_BELOW_1,
           _rule("1+b-a off poles", lambda p: _off_poles((1.0 + p["b"] - p["a"],)))),
    draw=lambda rng: {"a": _u(rng, -3.0, 0.4), "b": _u(rng, 0.3, 3.0)},
    description=(
        "3F2(a,b,b; b+1,b+1; 1) as b^2 B(1-a,b) [psi(1+b-a) - psi(b)]"
    ),
    fixed_z=1.0,
)


_register(
    "F43Unity",
    lhs=lambda p: PFQSpec(
        [p["a"], p["b"], p["b"], p["c"] + p["n"]],
        [p["b"] + 1.0, p["b"] + 1.0, p["c"]],
        p["z"],
    ),
    rhs=rd.f43_unity_rhs,
    rules=(
        _positive("b", "c"),
        _A_BELOW_1,
        _rule(f"|b - c| >= {POLE_DIST}", lambda p: not abs(p["b"] - p["c"]) < POLE_DIST,
              DegenerateParametersError),
        _rule("1+b-a, 1+b-c, 1+b-c-n off poles",
              lambda p: _off_poles((1.0 + p["b"] - p["a"], 1.0 + p["b"] - p["c"],
                                    1.0 + p["b"] - p["c"] - p["n"]))),
        _rule("(c-b)_n off poles",
              lambda p: _off_poles(p["c"] - p["b"] + j for j in range(p["n"]))),
    ),
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
    fixed_z=1.0,
)

_register(
    "F32UnityBB",
    lhs=lambda p: PFQSpec(
        [p["a"], p["b"], p["b"] + p["n"]], [p["b"] + 1.0, p["b"] + 1.0], p["z"]
    ),
    rhs=rd.f32_unity_bb_rhs,
    rules=(_positive("b"), *_N_POSITIVE_A_BELOW_1),
    draw=lambda rng: (
        lambda n: {"a": _u(rng, -3.0, 0.45) - n, "b": _u(rng, 0.3, 3.0), "n": n}
    )(_n(rng, 1, 4)),
    description=(
        "3F2(a,b,b+n; b+1,b+1; 1) as (n-1)! b^2 B(1-a,b) / (b)_n, n >= 1"
    ),
    fixed_z=1.0,
)


_register(
    "F43UnityNM",
    lhs=lambda p: PFQSpec(
        [p["a"], p["b"], p["b"] + p["n"], p["c"] + p["m"]],
        [p["b"] + 1.0, p["b"] + 1.0, p["c"]],
        p["z"],
    ),
    rhs=rd.f43_unity_nm_rhs,
    rules=(
        _positive("b", "c"),
        *_N_POSITIVE_A_BELOW_1,
        _rule("(c-b)_m off poles",
              lambda p: _off_poles(p["c"] - p["b"] + j for j in range(p["m"]))),
    ),
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
    fixed_z=1.0,
)

# -- Bessel family -----------------------------------------------------------

_register(
    "F01Bessel",
    lhs=lambda p: PFQSpec([], [p["b"]], p["z"]),
    rhs=rd.f01_bessel_rhs,
    rules=(_positive("b", "z"),),
    draw=lambda rng: {"b": _u(rng, 0.3, 5.0), "z": _u(rng, 0.05, 20.0)},
    description=(
        "0F1(;b;z) in terms of the modified Bessel function of the first kind, "
        "z^((1-b)/2) Gamma(b) I_{b-1}(2 sqrt(z))"
    ),
)

_register(
    "F12BesselI",
    lhs=lambda p: PFQSpec([p["c"] + p["n"]], [p["b"], p["c"]], p["z"]),
    rhs=rd.f12_bessel_i_rhs,
    rules=(_positive("b", "c", "z"),),
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
)

_register(
    "F23BesselI",
    lhs=lambda p: PFQSpec(
        [p["c"] + p["n"], p["d"] + p["m"]], [p["b"], p["c"], p["d"]], p["z"]
    ),
    rhs=rd.f23_bessel_i_rhs,
    rules=(_positive("b", "c", "d", "z"),),
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
)

_register(
    "F12BesselJ",
    lhs=lambda p: PFQSpec([p["c"] + p["n"]], [p["b"], p["c"]], -p["z"]),
    rhs=rd.f12_bessel_j_rhs,
    rules=(_positive("b", "c", "z"),),
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
)

_register(
    "F23BesselJ",
    lhs=lambda p: PFQSpec(
        [p["c"] + p["n"], p["d"] + p["m"]], [p["b"], p["c"], p["d"]], -p["z"]
    ),
    rhs=rd.f23_bessel_j_rhs,
    rules=(_positive("b", "c", "d", "z"),),
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
)

# -- incomplete gamma / Laguerre family -------------------------------------

_register(
    "F11IncGamma",
    lhs=lambda p: PFQSpec([p["a"]], [p["a"] + 1.0], -p["z"]),
    rhs=rd.f11_inc_gamma_rhs,
    rules=(_positive("a", "z"),),
    draw=lambda rng: {"a": _u(rng, 0.3, 4.0), "z": _u(rng, 0.1, 8.0)},
    description=(
        "1F1(a; a+1; -z), z > 0, as a z^(-a) times the lower incomplete gamma "
        "function at (a, z)"
    ),
)

_register(
    "F22IncGamma",
    lhs=lambda p: PFQSpec([p["a"], p["c"] + p["n"]], [p["a"] + 1.0, p["c"]], -p["z"]),
    rhs=rd.f22_inc_gamma_rhs,
    rules=(_positive("a", "c", "z"),),
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
)

_register(
    "F11Laguerre",
    lhs=lambda p: PFQSpec([p["a"] + p["n"]], [p["a"]], p["z"]),
    rhs=rd.f11_laguerre_rhs,
    rules=(_positive("a"),),
    draw=lambda rng: {"a": _u(rng, 0.3, 4.0), "n": _n(rng, 0, 6), "z": _u(rng, -3.0, 3.0)},
    description=(
        "1F1(a+n; a; z) as n!/(a)_n e^z times the generalized Laguerre "
        "polynomial L_n^(a-1)(-z)"
    ),
)

_register(
    "F22Laguerre",
    lhs=lambda p: PFQSpec([p["a"] + p["n"], p["b"] + p["m"]], [p["a"], p["b"]], p["z"]),
    rhs=rd.f22_laguerre_rhs,
    rules=(_positive("a", "b"),),
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
)

_register(
    "F33Laguerre",
    lhs=lambda p: PFQSpec(
        [p["a"] + p["n"], p["b"] + p["m"], p["c"] + p["k"]],
        [p["a"], p["b"], p["c"]],
        p["z"],
    ),
    rhs=rd.f33_laguerre_rhs,
    rules=(_positive("a", "b", "c"),),
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
)

# -- arbitrary-p incomplete-beta family -------------------------------------


_register(
    "Mp1FmIncBeta",
    lhs=lambda p: PFQSpec(
        list(p["a"]) + [p["b"]], [al + 1.0 for al in p["a"]], p["z"]
    ),
    rhs=rd.m1m_inc_beta_rhs,
    rules=(*_A_LIST, _Z_IN_UNIT_INTERVAL),
    draw=lambda rng: {
        "a": _distinct_list(rng, _n(rng, 1, 4), 0.3, 4.0),
        "b": _u(rng, -2.0, 0.8),
        "z": _u(rng, 0.1, 0.9),
    },
    description=(
        "(m+1)Fm(b,a_1..a_m; a_1+1..a_m+1; z) as a partial-fraction sum of "
        "incomplete beta values, pairwise-distinct a's"
    ),
)

def _pp2_lhs(p: dict) -> PFQSpec:
    return PFQSpec(
        list(p["a"]) + [p["b"], p["c"] + p["n"]],
        [al + 1.0 for al in p["a"]] + [p["c"]],
        p["z"],
    )


_register(
    "Pp2Fp1IncBeta",
    lhs=_pp2_lhs,
    rhs=rd.pp2_inc_beta_rhs,
    rules=(_positive("c"), *_A_LIST, _Z_IN_UNIT_INTERVAL),
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
)


_register(
    "Pp2Fp1Literature",
    lhs=_pp2_lhs,
    rhs=rd.pp2_literature_rhs,
    rules=(_positive("c"), *_A_LIST, _a_above("n"), _Z_IN_UNIT_INTERVAL),
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
)

_register(
    "F21Contiguous",
    lhs=lambda p: PFQSpec([p["b"], p["c"] + p["n"]], [p["c"]], p["z"]),
    rhs=rd.f21_contiguous_rhs,
    rules=(_positive("c"), _Z_IN_UNIT_DISK),
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
)


_register(
    "Pp2Fp1Unity",
    lhs=_pp2_lhs,
    rhs=rd.pp2_unity_rhs,
    rules=(
        _positive("c"),
        *_A_LIST,
        _rule("b < 1", lambda p: 1.0 - p["b"] > 0.0),
        _rule("(c-a)_n off poles",
              lambda p: _off_poles(p["c"] - al + j for al in p["a"] for j in range(p["n"]))),
    ),
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
    fixed_z=1.0,
)


def _pp3_lhs(p: dict) -> PFQSpec:
    return PFQSpec(
        list(p["a"]) + [p["b"], p["c"] + p["n"], p["d"] + p["m"]],
        [al + 1.0 for al in p["a"]] + [p["c"], p["d"]],
        p["z"],
    )


_register(
    "Pp3Fp2H",
    lhs=_pp3_lhs,
    rhs=rd.pp3_h_rhs,
    rules=(_positive("c", "d"), *_A_LIST, _a_above("m"), _Z_IN_UNIT_INTERVAL),
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
)

_register(
    "Pp3Fp2IncBeta",
    lhs=_pp3_lhs,
    rhs=rd.pp3_inc_beta_rhs,
    rules=(_positive("c", "d"), *_A_LIST, _Z_IN_UNIT_INTERVAL),
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
)


_register(
    "Pp3Fp2Unity",
    lhs=_pp3_lhs,
    rhs=rd.pp3_unity_rhs,
    rules=(
        _positive("c", "d"),
        *_A_LIST,
        _rule("b < 1 - max(n, m)", lambda p: p["b"] < 1.0 - max(p["n"], p["m"])),
        _rule("(c-a)_n and (d-a)_m off poles",
              lambda p: _off_poles(p["c"] - al + j for al in p["a"] for j in range(p["n"]))
              and _off_poles(p["d"] - al + j for al in p["a"] for j in range(p["m"]))),
    ),
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
    fixed_z=1.0,
)

_register(
    "F32P0",
    lhs=lambda p: PFQSpec(
        [p["b"], p["c"] + p["n"], p["d"] + p["m"]], [p["c"], p["d"]], p["z"]
    ),
    rhs=rd.f32_p0_rhs,
    rules=(_positive("c", "d"), _Z_IN_UNIT_DISK),
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
)
