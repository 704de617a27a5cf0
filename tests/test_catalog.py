from __future__ import annotations

import hashlib
import math
from typing import Sequence

import numpy as np
import pytest

import hyperreduce
from hyperreduce import catalog, verifier
from hyperreduce.catalog import ReductionRequest
from hyperreduce.errors import (
    DegenerateParametersError,
    DomainError,
    UnsatisfiableDomainError,
)
from hyperreduce.reductions import DISTINCT_TOL
from hyperreduce.series import Status, eval_pfq


def test_catalog_size_and_ordinals():
    ids = catalog.catalog_ids()
    assert len(ids) == 28
    ordinals = [catalog.get_entry(i).ordinal for i in ids]
    assert sorted(ordinals) == list(range(28))


def test_no_closed_form_reaches_the_oracle(monkeypatch):
    # Every closed form, special function and lemma is independent of the
    # series oracle, so a defect in eval_pfq cannot hit both sides of a
    # verdict.  expand_main, reduce_corollary and shifted_pfp_damped (the
    # oracle's side of the polynomial check) call it on purpose, and no entry
    # uses them.
    def stub(*args, **kwargs):
        raise AssertionError("a closed form called eval_pfq")

    requests = [verifier.sample_cases(i, 1, 1)[0].request for i in catalog.catalog_ids()]
    for module in vars(hyperreduce).values():
        if hasattr(module, "eval_pfq") and module is not hyperreduce:
            monkeypatch.setattr(module, "eval_pfq", stub)
    assert len(requests) == 28
    for req in requests:
        assert math.isfinite(catalog.reduce(req).value)
    coeffs = hyperreduce.pfp_polynomial_coeffs([1.3, 2.1], [1, 2])
    assert len(coeffs) == 4


def test_unknown_id():
    with pytest.raises(KeyError):
        catalog.get_entry("NoSuchId")


def test_f32_half_bateman_n0():
    # collapses to 2F1(1,1;2;1/2) = 2 ln 2
    req = ReductionRequest("F32HalfBateman", {"a": 1.0, "c": 2.5}, {"n": 0})
    res = catalog.reduce(req)
    assert res.value == pytest.approx(2.0 * math.log(2.0), rel=1e-13)
    assert res.status is Status.CONVERGED
    oracle = eval_pfq(catalog.lhs_spec(req))
    assert res.value == pytest.approx(oracle.value, rel=1e-12)


def test_f21_contiguous_example():
    req = ReductionRequest("F21Contiguous", {"b": 0.7, "c": 1.4}, {"n": 2}, 0.3)
    res = catalog.reduce(req)
    oracle = eval_pfq(catalog.lhs_spec(req), tol=1e-16)
    assert res.value == pytest.approx(oracle.value, rel=1e-11)


def test_pp2_unity_example():
    req = ReductionRequest(
        "Pp2Fp1Unity", {"a": (0.4, 1.3), "b": -0.5, "c": 2.0}, {"n": 1}
    )
    res = catalog.reduce(req)
    oracle = eval_pfq(catalog.lhs_spec(req), tol=1e-13, max_terms=400_000)
    assert res.value == pytest.approx(oracle.value, rel=1e-8)


def test_lhs_spec_transcriptions():
    spec = catalog.lhs_spec(
        ReductionRequest("F12BesselI", {"b": 1.5, "c": 2.0}, {"n": 1}, 0.4)
    )
    assert spec.upper == (3.0,)
    assert spec.lower == (1.5, 2.0)
    assert spec.z == 0.4

    spec = catalog.lhs_spec(
        ReductionRequest("F22Laguerre", {"a": 1.0, "b": 2.0}, {"n": 1, "m": 1}, 0.5)
    )
    assert spec.upper == (2.0, 3.0)
    assert spec.lower == (1.0, 2.0)
    assert spec.z == 0.5

    spec = catalog.lhs_spec(
        ReductionRequest("F32P0", {"b": 0.6, "c": 1.1, "d": 2.2}, {"n": 1, "m": 2}, -0.4)
    )
    assert spec.upper == (0.6, 2.1, 4.2)
    assert spec.lower == (1.1, 2.2)
    assert spec.z == -0.4


def test_bessel_j_lhs_uses_negated_argument():
    spec = catalog.lhs_spec(
        ReductionRequest("F12BesselJ", {"b": 1.5, "c": 2.0}, {"n": 1}, 0.4)
    )
    assert spec.z == -0.4


def test_signature_validation():
    with pytest.raises(ValueError):
        catalog.reduce(ReductionRequest("F21Contiguous", {"b": 0.7}, {"n": 2}, 0.3))
    with pytest.raises(ValueError):
        catalog.reduce(
            ReductionRequest(
                "F21Contiguous", {"b": 0.7, "c": 1.4, "d": 1.0}, {"n": 2}, 0.3
            )
        )
    with pytest.raises(ValueError):
        catalog.reduce(
            ReductionRequest("F21Contiguous", {"b": 0.7, "c": 1.4}, {"n": 2, "m": 1}, 0.3)
        )
    with pytest.raises(DomainError, match="^n must be an integer >= 0"):
        catalog.reduce(ReductionRequest("F21Contiguous", {"b": 0.7, "c": 1.4}, {"n": -1}, 0.3))
    with pytest.raises(ValueError):
        catalog.reduce(ReductionRequest("F21Contiguous", {"b": 0.7, "c": 1.4}, {"n": 2}))
    # fixed-z entry: explicit mismatching z rejected
    with pytest.raises(ValueError):
        catalog.reduce(ReductionRequest("F21HalfBateman", {"a": 1.0}, {"n": 1}, 0.3))
    # a shift is what operator.index accepts, as for the lemmas: not 2.0, and
    # a non-finite shift gets the same message, not int()'s own error; nor is
    # True, which operator.index reads as 1
    for shift in (2.0, math.inf, math.nan, True):
        with pytest.raises(DomainError, match="^n must be an integer >= 0"):
            catalog.reduce(ReductionRequest("F21Contiguous", {"b": 0.7, "c": 1.4}, {"n": shift}, 0.3))
    # a string list parameter is not read character by character as (1.0, 2.0)
    for value in ("12", b"12"):
        with pytest.raises(ValueError, match="parameter list 'a'"):
            catalog.reduce(ReductionRequest("Mp1FmIncBeta", {"a": value, "b": -0.5}, {}, 0.5))
    # nor is a string parsed as a number: float("0.7") would read 0.7, and
    # float(True) 1.0
    for value in ("0.7", b"0.7", True):
        with pytest.raises(ValueError, match="parameter 'b' must be a number"):
            catalog.reduce(ReductionRequest("F21Contiguous", {"b": value, "c": 1.4}, {"n": 1}, 0.3))
        with pytest.raises(ValueError, match="parameter 'z' must be a number"):
            catalog.lhs_spec(ReductionRequest("F21Contiguous", {"b": 0.7, "c": 1.4}, {"n": 1}, value))
        with pytest.raises(ValueError, match="parameter 'a' must be a number"):
            catalog.reduce(ReductionRequest("Mp1FmIncBeta", {"a": (value,), "b": -0.5}, {}, 0.5))
    with pytest.raises(ValueError, match="^F21HalfBateman: z is fixed at 0.5, got '0.5'$"):
        catalog.reduce(ReductionRequest("F21HalfBateman", {"a": 1.0}, {"n": 1}, "0.5"))


# Each entry's (scalar_names, list_names, shift_names, fixed_z), as the
# registrations stated them before the names were read from the rhs.
SIGNATURES = {
    "F32HalfBateman": (("a", "c"), (), ("n",), 0.5),
    "F21HalfBateman": (("a",), (), ("n",), 0.5),
    "F21NegUnit": (("a",), (), ("n",), -1.0),
    "F32HalfPlusM": (("a", "b", "c"), (), ("n", "m"), 0.5),
    "F32HalfMinusM": (("a", "b", "c"), (), ("n", "m"), 0.5),
    "F32UnityJL": (("a", "b"), (), (), 1.0),
    "F43Unity": (("a", "b", "c"), (), ("n",), 1.0),
    "F32UnityBB": (("a", "b"), (), ("n",), 1.0),
    "F43UnityNM": (("a", "b", "c"), (), ("n", "m"), 1.0),
    "F01Bessel": (("b",), (), (), None),
    "F12BesselI": (("b", "c"), (), ("n",), None),
    "F23BesselI": (("b", "c", "d"), (), ("n", "m"), None),
    "F12BesselJ": (("b", "c"), (), ("n",), None),
    "F23BesselJ": (("b", "c", "d"), (), ("n", "m"), None),
    "F11IncGamma": (("a",), (), (), None),
    "F22IncGamma": (("a", "c"), (), ("n",), None),
    "F11Laguerre": (("a",), (), ("n",), None),
    "F22Laguerre": (("a", "b"), (), ("n", "m"), None),
    "F33Laguerre": (("a", "b", "c"), (), ("n", "m", "k"), None),
    "Mp1FmIncBeta": (("a", "b"), ("a",), (), None),
    "Pp2Fp1IncBeta": (("a", "b", "c"), ("a",), ("n",), None),
    "Pp2Fp1Literature": (("a", "b", "c"), ("a",), ("n",), None),
    "F21Contiguous": (("b", "c"), (), ("n",), None),
    "Pp2Fp1Unity": (("a", "b", "c"), ("a",), ("n",), 1.0),
    "Pp3Fp2H": (("a", "b", "c", "d"), ("a",), ("n", "m"), None),
    "Pp3Fp2IncBeta": (("a", "b", "c", "d"), ("a",), ("n", "m"), None),
    "Pp3Fp2Unity": (("a", "b", "c", "d"), ("a",), ("n", "m"), 1.0),
    "F32P0": (("b", "c", "d"), (), ("n", "m"), None),
}


def test_signatures_read_from_rhs():
    assert list(SIGNATURES) == catalog.catalog_ids()
    for entry_id, signature in SIGNATURES.items():
        entry = catalog.get_entry(entry_id)
        assert (entry.scalar_names, entry.list_names, entry.shift_names, entry.fixed_z) == signature


def _free_z(a: Sequence[float], b: float, n: int, z: float): ...
def _fixed_z(a: float, n: int, m: int): ...
def _shift_first(n: int, a: float, z: float): ...
def _z_not_last(a: float, z: float, n: int): ...
def _no_z(a: float, n: int): ...
def _unannotated(a, n: int, z: float): ...
def _other_annotation(a: complex, z: float): ...


def test_rhs_signature_derivation():
    # A pure helper: these calls register nothing into the catalog.
    assert catalog._rhs_signature(_free_z, None) == (("a", "b"), ("a",), ("n",))
    assert catalog._rhs_signature(_fixed_z, 1.0) == (("a",), (), ("n", "m"))
    bad = [
        (_shift_first, None),  # a shift before a scalar
        (_z_not_last, None),
        (_no_z, None),  # z is free but not a parameter
        (_free_z, 0.5),  # z is fixed but still a parameter
        (_unannotated, None),
        (_other_annotation, None),
    ]
    for rhs, fixed_z in bad:
        with pytest.raises(TypeError, match=rhs.__name__):
            catalog._rhs_signature(rhs, fixed_z)
    assert len(catalog.catalog_ids()) == 28


def test_domain_validation():
    with pytest.raises(DegenerateParametersError):
        catalog.reduce(
            ReductionRequest("F43Unity", {"a": 0.2, "b": 1.0, "c": 1.0}, {"n": 1})
        )
    with pytest.raises(DomainError):
        catalog.reduce(
            ReductionRequest(
                "Pp3Fp2Unity",
                {"a": (0.5, 1.5), "b": 0.5, "c": 1.0, "d": 1.0},
                {"n": 2, "m": 1},
            )
        )  # violates b < 1 - max(n, m)
    with pytest.raises(DegenerateParametersError):
        catalog.reduce(
            ReductionRequest(
                "Mp1FmIncBeta", {"a": (0.5, 0.5 + 1e-8), "b": -0.5}, {}, 0.5
            )
        )
    with pytest.raises(DomainError):
        catalog.reduce(ReductionRequest("F32P0", {"b": 0.6, "c": 1.1, "d": 2.2}, {"n": 1, "m": 1}, 1.0))
    with pytest.raises(DomainError):
        catalog.reduce(ReductionRequest("F01Bessel", {"b": 1.5}, {}, -1.0))
    with pytest.raises(DomainError):
        catalog.reduce(ReductionRequest("F32UnityBB", {"a": 0.2, "b": 1.0}, {"n": 0}))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_f43_unity_b_near_c_is_degenerate(n):
    # One rule rejects |b - c| < 0.05, ahead of the psi-pole check that
    # 1 + b - c - n would otherwise trip for n >= 1.
    with pytest.raises(DegenerateParametersError, match=r"\|b - c\|"):
        catalog.reduce(
            ReductionRequest("F43Unity", {"a": 0.2, "b": 1.0, "c": 1.01}, {"n": n})
        )


def test_sampling_determinism():
    for entry_id in ("F21Contiguous", "Pp3Fp2Unity", "F43Unity"):
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        reqs1 = [catalog.sample_request(entry_id, rng1) for _ in range(5)]
        reqs2 = [catalog.sample_request(entry_id, rng2) for _ in range(5)]
        assert reqs1 == reqs2


def test_sampling_respects_constraints():
    rng = np.random.default_rng(7)
    for _ in range(10):
        req = catalog.sample_request("Pp3Fp2Unity", rng)
        assert req.scalars["b"] < 1.0 - max(req.shifts["n"], req.shifts["m"])
    rng = np.random.default_rng(1)
    for _ in range(10):
        req = catalog.sample_request("F43Unity", rng)
        assert abs(req.scalars["b"] - req.scalars["c"]) >= 0.05


def test_sample_request_gives_up_after_max_draws():
    entry = catalog.get_entry("F21Contiguous")
    original = entry.draw
    draws = []

    def out_of_domain(rng):  # c > 0 is one of the entry's rules
        draws.append(rng)
        return {"b": 0.7, "c": -1.4, "n": 2, "z": 0.3}

    try:
        object.__setattr__(entry, "draw", out_of_domain)  # CatalogEntry is frozen
        with pytest.raises(UnsatisfiableDomainError,
                           match="^could not sample an in-domain case for F21Contiguous in 500 draws$"):
            catalog.sample_request("F21Contiguous", np.random.default_rng(0))
    finally:
        object.__setattr__(entry, "draw", original)
    assert len(draws) == catalog._MAX_DRAWS == 500


def test_sampled_requests_are_in_domain_everywhere():
    rng = np.random.default_rng(5)
    for entry_id in catalog.catalog_ids():
        for _ in range(3):
            req = catalog.sample_request(entry_id, rng)
            # must not raise
            catalog.reduce(req)
            catalog.lhs_spec(req)


def test_sampled_request_unpacks_as_a_rebuilt_one():
    # A sampled request skips the checks in _unpack; its params are the ones
    # the full check gives, in the same order.
    for seed in (0, 1, 4242):
        for entry_id in catalog.catalog_ids():
            entry = catalog.get_entry(entry_id)
            for case in verifier.sample_cases(entry_id, 200, seed):
                req = case.request
                rebuilt = ReductionRequest(req.id, dict(req.scalars), dict(req.shifts), req.z)
                assert type(rebuilt) is not type(req)
                assert repr(catalog._unpack(entry, req)) == repr(catalog._unpack(entry, rebuilt))


def test_sampled_request_is_read_only():
    req = catalog.sample_request("F21Contiguous", np.random.default_rng(3))
    with pytest.raises(TypeError):
        req.scalars["b"] = 0.5
    with pytest.raises(TypeError):
        req.shifts["n"] = -1
    with pytest.raises(AttributeError):
        req.extra = 1
    # an edited request is the caller's, and is checked in full
    edited = req._replace(z=2.0)
    assert type(edited) is ReductionRequest
    _assert_rejected(edited)


@pytest.mark.parametrize("entry_id", ["F43Unity", "F21Contiguous"])
def test_sampled_case_is_validated_once_per_draw(entry_id, monkeypatch):
    # sample_request checks each draw; lhs_spec and reduce do not check the
    # accepted one again.
    entry = catalog.get_entry(entry_id)
    original, validate = entry.draw, catalog._validate
    counts = {"draw": 0, "validate": 0}

    def counted_draw(rng):
        counts["draw"] += 1
        return original(rng)

    def counted_validate(entry, p):
        counts["validate"] += 1
        validate(entry, p)

    monkeypatch.setattr(catalog, "_validate", counted_validate)
    try:
        object.__setattr__(entry, "draw", counted_draw)  # CatalogEntry is frozen
        summary, _ = verifier.run_entry(entry_id, 40, 1)
    finally:
        object.__setattr__(entry, "draw", original)
    assert summary.passed + summary.failed + summary.skipped == 40
    assert counts["draw"] >= 40
    assert counts["validate"] == counts["draw"]


# Names each entry requires to be > 0 (scalars, and z where the series
# argument is -z or the closed form needs z > 0); list parameters are
# covered separately.
POSITIVE = {
    "F32HalfBateman": ("a", "c"),
    "F21HalfBateman": ("a",),
    "F21NegUnit": ("a",),
    "F32HalfPlusM": ("a", "b", "c"),
    "F32HalfMinusM": ("a", "c"),
    "F32UnityJL": ("b",),
    "F43Unity": ("b", "c"),
    "F32UnityBB": ("b",),
    "F43UnityNM": ("b", "c"),
    "F01Bessel": ("b", "z"),
    "F12BesselI": ("b", "c", "z"),
    "F23BesselI": ("b", "c", "d", "z"),
    "F12BesselJ": ("b", "c", "z"),
    "F23BesselJ": ("b", "c", "d", "z"),
    "F11IncGamma": ("a", "z"),
    "F22IncGamma": ("a", "c", "z"),
    "F11Laguerre": ("a",),
    "F22Laguerre": ("a", "b"),
    "F33Laguerre": ("a", "b", "c"),
    "Mp1FmIncBeta": (),
    "Pp2Fp1IncBeta": ("c",),
    "Pp2Fp1Literature": ("c",),
    "F21Contiguous": ("c",),
    "Pp2Fp1Unity": ("c",),
    "Pp3Fp2H": ("c", "d"),
    "Pp3Fp2IncBeta": ("c", "d"),
    "Pp3Fp2Unity": ("c", "d"),
    "F32P0": ("c", "d"),
}


def _replace(req, name, value):
    if name == "z":
        return ReductionRequest(req.id, req.scalars, req.shifts, value)
    return ReductionRequest(req.id, {**req.scalars, name: value}, req.shifts, req.z)


def _assert_rejected(req):
    with pytest.raises(DomainError):
        catalog.reduce(req)
    with pytest.raises(DomainError):
        catalog.lhs_spec(req)


@pytest.mark.parametrize("entry_id", catalog.catalog_ids())
def test_shared_domain_rules_reject(entry_id):
    entry = catalog.get_entry(entry_id)
    req = catalog.sample_request(entry_id, np.random.default_rng(11))
    catalog.reduce(req)
    for name in POSITIVE[entry_id]:
        _assert_rejected(_replace(req, name, 0.0))
    for name in entry.list_names:
        values = req.scalars[name]
        _assert_rejected(_replace(req, name, (0.0,) + values[1:]))
        _assert_rejected(_replace(req, name, values + values[:1]))


@pytest.mark.parametrize("entry_id", catalog.catalog_ids())
def test_constraints_state_each_shared_rule_once(entry_id):
    # The clauses are the rule texts in the order _validate applies them.
    # The shared rules come first and last; what lies between states only
    # what the entry's own rules add.
    entry = catalog.get_entry(entry_id)
    clauses = entry.constraints.split("; ")
    assert clauses == [text for text, _, _ in entry.rules]
    if POSITIVE[entry_id]:
        assert clauses.pop(0) == ", ".join(POSITIVE[entry_id]) + " > 0"
    for name in entry.list_names:
        assert clauses.pop(0) == f"{name}'s pairwise distinct"
        assert clauses.pop(0) == f"{name}'s > 0"
    assert (clauses[-1:] == ["convergent at z = 1"]) == entry.unity
    own = "; ".join(clauses[:-1] if entry.unity else clauses)
    assert "pairwise distinct" not in own and "convergent" not in own
    assert not any(f"{name} > 0" in own for name in POSITIVE[entry_id])


# A pole rule each of these entries' checks enforces.
POLE_RULES = {
    "F32HalfMinusM": "(1+b)/2 - m off poles",
    "F32UnityJL": "1+b-a off poles",
    "F43Unity": "(c-b)_n off poles",
    "Pp2Fp1Unity": "(c-a)_n off poles",
    "Pp3Fp2Unity": "(c-a)_n and (d-a)_m off poles",
}


@pytest.mark.parametrize("entry_id", POLE_RULES)
def test_constraints_name_the_pole_rules(entry_id):
    assert POLE_RULES[entry_id] in catalog.get_entry(entry_id).constraints


def test_reduce_refuses_a_non_finite_closed_form():
    # (b)_k and (c)_k both overflow from k ~ 170, and inf/inf is NaN.
    req = ReductionRequest("F21Contiguous", {"b": 0.5, "c": 1.0}, {"n": 1000}, 0.3)
    with pytest.raises(OverflowError, match="^F21Contiguous: closed form value nan is not finite$"):
        catalog.reduce(req)


# z = 1 requests that satisfy every rule except convergence of the series.
DIVERGENT_AT_UNITY = [
    ReductionRequest("F43Unity", {"a": 0.5, "b": 1.0, "c": 2.5}, {"n": 2}),
    ReductionRequest("F32UnityBB", {"a": 0.5, "b": 1.0}, {"n": 2}),
    ReductionRequest("F43UnityNM", {"a": 0.5, "b": 1.0, "c": 2.5}, {"n": 1, "m": 1}),
    ReductionRequest("Pp2Fp1Unity", {"a": (1.0,), "b": 0.5, "c": 2.5}, {"n": 1}),
    ReductionRequest(
        "Pp3Fp2Unity", {"a": (1.0,), "b": -0.5, "c": 2.5, "d": 3.5}, {"n": 1, "m": 1}
    ),
]


@pytest.mark.parametrize("req", DIVERGENT_AT_UNITY, ids=lambda r: r.id)
def test_unity_margin_rejects(req):
    with pytest.raises(DomainError, match="^requires convergent at z = 1$"):
        catalog.reduce(req)
    with pytest.raises(DomainError, match="^requires convergent at z = 1$"):
        catalog.lhs_spec(req)


NON_FINITE = [
    ReductionRequest("F21Contiguous", {"b": math.nan, "c": 1.4}, {"n": 2}, 0.3),
    ReductionRequest("F21Contiguous", {"b": math.inf, "c": 1.4}, {"n": 2}, 0.3),
    ReductionRequest("Mp1FmIncBeta", {"a": (0.5, math.inf), "b": -0.5}, {}, 0.5),
    ReductionRequest("F11Laguerre", {"a": 1.0}, {"n": 1}, math.nan),
]


@pytest.mark.parametrize("req", NON_FINITE, ids=lambda r: r.id)
def test_non_finite_input_rejected(req):
    _assert_rejected(req)


# One request per domain rule that the closed forms in ``reductions`` leave to
# the catalog; each breaks that rule and no other.
OUT_OF_DOMAIN = [
    ("b=c", ReductionRequest("F43Unity", {"a": 0.5, "b": 1.2, "c": 1.2}, {"n": 1})),
    ("n=0", ReductionRequest("F32UnityBB", {"a": 0.5, "b": 1.5}, {"n": 0})),
    ("n=0", ReductionRequest("F43UnityNM", {"a": -1.0, "b": 1.5, "c": 2.5}, {"n": 0, "m": 1})),
    ("z=0", ReductionRequest("F01Bessel", {"b": 1.5}, {}, 0.0)),
    ("z<0", ReductionRequest("F12BesselI", {"b": 0.7, "c": 1.3}, {"n": 1}, -2.0)),
    ("z=0", ReductionRequest("F12BesselJ", {"b": 0.7, "c": 1.3}, {"n": 1}, 0.0)),
    ("z=0", ReductionRequest("F23BesselI", {"b": 0.7, "c": 1.3, "d": 2.5}, {"n": 1, "m": 1}, 0.0)),
    ("z<0", ReductionRequest("F23BesselJ", {"b": 0.7, "c": 1.3, "d": 2.5}, {"n": 1, "m": 1}, -2.0)),
    ("z=-1", ReductionRequest("F11IncGamma", {"a": 0.6}, {}, -1.0)),
    ("z=0", ReductionRequest("F22IncGamma", {"a": 0.6, "c": 1.3}, {"n": 1}, 0.0)),
    ("z=1", ReductionRequest("Mp1FmIncBeta", {"a": (0.5, 1.5), "b": -0.5}, {}, 1.0)),
    ("z=1", ReductionRequest("Pp2Fp1IncBeta", {"a": (0.5, 1.5), "b": -0.5, "c": 2.0}, {"n": 1}, 1.0)),
    ("z=0", ReductionRequest("Pp2Fp1Literature", {"a": (2.5,), "b": 0.2, "c": 2.5}, {"n": 2}, 0.0)),
    ("z=1", ReductionRequest("F21Contiguous", {"b": 0.5, "c": 1.3}, {"n": 1}, 1.0)),
    ("z=1", ReductionRequest("Pp3Fp2H", {"a": (2.5,), "b": 0.2, "c": 2.5, "d": 1.5}, {"n": 1, "m": 2}, 1.0)),
    (
        "z=1",
        ReductionRequest(
            "Pp3Fp2IncBeta", {"a": (0.5, 1.5), "b": -0.5, "c": 2.0, "d": 2.5}, {"n": 1, "m": 1}, 1.0
        ),
    ),
    (
        "b>=1-max(n,m)",
        ReductionRequest(
            "Pp3Fp2Unity", {"a": (0.5, 1.5), "b": -0.5, "c": 2.5, "d": 3.5}, {"n": 2, "m": 1}
        ),
    ),
    ("z=1", ReductionRequest("F32P0", {"b": 0.5, "c": 1.3, "d": 2.5}, {"n": 1, "m": 1}, 1.0)),
    ("z=1.2", ReductionRequest("F32P0", {"b": 0.5, "c": 1.3, "d": 2.5}, {"n": 1, "m": 1}, 1.2)),
    ("repeated-a", ReductionRequest("Pp2Fp1Unity", {"a": (0.5, 0.5), "b": 0.5, "c": 2.5}, {"n": 1})),
    ("(b-a+1)/2=0", ReductionRequest("F32HalfMinusM", {"a": 2.0, "b": 1.0, "c": 1.3}, {"n": 1, "m": 0})),
    ("(1+b)/2-m=0.03",
     ReductionRequest("F32HalfMinusM", {"a": 0.5, "b": 1.06, "c": 1.3}, {"n": 1, "m": 1})),
    ("(1+b)/2<m", ReductionRequest("F32HalfMinusM", {"a": 0.5, "b": 0.0, "c": 1.3}, {"n": 1, "m": 1})),
    ("a=1.5", ReductionRequest("F32UnityJL", {"a": 1.5, "b": 1.0}, {})),
    ("1+b-a=0.03", ReductionRequest("F32UnityJL", {"a": 0.99, "b": 0.02}, {})),
    ("a=1.5", ReductionRequest("F43Unity", {"a": 1.5, "b": 1.0, "c": 2.5}, {"n": 1})),
    ("|b-c|<0.05", ReductionRequest("F43Unity", {"a": 0.5, "b": 1.0, "c": 1.01}, {"n": 0})),
    ("1+b-c=0", ReductionRequest("F43Unity", {"a": 0.5, "b": 1.0, "c": 2.0}, {"n": 1})),
    ("c-b=-1", ReductionRequest("F43Unity", {"a": 0.5, "b": 2.5, "c": 1.5}, {"n": 1})),
    ("a=1.5", ReductionRequest("F32UnityBB", {"a": 1.5, "b": 1.0}, {"n": 1})),
    ("a=1.5", ReductionRequest("F43UnityNM", {"a": 1.5, "b": 1.5, "c": 2.5}, {"n": 1, "m": 1})),
    ("c-b=-1", ReductionRequest("F43UnityNM", {"a": -1.0, "b": 2.5, "c": 1.5}, {"n": 1, "m": 1})),
    ("a=n-1", ReductionRequest("Pp2Fp1Literature", {"a": (1.0,), "b": 0.2, "c": 2.5}, {"n": 2}, 0.5)),
    ("b=1.5", ReductionRequest("Pp2Fp1Unity", {"a": (0.5, 1.5), "b": 1.5, "c": 2.5}, {"n": 1})),
    ("c-a=-1", ReductionRequest("Pp2Fp1Unity", {"a": (2.5,), "b": -2.0, "c": 1.5}, {"n": 1})),
    ("a=m-1", ReductionRequest("Pp3Fp2H", {"a": (1.0,), "b": 0.2, "c": 2.5, "d": 1.5}, {"n": 1, "m": 2}, 0.5)),
    (
        "c-a=-1",
        ReductionRequest(
            "Pp3Fp2Unity", {"a": (2.5,), "b": -2.5, "c": 1.5, "d": 3.5}, {"n": 1, "m": 1}
        ),
    ),
    # The shared rules: the names that must be > 0, the list rule, and
    # convergence at z = 1.
    ("c=0", ReductionRequest("F32HalfBateman", {"a": 0.6, "c": 0.0}, {"n": 1})),
    ("a=0", ReductionRequest("F21HalfBateman", {"a": 0.0}, {"n": 1})),
    ("a<0", ReductionRequest("F21NegUnit", {"a": -0.5}, {"n": 2})),
    ("b=0", ReductionRequest("F32HalfPlusM", {"a": 0.5, "b": 0.0, "c": 1.3}, {"n": 1, "m": 1})),
    ("c=0", ReductionRequest("F32HalfMinusM", {"a": 0.5, "b": 1.5, "c": 0.0}, {"n": 1, "m": 0})),
    ("b=0", ReductionRequest("F32UnityJL", {"a": 0.5, "b": 0.0}, {})),
    ("c=0", ReductionRequest("F43Unity", {"a": 0.5, "b": 1.2, "c": 0.0}, {"n": 1})),
    ("b=0", ReductionRequest("F32UnityBB", {"a": 0.5, "b": 0.0}, {"n": 1})),
    ("c=0", ReductionRequest("F43UnityNM", {"a": -1.0, "b": 1.5, "c": 0.0}, {"n": 1, "m": 1})),
    ("a=0", ReductionRequest("F11Laguerre", {"a": 0.0}, {"n": 1}, 0.5)),
    ("b=0", ReductionRequest("F22Laguerre", {"a": 0.5, "b": 0.0}, {"n": 1, "m": 1}, 0.5)),
    ("c=0", ReductionRequest("F33Laguerre", {"a": 0.5, "b": 1.5, "c": 0.0}, {"n": 1, "m": 1, "k": 1}, 0.5)),
    ("c=0", ReductionRequest("Pp2Fp1IncBeta", {"a": (0.5, 1.5), "b": -0.5, "c": 0.0}, {"n": 1}, 0.5)),
    ("c=0", ReductionRequest("Pp2Fp1Literature", {"a": (2.5,), "b": 0.2, "c": 0.0}, {"n": 2}, 0.5)),
    ("c=0", ReductionRequest("F21Contiguous", {"b": 0.5, "c": 0.0}, {"n": 1}, 0.3)),
    ("c=0", ReductionRequest("Pp2Fp1Unity", {"a": (0.5, 1.5), "b": -2.0, "c": 0.0}, {"n": 1})),
    ("d=0", ReductionRequest("Pp3Fp2H", {"a": (2.5,), "b": 0.2, "c": 2.5, "d": 0.0}, {"n": 1, "m": 2}, 0.5)),
    (
        "d=0",
        ReductionRequest(
            "Pp3Fp2IncBeta", {"a": (0.5, 1.5), "b": -0.5, "c": 2.0, "d": 0.0}, {"n": 1, "m": 1}, 0.5
        ),
    ),
    (
        "d=0",
        ReductionRequest(
            "Pp3Fp2Unity", {"a": (0.5, 1.5), "b": -2.5, "c": 2.5, "d": 0.0}, {"n": 1, "m": 1}
        ),
    ),
    ("c=0", ReductionRequest("F32P0", {"b": 0.5, "c": 0.0, "d": 2.5}, {"n": 1, "m": 1}, 0.3)),
    ("repeated-a", ReductionRequest("Mp1FmIncBeta", {"a": (0.5, 0.5), "b": -0.5}, {}, 0.5)),
    ("a=0", ReductionRequest("Mp1FmIncBeta", {"a": (0.0, 1.5), "b": -0.5}, {}, 0.5)),
    ("repeated-a", ReductionRequest("Pp2Fp1IncBeta", {"a": (0.5, 0.5), "b": -0.5, "c": 2.0}, {"n": 1}, 0.5)),
    ("a=0", ReductionRequest("Pp2Fp1IncBeta", {"a": (0.0, 1.5), "b": -0.5, "c": 2.0}, {"n": 1}, 0.5)),
    ("repeated-a", ReductionRequest("Pp2Fp1Literature", {"a": (2.5, 2.5), "b": 0.2, "c": 2.5}, {"n": 2}, 0.5)),
    ("a<0", ReductionRequest("Pp2Fp1Literature", {"a": (-0.5, 2.5), "b": 0.2, "c": 2.5}, {"n": 0}, 0.5)),
    ("a=0", ReductionRequest("Pp2Fp1Unity", {"a": (0.0, 1.5), "b": -2.0, "c": 2.5}, {"n": 1})),
    (
        "repeated-a",
        ReductionRequest(
            "Pp3Fp2H", {"a": (2.5, 2.5), "b": 0.2, "c": 2.5, "d": 1.5}, {"n": 1, "m": 2}, 0.5
        ),
    ),
    (
        "a<0",
        ReductionRequest(
            "Pp3Fp2H", {"a": (-0.5, 2.5), "b": 0.2, "c": 2.5, "d": 1.5}, {"n": 1, "m": 0}, 0.5
        ),
    ),
    (
        "repeated-a",
        ReductionRequest(
            "Pp3Fp2IncBeta", {"a": (0.5, 0.5), "b": -0.5, "c": 2.0, "d": 2.5}, {"n": 1, "m": 1}, 0.5
        ),
    ),
    (
        "a=0",
        ReductionRequest(
            "Pp3Fp2IncBeta", {"a": (0.0, 1.5), "b": -0.5, "c": 2.0, "d": 2.5}, {"n": 1, "m": 1}, 0.5
        ),
    ),
    (
        "repeated-a",
        ReductionRequest(
            "Pp3Fp2Unity", {"a": (0.5, 0.5), "b": -2.5, "c": 2.5, "d": 3.5}, {"n": 1, "m": 1}
        ),
    ),
    (
        "a=0",
        ReductionRequest(
            "Pp3Fp2Unity", {"a": (0.0, 1.5), "b": -2.5, "c": 2.5, "d": 3.5}, {"n": 1, "m": 1}
        ),
    ),
    *(("divergent", req) for req in DIVERGENT_AT_UNITY),
    # The bounds on a and b again, within convergence at z = 1.
    ("a=1.2", ReductionRequest("F43Unity", {"a": 1.2, "b": 1.0, "c": 2.5}, {"n": 0})),
    ("b=1.5,n=0", ReductionRequest("Pp2Fp1Unity", {"a": (0.5, 1.5), "b": 1.5, "c": 2.5}, {"n": 0})),
    (
        "b>=1-max(n,m),p=3",
        ReductionRequest(
            "Pp3Fp2Unity", {"a": (0.5, 1.5, 2.5), "b": 0.2, "c": 3.7, "d": 4.7}, {"n": 1, "m": 1}
        ),
    ),
]


@pytest.mark.parametrize(
    "req", [req for _, req in OUT_OF_DOMAIN], ids=[f"{r.id}-{rule}" for rule, r in OUT_OF_DOMAIN]
)
def test_domain_is_decided_before_rhs(req):
    entry = catalog.get_entry(req.id)
    original = entry.rhs

    def rhs(*args):
        pytest.fail(f"{req.id}: rhs ran on out-of-domain arguments {args}")

    # CatalogEntry is frozen; swap its rhs for the length of the call.
    object.__setattr__(entry, "rhs", rhs)
    try:
        with pytest.raises(DomainError):
            catalog.reduce(req)
    finally:
        object.__setattr__(entry, "rhs", original)


def test_each_rule_is_broken_alone_by_a_row():
    # A row that breaks some of its entry's own rules is rejected with the
    # text of the first, and each rule of each entry is the only one that
    # some row breaks.
    alone = set()
    for _, req in OUT_OF_DOMAIN:
        entry = catalog.get_entry(req.id)
        p = {**req.scalars, **req.shifts, "z": req.z if entry.fixed_z is None else entry.fixed_z}
        broken = [text for text, holds, _ in entry.rules if not holds(p)]
        if broken:
            with pytest.raises(DomainError) as info:
                catalog.reduce(req)
            assert str(info.value) == f"requires {broken[0]}"
        if len(broken) == 1:
            alone.add((req.id, broken[0]))
    every = {(e, text) for e in catalog.catalog_ids() for text, _, _ in catalog.get_entry(e).rules}
    # Three records follow from the others.  F32UnityJL's margin at z = 1 is
    # 2 - a, which a < 1 keeps above 1; F32UnityBB's is 2 - a - n and
    # F43UnityNM's 2 - a - n - m, which n >= 1 keeps at most 1 - a, so that
    # convergence with n >= 1 implies a < 1.
    implied = {("F32UnityJL", "convergent at z = 1"), ("F32UnityBB", "a < 1"), ("F43UnityNM", "a < 1")}
    assert alone == every - implied


def test_pairwise_distinct():
    # The list rule's predicate decides as the closed forms' DISTINCT_TOL does.
    assert catalog._pairwise_distinct([0.5, 1.5, 2.5])
    assert not catalog._pairwise_distinct([0.5, 0.5 + 1e-8])
    assert catalog._pairwise_distinct([1.0, 1.0 + 2 * DISTINCT_TOL])
    assert not catalog._pairwise_distinct([2.0, 1.0, 2.0])


def test_uniform_draw_is_generator_uniform():
    # _u forms lo + (hi - lo) * random(), which is how Generator.uniform
    # forms its draw, so twin generators give bitwise equal values and the
    # streams stay in step, also across the integer draws of _n.
    ours = np.random.default_rng(np.random.SeedSequence([14, 3]))
    theirs = np.random.default_rng(np.random.SeedSequence([14, 3]))
    bounds = [(0.0, 1.0), (-2.5, 3.0), (0.3, 4.0), (1, 3), (-0.999, -0.001), (1e-3, 1e3)]
    for i in range(6000):
        lo, hi = bounds[i % len(bounds)]
        draw = catalog._u(ours, lo, hi)
        assert type(draw) is float
        assert draw.hex() == float(theirs.uniform(lo, hi)).hex()
        if i % 7 == 0:
            assert catalog._n(ours, 0, 5) == int(theirs.integers(0, 6))


# sha256 over float.hex of every closed form's value and error estimate, for
# 200 sampled requests of each of the 28 entries.  The report hashes in
# tests/test_verifier.py sample 30 cases per entry, which rarely reach the
# larger shifts n and m; these 5 600 values do, so a change to how a closed
# form or special function computes must leave every bit of this as it was.
GOLDEN_CLOSED_FORM_SHA256 = {
    1: "fa54542a402f9db02ef253908d2390b9966bb6aef44a180412048992fe4182d0",
    4242: "855b3c50ebc87f13ab97e3c00a709cfe2016869bfa0966fa9d155e1ad2f79d8d",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_CLOSED_FORM_SHA256))
def test_golden_closed_form_hash(seed):
    digest = hashlib.sha256()
    for entry_id in catalog.catalog_ids():
        for case in verifier.sample_cases(entry_id, 200, seed):
            result = catalog.reduce(case.request)
            digest.update(f"{case.case_id} {result.value.hex()} {result.abs_err_est.hex()}\n".encode())
    assert digest.hexdigest() == GOLDEN_CLOSED_FORM_SHA256[seed]
