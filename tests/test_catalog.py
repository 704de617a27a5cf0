import math

import numpy as np
import pytest

from hyperreduce import catalog
from hyperreduce.catalog import ReductionRequest
from hyperreduce.errors import (
    DegenerateParametersError,
    DomainError,
)
from hyperreduce.series import Status, eval_pfq


def test_catalog_size_and_ordinals():
    ids = catalog.catalog_ids()
    assert len(ids) == 28
    ordinals = [catalog.get_entry(i).ordinal for i in ids]
    assert sorted(ordinals) == list(range(28))


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
    with pytest.raises(ValueError):
        catalog.reduce(ReductionRequest("F21Contiguous", {"b": 0.7, "c": 1.4}, {"n": -1}, 0.3))
    with pytest.raises(ValueError):
        catalog.reduce(ReductionRequest("F21Contiguous", {"b": 0.7, "c": 1.4}, {"n": 2}))
    # fixed-z entry: explicit mismatching z rejected
    with pytest.raises(ValueError):
        catalog.reduce(ReductionRequest("F21HalfBateman", {"a": 1.0}, {"n": 1}, 0.3))


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


def test_sampled_requests_are_in_domain_everywhere():
    rng = np.random.default_rng(5)
    for entry_id in catalog.catalog_ids():
        for _ in range(3):
            req = catalog.sample_request(entry_id, rng)
            # must not raise
            catalog.reduce(req)
            catalog.lhs_spec(req)


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
    with pytest.raises(DomainError, match="does not converge at z = 1"):
        catalog.reduce(req)
    with pytest.raises(DomainError, match="does not converge at z = 1"):
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
