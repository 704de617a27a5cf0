"""What callers rely on in the value records and the catalog entries."""

import numpy as np
import pytest

from hyperreduce import catalog, verifier
from hyperreduce.catalog import ReductionRequest
from hyperreduce.series import EvalResult, PFQSpec, Status


def _request():
    return ReductionRequest("F21Contiguous", {"b": 0.7, "c": 1.4}, {"n": 1}, 0.3)


def _report():
    case = verifier.VerificationCase("F21Contiguous-0-0000", _request())
    result = verifier.run_case(case)
    summary = verifier.EntrySummary("F21Contiguous", 1, 0, 0, result.rel_err, 0.0)
    return verifier.Report(0, 1, (summary,), (result,))


def test_spec_coerces_ints_and_numpy_floats():
    spec = PFQSpec([1, np.float64(2.5)], (np.float64(3.0),), 2)
    assert (spec.upper, spec.lower, spec.z) == ((1.0, 2.5), (3.0,), 2.0)
    assert all(type(x) is float for x in spec.upper + spec.lower + (spec.z,))


def test_equal_specs_are_equal_and_hash_equal():
    one = PFQSpec([1, 2], [3], 0.5)
    two = PFQSpec((1.0, np.float64(2.0)), np.array([3.0]), np.float64(0.5))
    assert one == two
    assert hash(one) == hash(two)
    assert one != PFQSpec([1, 2], [3], 0.25)


def test_records_refuse_assignment():
    report = _report()
    records = [
        (PFQSpec([1], [2], 0.5), "z"),
        (EvalResult(1.0, 0.0, 1, Status.CONVERGED), "value"),
        (_request(), "z"),
        (verifier.VerificationCase("c", _request()), "case_id"),
        (report.results[0], "rhs_value"),
        (report.summaries[0], "passed"),
        (report, "results"),
    ]
    for record, field in records:
        assert hasattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.note = "not a field"


def test_reprs_name_each_field():
    assert repr(PFQSpec([1, 2.5], [3], 0.5)) == "PFQSpec(upper=(1.0, 2.5), lower=(3.0,), z=0.5)"
    assert repr(EvalResult(1.5, 1e-15, 3, Status.CONVERGED)) == (
        "EvalResult(value=1.5, abs_err_est=1e-15, terms_used=3, "
        "status=<Status.CONVERGED: 'Converged'>)"
    )
    assert repr(_request()) == (
        "ReductionRequest(id='F21Contiguous', scalars={'b': 0.7, 'c': 1.4}, "
        "shifts={'n': 1}, z=0.3)"
    )


def test_report_repr_leaves_out_results():
    report = _report()
    text = repr(report)
    assert text.startswith("Report(seed=0, cases_per_entry=1, summaries=(EntrySummary(")
    assert "results" not in text
    assert "F21Contiguous-0-0000" not in text


def test_catalog_entry_is_read_only_but_swappable_by_object_setattr():
    entry = catalog.get_entry("F21Contiguous")
    with pytest.raises(AttributeError):
        entry.rhs = None
    with pytest.raises(AttributeError):
        entry.note = "not a field"
    original = entry.draw
    marker = object()
    try:
        # How a tracer swaps a hook in and out of an entry.
        object.__setattr__(entry, "draw", marker)
        assert entry.draw is marker
    finally:
        object.__setattr__(entry, "draw", original)
    assert entry.draw is original
    assert repr(entry).startswith("CatalogEntry(id='F21Contiguous', ordinal=")
    assert "<function" not in repr(entry)


FIELDS = ("id", "ordinal", "scalar_names", "list_names", "shift_names", "description",
          "constraints", "fixed_z", "positive", "lhs", "rhs", "rules", "draw")


def test_catalog_entry_fields_are_its_slots_and_keywords():
    assert catalog.CatalogEntry.__slots__ == FIELDS
    entry = catalog.get_entry("Pp2Fp1Unity")
    fields = {name: getattr(entry, name) for name in FIELDS}
    # Direct constructor calls: nothing is registered into the catalog.
    assert repr(catalog.CatalogEntry(**fields)) == repr(entry)
    bare = catalog.CatalogEntry(**{k: v for k, v in fields.items()
                                   if k not in ("fixed_z", "positive", "rules")})
    assert (bare.fixed_z, bare.positive, bare.rules) == (None, (), ())
    with pytest.raises(TypeError, match=r"missing fields \['draw'\], unknown fields \[\]"):
        catalog.CatalogEntry(**{k: v for k, v in fields.items() if k != "draw"})
    with pytest.raises(TypeError, match=r"missing fields \[\], unknown fields \['note'\]"):
        catalog.CatalogEntry(**fields, note="not a field")
    assert len(catalog.catalog_ids()) == 28
