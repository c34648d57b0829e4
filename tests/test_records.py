import copy
import pickle

import pytest

from peakpoly import (
    BinomialPolynomial,
    CheckResult,
    DerivedPair,
    SweepSummary,
    VerificationReport,
    derived_sets,
    peak_polynomial,
    sweep,
    verify_set,
)


def _records():
    # one of each public record, with its fields in positional order and
    # its JSON form (None for DerivedPair, which has none)
    poly = peak_polynomial((4, 6))
    table = poly.difference_table(2, 6, 7)
    report = verify_set((4, 6), checks=("logconcavity",))
    failing = VerificationReport((2,), 2, (CheckResult("degree", False, (1, 2)),), (0, 1), {"x": 1})
    summary = SweepSummary(5, ("positivity",), 10, (failing,), 0.5)
    return [
        (poly, ("center", "coeffs"), poly.to_json_dict(),
         {"center": 6, "coefficients": ["0", "25", "50", "43", "18", "3"], "degree": 5}),
        (derived_sets((3, 5))[0], ("pivot", "lowered", "lowered_admissible", "omitted"),
         None, None),
        (table, ("jmax", "kmin", "kmax", "cells"), table.to_json_dict(),
         {"jmax": 2, "kmin": 6, "kmax": 7,
          "cells": [["0", "25"], ["25", "75"], ["50", "93"]]}),
        (report.checks[0], ("name", "passed", "witness"), report.checks[0].to_json_dict(),
         {"name": "logconcavity", "passed": True, "witness": None}),
        (report, ("positions", "m", "checks", "coefficients", "notes"), report.to_json_dict(),
         {"set": [4, 6], "m": 6, "passed": True,
          "checks": [{"name": "logconcavity", "passed": True, "witness": None}],
          "coefficients": ["0", "25", "50", "43", "18", "3", "0"],
          "notes": {"unimodal": True, "log_concavity_ties": []}}),
        (summary, ("m_max", "checks", "sets_checked", "failures", "elapsed_seconds"),
         summary.to_json_dict(),
         {"m_max": 5, "checks": ["positivity"], "sets_checked": 10, "elapsed_seconds": 0.5,
          "failures": [{"set": [2], "m": 2, "passed": False,
                        "checks": [{"name": "degree", "passed": False, "witness": [1, 2]}],
                        "coefficients": ["0", "1"], "notes": {"x": 1}}]}),
    ]


def test_records_keep_their_fields_in_order_and_their_json():
    for record, fields, got, expected in _records():
        assert type(record).__match_args__ == fields
        rebuilt = type(record)(*(getattr(record, name) for name in fields))
        assert rebuilt == record and repr(rebuilt) == repr(record)
        assert got == expected, type(record).__name__


def test_records_survive_pickle_and_deepcopy():
    for record, fields, _, _ in _records():
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                      copy.copy(record)):
            assert type(clone) is type(record)
            assert clone == record and repr(clone) == repr(record)
            assert [getattr(clone, f) for f in fields] == [getattr(record, f) for f in fields]


def test_records_refuse_assignment():
    for record, fields, _, _ in _records():
        with pytest.raises(AttributeError):
            setattr(record, fields[0], None)
    poly = peak_polynomial((4, 6))
    for name in ("center", "coeffs"):
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(poly, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'center'"):
        poly.center = 0
    with pytest.raises(AttributeError):
        poly.extra = 0  # slotted: no instance dict either
    assert poly.center == 6


def test_binomial_polynomial_repr_is_unchanged():
    assert repr(peak_polynomial((4, 6))) == "BinomialPolynomial(center=6, coeffs=(0, 25, 50, 43, 18, 3))"
    assert repr(BinomialPolynomial(3, (0, 0))) == "BinomialPolynomial(center=3, coeffs=())"


def test_reports_built_without_notes_share_no_dict():
    a = VerificationReport((2,), 2, (), (0, 1))
    b = VerificationReport((3,), 3, (), (0, 1, 1))
    assert a.to_json_dict()["notes"] == {} == b.to_json_dict()["notes"]
    assert a.to_json_dict()["notes"] is not b.to_json_dict()["notes"]
    with pytest.raises(TypeError):
        a.notes["k_max"] = 5  # read-only: nothing written here reaches b
    assert dict(b.notes) == {}


def test_records_other_than_polynomials_are_named_tuples():
    # the widening a NamedTuple brings: a record equals the plain tuple
    # of its fields and sorts like one
    summary = sweep(4)
    assert isinstance(summary, tuple) and summary[:4] == (4, ("positivity", "logconcavity"), 4, ())
    assert DerivedPair(2, (1,), False, ()) == (2, (1,), False, ())
    assert sorted([CheckResult("b", True), CheckResult("a", True)])[0].name == "a"
