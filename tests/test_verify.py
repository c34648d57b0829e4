import json
import marshal
import multiprocessing.process
import os
import re
import time
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from peakpoly.engine import NegativeCoefficientError, derived_sets, peak_polynomial
from peakpoly.intpoly import BinomialPolynomial, sum_polynomials
from peakpoly.perms import InadmissibleSetError, structurally_admissible_sets
from peakpoly.verify import (
    ALL_CHECKS,
    SWEEP_CHECKS,
    CheckResult,
    SweepSummary,
    _cleared,
    _deal,
    _positivity_violation,
    _verify,
    sweep,
    verify_counts,
    verify_log_concavity,
    verify_positivity,
    verify_set,
)


def test_positivity_worked_example():
    report = verify_positivity((4, 6), 6)
    assert report.passed
    assert report.coefficients == (0, 25, 50, 43, 18, 3, 0)
    assert {c.name for c in report.checks} == {
        "positivity", "order-m-difference-zero", "zero-at-max", "degree"}
    assert all(c.witness is None for c in report.checks)


def test_positivity_singleton():
    report = verify_positivity((2,), 10)
    assert report.passed
    assert report.coefficients == (0, 1, 0)
    d1 = peak_polynomial((2,)).forward_difference()
    assert all(d1.evaluate(k) == 1 for k in range(2, 13))


def test_positivity_rejects_bad_inputs():
    with pytest.raises(InadmissibleSetError):
        verify_positivity((), 5)
    with pytest.raises(InadmissibleSetError):
        verify_positivity((2, 3), 5)
    with pytest.raises(ValueError):
        verify_positivity((4, 6), 5)


def test_a_bad_k_max_is_refused_before_any_walk_or_build(monkeypatch):
    # k_max is input, checked at the public entries: a k_max below max(S)
    # is refused before the chain of S is built or a down-closure walked
    import peakpoly.engine as engine
    import peakpoly.verify as verify

    def refuse(*args):
        raise AssertionError("built the chain or walked the down-closure before refusing k_max")

    for name in ("_closure", "_walk"):
        monkeypatch.setattr(engine, name, refuse)
    monkeypatch.setattr(verify, "_peak_coefficients", refuse)
    k_max_error = r"^k_max must be >= max\(S\) = 6, got 5$"
    with pytest.raises(ValueError, match=k_max_error):
        verify_positivity((4, 6), 5)
    with pytest.raises(ValueError, match=k_max_error):
        verify_set((4, 6), k_extra=-1)

    # log-concavity alone reads no k_max
    monkeypatch.undo()
    assert verify_set((4, 6), ("logconcavity",), k_extra=-1).passed


def test_positivity_witness_is_sound():
    # a hand-built non-peak polynomial with a planted negative difference:
    # its first difference is 5 - 7*C(x-3,1) + 2*C(x-3,2), which dips to -2
    # at x = 4, the first violation in (j, k) scan order
    poison = BinomialPolynomial(3, (0, 5, -7, 2))
    witness = _positivity_violation(poison.coeffs, 3, 8)
    assert witness == (1, 4)
    j, k = witness
    assert poison.forward_difference(j).evaluate(k) == -2

    # positive at the centre, but the first difference 1 + 2*C(x-3,1) -
    # C(x-3,2) falls to -1 at x = 7; the second difference hits 0 earlier,
    # at x = 4, yet order 1 comes first in the scan
    late = BinomialPolynomial(3, (0, 1, 1, -1))
    assert all(c > 0 for c in late.coeffs[1:3])
    assert _positivity_violation(late.coeffs, 3, 8) == (1, 7)
    assert late.forward_difference(1).evaluate(7) == -1
    assert _positivity_violation(late.coeffs, 3, 6) == (2, 4)
    # a witness at j = 1 is final, though c_1 stays negative at every later
    # centre: the scan stops there, not at k_max
    assert _positivity_violation((0, 1, 2, -1), 3, 10 ** 9) == (1, 9)

    # degree 2 at m = 4: the third difference is identically zero, so the
    # missing coefficient j = 3 is the witness
    short = BinomialPolynomial(4, (0, 3, 2))
    assert len(short.coeffs) < 4
    assert _positivity_violation(short.coeffs, 4, 9) == (3, 4)


def test_structural_checks_report_witnesses(monkeypatch):
    # a planted wrong coefficient tuple for {3}: p(3) = 1, degree 3 and a
    # nonzero third difference, where a peak polynomial has 0, 2 and none
    planted = (1, 2, 0, 5)
    monkeypatch.setattr("peakpoly.verify._peak_coefficients", lambda s: planted)
    report = verify_positivity((3,), 5)
    witnesses = {c.name: c.witness for c in report.checks if not c.passed}
    assert witnesses == {"positivity": (2, 3), "order-m-difference-zero": (3, 3),
                         "zero-at-max": (0, 3), "degree": 3}
    poly = BinomialPolynomial(3, planted)
    assert poly.evaluate(3) == 1 and poly.degree == 3
    assert poly.forward_difference(2).evaluate(3) == 0
    assert poly.forward_difference(3).evaluate(3) == 5
    assert report.coefficients == (1, 2, 0, 5)


def _verdicts_match_witnesses(report):
    return all(check.passed == (check.witness is None) for check in report.checks)


def _spoil(t, raw):
    """A wrong coefficient tuple for some sets t, each failing another check:
    c_3 lowered to 1 (logconcavity where it dips), c_1 negated (positivity),
    c_0 = 1 (zero-at-max), one coefficient past degree m - 1 (degree and
    order-m-difference-zero); the rest kept."""
    kind = sum(t) % 5
    if kind == 0 and len(raw) > 4:
        return raw[:3] + (1,) + raw[4:]
    if kind == 1:
        return (0, -raw[1]) + raw[2:]
    if kind == 2:
        return (1,) + raw[1:]
    if kind == 3:
        return raw + (0, 7)
    return raw


def test_verdicts_come_from_witnesses(monkeypatch, plant_coefficients):
    # the sweep keeps exactly the sets that verify_set fails, with the same
    # report, while some sets carry planted failures of every check
    import peakpoly.verify as verify
    plant_coefficients(_spoil)
    reports = [verify_set(s) for s in structurally_admissible_sets(12)]
    assert all(_verdicts_match_witnesses(report) for report in reports)
    failing = tuple(report for report in reports if not report.passed)
    assert 0 < len(failing) < len(reports)
    assert sweep(12).failures == failing
    assert {c.name for report in failing for c in report.checks
            if not c.passed} == {"positivity", "order-m-difference-zero",
                                 "zero-at-max", "degree", "logconcavity"}

    # the planted tuple of test_structural_checks_report_witnesses fails four
    # checks (counts too: its formula leg disagrees) and passes logconcavity
    monkeypatch.setattr(verify, "_peak_coefficients", lambda s: (1, 2, 0, 5))
    report = verify_set((3,), ALL_CHECKS)
    assert _verdicts_match_witnesses(report)
    assert [c.name for c in report.checks if c.passed] == ["logconcavity"]


def test_a_passing_sweep_builds_no_report(monkeypatch, plant_coefficients):
    # a peak polynomial clears the sweep's quick test, so a passing set
    # costs no report, no CheckResult, no notes and no witness scan
    import peakpoly.verify as verify

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep built a report or scanned a passing set")

    for name in ("VerificationReport", "CheckResult", "_is_unimodal",
                 "_positivity_violation"):
        monkeypatch.setattr(verify, name, refuse)
    assert sweep(12).failures == ()

    # a failing set's report is the one verify_set gives under the same plant
    monkeypatch.undo()
    plant_coefficients(lambda t, raw: (0, 25, 50, 1, 18, 3) if t == (4, 6) else raw)
    failures = sweep(8).failures
    assert [r.to_json_dict() for r in failures] == [verify_set((4, 6)).to_json_dict()]


def test_single_check_sweeps_keep_the_sets_that_check_fails(plant_coefficients):
    # a set that fails only the unselected check clears the quick test or
    # passes its witnesses; one that fails the selected check is kept
    plant_coefficients(_spoil)
    sets = structurally_admissible_sets(12)
    for name in SWEEP_CHECKS:
        reports = [verify_set(s, (name,)) for s in sets]
        failing = tuple(report for report in reports if not report.passed)
        assert 0 < len(failing) < len(reports)
        assert sweep(12, (name,)).failures == failing


@st.composite
def _raw_and_centre(draw):
    # arbitrary tuples, and tuples of length m with any c_0 and c_j >= -1,
    # where the quick test's bounds are met or just missed
    m = draw(st.integers(min_value=1, max_value=12))
    raw = draw(st.one_of(
        st.lists(st.integers(min_value=-3, max_value=6), max_size=15),
        st.tuples(st.integers(min_value=-2, max_value=2),
                  st.lists(st.integers(min_value=-1, max_value=40),
                           min_size=m - 1, max_size=m - 1)).map(lambda c: [c[0], *c[1]])))
    return tuple(raw), m


@given(_raw_and_centre(), st.integers(min_value=0, max_value=5),
       st.sampled_from([("positivity",), ("logconcavity",), SWEEP_CHECKS]))
def test_the_quick_test_clears_only_sets_without_a_witness(raw_and_centre, k_extra, names):
    # the sweep builds no report for a set that its quick test clears, so
    # a cleared set must pass every selected check
    raw, m = raw_and_centre
    if _cleared(raw, m, "logconcavity" in names):
        assert _verify((m,), raw, names, m + k_extra).passed


def test_positivity_of_peak_polynomials_needs_no_shift(monkeypatch):
    # c_1..c_(m-1) > 0 at centre m with nothing above degree m - 1 settles
    # every later centre, so the scan never moves the centre
    def refuse(coeffs, steps):
        raise AssertionError("the positivity scan shifted a peak polynomial")

    monkeypatch.setattr("peakpoly.verify._shift_center", refuse)
    assert verify_positivity((4, 6), 100).passed
    assert sweep(10).failures == ()
    # a witness found at centre m with no coefficient negative is final too
    assert _positivity_violation((0, 3, 0, 5, 7, 2), 6, 10 ** 9) == (2, 6)


def _reference_positivity_violation(poly, m, k_max):
    for j in range(1, m):
        dj = poly.forward_difference(j)
        for k in range(m, k_max + 1):
            if dj.evaluate(k) <= 0:
                return (j, k)
    return None


@given(st.integers(min_value=0, max_value=12),
       st.lists(st.integers(min_value=-4, max_value=6), max_size=9),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=6))
def test_positivity_violation_matches_evaluating_scan(center, coeffs, m, k_extra):
    poly = BinomialPolynomial(center, tuple(coeffs))
    assert (_positivity_violation(poly.recenter(m).coeffs, m, m + k_extra)
            == _reference_positivity_violation(poly, m, m + k_extra))


def _reference_order_m_witness(raw, m):
    # (D^m p)(k) read by evaluating the order-m difference at each centre,
    # for raw longer than m
    order_m = BinomialPolynomial(m, raw[m:])
    return next((m, k) for k in range(m, m + order_m.degree + 2) if order_m.evaluate(k) != 0)


@st.composite
def _planted_past_m(draw):
    # a trimmed tuple longer than m: anything up to j = m - 1, then an
    # order-m tail whose leading entries are often 0, so the witness can
    # sit past centre m
    m = draw(st.integers(min_value=1, max_value=10))
    head = draw(st.lists(st.integers(min_value=-3, max_value=6), min_size=m, max_size=m))
    tail = draw(st.lists(st.integers(min_value=-2, max_value=2), max_size=5))
    last = draw(st.integers(min_value=-3, max_value=3).filter(bool))
    return tuple(head + tail + [last]), m


@given(_planted_past_m(), st.integers(min_value=0, max_value=6))
def test_order_m_witness_matches_the_evaluating_scan(raw_and_centre, k_extra):
    raw, m = raw_and_centre
    k_max = m + k_extra
    positivity = _reference_positivity_violation(BinomialPolynomial(m, raw), m, k_max)
    expected = (("positivity", positivity),
                ("order-m-difference-zero", _reference_order_m_witness(raw, m)),
                ("zero-at-max", (0, m) if raw[0] else None),
                ("degree", len(raw) - 1))  # past m - 1 by construction
    assert (_verify((m,), raw, ("positivity",), k_max).checks
            == tuple(CheckResult(name, w is None, w) for name, w in expected))


@given(st.lists(st.integers(min_value=-3, max_value=6), max_size=9),
       st.integers(min_value=2, max_value=10))
def test_log_concavity_witness_matches_the_padded_scan(raw, m):
    # the witness reads the coefficients as given, however short or long;
    # a scan of c_0..c_m padded with zeros finds the same first dip
    c = raw[:m + 1] + [0] * (m + 1 - len(raw))
    dip = next((j for j in range(2, m - 1) if c[j] ** 2 < c[j - 1] * c[j + 1]), None)
    assert (_verify((m,), tuple(raw), ("logconcavity",)).checks
            == (CheckResult("logconcavity", dip is None, dip),))


def test_log_concavity_worked_example():
    report = verify_log_concavity((4, 6))
    assert report.passed
    c = report.coefficients
    assert c == (0, 25, 50, 43, 18, 3, 0)
    for j in range(2, 5):
        assert c[j] ** 2 >= c[j - 1] * c[j + 1]
    assert report.notes["unimodal"] is True
    assert report.notes["log_concavity_ties"] == []


def test_log_concavity_vacuous_for_singleton():
    report = verify_log_concavity((2,))
    assert report.passed
    assert report.checks[0].witness is None


def test_counts_cross_check_examples():
    report = verify_counts((2,), 8)
    assert report.passed
    got = [int(report.notes["counts"][str(n)]["formula"]) for n in range(3, 9)]
    assert got == [2, 8, 24, 64, 160, 384]
    for n in range(3, 9):
        row = report.notes["counts"][str(n)]
        assert row["formula"] == row["recursion"] == row["bruteforce"]


def test_counts_cross_check_two_peaks():
    report = verify_counts((4, 6), 8)
    assert report.passed
    assert report.notes["counts"]["7"]["formula"] == "400"
    assert report.notes["counts"]["8"]["formula"] == "3200"


def test_counts_empty_set():
    report = verify_counts((), 8)
    assert report.passed
    for n in range(1, 9):
        assert report.notes["counts"][str(n)]["formula"] == str(2 ** (n - 1))


def test_counts_beyond_cap_drops_bruteforce_leg():
    report = verify_counts((2,), 12)
    assert report.passed
    assert report.notes["counts"]["12"]["bruteforce"] is None
    assert report.notes["counts"]["10"]["bruteforce"] is not None
    from peakpoly.perms import EnumerationCapError
    with pytest.raises(EnumerationCapError):
        verify_counts((2,), 12, require_bruteforce=True)


def test_counts_check_validates_once(monkeypatch):
    # the formula leg evaluates the coefficients the report already read, and
    # the brute leg reads the S_n counts, so only verify_counts validates
    import peakpoly.perms as perms
    original = perms.as_peak_set
    calls = []

    def counting(positions):
        calls.append(positions)
        return original(positions)

    for module in ("perms", "engine", "verify"):
        monkeypatch.setattr(f"peakpoly.{module}.as_peak_set", counting)
    assert verify_counts((4, 6), 30).passed
    assert calls == [(4, 6)]

    # an inadmissible set has no coefficients, so every route counts 0
    rows = verify_counts((3, 4), 10).notes["counts"]
    assert list(rows) == [str(n) for n in range(5, 11)]
    assert all(row == {"formula": "0", "recursion": "0", "bruteforce": "0"}
               for row in rows.values())


def test_verify_counts_is_verify_set_with_counts():
    for s in ((), (4, 6), (3, 4)):
        assert verify_counts(s, 9) == verify_set(s, ("counts",), n_max=9)
    for s in ((2,), (4, 6), (3, 7, 12)):
        for k in (s[-1], s[-1] + 3):
            assert verify_positivity(s, k) == verify_set(s, ("positivity",), k_extra=k - s[-1])
        assert verify_log_concavity(s) == verify_set(s, ("logconcavity",))


def test_verify_set_merges_checks():
    report = verify_set((4, 6), ("positivity", "logconcavity", "counts"))
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["positivity", "order-m-difference-zero", "zero-at-max",
                     "degree", "logconcavity", "counts"]
    assert "unimodal" in report.notes and "counts" in report.notes
    with pytest.raises(ValueError, match="^unknown check 'mystery'; available: "
                                         "positivity, logconcavity, counts$"):
        verify_set((4, 6), ("positivity", "mystery"))
    with pytest.raises(ValueError, match="^no checks selected$"):
        verify_set((4, 6), ())


def test_sweep_smallest_bound():
    summary = sweep(2)
    assert summary.sets_checked == 1
    assert summary.failures == ()


def test_sweep_counts_sets_up_to_6():
    summary = sweep(6)
    assert summary.sets_checked == 12
    assert summary.failures == ()


def test_sweep_to_12_has_no_failures():
    summary = sweep(12, ("positivity", "logconcavity"))
    assert summary.sets_checked == len(structurally_admissible_sets(12))
    assert summary.failures == ()


def test_sweep_is_deterministic_across_worker_counts(monkeypatch):
    def refuse(process):
        raise AssertionError("the sweep started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    sequential = sweep(8, workers=1)
    parallel = sweep(8, workers=4)
    for field in ("m_max", "checks", "sets_checked", "failures"):
        assert getattr(sequential, field) == getattr(parallel, field)


def _fields(summary):
    # everything the determinism contract covers: all but elapsed_seconds
    return summary._replace(elapsed_seconds=None)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_deal_gives_each_root_to_one_group_largest_subtree_first():
    # {k}'s subtree to 20 holds F(21 - k) sets; two groups get 5473 and 5472
    assert _deal(20, 1) == [list(range(2, 21))]
    groups = _deal(20, 2)
    assert sorted(sum(groups, [])) == list(range(2, 21))
    assert groups[0][:2] == [2, 5] and groups[1][:2] == [3, 4]
    sizes = {k: sum(1 for s in structurally_admissible_sets(20) if s[0] == k)
             for k in range(2, 21)}
    assert sorted(sum(sizes[k] for k in group) for group in groups) == [5472, 5473]
    # no more groups than roots with children, m_max - 3
    assert len(_deal(5, 64)) == 2 and len(_deal(3, 4)) == len(_deal(2, 4)) == 1


@pytest.mark.parametrize("names", [("positivity",), ("logconcavity",), SWEEP_CHECKS])
def test_sweep_is_the_same_for_every_worker_count(names):
    for m_max in range(5, 17):
        one = _fields(sweep(m_max, names))
        for workers in (2, 3, 4):
            assert _fields(sweep(m_max, names, workers=workers)) == one, (m_max, workers)
    _assert_no_child_left()


def test_planted_failures_are_found_in_every_worker(plant_coefficients):
    # failures in every group's subtrees come back keyed in (max, lex) order
    plant_coefficients(_spoil)
    one = sweep(12)
    assert {report.positions[0] for report in one.failures} >= {2, 3, 4, 5}
    for workers in (2, 3, 4):
        assert _fields(sweep(12, workers=workers)) == _fields(one)
    _assert_no_child_left()


@pytest.mark.parametrize("plants", [
    (((2, 8), 1), ((3, 7), 1)),  # in the subtrees of {2} and {3}, two groups
    (((6,), 2),),  # a singleton: prunes every later singleton
    (((3, 6), 1), ((6,), 2), ((2, 9, 11), 3)),
])
def test_trips_across_processes_give_the_one_process_summary(plant_negative_limb, plants):
    assert {2, 3} - set(_deal(12, 2)[0]) == {3}
    plant_negative_limb(*plants[0], *plants[1:])
    sets = structurally_admissible_sets(12)
    first = min(plants, key=lambda plant: sets.index(plant[0]))[0]
    one = sweep(12)
    assert one.sets_checked == sets.index(first) + 1
    assert [report.positions for report in one.failures] == [first]
    for workers in (2, 3, 4):
        assert _fields(sweep(12, workers=workers)) == _fields(one), workers
    _assert_no_child_left()


def test_after_a_trip_no_set_above_it_is_checked(monkeypatch, plant_negative_limb):
    # a set of larger maximum than a trip can never be reported, so after
    # (3, 6) trips the visit prunes the first set above 6 among each set's
    # children, with its later siblings and its subtree, and checks none
    import peakpoly.verify as verify
    sets = structurally_admissible_sets(12)
    plant_negative_limb((3, 6), 1)
    build, cleared, log = verify._build, verify._cleared, []

    def recording(path, top, visit):
        def record(t, raw, tripped):
            log.append(("handed", t))
            return visit(t, raw, tripped)

        build(path, top, record)

    def checking(raw, m, logconcavity):
        log.append(("checked", m))
        return cleared(raw, m, logconcavity)

    monkeypatch.setattr(verify, "_build", recording)
    monkeypatch.setattr(verify, "_cleared", checking)
    summary = sweep(12)
    (report,) = summary.failures
    assert report.positions == (3, 6)
    assert summary.sets_checked == sets.index((3, 6)) + 1
    after = log[log.index(("handed", (3, 6))) + 1:]
    assert not [m for kind, m in after if kind == "checked" and m > 6]
    # past (3, 6) and its later siblings: the sets whose elements but the
    # last stay within 6, ending at most at the first child above 6
    assert [t for kind, t in after if kind == "handed"] == [
        t for t in sorted(sets) if t[0] > 3 and max(t[:-1], default=0) <= 6
        and t[-1] <= max(7, t[-2] + 2 if len(t) > 1 else 2)]


def _forks(monkeypatch):
    # count the processes forked by this one
    fork, pids = os.fork, []

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_workers_fork_one_process_per_other_group(monkeypatch):
    pids = _forks(monkeypatch)
    one = sweep(12)
    assert not pids
    assert _fields(sweep(12, workers=2)) == _fields(one) and len(pids) == 1
    pids.clear()
    # at most m_max - 3 = 2 processes, whatever the worker count
    assert _fields(sweep(5, workers=64)) == _fields(sweep(5)) and len(pids) <= 1
    _assert_no_child_left()


@pytest.mark.parametrize("fork", ["missing", "raising"])
def test_without_fork_the_workers_run_in_this_process(monkeypatch, fork):
    import peakpoly.verify as verify
    one = sweep(12)
    if fork == "missing":
        monkeypatch.delattr(os, "fork", raising=False)
    else:
        def refuse():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", refuse)
    build, pids = verify._build, []

    def recording(path, top, visit):
        pids.append(os.getpid())
        build(path, top, visit)

    monkeypatch.setattr(verify, "_build", recording)
    assert _fields(sweep(12, workers=2)) == _fields(one)
    assert pids == [os.getpid()]  # one walk, of both groups
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_process_with_other_threads_forks_no_worker(monkeypatch):
    import threading
    pids = _forks(monkeypatch)
    one = sweep(12)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert _fields(sweep(12, workers=2)) == _fields(one)
    finally:
        release.set()
        thread.join(30)
    assert not pids and not thread.is_alive()
    assert _fields(sweep(12, workers=2)) == _fields(one) and len(pids) == 1
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("failure", ["exit", "status", "truncated"])
def test_a_failed_worker_s_group_is_walked_here(monkeypatch, plant_coefficients, failure):
    # each worker exits 1 before it writes, or exits 1 after its whole
    # result, or sends a result cut short: this process walks its own group
    # and then each worker's again, with the same summary
    import peakpoly.verify as verify
    plant_coefficients(_spoil)
    one = sweep(12)
    parent, build, walks = os.getpid(), verify._build, []

    def walking(path, top, visit):
        if os.getpid() == parent:
            walks.append(top)
        elif failure == "exit":
            os._exit(1)
        build(path, top, visit)

    monkeypatch.setattr(verify, "_build", walking)
    if failure == "status":
        exit_ = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: exit_(1))
    elif failure == "truncated":
        monkeypatch.setattr(verify, "marshal", SimpleNamespace(
            dumps=lambda result: marshal.dumps(result)[:-7], loads=marshal.loads))
    pids = _forks(monkeypatch)
    assert _fields(sweep(12, workers=3)) == _fields(one)
    assert len(pids) == 2 and len(walks) == 3
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_no_worker_outlives_a_sweep_that_raises(monkeypatch):
    # the workers are still walking when the parent's own walk fails: each
    # is killed and reaped before the exception leaves sweep
    import peakpoly.verify as verify
    build, parent = verify._build, os.getpid()

    def failing(path, top, visit):
        if os.getpid() == parent:
            raise RuntimeError("planted")
        time.sleep(60)
        build(path, top, visit)

    monkeypatch.setattr(verify, "_build", failing)
    pids = _forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="^planted$"):
        sweep(12, workers=3)
    assert len(pids) == 2 and time.monotonic() - start < 30
    _assert_no_child_left()


def test_sweep_validates_no_set(monkeypatch):
    # the sweep's sets are canonical and admissible by construction, so a
    # sweep that calls a set validator does work the boundary already did
    unpatched = sweep(8)

    def refuse(*args):
        raise AssertionError("the sweep validated a set")

    validators = ("as_peak_set", "_admissible", "_violation")
    # verify imports no _violation: an inadmissible set reaches it as p = 0
    for module, names in (("perms", validators), ("engine", validators),
                          ("verify", validators[:2])):
        for name in names:
            monkeypatch.setattr(f"peakpoly.{module}.{name}", refuse)
    patched = sweep(8)
    for field in ("m_max", "checks", "sets_checked", "failures"):
        assert getattr(patched, field) == getattr(unpatched, field)


def test_sweep_builds_in_set_order_without_a_closure_walk(monkeypatch):
    # a set's parent and previous sibling come before it in lexicographic
    # order, so a depth-first walk of the prefix tree builds each set from
    # entries already made: one walk, one step per set
    import peakpoly.engine as engine
    unpatched = sweep(12)

    def refuse(*args):
        raise AssertionError("the sweep walked a down-closure")

    walk = engine._walk
    passes, steps = [], []

    def counting(path, top, width, visit):
        passes.append(width)

        def step(t, entry):
            steps.append(t)
            return visit(t, entry)

        walk(path, top, width, step)

    monkeypatch.setattr(engine, "_closure", refuse)
    monkeypatch.setattr(engine, "_walk", counting)
    patched = sweep(12)
    for field in ("m_max", "checks", "sets_checked", "failures"):
        assert getattr(patched, field) == getattr(unpatched, field)
    assert len(passes) == 1
    assert steps == sorted(structurally_admissible_sets(12))


def test_sweep_coefficients_satisfy_the_first_difference_identity(monkeypatch):
    # an independent reference for what the packed walk hands the checks:
    # each set's first difference is the sum of its derived sets'
    # polynomials, in the public basis arithmetic (criterion 7, to m = 16),
    # and p_S(max S) = 0; by induction from p_() = 1 that pins every entry
    import peakpoly.verify as verify
    built = {(): BinomialPolynomial(0, (1,))}
    build = verify._build

    def keeping(path, top, visit):
        def keep(t, raw, tripped):
            built[t] = BinomialPolynomial(t[-1], raw)
            visit(t, raw, tripped)

        build(path, top, keep)

    monkeypatch.setattr(verify, "_build", keeping)
    summary = sweep(16)
    assert summary.sets_checked == len(built) - 1 == 1596
    for s in structurally_admissible_sets(16):
        m = s[-1]
        parts = []
        for pair in derived_sets(s):
            if pair.lowered_admissible:
                parts.append(built[pair.lowered])
            parts.append(built[pair.omitted])
        lhs = built[s].forward_difference()
        rhs = sum_polynomials(parts).recenter(m)
        assert lhs.center == rhs.center and lhs.coeffs == rhs.coeffs, s
        assert built[s].evaluate(m) == 0 and built[s].coeffs[0] == 0, s


def test_sweep_table_equals_the_chain_build(monkeypatch):
    # what the sweep's one walk hands the checks, set by set in
    # lexicographic order, is what a cold build of that set's chain gives
    # for that set alone
    import peakpoly.verify as verify
    sets = structurally_admissible_sets(16)
    assert len(sets) == 1596
    build, handed = verify._build, []

    def recording(path, top, visit):
        def record(t, raw, tripped):
            handed.append((t, raw))
            visit(t, raw, tripped)

        build(path, top, record)

    monkeypatch.setattr(verify, "_build", recording)
    sweep(16)
    assert handed == [(s, peak_polynomial(s).coeffs) for s in sorted(sets)]


def test_a_negative_limb_trips_and_ends_the_build(plant_negative_limb):
    # an entry with a negative coefficient trips the sign test: the sweep
    # is handed that set with its exact coefficients, reports it with a
    # positivity witness, and builds no set after it; a set whose chain
    # holds it cannot be built.  (7,)'s c_6 is its top coefficient, so its
    # packed int is < 0; the others keep a top bit set in a limb
    sets = structurally_admissible_sets(8)
    exact = {s: peak_polynomial(s).coeffs for s in sets}
    for target, j in (((3, 5), 1), ((2, 5, 8), 3), ((7,), 6)):
        plant_negative_limb(target, j)
        summary = sweep(8)
        (report,) = summary.failures
        assert summary.sets_checked == sets.index(target) + 1, target
        assert report.positions == target
        assert report.coefficients == tuple(-1 if i == j else c
                                            for i, c in enumerate(exact[target] + (0,)))
        assert {c.name: c.witness for c in report.checks}["positivity"] == (j, target[-1])
        assert sweep(8, ("logconcavity",)).sets_checked == summary.sets_checked

        # the set itself is handed out as it came; a set above it is refused
        assert peak_polynomial(target).coeffs[j] == -1
        above = target[:-1] + (target[-1] + 2,)
        braced = "{" + ",".join(map(str, target)) + "}"
        message = "^" + re.escape(f"p_S for S = {braced} has c_{j} = -1 < 0; ")
        with pytest.raises(NegativeCoefficientError, match=message):
            peak_polynomial(above)
        with pytest.raises(NegativeCoefficientError):
            verify_set(above, ALL_CHECKS, n_max=above[-1] + 1)


def test_a_trip_ends_the_sweep_in_max_lex_order_not_in_walk_order(monkeypatch,
                                                                   plant_negative_limb):
    # (2, 8) trips first in the walk's lexicographic order and (5, 7) first
    # in the sweep's (max, lex) order: a trip prunes only the sets built
    # from it, here (5, 7)'s later sibling (5, 8), so the walk goes on past
    # (2, 8) to (5, 7), and the sweep reports what a build in (max, lex)
    # order would, ending at (5, 7)
    import peakpoly.verify as verify
    sets = structurally_admissible_sets(8)
    assert sorted([(2, 8), (5, 7)]) == [(2, 8), (5, 7)]
    assert sets.index((5, 7)) < sets.index((2, 8))
    plant_negative_limb((2, 8), 1, ((5, 7), 1))
    build, handed = verify._build, []

    def recording(path, top, visit):
        def record(t, raw, tripped):
            handed.append(t)
            visit(t, raw, tripped)

        build(path, top, record)

    monkeypatch.setattr(verify, "_build", recording)
    summary = sweep(8)
    assert [report.positions for report in summary.failures] == [(5, 7)]
    assert summary.sets_checked == sets.index((5, 7)) + 1
    assert handed == [s for s in sorted(sets) if s != (5, 8)]
    assert sweep(8, ("logconcavity",)).sets_checked == summary.sets_checked


def test_sweep_lists_no_sets(monkeypatch):
    # the walk makes each set as it reaches it, so no list of every set
    # to max m_max is ever built
    def refuse(*args):
        raise AssertionError("the sweep listed every set")

    for module in ("peakpoly", "peakpoly.perms", "peakpoly.verify"):
        monkeypatch.setattr(f"{module}.structurally_admissible_sets", refuse, raising=False)
    summary = sweep(16)
    assert summary.sets_checked == 1596 and summary.failures == ()


def test_sweep_memory_is_one_frame_per_depth():
    # the walk keeps a parent entry, a sibling entry and a row per depth,
    # not a table of sets: a level-order table to 22 peaked at 10 MB
    import tracemalloc
    tracemalloc.start()
    try:
        summary = sweep(22)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.sets_checked == 28656 and summary.failures == ()
    assert peak < 1_000_000


def test_sweep_and_build_keep_no_table():
    # the table lives only as long as the call that builds it
    import gc
    import tracemalloc
    tracemalloc.start()
    try:
        sweep(18)
        peak_polynomial(tuple(range(2, 25, 2)))
        gc.collect()  # also empties CPython's free lists of dropped tuples
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 500_000


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(1)
    with pytest.raises(ValueError):
        sweep(5, workers=0)
    with pytest.raises(ValueError, match="^unknown check 'counts'; available: "
                                         "positivity, logconcavity$"):
        sweep(5, checks=("counts",))
    with pytest.raises(ValueError, match="^no checks selected$"):
        sweep(5, checks=())
    with pytest.raises(ValueError, match="m_max"):  # before the check names
        sweep(1, checks=("counts",))
    # positivity needs k_max = max(S) + k_extra >= max(S)
    with pytest.raises(ValueError, match="^k_extra must be >= 0, got -1$"):
        sweep(5, k_extra=-1)
    assert sweep(5, ("logconcavity",), k_extra=-1).failures == ()


def test_positive_evaluation_beyond_the_root():
    for s in structurally_admissible_sets(8):
        p = peak_polynomial(s)
        m = s[-1]
        for k in range(m + 1, m + 11):
            assert p.evaluate(k) > 0


def test_report_json_shape():
    report = verify_set((4, 6), ("positivity", "logconcavity"))
    data = json.loads(json.dumps(report.to_json_dict()))
    assert data["set"] == [4, 6]
    assert data["m"] == 6
    assert data["passed"] is True
    assert data["coefficients"] == ["0", "25", "50", "43", "18", "3", "0"]
    assert all(c["witness"] is None for c in data["checks"])

    summary = sweep(4)
    sdata = json.loads(json.dumps(summary.to_json_dict()))
    assert sdata["sets_checked"] == 4  # {2}, {3}, {2,4}, {4}
    assert sdata["failures"] == []
    assert isinstance(sdata["elapsed_seconds"], float)
    assert isinstance(summary, SweepSummary)


def test_report_coefficients_pad_to_length_m_plus_one():
    for report in (verify_positivity((3, 5), 5), verify_log_concavity((3, 5)),
                   verify_counts((3, 5), 6)):
        assert len(report.coefficients) == 6
        assert report.coefficients[0] == 0
        assert report.coefficients[-1] == 0
        assert report.coefficients[:5] == peak_polynomial((3, 5)).coeffs


def test_verify_set_walks_the_down_closure_once(monkeypatch):
    # only the counts recursion walks the down-closure, once; the build
    # reads the chain of the set
    import peakpoly.engine as engine
    expected = verify_set((4, 6, 9), ALL_CHECKS, n_max=12).to_json_dict()
    walk, walks = engine._closure, []

    def counting(s):
        walks.append(s)
        return walk(s)

    monkeypatch.setattr(engine, "_closure", counting)
    assert verify_set((4, 6, 9), ALL_CHECKS, n_max=12).to_json_dict() == expected
    assert walks == [(4, 6, 9)]
    assert verify_set((4, 6, 9)).passed and walks == [(4, 6, 9)]
