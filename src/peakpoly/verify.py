"""Positivity, log-concavity and counting cross-checks, single-set or in bulk.

Every check runs in exact integer arithmetic and produces a
VerificationReport carrying the coefficient sequence (D^j p_S)(m) for
j = 0..m with m = max(S), plus one record per named check.  A failed check
records a witness that can be re-evaluated standalone to reproduce the
violation; none of the bundled checks is expected to fail, so a failure
always signals an implementation bug worth a reduced witness.

The public functions validate their input once (the check names before
the set, and k_max before any build; verify_counts and
verify_log_concavity are verify_set with one check) and read the
coefficients once; one private function then builds the report of the
selected checks on the canonical set and its coefficients.  Each check
decides its witness, None when it holds, in the branch of that function
that reports it, and every verdict in a report is read off that witness.
The sweep, whose sets are canonical and admissible by construction,
first puts each set's coefficients, as the engine builds them, through a
quick test (_cleared) that only a set with no witness can pass.  Only a
set that fails it gets a report, kept if one of its checks fails: every
peak polynomial clears the quick test, so a sweep that finds nothing
scans no witness and builds no report.
"""

import itertools
import time
from operator import ge, mul
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from peakpoly.engine import _build, _closure, _peak_coefficients, _recursion_counts
from peakpoly.intpoly import BinomialPolynomial, _shift_center
from peakpoly.perms import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    PeakSet,
    _admissible,
    _violation,
    as_peak_set,
    enumerate_by_peak_set,
    structurally_admissible_sets,
)

SWEEP_CHECKS = ("positivity", "logconcavity")
ALL_CHECKS = ("positivity", "logconcavity", "counts")

# why the polynomial checks refuse the empty set
_EMPTY = "the empty peak set has no maximum to verify at"


class CheckResult(NamedTuple):
    """Outcome of one named check; witness locates the first violation."""

    name: str
    passed: bool
    witness: object = None

    def to_json_dict(self) -> dict:
        witness = self.witness
        if isinstance(witness, tuple):
            witness = list(witness)
        return {"name": self.name, "passed": self.passed, "witness": witness}


class VerificationReport(NamedTuple):
    """Per-set record of check outcomes and the coefficient sequence at m."""

    positions: PeakSet
    m: int
    checks: tuple[CheckResult, ...]
    coefficients: tuple[int, ...]
    notes: Mapping = MappingProxyType({})  # read-only, so reports share no dict

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "set": list(self.positions),
            "m": self.m,
            "passed": self.passed,
            "checks": [check.to_json_dict() for check in self.checks],
            "coefficients": [str(c) for c in self.coefficients],
            "notes": dict(self.notes),
        }


def _positivity_violation(coeffs: tuple[int, ...], m: int,
                          k_max: int) -> tuple[int, int] | None:
    """First (j, k) in (j, then k) order with (D^j p)(k) <= 0 over
    1 <= j <= m-1, m <= k <= k_max, for p given by its coefficients at
    centre m.

    (D^j p)(k) is coefficient j at centre k (0 past the given ones); one
    Pascal step moves the centre to k + 1, and a later centre can only
    improve on a smaller j.  Once c_1..c_(m-1) > 0 and no c_(>=m) < 0, each
    later centre only adds nonnegative terms, so the scan stops: a peak
    polynomial (degree m - 1) is decided at centre m, with no shift.
    """
    coeffs = list(coeffs) + [0] * (m - len(coeffs))
    witness = None
    for k in range(m, k_max + 1):
        if k > m:
            _shift_center(coeffs, 1)
        for j in range(1, m if witness is None else witness[0]):
            if coeffs[j] <= 0:
                witness = (j, k)
                break
        if witness is None and min(coeffs[m:], default=0) >= 0:
            break
    return witness


def _is_unimodal(seq: tuple[int, ...]) -> bool:
    i = 0
    while i + 1 < len(seq) and seq[i] <= seq[i + 1]:
        i += 1
    while i + 1 < len(seq) and seq[i] >= seq[i + 1]:
        i += 1
    return i + 1 >= len(seq)


def _check_names(checks: Iterable[str], allowed: tuple[str, ...]) -> tuple[str, ...]:
    """checks as a tuple of names, after the one test of a check selection:
    it must be nonempty and name only checks in allowed."""
    names = tuple(checks)
    if not names:
        raise ValueError("no checks selected")
    for name in names:
        if name not in allowed:
            raise ValueError(f"unknown check {name!r}; available: {', '.join(allowed)}")
    return names


def _cleared(raw: tuple[int, ...], m: int, logconcavity: bool) -> bool:
    """True only when the checks that _verify makes on raw at centre
    m >= 1 find no witness, for positivity and, if logconcavity, for it
    too: the sweep's quick test, two passes at C level, before any witness
    scan.

    raw of length m with c_0 = 0 and c_1..c_(m-1) > 0 clears positivity:
    the scan stops at centre m, nothing lies past degree m - 1, and
    p(m) = 0.  On such a raw, log-concavity reads c_j^2 >= c_(j-1) c_(j+1)
    for j = 2..m-2, the witness range.  False says nothing: the caller
    builds the report.
    """
    if len(raw) != m or raw[0] or min(raw[1:], default=0) <= 0:
        return False
    mid = raw[2:m - 1]
    return not logconcavity or all(map(ge, map(mul, mid, mid), map(mul, raw[1:m - 2], raw[3:m])))


def _verify(s: PeakSet, raw: tuple[int, ...], names: tuple[str, ...], k_max: int = 0,
            n_max: int = 0, max_n: int = DEFAULT_ENUMERATION_CAP,
            closure: dict | None = None) -> VerificationReport:
    """The report of the named checks, in the given order (duplicates
    included), on the canonical set s and the coefficients raw of p_s at
    centre max(s).  Each check decides its witness, None when it holds,
    in the branch that reports it, and its verdict is read off that
    witness; plus the notes.

    s must be nonempty and admissible when a check other than counts is
    named, and k_max >= max(s) when positivity is; for an inadmissible s
    (counts only) raw is () and the report's coefficients are zeros.
    Positivity runs through centre k_max, counts through length n_max, on
    the down-closure of s when the caller passes the one it walked for
    raw.  Nothing here validates its input: the public callers do that once.
    """
    m = s[-1] if s else 0
    # j = 0..m: cut after j = m, or padded with zeros (for a peak
    # polynomial, the structural zero at j = m)
    coeffs = raw[:m + 1] + (0,) * (m + 1 - len(raw))
    witnesses: list[tuple[str, object]] = []  # (check name, witness or None)
    notes: dict = {}
    for name in names:
        if name == "positivity":
            order_m_witness = None
            if raw[m:]:
                # a nonzero polynomial of degree e cannot vanish at e+1 consecutive points
                order_m = BinomialPolynomial(m, raw[m:])
                order_m_witness = next(
                    (m, k) for k in range(m, m + order_m.degree + 2)
                    if order_m.evaluate(k) != 0)
            degree = len(raw) - 1
            witnesses += [
                ("positivity", _positivity_violation(raw, m, k_max)),
                ("order-m-difference-zero", order_m_witness),
                ("zero-at-max", (0, m) if raw and raw[0] else None),
                ("degree", None if degree == m - 1 else degree),
            ]
            notes["k_max"] = k_max
        elif name == "logconcavity":
            # the first j in 2..m-2 with c_j^2 < c_(j-1) * c_(j+1)
            witnesses.append(("logconcavity", next(
                (j for j in range(2, m - 1) if coeffs[j] ** 2 < coeffs[j - 1] * coeffs[j + 1]),
                None)))
            notes["unimodal"] = _is_unimodal(coeffs[1:m])
            notes["log_concavity_ties"] = [
                j for j in range(2, m - 1) if coeffs[j] ** 2 == coeffs[j - 1] * coeffs[j + 1]]
        else:
            witness = None
            rows = {}
            # every n here is >= m + 1, so an admissible s is n-admissible,
            # and raw = () gives the formula count 0 for an inadmissible one
            formula_poly = BinomialPolynomial(m, raw)
            recursion_column = itertools.islice(_recursion_counts(s, closure), m, None)
            for n, recursion in zip(range(m + 1, n_max + 1), recursion_column):
                formula = formula_poly.evaluate(n) * 2 ** (n - len(s) - 1)
                brute = enumerate_by_peak_set(n, max_n).get(s, 0) if n <= max_n else None
                rows[str(n)] = {
                    "formula": str(formula),
                    "recursion": str(recursion),
                    "bruteforce": None if brute is None else str(brute),
                }
                ok = formula == recursion and (brute is None or brute == formula)
                if not ok and witness is None:
                    witness = n
            witnesses.append(("counts", witness))
            notes["counts"] = rows
    checks = tuple(CheckResult(name, witness is None, witness) for name, witness in witnesses)
    return VerificationReport(s, m, checks, coeffs, notes)


def verify_positivity(positions: Iterable[int], k_max: int) -> VerificationReport:
    """Strict positivity of the interior difference coefficients, plus the
    structural facts that pin the polynomial down.

    Checks, for m = max(S): (D^j p_S)(k) > 0 for 1 <= j <= m-1 and
    m <= k <= k_max; the m-th difference is identically zero; p_S(m) = 0;
    and deg p_S = m - 1.
    """
    s = _admissible(positions, _EMPTY)
    if k_max < s[-1]:
        raise ValueError(f"k_max must be >= max(S) = {s[-1]}, got {k_max}")
    return _verify(s, _peak_coefficients(s), ("positivity",), k_max)


def verify_log_concavity(positions: Iterable[int]) -> VerificationReport:
    """Non-strict log-concavity of the interior coefficients at the centre.

    Checks c_j^2 >= c_(j-1) * c_(j+1) for 2 <= j <= m-2 over
    c_j = (D^j p_S)(m).  Unimodality of (c_1..c_(m-1)) is reported in the
    notes but never asserted: it is an open question this tool hunts
    counterexamples for, not an assumption.  Indices where the
    log-concavity inequality is tight are reported as well.
    """
    return verify_set(positions, ("logconcavity",))


def verify_counts(positions: Iterable[int], n_max: int,
                  max_n: int = DEFAULT_ENUMERATION_CAP,
                  require_bruteforce: bool = False) -> VerificationReport:
    """Cross-check the three counting routes for each length up to n_max.

    Lengths run from max(S)+1 (from 1 for the empty set) through n_max.
    The exhaustive route joins in only where the length is within the
    enumeration cap, unless require_bruteforce insists, in which case an
    out-of-cap n_max raises instead of silently dropping the third route.
    """
    if require_bruteforce and n_max > max_n:
        raise EnumerationCapError(
            f"brute-force cross-check demanded up to n={n_max} but the cap is {max_n}")
    return verify_set(positions, ("counts",), n_max=n_max, max_n=max_n)


def verify_set(positions: Iterable[int],
               checks: Iterable[str] = SWEEP_CHECKS,
               *,
               k_extra: int = 5,
               n_max: int | None = None,
               max_n: int = DEFAULT_ENUMERATION_CAP) -> VerificationReport:
    """Run the selected named checks on one set, merged into one report.

    positivity runs with k_max = max(S) + k_extra; counts runs through
    n_max (default: a few lengths above max(S), within the cap), which
    must be at least max(S) + 1 (1 for the empty set).
    """
    names = _check_names(checks, ALL_CHECKS)
    counts_only = set(names) == {"counts"}  # the only check that takes any set
    s = as_peak_set(positions) if counts_only else _admissible(positions, _EMPTY)
    m = s[-1] if s else 0
    if n_max is None:
        n_max = max(m + 1, min(m + 3, max_n))
    elif n_max < m + 1 and "counts" in names:  # else counts would compare no length
        bound = f"max(S) + 1 = {m + 1}" if s else "1"
        raise ValueError(f"n_max must be >= {bound}, got {n_max}")
    if k_extra < 0 and "positivity" in names:  # else positivity would scan no centre
        raise ValueError(f"k_max must be >= max(S) = {m}, got {m + k_extra}")
    if counts_only and _violation(s) is not None:
        return _verify(s, (), names, m + k_extra, n_max, max_n)
    closure = _closure(s)  # one walk, for the build and for the recursion
    return _verify(s, _peak_coefficients(s, closure), names, m + k_extra, n_max, max_n, closure)


class SweepSummary(NamedTuple):
    """Aggregate of one verification sweep.

    elapsed_seconds is informational; everything else is deterministic for
    a given (m_max, checks), independent of the worker count.
    """

    m_max: int
    checks: tuple[str, ...]
    sets_checked: int
    failures: tuple[VerificationReport, ...]
    elapsed_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "m_max": self.m_max,
            "checks": list(self.checks),
            "sets_checked": self.sets_checked,
            "failures": [report.to_json_dict() for report in self.failures],
            "elapsed_seconds": self.elapsed_seconds,
        }


def sweep(m_max: int, checks: Iterable[str] = SWEEP_CHECKS,
          workers: int = 1, k_extra: int = 5) -> SweepSummary:
    """Verify every structurally admissible nonempty peak set with
    max(S) <= m_max, in the fixed (max, lexicographic) set order.

    workers is deprecated: it is only checked to be >= 1 and changes
    nothing.  Every set runs in this process, which builds each polynomial
    once (worker processes each rebuilt every polynomial, which cost more
    than they saved).  The sets are canonical and admissible by
    construction, so none is validated.  Each set's derived sets have
    smaller maxima and so come earlier in this order: each set is built
    from their entries just before its checks, with no down-closure walk,
    in one table dropped when the sweep returns.  A set whose coefficients
    are c_0 = 0 and c_1..c_(m-1) > 0, and, with logconcavity selected,
    log-concave, is cleared by two C-level passes over them (_cleared).
    Any other set gets the full report, the one verify_set gives, and is
    kept when a check in it fails.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    names = _check_names(checks, SWEEP_CHECKS)
    if k_extra < 0 and "positivity" in names:
        raise ValueError(f"k_extra must be >= 0, got {k_extra}")

    logconcavity = "logconcavity" in names
    sets = structurally_admissible_sets(m_max)
    start = time.perf_counter()
    failures = []
    for s, raw in _build(sets):
        if not _cleared(raw, s[-1], logconcavity):
            report = _verify(s, raw, names, s[-1] + k_extra)
            if not report.passed:
                failures.append(report)
    elapsed = time.perf_counter() - start
    return SweepSummary(m_max, names, len(sets), tuple(failures), elapsed)
