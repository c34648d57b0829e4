"""Positivity, log-concavity and counting cross-checks, single-set or in bulk.

Every check runs in exact integer arithmetic and produces a
VerificationReport carrying the coefficient sequence (D^j p_S)(m) for
j = 0..m with m = max(S), plus one record per named check.  A failed check
records a witness that reproduces the violation standalone; none is
expected to fail, so a failure signals an implementation bug.

Each single-set function is verify_set with fixed checks, which validates
its input once (check names, then the set, then k_max, before any build)
and reads the coefficients once.  _verify decides each selected check's
witness, None when it holds, in the branch that reports it, and reads
its verdict off that witness.  The sweep first puts each set's
coefficients through a quick test (_cleared) that only a set with no
witness can pass, so a sweep that finds nothing builds no report; with
workers, it walks the sets in forked processes, a group of subtrees each.
"""

import itertools
import marshal
import os
import sys
import time
from operator import add, ge, mul
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

from peakpoly.engine import _SKIP, _build, _peak_coefficients, _recursion_counts
from peakpoly.intpoly import _shift_center
from peakpoly.perms import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    PeakSet,
    _admissible,
    as_peak_set,
    enumerate_by_peak_set,
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

    (D^j p)(k) is coefficient j at centre k (0 past the given ones), and one
    Pascal step, c_j + c_(j+1), moves the centre on.  The scan stops at the
    first centre with no c_(>=1) < 0, witness or not: from there no c_j > 0
    can fall to 0.  So a peak polynomial (degree m - 1) is decided at centre
    m.  It stops too at a witness with j = 1, as no smaller j is left.
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
        if witness and witness[0] == 1 or min(coeffs[1:], default=0) >= 0:
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
            n_max: int = 0, max_n: int = DEFAULT_ENUMERATION_CAP) -> VerificationReport:
    """The report of the named checks, in the given order (duplicates
    included), on the canonical set s and the coefficients raw of p_s at
    centre max(s).  Each check decides its witness, None when it holds,
    in the branch that reports it, and its verdict is read off that
    witness; plus the notes.

    s must be nonempty and admissible when a check other than counts is
    named, and k_max >= max(s) when positivity is; for an inadmissible s
    (counts only) raw is () and the report's coefficients are zeros.
    Positivity runs through centre k_max, counts through length n_max.
    Nothing here validates its input: the public callers do that once.
    """
    m = s[-1] if s else 0
    # j = 0..m: cut after j = m, or padded with zeros (for a peak
    # polynomial, the structural zero at j = m)
    coeffs = raw[:m + 1] + (0,) * (m + 1 - len(raw))
    witnesses: list[tuple[str, object]] = []  # (check name, witness or None)
    notes: dict = {}
    for name in names:
        if name == "positivity":
            # (D^m p)(k), entry 0 of raw[m:] stepped k - m times, is nonzero at
            # one of k = m..m+e: a polynomial of degree e cannot vanish at e+1 points
            order_m, order_m_witness = list(raw[m:]), None
            for k in range(m, len(raw)):
                if order_m[0]:
                    order_m_witness = (m, k)
                    break
                order_m[:-1] = map(add, order_m, order_m[1:])
            degree = len(raw) - 1
            witnesses += [
                ("positivity", _positivity_violation(raw, m, k_max)),
                ("order-m-difference-zero", order_m_witness),
                ("zero-at-max", (0, m) if raw and raw[0] else None),
                ("degree", None if degree == m - 1 else degree),
            ]
            notes["k_max"] = k_max
        elif name == "logconcavity":
            # c_j^2 - c_(j-1) c_(j+1), j = 2..m-2: the first < 0 is the witness, each 0 a tie
            gaps = [coeffs[j] ** 2 - coeffs[j - 1] * coeffs[j + 1] for j in range(2, m - 1)]
            witnesses.append(("logconcavity", next(
                (j for j, gap in enumerate(gaps, 2) if gap < 0), None)))
            notes["unimodal"] = _is_unimodal(coeffs[1:m])
            notes["log_concavity_ties"] = [j for j, gap in enumerate(gaps, 2) if gap == 0]
        else:
            witness = None
            rows = {}
            # every n here is >= m + 1, so an admissible s is n-admissible,
            # and raw = () gives the formula count 0 for an inadmissible one;
            # values holds p_s at centre n, one Pascal step on per length
            values = list(raw) or [0]
            recursion_column = itertools.islice(_recursion_counts(s), m, None)
            for n, recursion in zip(range(m + 1, n_max + 1), recursion_column):
                values[:-1] = map(add, values, values[1:])
                formula = values[0] << (n - len(s) - 1)
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
    return verify_set(s, ("positivity",), k_extra=k_max - s[-1])


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
    return _verify(s, _peak_coefficients(s), names, m + k_extra, n_max, max_n)


class SweepSummary(NamedTuple):
    """Aggregate of one verification sweep.

    elapsed_seconds is informational; everything else is deterministic for
    a given (m_max, checks), the same for every worker count.
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


def _deal(m_max: int, workers: int) -> list[list[int]]:
    """The roots 2..m_max, the depth-1 sets {k}, dealt into one group per
    process, at most workers and at most m_max - 3 groups (the roots with
    children): largest subtree first, each to the group with the fewest
    sets so far.  {k}'s subtree holds the sets of {k + 2..m_max} with no
    two adjacent, each with k added: F(m_max - k + 1) sets (Fibonacci,
    F(1) = F(2) = 1), fewer as k grows."""
    groups: list[list[int]] = [[] for _ in range(max(1, min(workers, m_max - 3)))]
    loads = [0] * len(groups)
    fib = [1, 1]  # F(i + 1)
    while len(fib) < m_max:
        fib.append(fib[-1] + fib[-2])
    for k in range(2, m_max + 1):
        i = loads.index(min(loads))
        groups[i].append(k)
        loads[i] += fib[m_max - k]
    return groups


def _walk_groups(groups: list[list[int]], walk: Callable[[list[int]], object]) -> list:
    """walk(group) for each group, each but the first in a child process
    forked for it, which sends its result back marshalled through a pipe
    and always ends in os._exit.  This process walks the first group
    together with every group it could not fork for (no os.fork, or it
    raised), reads every pipe to its end, then reaps, and walks again any
    group whose child exits nonzero or sends a truncated result.  No child
    outlives the call: on an exception each is killed, then reaped.  A
    process with other threads forks no child, which could deadlock on a
    lock one of them held, and walks every group itself."""
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        groups = [[k for group in groups for k in group]]
    children = []  # (pid, read end of its pipe, group)
    own, statuses = list(groups[0]), []
    try:
        for group in groups[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()  # AttributeError where there is no fork
            except (AttributeError, OSError):
                os.close(read)
                os.close(write)
                own += group
                continue
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pipe.write(marshal.dumps(walk(group)))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, open(read, "rb"), group))
        results = [walk(own)]
        payloads = [pipe.read() for _, pipe, _ in children]
    except BaseException:
        for pid, _, _ in children:
            os.kill(pid, 9)  # SIGKILL
        raise
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for (_, _, group), payload, status in zip(children, payloads, statuses):
        try:
            results.append(marshal.loads(payload) if status == 0 else walk(group))
        except (EOFError, ValueError, TypeError):  # truncated
            results.append(walk(group))
    return results


def sweep(m_max: int, checks: Iterable[str] = SWEEP_CHECKS,
          workers: int = 1, k_extra: int = 5) -> SweepSummary:
    """Verify every structurally admissible nonempty peak set with
    max(S) <= m_max, reported in the fixed (max, lexicographic) set order,
    in up to workers processes.

    One walk of the prefix tree builds each set from its parent and its
    previous sibling just before its checks (see engine._walk), so the sets
    are canonical and admissible by construction and none is validated.  A
    set whose coefficients are c_0 = 0 and c_1..c_(m-1) > 0, and log-concave
    with logconcavity selected, is cleared by two C-level passes (_cleared);
    any other is kept, and at the end gets verify_set's full report, kept
    if a check fails.  A set built with a negative coefficient trips: the
    walk prunes the sets built from it, all of larger maximum, and the
    least such set in (max, lex) order is the last one checked and
    reported, as in a build in that order.  No set above a trip's maximum
    can be reported, so from a trip on the walk prunes those too.

    The subtrees below the singletons {k} are independent once {k} is
    built: each process walks one group of them (_deal, _walk_groups) and
    counts its sets by (singleton, maximum), and the counts under the
    singletons before turn each kept set's rank into its (max, lex) key.
    So the summary does not depend on the worker count.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    names = _check_names(checks, SWEEP_CHECKS)
    if k_extra < 0 and "positivity" in names:
        raise ValueError(f"k_extra must be >= 0, got {k_extra}")

    logconcavity = "logconcavity" in names

    def walk(group: list[int]) -> tuple[dict, list]:
        # visited sets by root, then maximum; kept sets (max, rank within
        # root and max, tripped, set, coefficients)
        counts: dict[int, list[int]] = {}
        kept = []
        roots, visited, bound = set(group), [], m_max

        def check(s: PeakSet, raw: tuple[int, ...], tripped: bool) -> object:
            nonlocal visited, bound
            m = s[-1]
            if m > bound:
                return True
            if s[0] == m:  # a singleton, a root
                if m not in roots:
                    return _SKIP
                visited = counts[m] = [0] * (m_max + 1)
            visited[m] += 1
            if tripped or not _cleared(raw, m, logconcavity):
                kept.append((m, visited[m], tripped, s, raw))
                if tripped:
                    bound = m

        _build((), m_max, check)
        return counts, kept

    start = time.perf_counter()
    counts: dict[int, list[int]] = {}
    kept = []
    for group_counts, group_kept in _walk_groups(_deal(m_max, workers), walk):
        counts.update(group_counts)
        kept += group_kept
    before = {}  # by root: the sets of each maximum under the roots before it
    total = [0] * (m_max + 1)
    for k, visited in sorted(counts.items()):
        before[k], total = total, list(map(add, total, visited))
    keyed = sorted(((m, before[s[0]][m] + rank), tripped, s, raw)
                   for m, rank, tripped, s, raw in kept)
    last = min((key for key, tripped, _, _ in keyed if tripped), default=(m_max, total[m_max]))
    failures = []
    for key, _, s, raw in keyed:
        if key > last:
            break
        report = _verify(s, raw, names, s[-1] + k_extra)
        if not report.passed:
            failures.append(report)
    return SweepSummary(m_max, names, sum(total[:last[0]]) + last[1], tuple(failures),
                        time.perf_counter() - start)
