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
its verdict off that witness.  The sweep builds each set packed in one
int (_walk, sized by _limb_bound, read by _rows), a format no other
module reads; the walk tests each entry's sign and hands out a negative
one decoded (_signed).  The sweep puts the coefficients of its sets, a
batch of one maximum at a time, through a quick test (_batch_cleared)
that only a batch with no witness in any set can pass, so a sweep that
finds nothing builds no report; with workers, it walks the sets in
forked processes, a group of subtrees each, and each sends back only its
count of sets visited and the sets it kept.  A negative coefficient,
which the paper rules out, that no selected check fails is an error in
verify_set and in the sweep alike.
"""

import itertools
import marshal
import os
import struct
import sys
import time
from collections import namedtuple
from collections.abc import Callable, Container, Iterable, Iterator
from operator import add, ge, lshift, mul, or_
from types import MappingProxyType

from peakpoly import perms
from peakpoly.engine import _negative, _peak_coefficients, _recursion_counts
from peakpoly.intpoly import _trimmed
from peakpoly.perms import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    PeakSet,
    _admissible,
    as_peak_set,
)

SWEEP_CHECKS = ("positivity", "logconcavity")
ALL_CHECKS = ("positivity", "logconcavity", "counts")

# the most sets of one maximum that the sweep holds before it tests them
_BATCH = 64

# why the polynomial checks refuse the empty set
_EMPTY = "the empty peak set has no maximum to verify at"


class CheckResult(namedtuple("CheckResult", "name passed witness", defaults=(None,))):
    """Outcome of one named check; witness locates the first violation."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        witness = self.witness
        if isinstance(witness, tuple):
            witness = list(witness)
        return {"name": self.name, "passed": self.passed, "witness": witness}


class VerificationReport(namedtuple("VerificationReport", "positions m checks coefficients notes",
                                    # read-only, so reports share no dict
                                    defaults=(MappingProxyType({}),))):
    """Per-set record of check outcomes (a tuple of CheckResult) and the
    coefficient sequence at m, with notes, a mapping."""

    __slots__ = ()

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
            coeffs[:-1] = map(add, coeffs, coeffs[1:])
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


def _batch_cleared(limbs: tuple[int, ...], length: int, m: int, logconcavity: bool) -> bool:
    """True only when the checks that _verify makes at centre m >= 1 find
    no witness in any row of limbs, rows of the given length laid out one
    after another, for positivity and, if logconcavity, for it too: the
    sweep's quick test, one C-level pass per coefficient column, before any
    witness scan.

    A row of length m with c_0 = 0 and c_1..c_(m-1) > 0 clears positivity:
    the scan stops at centre m, nothing lies past degree m - 1, and
    p(m) = 0.  On such rows, log-concavity reads c_j^2 >= c_(j-1) c_(j+1)
    for j = 2..m-2, the witness range.  False says nothing of any one row:
    the caller builds each row's report.
    """
    if length != m:
        return False
    c = [limbs[j::m] for j in range(m)]  # the columns c_0..c_(m-1)
    if any(c[0]) or min(map(min, c[1:]), default=0) <= 0:
        return False
    return not logconcavity or all(all(map(ge, map(mul, c[j], c[j]), map(mul, c[j - 1], c[j + 1])))
                                   for j in range(2, m - 1))


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
                # read in place, not copied by enumerate_by_peak_set nor
                # validated again by count_bruteforce
                brute = perms._peak_set_counts(n).get(s, 0) if n <= max_n else None
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
    raw = _peak_coefficients(s)
    report = _verify(s, raw, names, m + k_extra, n_max, max_n)
    if report.passed and min(raw, default=0) < 0:  # no selected check sees its c_j < 0
        raise _negative(s, raw, "no selected check fails on it")
    return report


class SweepSummary(namedtuple("SweepSummary",
                              "m_max checks sets_checked failures elapsed_seconds")):
    """Aggregate of one verification sweep: failures holds the reports of
    the sets that failed, a tuple of VerificationReport.

    elapsed_seconds is informational; everything else is deterministic for
    a given (m_max, checks), the same for every worker count.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "m_max": self.m_max,
            "checks": list(self.checks),
            "sets_checked": self.sets_checked,
            "failures": [report.to_json_dict() for report in self.failures],
            "elapsed_seconds": self.elapsed_seconds,
        }


def _signed(entry: int, width: int, high: int) -> tuple[int, ...]:
    """The coefficients of an entry that trips (see _walk), exactly,
    trimmed: its digits lie in [-2^(W-1), 2^(W-1)), and entry + high holds
    each one moved up by 2^(W-1), in one limb."""
    half = 1 << width - 1
    data = (entry + high).to_bytes(high.bit_length() // 8, "little")
    return _trimmed([c - half for c in _unpack(data, width)])


def _limb_bound(top: int) -> int:
    """The largest beta_(top, k)[j], a bound on |c_j| over the sets of
    maximum <= top, with no sign assumed; beta_(m, k) bounds the class of
    maximum m and size k.  g_k' bounds each set of size k' and maximum
    <= m - 2 at centre m - 1, from g_0 = [1]; at each level it takes in
    beta_(m-2, k') and moves a Pascal step, P(v)[j] = v[j] + v[j + 1].  By
    the step, beta_(m, k)[j] = g_(k-1)[0] C(m, j + 1) + P(x)[j], x =
    2 g_(k-1) + beta_(m-1, k) (0 if there is no such class) bounding
    _walk's x.  As P(v) >= v, beta_(m, k) covers x and the stepped parents,
    and beta_(m+1, k) covers it, so the classes at top cover every set."""
    g = {0: [1]}
    beta: dict[int, dict[int, list[int]]] = {}  # by maximum m - 2..m, then size
    row = [1]  # C(m, j + 1) for j = 0..m - 1
    for m in range(2, top + 1):
        row = [*map(add, row, [1] + row), 1]
        for k, b in beta.pop(m - 2, {}).items():
            v = g.get(k, [])
            g[k] = [*map(max, v, b), *v[len(b):], *b[len(v):]]
        g = {k: [*map(add, v, v[1:]), v[-1]] for k, v in g.items()}
        below, level = beta.get(m - 1, {}), beta.setdefault(m, {})
        for k in range(1, m // 2 + 1):
            v, b = g[k - 1], below.get(k, [])
            x = [*map(add, map(add, v, v), b), *map(add, v[len(b):], v[len(b):]), *b[len(v):]]
            x += [0] * (m + 1 - len(x))
            scaled = row if v[0] == 1 else map(mul, row, itertools.repeat(v[0]))  # 1 for size 1
            level[k] = list(map(add, map(add, scaled, x), x[1:]))
    return max(max(b) for b in beta[top].values())


def _walk(top: int, roots: Container[int],
          width: int) -> Iterator[tuple[PeakSet, int, tuple[int, ...] | None]]:
    """(t, p_t packed into one int, None) for each admissible t with
    max(t) <= top and first element in roots, depth first over the prefix
    tree of admissible sets, children in increasing last element: in
    lexicographic order: the sweep's build.  Every singleton {k} is
    stepped, as each is the next one's previous sibling, but only those in
    roots are yielded and walked below.  A t that trips, some c_j < 0, is
    yielded with its coefficients (_signed) in place of None, and nothing
    is built from it: neither its subtree nor its later siblings.  Limb j,
    width bits wide, holds c_j at centre m = max(t), by engine._chain's step: the
    frame of t's parent u holds u's entry a, a Pascal step on per child
    (a + (a >> width)); b, the previous sibling's (0 for the first child);
    and m.  ROW, limb j C(m, j + 1), depends on m alone: the walk steps
    it once from m = 0 to top, into a table it reads.  The step is
    x = 2a + b, P = (a & MASK) ROW - x - (x >> width).  The walk goes
    down into t's first child at once and stacks u's frame, to resume at
    t's next sibling: one frame per depth.

    No step carries, given _limb_bound(top) < 2^(width-1): a and b did not
    trip (else t would not be built; no singleton trips), so are exact with
    limbs in [0, 2^(width-1)), and the stepped a and x add nonnegative
    limbs below _limb_bound.  Packing is linear, so P = sum of c_j 2^(j width),
    j < m, exactly, |c_j| < 2^(width-1); and an integer has one expansion
    in digits from [-2^(width-1), 2^(width-1)).  So if all c_j >= 0, they
    are P's digits, no top bit set, and P < 2^(m width); if some c_j < 0,
    P < 0 or a digit has its top bit set: the trip, P < 0 or a bit of HIGH
    (each limb's top bit) set, is some c_j < 0, and an entry that does not
    trip is exact, in m limbs.
    """
    mask = (1 << width) - 1
    high = ((1 << top * width) - 1) // mask << (width - 1)
    rows = [0, 1]  # rows[m]: ROW, limb j C(m, j + 1)
    for _ in range(2, top + 1):
        rows.append(rows[-1] + ((rows[-1] << width) | 1))
    # a frame: u, a, b and the next child's m
    frames = [((), 1, 0, 2)]
    while frames:
        u, a, b, k = frames.pop()
        while k <= top:
            a += a >> width
            x = 2 * a + b
            b = (a & mask) * rows[k] - x - (x >> width)
            if u or k in roots:
                t = u + (k,)
                if b < 0 or b & high:
                    yield t, b, _signed(b, width, high)
                    break
                yield t, b, None
                if k + 2 <= top:
                    # u resumes at its next child once t's subtree is walked
                    frames.append((u, a, b, k + 1))
                    u, a, b, k = t, b, 0, k + 2
                    continue
            k += 1


def _rows(batch: list[tuple[PeakSet, int]], m: int,
          width: int) -> tuple[tuple[int, ...], int]:
    """The limbs of the packed entry of each (set, entry) pair in batch,
    row after row in batch order, and the length of a row, m, from one
    join of the entries' bytes and one unpack (see _unpack): an entry of
    maximum m that does not trip fits in m limbs (see _walk)."""
    data = b"".join([entry.to_bytes(m * width // 8, "little") for _, entry in batch])
    return _unpack(data, width), m


def _unpack(data: bytes, width: int) -> tuple[int, ...]:
    """The limbs of the little-endian data, width (a multiple of 64) bits
    each, lowest first, from one unpack into 64-bit words; each column of
    upper words is ORed in at C level, unless all 0."""
    words = struct.unpack(f"<{len(data) // 8}Q", data)
    step = width // 64
    limbs = words[::step]
    for i in range(1, step):
        column = words[i::step]
        if any(column):
            limbs = map(or_, limbs, map(lshift, column, itertools.repeat(64 * i)))
    return tuple(limbs)


def _fibonacci(n: int) -> list[int]:
    """[F(0), F(1), ..., F(n)] (at least F(0) and F(1)): F(0) = 0,
    F(1) = F(2) = 1."""
    fib = [0, 1]
    while len(fib) <= n:
        fib.append(fib[-1] + fib[-2])
    return fib


def _rank(s: PeakSet) -> int:
    """The place of the admissible set s, from 1, in the (max, lex) order
    of the nonempty admissible sets.  F(j - 1) sets have maximum j, so
    F(m) - 1 come before maximum m = max(s); of maximum m, for each i, the
    sets that agree with s before i and hold v at i, lo_i <= v < s_i
    (lo_1 = 2, lo_i = s_(i-1) + 2), number F(m - v - 1) each, in all
    F(m - lo_i + 1) - F(m - s_i + 1)."""
    m = s[-1]
    fib = _fibonacci(m)
    rank, lo = fib[m], 2
    for v in s:
        rank += fib[m - lo + 1] - fib[m - v + 1]
        lo = v + 2
    return rank


def _deal(m_max: int, workers: int) -> list[list[int]]:
    """The roots 2..m_max, the depth-1 sets {k}, dealt into one group per
    process, at most workers and at most m_max - 3 groups (the roots with
    children): largest subtree first, each to the group with the fewest
    sets so far.  {k}'s subtree holds the sets of {k + 2..m_max} with no
    two adjacent, each with k added: F(m_max - k + 1) sets, fewer as k
    grows."""
    groups: list[list[int]] = [[] for _ in range(max(1, min(workers, m_max - 3)))]
    loads = [0] * len(groups)
    fib = _fibonacci(m_max)
    for k in range(2, m_max + 1):
        i = loads.index(min(loads))
        groups[i].append(k)
        loads[i] += fib[m_max - k + 1]
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
    previous sibling just before its checks (see _walk), so the sets
    are canonical and admissible by construction and none is validated;
    each set the walk yields is counted.  The sets of one maximum m are
    tested in batches of up to _BATCH (_batch_cleared): a batch whose rows
    all have c_0 = 0 and c_1..c_(m-1) > 0, and are log-concave with
    logconcavity selected, is cleared by one C-level pass per coefficient
    column.  A batch is tested once full and at the end of the walk.  Each
    set of a batch that is not cleared is kept, and at the end gets
    verify_set's full report, kept if a check fails.  A set that the walk
    yields as a trip, with a negative coefficient, is kept with its
    coefficients; the walk builds nothing from it.  The least trip in
    (max, lex) order is the last set reported, as in a build in that
    order, and its place in that order (_rank) is the number of sets
    checked; if no selected check fails on it (log-concavity alone may
    not), the sweep raises NegativeCoefficientError instead.

    The subtrees below the singletons {k} are independent once {k} is
    built: each process walks one group of them (_deal, _walk_groups) and
    returns its count and its kept sets.  Kept sets are ordered by
    (max, set) and cut after the least trip.  So the summary does not
    depend on the worker count.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    names = _check_names(checks, SWEEP_CHECKS)
    if k_extra < 0 and "positivity" in names:
        raise ValueError(f"k_extra must be >= 0, got {k_extra}")

    logconcavity = "logconcavity" in names
    # the least multiple of 64 bits with _limb_bound(m_max) < 2^(width-1)
    width = (_limb_bound(m_max).bit_length() // 64 + 1) * 64

    def walk(group: list[int]) -> tuple[int, list]:
        # kept rows (max, set, tripped, coefficients)
        kept, visited = [], 0
        # by maximum, the (set, entry) pairs not yet tested
        batches: list[list[tuple[PeakSet, int]]] = [[] for _ in range(m_max + 1)]

        def flush(m: int) -> None:
            batch = batches[m]
            limbs, length = _rows(batch, m, width)
            if not _batch_cleared(limbs, length, m, logconcavity):
                kept.extend((m, t, False, _trimmed(limbs[i * length:(i + 1) * length]))
                            for i, (t, _) in enumerate(batch))
            batch.clear()

        for visited, (t, entry, signed) in enumerate(_walk(m_max, set(group), width), 1):
            m = t[-1]
            if signed is not None:
                kept.append((m, t, True, signed))
                continue
            batch = batches[m]
            batch.append((t, entry))
            if len(batch) == _BATCH:
                flush(m)
        for m, batch in enumerate(batches):
            if batch:
                flush(m)
        return visited, kept

    start = time.perf_counter()
    checked, kept = 0, []
    for visited, rows in _walk_groups(_deal(m_max, workers), walk):
        checked += visited
        kept += rows
    kept.sort()  # in (max, lex) order, as no two rows hold one set
    # the least trip, if any, is the last set checked and reported
    end = next((i for i, row in enumerate(kept) if row[2]), None)
    if end is not None:
        checked = _rank(kept[end][1])
        del kept[end + 1:]
    failures = []
    for m, s, tripped, raw in kept:
        report = _verify(s, raw, names, m + k_extra)
        if not report.passed:
            failures.append(report)
        elif tripped:  # no selected check sees its c_j < 0
            raise _negative(s, raw, f"the sweep stops there, after {checked} sets")
    return SweepSummary(m_max, names, checked, tuple(failures), time.perf_counter() - start)
