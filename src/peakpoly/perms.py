"""Permutations in one-line notation and their peak sets.

A permutation of length n is a tuple listing each of 1..n exactly once.
An interior index i (1-based, 2 <= i <= n-1) is a peak when the entry
there exceeds both neighbours.  Peak sets are canonical tuples of
strictly increasing positions; the empty tuple is a valid peak set.

The exact count of S_n by peak set in this module is the ground-truth
oracle for everything else in the package.  It covers all n! permutations
without visiting each one: every permutation is exactly one head pattern
(the relative order of its first n // 2 entries), one tail pattern (that of
the rest) and one split of the values between the two, and each peak
depends only on the head pattern, on the tail pattern, or on one comparison
where the two meet (see _peak_set_counts).  So S_n is counted from one
scan of the h! + t! patterns (h! when t = h), a closed binomial count of
the value splits and a pass over pairs of classes, with no peak formula
and no peak theory.  Listing the permutations themselves still visits all
n! of them.  Both refuse to run above a configurable cap instead of
grinding for hours.
"""

import itertools
import math
from collections.abc import Iterable, Sequence
from functools import lru_cache

Permutation = tuple[int, ...]
PeakSet = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 10


class InadmissibleSetError(ValueError):
    """An operation needed an admissible peak set and did not get one."""


class EnumerationCapError(RuntimeError):
    """An exhaustive scan of S_n was requested above the configured cap, or
    a set's closure under derived sets holds more sets than the recursion
    count route builds (engine._CLOSURE_CAP)."""


def is_permutation(entries: Sequence[int]) -> bool:
    """True iff entries lists each of 1..len(entries) exactly once."""
    n = len(entries)
    return n >= 1 and sorted(entries) == list(range(1, n + 1))


def as_permutation(entries: Iterable[int]) -> Permutation:
    perm = tuple(entries)
    if not is_permutation(perm):
        raise ValueError(f"not a permutation in one-line notation: {perm!r}")
    return perm


def as_peak_set(positions: Iterable[int]) -> PeakSet:
    """Canonicalize positions into a peak set tuple.

    Positions must be integers >= 1 in strictly increasing order;
    duplicates and out-of-order input are rejected rather than sorted.
    """
    pos = tuple(positions)
    for v in pos:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"peak positions must be integers, got {v!r}")
        if v < 1:
            raise ValueError(f"peak positions must be >= 1, got {v}")
    for a, b in zip(pos, pos[1:]):
        if a >= b:
            raise ValueError(f"peak positions must be strictly increasing, got {pos}")
    return pos


def _format_set(positions: Iterable[int]) -> str:
    """The set as every message writes it: {3,5}, or {} when empty."""
    return "{" + ",".join(map(str, positions)) + "}"


def peak_set(perm: Iterable[int]) -> PeakSet:
    """The 1-based positions where the permutation rises then falls.

    >>> peak_set((2, 5, 1, 4, 3))
    (2, 4)
    >>> peak_set((1, 2, 3, 4, 5))
    ()
    """
    p = as_permutation(perm)
    return tuple(i for i in range(2, len(p)) if p[i - 2] < p[i - 1] > p[i])


def _violation(s: PeakSet) -> str | None:
    """structural_violation for a canonical peak set."""
    if s and s[0] == 1:
        return "position 1 can never be a peak (it has no left neighbour)"
    for a, b in zip(s, s[1:]):
        if b == a + 1:
            return f"adjacent positions {a} and {b} cannot both be peaks"
    return None


def _admissible(positions: Iterable[int], empty: str | None = None) -> PeakSet:
    """positions as a canonical, structurally admissible peak set: the one
    input check of every entry point that needs such a set.

    Raises InadmissibleSetError with the structural reason, or with the
    message empty for the empty set when one is given.
    """
    s = as_peak_set(positions)
    reason = _violation(s) if s else empty
    if reason is not None:
        raise InadmissibleSetError(reason)
    return s


def structural_violation(positions: Iterable[int]) -> str | None:
    """Why no permutation of any length has this peak set, or None.

    Two structural rules make a nonempty set hopeless regardless of n:
    position 1 has no left neighbour, and adjacent positions cannot both
    be peaks.
    """
    return _violation(as_peak_set(positions))


def is_structurally_admissible(positions: Iterable[int]) -> bool:
    """True iff some permutation of some length has exactly this peak set."""
    return structural_violation(positions) is None


def is_admissible(positions: Iterable[int], n: int) -> bool:
    """True iff some permutation of length n has exactly this peak set.

    The structural test plus max(S) <= n - 1.  The tests validate this
    criterion against the exhaustive oracle for every subset of [n] at
    small n; monotonicity in n then extends trust upward.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s = as_peak_set(positions)
    return _violation(s) is None and (not s or s[-1] <= n - 1)


def ensure_within_cap(n: int, max_n: int = DEFAULT_ENUMERATION_CAP) -> None:
    """Refuse exhaustive work on S_n above the cap instead of running for hours."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > max_n:
        raise EnumerationCapError(
            f"refusing to scan all {n}! permutations: n={n} exceeds the cap of {max_n};"
            " raise the cap explicitly if you really want this"
        )


@lru_cache(maxsize=8)
def _peak_set_counts(n: int) -> dict[PeakSet, int]:
    """Exact peak-set counts of S_n, keyed in (max position, positions) order.

    Every permutation is exactly one triple: a head pattern (the relative
    order of its first h = n // 2 entries), a tail pattern (that of the other
    t = n - h) and the set A of the h values that go to the head, the tail
    taking the rest, B.  Peaks before h read the head pattern alone and peaks
    after h + 1 the tail pattern alone.  The peak at h needs the head to rise
    into its last entry and A[rank of the head's last] > B[rank of the
    tail's first]; the peak at h + 1 needs the opposite comparison and the
    tail to fall after its first entry.  One scan, classes, keys the
    patterns of S_h, the heads, and of S_t (once in all when t = h), whose
    reversals are the tails: a pattern's last entry is its reversal's
    first, a rise into it a fall after that first, and a peak at i one at
    n + 1 - i.  A[a] > B[b] exactly when A holds at most a of the
    a + b + 1 least values, so greater[a][b] counts those sets in closed
    form, out of C(n, h) in all, and every pair of classes adds to the key
    with the peak at h and to the key with the peak at h + 1.
    """
    def classes(length: int) -> dict[tuple[PeakSet, int, bool], int]:
        # (peaks, rank of the last entry, whether the pattern rises into it) -> patterns
        found: dict[tuple[PeakSet, int, bool], int] = {}
        for p in itertools.permutations(range(length)):
            key = (tuple([i for i in range(2, length) if p[i - 2] < p[i - 1] > p[i]]),
                   p[-1], length > 1 and p[-2] < p[-1])
            found[key] = found.get(key, 0) + 1
        return found

    h = n // 2
    t = n - h
    if not h:  # n = 1: no join, no peak
        return {(): 1}
    heads = classes(h)
    # (peaks after h + 1, rank of the first entry, whether the tail falls after it, tails)
    tails = [(tuple([n + 1 - i for i in reversed(peaks)]), b, falls, tally)
             for (peaks, b, falls), tally in (heads if t == h else classes(t)).items()]
    # greater[a][b]: the value sets A with A[a] > B[b]; splits: all of them
    greater = [[sum(math.comb(a + b + 1, i) * math.comb(n - a - b - 1, h - i) for i in range(a + 1))
                for b in range(t)] for a in range(h)]
    splits = math.comb(n, h)
    counts: dict[PeakSet, int] = {}
    for (before, a, rises), times in heads.items():
        at_h = before + (h,) if rises else before
        for after, b, falls, tally in tails:
            pairs = times * tally
            above = pairs * greater[a][b]
            key = at_h + after
            counts[key] = counts.get(key, 0) + above
            key = (before + (h + 1,) if falls else before) + after
            counts[key] = counts.get(key, 0) + pairs * splits - above
    return {s: counts[s] for s in sorted(counts, key=lambda s: (s[-1] if s else 0, s))}


def enumerate_by_peak_set(n: int, max_n: int = DEFAULT_ENUMERATION_CAP) -> dict[PeakSet, int]:
    """Group all of S_n by peak set: peak set -> number of permutations.

    Values sum to n!; only peak sets that actually occur appear as keys, in
    (max position, positions) order.  The count is exact over all of S_n
    without visiting each permutation: it pairs every head pattern of
    n // 2 entries with every tail pattern, weighted by how many splits of
    the values, counted in closed form, put a peak at either side of the
    join.
    """
    ensure_within_cap(n, max_n)
    return dict(_peak_set_counts(n))


def count_bruteforce(positions: Iterable[int], n: int,
                     max_n: int = DEFAULT_ENUMERATION_CAP) -> int:
    """|{pi in S_n : peak_set(pi) == positions}|, read from the exact count
    of all of S_n by peak set (see enumerate_by_peak_set)."""
    s = as_peak_set(positions)
    ensure_within_cap(n, max_n)
    return _peak_set_counts(n).get(s, 0)


def group_permutations_by_peak_set(n: int, wanted: Iterable[Iterable[int]],
                                   max_n: int = DEFAULT_ENUMERATION_CAP,
                                   ) -> dict[PeakSet, list[Permutation]]:
    """Collect, in one scan of S_n, the permutations with any wanted peak set.

    Every wanted key maps to a list (possibly empty) in lexicographic order.
    """
    groups: dict[PeakSet, list[Permutation]] = {as_peak_set(w): [] for w in wanted}
    ensure_within_cap(n, max_n)
    for perm in itertools.permutations(range(1, n + 1)):
        key = tuple([i for i in range(2, n) if perm[i - 2] < perm[i - 1] > perm[i]])
        if key in groups:
            groups[key].append(perm)
    return groups


def permutations_with_peak_set(positions: Iterable[int], n: int,
                               max_n: int = DEFAULT_ENUMERATION_CAP) -> list[Permutation]:
    """All length-n permutations with exactly this peak set, lexicographic."""
    (group,) = group_permutations_by_peak_set(n, (positions,), max_n=max_n).values()
    return group


def structurally_admissible_sets(max_position: int) -> list[PeakSet]:
    """Every nonempty structurally admissible peak set with max <= max_position.

    Ordered by (max position, lexicographic positions), which is the fixed
    report order used by the sweep machinery.  Built level by level: the
    sets of maximum m are m appended to () and to each set of maximum at
    most m - 2, sorted.
    """
    out: list[PeakSet] = []
    below: list[PeakSet] = [()]  # () and every set with max <= m - 2
    previous: list[PeakSet] = []  # the sets of maximum m - 1
    for m in range(2, max_position + 1):
        level = sorted([t + (m,) for t in below])
        out += level
        below += previous
        previous = level
    return out
