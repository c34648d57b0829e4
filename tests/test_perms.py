import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from peakpoly import perms
from peakpoly.perms import (
    EnumerationCapError,
    PeakSet,
    as_peak_set,
    count_bruteforce,
    enumerate_by_peak_set,
    group_permutations_by_peak_set,
    is_admissible,
    is_permutation,
    is_structurally_admissible,
    peak_set,
    permutations_with_peak_set,
    structural_violation,
    structurally_admissible_sets,
)


def test_peak_set_examples():
    assert peak_set((1, 3, 2)) == (2,)
    assert peak_set((1, 2, 3, 4, 5)) == ()
    assert peak_set((2, 5, 1, 4, 3)) == (2, 4)


def test_peak_set_short_permutations_have_no_peaks():
    assert peak_set((1,)) == ()
    assert peak_set((2, 1)) == ()


def test_peak_set_rejects_non_permutations():
    for bad in ((), (0, 1), (1, 1), (2, 3), (1, 2, 4)):
        with pytest.raises(ValueError):
            peak_set(bad)
    assert not is_permutation(())
    assert is_permutation((1,))


def test_as_peak_set_validation():
    assert as_peak_set([2, 4, 7]) == (2, 4, 7)
    assert as_peak_set([]) == ()
    with pytest.raises(ValueError):
        as_peak_set([0])
    with pytest.raises(ValueError):
        as_peak_set([3, 2])
    with pytest.raises(ValueError):
        as_peak_set([2, 2])
    with pytest.raises(ValueError):
        as_peak_set([2.5])


def test_enumerate_s3_grouping():
    # S_3 by hand: 123, 213, 312, 321 are peakless; 132 and 231 peak at 2
    assert enumerate_by_peak_set(3) == {(): 4, (2,): 2}


def test_enumerate_n1():
    assert enumerate_by_peak_set(1) == {(): 1}


@pytest.mark.parametrize("n", range(1, 15))
def test_enumerate_counts_sum_to_factorial(n):
    counts = enumerate_by_peak_set(n, max_n=14)
    assert sum(counts.values()) == math.factorial(n)
    assert all(v > 0 for v in counts.values())


@pytest.mark.parametrize("n", range(1, 10))
def test_count_matches_listing_scan(n):
    # the head pattern x tail pattern x value split count against the scan
    # that visits every permutation; with h = n // 2, n = 1..9 covers head
    # lengths 0 to 4
    groups = group_permutations_by_peak_set(n, [()] + structurally_admissible_sets(n - 1))
    listed = {s: len(perms) for s, perms in groups.items() if perms}
    counts = enumerate_by_peak_set(n)
    assert counts == listed
    assert sum(counts.values()) == math.factorial(n)


def _reference_peak_set_counts(n):
    # the count over every head of n // 3 values: S_(n-h) is scanned once
    # into a table of tail patterns keyed by the rank of the tail's first
    # value and whether the tail falls after it, and each head is matched
    # against every row, taking the tail's first value from the sorted
    # values the head leaves
    h = n // 3
    t = n - h
    tails = {}
    for tail in itertools.permutations(range(t)):
        inner = tuple([h + i for i in range(2, t) if tail[i - 2] < tail[i - 1] > tail[i]])
        row = tails.setdefault((tail[0], t > 1 and tail[0] > tail[1]), {})
        row[inner] = row.get(inner, 0) + 1
    heads = {}
    values = range(1, n + 1)
    for head in itertools.permutations(values, h):
        rest = sorted(set(values).difference(head))
        peaks = tuple([i for i in range(2, h) if head[i - 2] < head[i - 1] > head[i]])
        for row in tails:
            rank, falls = row
            first = rest[rank]
            key = peaks
            if h >= 2 and head[-2] < head[-1] > first:
                key += (h,)
            if h >= 1 and head[-1] < first and falls:
                key += (h + 1,)
            heads[key, row] = heads.get((key, row), 0) + 1
    counts = {}
    for (key, row), times in heads.items():
        for inner, tally in tails[row].items():
            counts[key + inner] = counts.get(key + inner, 0) + times * tally
    return {s: counts[s] for s in sorted(counts, key=lambda s: (s[-1] if s else 0, s))}


# the oracle as it counted before its split count was closed, verbatim:
# it scans S_h and S_t each for their patterns and every one of the C(n, h)
# value splits for the comparisons at the join
def _reference_split_scan_counts(n: int) -> dict[PeakSet, int]:
    """Exact peak-set counts of S_n, keyed in (max position, positions) order.

    Every permutation is exactly one triple: a head pattern (the relative
    order of its first h = n // 2 entries), a tail pattern (that of the other
    t = n - h) and the set A of the h values that go to the head, the tail
    taking the rest, B.  Peaks before h read the head pattern alone and peaks
    after h + 1 the tail pattern alone.  The peak at h needs the head to rise
    into its last entry and A[rank of the head's last] > B[rank of the
    tail's first]; the peak at h + 1 needs the opposite comparison and the
    tail to fall after its first entry.  So S_h and S_t are each scanned
    once into classes, the C(n, h) value sets once into a table of how many
    sets win each comparison, and every pair of classes adds to the key
    with the peak at h and to the key with the peak at h + 1.
    """
    h = n // 2
    t = n - h
    if not h:  # n = 1: no join, no peak
        return {(): 1}
    # (peaks before h, rank of the last entry, whether the head rises into it) -> heads
    heads: dict[tuple[PeakSet, int, bool], int] = {}
    for p in itertools.permutations(range(h)):
        key = (tuple([i for i in range(2, h) if p[i - 2] < p[i - 1] > p[i]]),
               p[-1], h > 1 and p[-2] < p[-1])
        heads[key] = heads.get(key, 0) + 1
    # (peaks after h + 1, rank of the first entry, whether the tail falls after it) -> tails
    tails: dict[tuple[PeakSet, int, bool], int] = {}
    for p in itertools.permutations(range(t)):
        key = (tuple([h + i for i in range(2, t) if p[i - 2] < p[i - 1] > p[i]]),
               p[0], t > 1 and p[0] > p[1])
        tails[key] = tails.get(key, 0) + 1
    # greater[a][b]: the value sets A with A[a] > B[b]; splits: all of them
    greater = [[0] * t for _ in range(h)]
    splits = 0
    values = range(n)
    for head in itertools.combinations(values, h):
        tail = [v for v in values if v not in head]
        splits += 1
        for row, x in zip(greater, head):
            for b, y in enumerate(tail):
                if y > x:
                    break
                row[b] += 1
    counts: dict[PeakSet, int] = {}
    for (before, a, rises), times in heads.items():
        at_h = before + (h,) if rises else before
        for (after, b, falls), tally in tails.items():
            pairs = times * tally
            above = pairs * greater[a][b]
            key = at_h + after
            counts[key] = counts.get(key, 0) + above
            key = (before + (h + 1,) if falls else before) + after
            counts[key] = counts.get(key, 0) + pairs * splits - above
    return {s: counts[s] for s in sorted(counts, key=lambda s: (s[-1] if s else 0, s))}


@pytest.mark.parametrize("n", range(1, 17))
def test_one_pattern_scan_matches_the_split_scan(n):
    # keys, key order and counts
    counts = enumerate_by_peak_set(n, max_n=16)
    reference = _reference_split_scan_counts(n)
    assert counts == reference
    assert list(counts) == list(reference)


@pytest.mark.parametrize("n, scanned", [(1, []), (2, [1]), (3, [1, 2]), (10, [5]), (11, [5, 6])])
def test_the_oracle_scans_each_pattern_length_once(monkeypatch, n, scanned):
    # S_h serves as heads and, read backwards, as tails when n is even; the
    # value splits are counted in closed form, not listed
    lengths = []
    permutations = itertools.permutations

    def counted(values, *args):
        lengths.append(len(values))
        return permutations(values, *args)

    def listed(*args):
        raise AssertionError("the value splits are listed")

    monkeypatch.setattr(itertools, "permutations", counted)
    monkeypatch.setattr(itertools, "combinations", listed)
    perms._peak_set_counts.cache_clear()
    try:
        assert sum(enumerate_by_peak_set(n, max_n=11).values()) == math.factorial(n)
    finally:
        perms._peak_set_counts.cache_clear()
    assert sorted(lengths) == scanned


@pytest.mark.parametrize("n", range(1, 12))
def test_pattern_split_count_matches_the_head_values_count(n):
    # keys, key order and counts, up to a length the listing scan cannot reach
    counts = enumerate_by_peak_set(n, max_n=11)
    reference = _reference_peak_set_counts(n)
    assert counts == reference
    assert list(counts) == list(reference)


def test_enumerate_keys_are_admissible_sets():
    for n in range(1, 15):
        for key in enumerate_by_peak_set(n, max_n=14):
            assert is_structurally_admissible(key)
            assert not key or key[-1] <= n - 1


def test_count_bruteforce_examples():
    assert count_bruteforce((2,), 3) == 2
    assert permutations_with_peak_set((2,), 3) == [(1, 3, 2), (2, 3, 1)]
    assert count_bruteforce((1,), 5) == 0
    # 400 = 25 * 2^4; also the exhaustive S_7 scan below
    assert count_bruteforce((4, 6), 7) == 400


def test_admissibility_examples():
    assert is_admissible((3, 5, 8), 9)
    assert not is_admissible((3, 4, 7), 8)
    for n in (1, 2, 5, 30):
        assert not is_admissible((1,), n)
    assert not is_admissible((2, 3), 6)
    for n in (1, 2, 9):
        assert is_admissible((), n)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        is_admissible((2,), 0)


def test_structural_violation_messages():
    assert structural_violation((2, 4)) is None
    assert "position 1" in structural_violation((1, 3))
    assert "adjacent" in structural_violation((2, 3))


@pytest.mark.parametrize("n", range(1, 9))
def test_admissibility_criterion_matches_bruteforce(n):
    # every subset of [n], not only well-formed peak sets with small max
    counts = enumerate_by_peak_set(n)
    elements = range(1, n + 1)
    for size in range(0, n + 1):
        for subset in itertools.combinations(elements, size):
            assert is_admissible(subset, n) == (counts.get(subset, 0) > 0)


@given(st.permutations(list(range(1, 9))))
def test_peaks_are_interior_and_nonadjacent(perm):
    peaks = peak_set(tuple(perm))
    n = len(perm)
    assert all(2 <= i <= n - 1 for i in peaks)
    assert all(b - a >= 2 for a, b in zip(peaks, peaks[1:]))


@given(st.sets(st.integers(min_value=1, max_value=12), max_size=5),
       st.integers(min_value=1, max_value=14), st.integers(min_value=0, max_value=6))
def test_admissibility_is_monotone_in_n(raw, n, extra):
    s = tuple(sorted(raw))
    if is_admissible(s, n):
        assert is_admissible(s, n + extra)


def test_enumeration_cap_is_enforced():
    with pytest.raises(EnumerationCapError):
        enumerate_by_peak_set(11)
    with pytest.raises(EnumerationCapError):
        count_bruteforce((2,), 6, max_n=5)
    with pytest.raises(EnumerationCapError):
        permutations_with_peak_set((2,), 6, max_n=5)
    # explicit override raises the limit
    assert sum(enumerate_by_peak_set(4, max_n=4).values()) == 24


def test_group_scan_collects_only_wanted_sets():
    groups = group_permutations_by_peak_set(4, [(2,), (3,), (2, 4)])
    assert sorted(groups) == [(2,), (2, 4), (3,)]
    assert groups[(2, 4)] == []  # needs length >= 5
    assert len(groups[(2,)]) == count_bruteforce((2,), 4)
    for perms in groups.values():
        assert perms == sorted(perms)


def test_structurally_admissible_sets_up_to_6():
    assert structurally_admissible_sets(6) == [
        (2,), (3,), (2, 4), (4,), (2, 5), (3, 5), (5,),
        (2, 4, 6), (2, 6), (3, 6), (4, 6), (6,),
    ]


def test_structurally_admissible_sets_ordering_and_count():
    # the level-by-level build against every subset of {2..14}, filtered
    # and put in (max, lexicographic) order, at every bound
    subsets = (c for size in range(1, 8) for c in itertools.combinations(range(2, 15), size))
    expected = sorted((s for s in subsets if all(b - a >= 2 for a, b in zip(s, s[1:]))),
                      key=lambda s: (s[-1], s))
    for m in range(-1, 15):
        assert structurally_admissible_sets(m) == [s for s in expected if s[-1] <= m]
