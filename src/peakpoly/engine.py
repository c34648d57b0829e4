"""Peak polynomials and permutation counts by peak set.

For an admissible peak set S the number of length-n permutations whose
peak set is exactly S factors as

    count(S, n) = p_S(n) * 2^(n - |S| - 1)

where p_S is an integer-valued polynomial of degree max(S) - 1, the peak
polynomial of S.  This module builds p_S exactly, in the binomial basis
centred at max(S), by a recursion on derived sets:

  * lowering or omitting one element of S yields 2|S| smaller sets whose
    peak polynomials sum to the first difference of p_S;
  * p_S(max(S)) = 0 anchors the antidifference that recovers p_S itself.

Counts are then available three independent ways: the closed formula
above, a one-step recursion on n, and the exhaustive oracle, so each
route can cross-check the others.
"""

import itertools
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from peakpoly.intpoly import BinomialPolynomial, binomial_row
from peakpoly.perms import (
    DEFAULT_ENUMERATION_CAP,
    PeakSet,
    Permutation,
    _admissible,
    _violation,
    as_peak_set,
    group_permutations_by_peak_set,
)

@dataclass(frozen=True)
class DerivedPair:
    """The two sets obtained from a peak set at one chosen element.

    lowered: the chosen element and everything above it slide down by one.
    omitted: the chosen element is dropped and everything above it slides
    down by one.  `lowered` may fail structural admissibility (the slide
    can create an adjacent pair); `omitted` never does.
    """

    pivot: int
    lowered: PeakSet
    lowered_admissible: bool
    omitted: PeakSet


def _slides(s: PeakSet) -> list[tuple[int, PeakSet, bool, PeakSet]]:
    """(pivot, lowered, lowered admissible, omitted) at each element of s.

    s must be canonical and structurally admissible, so the lowered set
    is admissible exactly when the pivot sits more than 2 above its
    predecessor (or above 0, for the first element).
    """
    down = tuple([v - 1 for v in s])
    out = []
    previous = 0
    for idx, pivot in enumerate(s):
        kept = s[:idx]
        out.append((pivot, kept + down[idx:], pivot - previous > 2, kept + down[idx + 1:]))
        previous = pivot
    return out


def _parts(t: PeakSet) -> list[tuple[int, PeakSet]]:
    """The admissible derived sets of a canonical, admissible t (none if
    t is empty), weighted as in the count recursion (2 if lowered, 1 if
    omitted); the last is t[:-1], omitted at the last pivot."""
    parts = []
    for _, lowered, lowered_admissible, omitted in _slides(t):
        if lowered_admissible:
            parts.append((2, lowered))
        parts.append((1, omitted))
    return parts


def derived_sets(positions: Iterable[int]) -> tuple[DerivedPair, ...]:
    """All |S| derived (lowered, omitted) pairs of a peak set, in position order.

    Requires a nonempty, structurally admissible set: with an adjacent pair
    present the slide would collide two elements, and with 1 present the
    lowered set would need the impossible position 0.
    """
    s = _admissible(positions, "derived sets are defined only for nonempty peak sets")
    return tuple(DerivedPair(*slide) for slide in _slides(s))


def peak_polynomial(positions: Iterable[int]) -> BinomialPolynomial:
    """The peak polynomial of a structurally admissible (or empty) peak set.

    Returned centred at max(S) with constant coefficient 0; the empty set
    gives the constant 1.  Each call builds the down-closure of S afresh
    and keeps nothing once it returns.
    """
    s = _admissible(positions)
    return BinomialPolynomial(s[-1] if s else 0, _peak_coefficients(s))


def _closure(s: PeakSet) -> dict[PeakSet, list[tuple[int, PeakSet]]]:
    """Each set in the closure of s under derived sets, with its _parts.

    s must be canonical and admissible; the walk keeps an explicit stack.
    """
    closure: dict[PeakSet, list[tuple[int, PeakSet]]] = {}
    pending = [s]
    while pending:
        t = pending.pop()
        if t in closure:
            continue
        closure[t] = _parts(t)
        pending += [u for _, u in closure[t]]
    return closure


def _peak_coefficients(s: PeakSet, closure: dict | None = None) -> tuple[int, ...]:
    """Coefficients of p_s at centre max(s), trimmed of trailing zeros (so
    the degree check can see a short result), for a canonical, admissible
    s; (1,) for the empty set.  The down-closure of s (closure, when the
    caller has walked it already) goes through _build in increasing
    maximum, so s, the one set of maximum max(s), comes last, and it is
    the only set handed out.
    """
    sets = sorted(filter(None, _closure(s) if closure is None else closure), key=lambda t: t[-1])
    coeffs = (1,)
    for _, coeffs in _build(sets, len(sets) - 1):
        pass
    return coeffs


def _build(sets: Sequence[PeakSet],
           start: int = 0) -> Iterator[tuple[PeakSet, tuple[int, ...]]]:
    """(t, coefficients of p_t at centre max(t), trimmed) for each t of
    sets[start:] (sets canonical, nonempty, admissible), from a table of
    the sets built so far that lives only as long as the iteration.

    p_t is its first difference, the sum at centre m of the admissible
    derived sets' polynomials (each of degree <= m - 2), shifted right with
    p_t(m) = 0.  All derived sets of t = u + (m,) but u (omitted at the last
    pivot) have maximum m - 1: they are summed at m - 1 with u shifted
    there, and the antidifference step takes the sum to p_t at m directly.
    So each nonempty derived set must come earlier, as it does when sets
    come in increasing maximum.

    _packed does that arithmetic in one pass on whole polynomials, each
    packed into one int of limbs as wide as the least multiple of 64 bits
    above _limb_bound; each entry is handed out as a tuple.
    """
    if not sets:
        return
    width = -(-_limb_bound(sets).bit_length() // 64) * 64
    for t, packed in itertools.islice(_packed(sets, width), start, None):
        yield t, _limbs(packed, width)


def _limb_bound(sets: Sequence[PeakSet]) -> int:
    """The largest B(m, k) over the classes of sets by maximum m and size
    k, from B(0, 0) = 1: a bound on every limb-by-limb value that _packed
    makes for sets, their own coefficients included.

    Every term of a step is >= 0.  A set of class (m, k) whose u has
    maximum below has, besides u, at most k lowered parts of class
    (m - 1, k) and k - 1 omitted ones of class (m - 1, k - 1), each of
    weight 1; u's shift to m - 1 weighs w, the C(m - 1 - below, i) summed
    up to the last i that meets one of u's limbs (at most below, or 1 for
    ()).  So c_j = d_(j-1) + d_j is at most twice the weighted sum.
    """
    bound = {(0, 0): 1}  # B by (maximum, size), filled in increasing maximum
    for m, k, below in sorted({(t[-1], len(t), t[-2] if len(t) > 1 else 0) for t in sets}):
        steps = m - 1 - below
        w = sum(binomial_row(steps, min(steps, max(below - 1, 0))))
        b = 2 * (w * bound[below, k - 1] + k * bound.get((m - 1, k), 0)
                 + (k - 1) * bound.get((m - 1, k - 1), 0))
        bound[m, k] = max(bound.get((m, k), 0), b)
    return max(bound.values())


def _packed(sets: Sequence[PeakSet], width: int) -> Iterator[tuple[PeakSet, int]]:
    """(t, p_t packed into one int) for each t of sets, in order.

    Limb j of an entry, width bits wide, holds c_j at centre max(t), and
    entries are keyed by bitmask, bit v set for each v of t.  Each derived
    part's key then comes from shifts of t's: at pivot p, with low the bits
    of t below p, the lowered part is low | (t >> p) << (p - 1), and the
    omitted part is that without its bit p - 1.  No later set in the call
    reads a set of the top maximum, so none of those is stored.

    The parts of t other than u have maximum m - 1, so an entry of maximum
    k is read as one of them only by sets of maximum k + 1.  As a u it is
    read first by u + (k + 2,), if at all, and then one level up each
    time: each reader's lowered part at its top is the reader one level
    down.  So an entry stays in its level's dict until the sets of maximum
    k + 2 are built, and is dropped then unless one of them read it as u;
    a u's entry, once read, moves to kept, shifted to the centre m - 1 of
    its last reader, and its next reader moves it one Pascal step on.  A
    chain of single sets holds three entries, not all of them.

    Why no limb ever carries into the next: every term of a step is >= 0
    (the entry of () is 1, u's shift weighs it by binomials, the other
    parts by 1, and the antidifference adds neighbours), and each
    limb-by-limb value of a step, partial sums included, is at most
    _limb_bound(sets) < 2^width.  Packing is linear, so each is the int's
    own base-2^width digit: the int arithmetic carries nothing across a
    limb, and each p_t comes out exact.
    """
    top = sets[-1][-1]
    kept = {0: 1}  # each u's entry, shifted to the centre of its last reader
    levels: dict[int, dict[int, int]] = {}  # by maximum, entries not yet read as u
    m = 0
    for t in sets:
        if t[-1] != m:
            m = t[-1]
            for k in [k for k in levels if k < m - 2]:
                del levels[k]
            parts = levels.get(m - 1, {})
            stored = levels[m] = {}
        bits = 0
        for v in t:
            bits |= 1 << v
        # u one step on, to m - 1
        u = bits ^ 1 << m
        a = kept[u] if u in kept else levels[t[-2]].pop(u)
        kept[u] = d = a + (a >> width)
        below = 0  # the element before the pivot, 0 at the first
        for p in t[:-1]:
            low = bits & ((1 << p) - 1)
            lowered = low | (bits >> p) << (p - 1)
            if p - below > 2:  # else the lowered part has adjacent elements or 1
                d += parts[lowered]
            d += parts[lowered ^ 1 << (p - 1)]
            below = p
        if m - below > 2:
            d += parts[u | 1 << (m - 1)]
        # p_t at m from its difference d at m - 1 and p_t(m) = 0: c_0 = 0
        # and c_j = d_(j-1) + d_j, one Pascal step from m - 1 to m; that is
        # (d << width) + ((d >> width) << width), in three passes
        packed = (d + (d >> width)) << width
        if m < top:
            stored[bits] = packed
        yield t, packed


def _limbs(packed: int, width: int) -> tuple[int, ...]:
    """The limbs of packed, width (a multiple of 64) bits each, lowest
    first, up to the last nonzero one; O(size) whatever the width.

    Up to maximum 22 every coefficient fits one 64-bit word (at width 64
    each word is a limb), and then one unpack of the words gives the
    limbs: the sweep workload's wall_s is 0.229 s this way against
    0.295 s with one int.from_bytes per limb (BENCH_sweep_unpack.json).
    """
    count = -(-packed.bit_length() // width)
    data = packed.to_bytes(count * width // 8, "little")
    words = struct.unpack(f"<{len(data) // 8}Q", data)
    low = words[::width // 64]
    if sum(low) == sum(words):  # the words above each limb's lowest are 0
        return low
    size = width // 8
    return tuple([int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)])


def count_via_formula(positions: Iterable[int], n: int) -> int:
    """p_S(n) * 2^(n - |S| - 1) when S is n-admissible, else 0."""
    s = as_peak_set(positions)
    if n < 1:
        raise ValueError("n must be >= 1")
    if _violation(s) is not None or (s and s[-1] >= n):
        return 0
    poly = BinomialPolynomial(s[-1] if s else 0, _peak_coefficients(s))
    return poly.evaluate(n) * 2 ** (n - len(s) - 1)


def _recursion_counts(s: PeakSet, closure: dict | None = None) -> Iterator[int]:
    """count(s, q) for q = 1, 2, ... for a canonical s (0 if inadmissible).

    count(t, q) = 2 count(t, q-1) + the sum over derived pairs of
    2 count(lowered, q-1) + count(omitted, q-1) when max(t) < q, else 0,
    over the closure of s under derived sets (closure, when the caller has
    walked it already), one length at a time.
    """
    if _violation(s) is not None:
        yield from itertools.repeat(0)  # never returns
    if closure is None:
        closure = _closure(s)
    terms = {t: [(2, t), *rule] for t, rule in closure.items()}
    counts = {t: 0 if t else 1 for t in terms}
    for q in itertools.count(2):
        yield counts[s]
        counts = {t: sum(w * counts[u] for w, u in rule) if not t or t[-1] < q else 0
                  for t, rule in terms.items()}


def count_via_recursion(positions: Iterable[int], n: int) -> int:
    """The same count as count_via_formula, by the recursion on length.

    Each step trades length q for length q-1 over the derived sets;
    inadmissibility at the current length is the base case.  Runs bottom-up
    from length 1 and keeps one length's counts, so n sets no depth limit.
    """
    s = as_peak_set(positions)
    if n < 1:
        raise ValueError("n must be >= 1")
    return next(itertools.islice(_recursion_counts(s), n - 1, None))


INSERTION_CASE_LABELS = ("1", "2", "3", "4.1", "4.2", "5")


def insertion_cases(positions: Iterable[int], q: int,
                    max_n: int = DEFAULT_ENUMERATION_CAP,
                    ) -> dict[str, list[Permutation]]:
    """Build every length-(q+1) permutation with peak set S by insertion.

    Sources are drawn exhaustively from S_q and the value q+1 is inserted
    where each case dictates (positions are 1-based; i_1 < ... < i_s are
    the elements of S):

      "1":   source has peak set S; q+1 appended after the last entry
      "2":   source has peak set S; q+1 inserted at position i_s
      "3":   source has the set lowered at element l; q+1 at position i_l
      "4.1": source lowered at element l >= 2; q+1 at position i_(l-1)
      "4.2": source lowered at the first element; q+1 prepended
      "5":   source has the set omitted at element l; q+1 at position i_l

    The six lists are pairwise disjoint and their union is exactly the set
    of length-(q+1) permutations with peak set S; each list is sorted
    lexicographically so output is deterministic.
    """
    s = _admissible(positions, "insertion cases are defined only for nonempty peak sets")
    if q < s[-1]:
        raise ValueError(f"q must be at least max(S) = {s[-1]}, got {q}")

    slides = _slides(s)
    wanted = {s}.union(*((lowered, omitted) for _, lowered, _, omitted in slides))
    groups = group_permutations_by_peak_set(q, wanted, max_n=max_n)

    def insert(perm: Permutation, index0: int) -> Permutation:
        return perm[:index0] + (q + 1,) + perm[index0:]

    cases: dict[str, list[Permutation]] = {label: [] for label in INSERTION_CASE_LABELS}
    cases["1"] += [perm + (q + 1,) for perm in groups[s]]
    cases["2"] += [insert(perm, s[-1] - 1) for perm in groups[s]]
    for idx, (pivot, lowered, _, omitted) in enumerate(slides):
        for perm in groups[lowered]:
            cases["3"].append(insert(perm, pivot - 1))
            if idx == 0:
                cases["4.2"].append((q + 1,) + perm)
            else:
                cases["4.1"].append(insert(perm, s[idx - 1] - 1))
        for perm in groups[omitted]:
            cases["5"].append(insert(perm, pivot - 1))
    return {label: sorted(perms) for label, perms in cases.items()}
