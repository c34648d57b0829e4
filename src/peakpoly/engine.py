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
from dataclasses import dataclass
from operator import add
from typing import Iterable, Iterator

from peakpoly.intpoly import BinomialPolynomial, _shift_center
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


def _peak_coefficients(s: PeakSet) -> tuple[int, ...]:
    """Coefficients of p_s at centre max(s), trimmed of trailing zeros (so
    the degree check can see a short result), for a canonical, admissible
    s; (1,) for the empty set.  The down-closure of s goes through _build
    in increasing maximum, so s, the one set of maximum max(s), comes last.
    """
    coeffs = (1,)
    for _, coeffs in _build(sorted(filter(None, _closure(s)), key=lambda t: t[-1])):
        pass
    return coeffs


def _build(sets: Iterable[PeakSet]) -> Iterator[tuple[PeakSet, tuple[int, ...]]]:
    """(t, coefficients of p_t at centre max(t), trimmed) for each t of
    sets (canonical, nonempty, admissible), from a table of the sets built
    so far that lives only as long as the iteration.

    p_t is its first difference, the sum at centre m of the admissible
    derived sets' polynomials (each of degree <= m - 2), shifted right with
    p_t(m) = 0.  All derived sets of t = u + (m,) but u (omitted at the last
    pivot) have maximum m - 1: they are summed at m - 1 with u shifted
    there, the one shift per set, and the antidifference step takes the
    sum to p_t at m directly.  So each nonempty derived set must come
    earlier, as it does when sets come in increasing maximum.
    """
    table = {(): (1,)}
    for t in sets:
        m, u = t[-1], t[:-1]
        shifted_u = _shift_center(list(table[u]), m - 1 - (u[-1] if u else 0))
        others = [table[part] for _, part in _parts(t)[:-1]]  # the last part is u
        difference = list(map(sum, itertools.zip_longest(shifted_u, *others, fillvalue=0)))
        # p_t at m from its difference d at m - 1 and p_t(m) = 0: c_0 = 0
        # and c_j = d_(j-1) + d_j, one Pascal step from m - 1 to m
        coeffs = [0, *map(add, difference, difference[1:]), difference[-1]]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        # CPython's int addition allocates a digit more than a sum may need,
        # and a sweep holds every entry until it ends: c // 1 copies each at
        # its exact size (peak RSS of a sweep to M = 24, CPython 3.11:
        # 118 MB without the copy, 100 MB with it)
        table[t] = tuple([c // 1 for c in coeffs])
        yield t, table[t]


def count_via_formula(positions: Iterable[int], n: int) -> int:
    """p_S(n) * 2^(n - |S| - 1) when S is n-admissible, else 0."""
    s = as_peak_set(positions)
    if n < 1:
        raise ValueError("n must be >= 1")
    if _violation(s) is not None or (s and s[-1] >= n):
        return 0
    poly = BinomialPolynomial(s[-1] if s else 0, _peak_coefficients(s))
    return poly.evaluate(n) * 2 ** (n - len(s) - 1)


def _recursion_counts(s: PeakSet) -> Iterator[int]:
    """count(s, q) for q = 1, 2, ... for a canonical s (0 if inadmissible).

    count(t, q) = 2 count(t, q-1) + the sum over derived pairs of
    2 count(lowered, q-1) + count(omitted, q-1) when max(t) < q, else 0,
    over the closure of s under derived sets, one length at a time.
    """
    if _violation(s) is not None:
        yield from itertools.repeat(0)  # never returns
    terms = {t: [(2, t), *rule] for t, rule in _closure(s).items()}
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
