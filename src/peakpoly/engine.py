"""Peak polynomials and permutation counts by peak set.

For an admissible peak set S the number of length-n permutations whose
peak set is exactly S factors as

    count(S, n) = p_S(n) * 2^(n - |S| - 1)

where p_S is an integer-valued polynomial of degree max(S) - 1, the peak
polynomial of S, held as its coefficients in the binomial basis centred
at m = max(S).  Two theorems build it, and each count route runs one:
the formula route the alternating three-term recursion of Billey, Burdzy
and Sagan, from at most m - 1 smaller sets (see _chain; the sweep packs
the same step in verify._walk); the recursion route the subtraction-free
recursion over derived sets (lowering or omitting one element of S), on
coefficient vectors (see _recursion_coefficients).  With the exhaustive
oracle, counts come three independent ways, and each route can
cross-check the others.
"""

import itertools
from collections import namedtuple
from collections.abc import Iterable, Iterator
from operator import add, mul, sub

from peakpoly.intpoly import BinomialPolynomial, _trimmed
from peakpoly.perms import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    PeakSet,
    Permutation,
    _admissible,
    _format_set,
    _violation,
    as_peak_set,
    group_permutations_by_peak_set,
)

# the most sets that _closure walks; {2,4,...,24}, the largest closure that
# CI reaches, has 4,096, and {100,200,300,400}'s exhausts memory
_CLOSURE_CAP = 100_000


class DerivedPair(namedtuple("DerivedPair", "pivot lowered lowered_admissible omitted")):
    """The two sets obtained from a peak set at one chosen element, pivot.

    lowered: the chosen element and everything above it slide down by one.
    omitted: the chosen element is dropped and everything above it slides
    down by one.  `lowered` may fail structural admissibility (the slide
    can create an adjacent pair), as lowered_admissible says; `omitted`
    never does.
    """

    __slots__ = ()


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
    gives the constant 1.  Each call builds the chain of S afresh on
    coefficient lists, at most max(S) - 1 sets, and keeps nothing once it
    returns.
    """
    s = _admissible(positions)
    return BinomialPolynomial(s[-1] if s else 0, _peak_coefficients(s))


def _closure(s: PeakSet) -> list[tuple[PeakSet, list[PeakSet]]]:
    """The closure of s under derived sets, in increasing maximum, so ()
    first and s last, each set with its terms: each admissible lowered set
    once and each omitted set once, the lists sharing one copy of each
    set.  s must be canonical and admissible; the walk keeps an explicit
    stack, and refuses a closure of more than _CLOSURE_CAP sets as soon
    as it has found them."""
    closure: list[tuple[PeakSet, list[PeakSet]]] = []
    found = {s: s}
    pending = [s]
    while pending:
        if len(found) > _CLOSURE_CAP:
            raise EnumerationCapError(f"the closure of {_format_set(s)} under derived "
                                      f"sets has more than {_CLOSURE_CAP} sets")
        t = pending.pop()
        parts: list[PeakSet] = []
        closure.append((t, parts))
        for _, lowered, lowered_admissible, omitted in _slides(t):
            for u in (lowered, omitted) if lowered_admissible else (omitted,):
                if u not in found:
                    found[u] = u
                    pending.append(u)
                parts.append(found[u])
    closure.sort(key=lambda item: item[0][-1] if item[0] else 0)
    return closure


class NegativeCoefficientError(ArithmeticError):
    """A set was built with a negative coefficient, which the paper rules out."""


def _negative(t: PeakSet, coeffs: Iterable[int], then: str) -> NegativeCoefficientError:
    """The error for the set t, whose coefficients coeffs hold some c_j < 0:
    it names t and the first such c_j, then says what then follows."""
    j, c = next((j, c) for j, c in enumerate(coeffs) if c < 0)
    return NegativeCoefficientError(
        f"p_S for S = {_format_set(t)} has c_{j} = {c} < 0; {then}")


def _peak_coefficients(s: PeakSet) -> tuple[int, ...]:
    """Coefficients of p_s at centre max(s), trimmed of trailing zeros (so
    the degree check can see a short result), for a canonical s; (1,) for
    () and () for an inadmissible s, whose p is 0.  Built along the chain
    of s (see _chain); a set below s with some c_j < 0 raises, and s is
    returned as built."""
    if not s:
        return (1,)
    if _violation(s) is not None:
        return ()
    for t, coeffs in _chain(s):
        if min(coeffs) < 0 and t != s:
            raise _negative(t, coeffs, f"{_format_set(s)} is not built")
    return _trimmed(coeffs)


def _chain(s: PeakSet) -> Iterator[tuple[PeakSet, list[int]]]:
    """(t, p_t at centre m = max(t), m coefficients) for each t of the chain
    of a canonical, admissible s, the sets (s_1, ..., s_(i-1), m) with
    s_(i-1) + 2 <= m <= s_i (s_0 = 0), in increasing m, s last.  With
    t1 = t minus m, t's parent, and t2 = t1 + (m - 1), its previous
    sibling (inadmissible, p = 0, for the first child),

        p_t(x) = p_t1(m - 1) C(x, m - 1) - 2 p_t1(x) - p_t2(x)

    (Billey, Burdzy and Sagan): a is t1's list, a Pascal step on per child,
    at centre m - 1; b t2's; row C(m, j + 1).  With x = 2a + b,
    c_j = a_0 row_j - x_j - x_(j+1), the step that verify._walk packs.  No
    list is changed once yielded."""
    a, row, u = [1], [1], ()  # p_() at centre 0; C(1, j + 1)
    for end in s:
        b = [0] * len(a)
        for m in range(u[-1] + 2 if u else 2, end + 1):
            a = [*map(add, a, a[1:]), a[-1]]
            while len(row) < m:
                row = [*map(add, row, [1] + row), 1]
            x = [*map(add, map(add, a, a), b), *b[len(a):]]
            x += [0] * (m + 1 - len(x))
            scaled = row if a[0] == 1 else map(mul, row, itertools.repeat(a[0]))
            b = [*map(sub, map(sub, scaled, x), x[1:])]
            yield u + (m,), b
        a, u = b, u + (end,)


def count_via_formula(positions: Iterable[int], n: int) -> int:
    """p_S(n) * 2^(n - |S| - 1) when S is n-admissible, else 0."""
    s = as_peak_set(positions)
    if n < 1:
        raise ValueError("n must be >= 1")
    if s and s[-1] >= n:
        return 0
    poly = BinomialPolynomial(s[-1] if s else 0, _peak_coefficients(s))
    return poly.evaluate(n) * 2 ** (n - len(s) - 1)


def _recursion_coefficients(s: PeakSet) -> list[int]:
    """p_s at centre m = max(s), untrimmed, for a canonical, admissible s,
    by the subtraction-free recursion: Delta p_t = the sum of p_T over t's
    terms T (see _closure), so c_0 = 0 and c_j is the sum of the T's
    c_(j-1) at centre m; [1] for ().  The sets are built in increasing
    maximum, every held vector a Pascal step on per unit of maximum, and
    a vector is dropped after its last reader."""
    closure = _closure(s)
    last = {u: i for i, (_, parts) in enumerate(closure) for u in parts}
    vectors: dict[PeakSet, list[int]] = {(): [1]}  # closure[0] is ()
    centre = 0
    for i, (t, parts) in enumerate(closure[1:], 1):
        m = t[-1]
        for _ in range(centre, m):
            for v in vectors.values():
                v[:-1] = map(add, v, v[1:])
        centre = m
        total = [0] * (m - 1)
        for v in map(vectors.__getitem__, parts):
            total[:len(v)] = map(add, total, v)
        vectors[t] = [0, *total]
        for u in parts:
            if last[u] == i:
                del vectors[u]
    return vectors[s]


def _recursion_counts(s: PeakSet) -> Iterator[int]:
    """count(s, q) for q = 1, 2, ... for a canonical s (0 if inadmissible):
    0 for q <= max(s), then p_s(q) 2^(q - |s| - 1), p_s moved a Pascal step
    per length, so its c_0 is p_s(q)."""
    if _violation(s) is not None:
        yield from itertools.repeat(0)  # never returns
    m = s[-1] if s else 0
    yield from itertools.repeat(0, m)
    v = _recursion_coefficients(s)
    for q in itertools.count(m + 1):
        v[:-1] = map(add, v, v[1:])
        yield v[0] << (q - len(s) - 1)


def count_via_recursion(positions: Iterable[int], n: int) -> int:
    """The same count as count_via_formula, by the paper's subtraction-free
    recursion over derived sets, run bottom-up on coefficient vectors (see
    _recursion_coefficients), so n sets no depth limit."""
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
