"""Peak polynomials and permutation counts by peak set.

For an admissible peak set S the number of length-n permutations whose
peak set is exactly S factors as

    count(S, n) = p_S(n) * 2^(n - |S| - 1)

where p_S is an integer-valued polynomial of degree max(S) - 1, the peak
polynomial of S.  This module builds p_S exactly, in the binomial basis
centred at m = max(S), by the alternating-sum recursion of Billey, Burdzy
and Sagan, from at most m - 1 smaller sets (see _build).  The recursion on
derived sets (lowering or omitting one element of S yields 2|S| smaller
sets) drives the count recursion on n and the insertion cases.  So counts
come three independent ways, the closed formula above, that recursion and
the exhaustive oracle, and each route can cross-check the others.
"""

import itertools
import struct
from operator import add, itemgetter, lshift, mul, or_
from typing import Callable, Collection, Iterable, Iterator, NamedTuple

from peakpoly.intpoly import BinomialPolynomial
from peakpoly.perms import (
    DEFAULT_ENUMERATION_CAP,
    PeakSet,
    Permutation,
    _admissible,
    _violation,
    as_peak_set,
    group_permutations_by_peak_set,
)

class DerivedPair(NamedTuple):
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
    gives the constant 1.  Each call builds the chain of S afresh, at most
    max(S) - 1 sets, and keeps nothing once it returns.
    """
    s = _admissible(positions)
    return BinomialPolynomial(s[-1] if s else 0, _peak_coefficients(s))


def _closure(s: PeakSet) -> tuple[list[int], list[itemgetter]]:
    """The closure of s under derived sets, as the count recursion's index
    table: the maximum of each set (0 for ()), in increasing order, so ()
    is first and s last, and for each set one getter over those positions
    that reads its terms, t itself and each admissible lowered set twice
    (weight 2), each omitted set once.  So every getter has at least two
    indices and returns a tuple, whose sum is the set's next count.

    s must be canonical and admissible; the walk keeps an explicit stack,
    and the sets themselves are dropped once the table is built.
    """
    terms: dict[PeakSet, list[PeakSet]] = {}
    pending = [s]
    while pending:
        t = pending.pop()
        if t in terms:
            continue
        parts = terms[t] = [t, t]
        for _, lowered, lowered_admissible, omitted in _slides(t):
            if lowered_admissible:
                parts += (lowered, lowered)
            parts.append(omitted)
        pending += parts
    order = sorted(terms, key=lambda t: t[-1] if t else 0)
    index = {t: i for i, t in enumerate(order)}
    return ([t[-1] if t else 0 for t in order],
            [itemgetter(*map(index.__getitem__, terms[t])) for t in order])


class NegativeCoefficientError(ArithmeticError):
    """The build of a set stopped below it, at a set with a negative coefficient."""


def _peak_coefficients(s: PeakSet) -> tuple[int, ...]:
    """Coefficients of p_s at centre max(s), trimmed of trailing zeros (so
    the degree check can see a short result), for a canonical s; (1,) for
    () and () for an inadmissible s, whose p is 0 (see _build).  Built
    along the path to s, its chain, unless a set on it trips."""
    if not s:
        return (1,)
    if _violation(s) is not None:
        return ()
    handed = []  # s, or the set that tripped below it
    _build(s, s[-1], lambda t, coeffs, tripped: handed.append((t, coeffs)))
    ((t, coeffs),) = handed
    if t != s:
        j = next(j for j, c in enumerate(coeffs) if c < 0)
        raise NegativeCoefficientError(f"p_S for S = {{{','.join(map(str, t))}}} has c_{j} = "
                                       f"{coeffs[j]} < 0; {{{','.join(map(str, s))}}} is not built")
    return coeffs


def _build(path: PeakSet, top: int,
           visit: Callable[[PeakSet, tuple[int, ...], bool], object]) -> None:
    """visit(t, coefficients of p_t at centre max(t), trimmed, tripped)
    for each set t that _walk(path, top) reaches, if path is () (a sweep
    to top), else for path alone (of its chain, top = max(path)).  With
    m = max(t), t1 = t minus m, t2 = t1 + (m - 1),

        p_t(x) = p_t1(m - 1) C(x, m - 1) - 2 p_t1(x) - p_t2(x),

    p_() = 1 and p of an inadmissible set 0, in W-bit limbs, W the least
    multiple of 64 with _limb_bound < 2^(W-1) over the walk's (maximum,
    size) classes.  A set that trips is handed out, exactly, with tripped
    true, and no set built from it is built.  For any other set, visit's
    return goes on to _walk: _SKIP passes over the set's subtree, and any
    other true value prunes.
    """
    sizes = {} if path else {m: range(1, m // 2 + 1) for m in range(2, top + 1)}
    for i, (a, b) in enumerate(zip((0,) + path, path), 1):  # the chain's classes
        sizes.update(dict.fromkeys(range(a + 2, b + 1), (i,)))
    width = (_limb_bound(sizes).bit_length() // 64 + 1) * 64
    # 2^(W-1) in each limb of the top maximum, as many as any entry has
    high = ((1 << top * width) - 1) // ((1 << width) - 1) << (width - 1)

    def unpack(t: PeakSet, packed: int) -> bool:
        if packed < 0 or packed & high:
            coeffs = [c - (1 << width - 1) for c in _limbs(packed + high, width)]
            while coeffs[-1] == 0:
                coeffs.pop()
            visit(t, tuple(coeffs), True)
            return True
        if not path or t[-1] == top:
            return visit(t, _limbs(packed, width), False)
        return False

    _walk(path, top, width, unpack)


def _limb_bound(sizes: dict[int, Collection[int]]) -> int:
    """The largest beta_(m, k)[j], a bound on |c_j| over the sets of the
    class of maximum m and size k (the classes: sizes by maximum), with no
    sign assumed.  g_k' bounds each set of size k' and maximum <= m - 2 at
    centre m - 1, from g_0 = [1]; at each level it takes in beta_(m-2, k')
    and moves a Pascal step, P(v)[j] = v[j] + v[j + 1].  By the step,
    beta_(m, k)[j] = g_(k-1)[0] C(m, j + 1) + P(x)[j], x = 2 g_(k-1) +
    beta_(m-1, k) (0 if not built) bounding _walk's x.  As P(v) >= v,
    beta_(m, k) covers x and the stepped parents, and beta_(m+1, k) covers it."""
    read = {k - 1 for ks in sizes.values() for k in ks}  # g only for these
    g = {0: [1]}
    beta: dict[int, dict[int, list[int]]] = {}  # by maximum m - 2..m, then size
    row = [1]  # C(m, j + 1) for j = 0..m - 1
    largest = 0
    for m in range(2, max(sizes) + 1):
        row = [*map(add, row, [1] + row), 1]
        for k, b in beta.pop(m - 2, {}).items():
            if k in read:
                v = g.get(k, [])
                g[k] = [*map(max, v, b), *v[len(b):], *b[len(v):]]
        g = {k: [*map(add, v, v[1:]), v[-1]] for k, v in g.items()}
        below, level = beta.get(m - 1, {}), beta.setdefault(m, {})
        for k in sizes.get(m, ()):
            v, b = g[k - 1], below.get(k, [])
            x = [*map(add, map(add, v, v), b), *map(add, v[len(b):], v[len(b):]), *b[len(v):]]
            x += [0] * (m + 1 - len(x))
            scaled = row if v[0] == 1 else map(mul, row, itertools.repeat(v[0]))  # 1 for size 1
            b = level[k] = list(map(add, map(add, scaled, x), x[1:]))
            if k not in sizes.get(m + 1, ()):
                largest = max(largest, *b)
    return largest


# what a visit returns to have _walk pass over the subtree of the set it
# was handed and go on to that set's next sibling
_SKIP = "skip"


def _walk(path: PeakSet, top: int, width: int,
          visit: Callable[[PeakSet, int], object]) -> None:
    """visit(t, p_t packed into one int) for each set t of the chain of
    path (with a_0 = 0, each (a_1, ..., a_(i-1), j), a_(i-1) + 2 <= j <=
    a_i), then each extending path with max <= top, depth first over the
    prefix tree of admissible sets, children in increasing last element:
    in lexicographic order.  A visit that returns _SKIP passes over t's
    subtree; any other true one prunes t's subtree and its later siblings,
    the sets built from t.

    Limb j, width bits wide, holds c_j at centre m = max(t).  t1 is t's
    parent u and t2 its previous sibling, so u's frame holds what a step
    reads: u's entry a, a Pascal step on per child (a + (a >> width)), at
    centre m - 1; b, the previous sibling's (0 when t2 is inadmissible);
    ROW, C(x, m - 1) at centre m (limb j C(m, j + 1)), one step on per
    child.  The step is x = 2a + b, P = (a & MASK) ROW - x - (x >> width).

    No step carries: a and b did not trip (or t would be pruned), so are
    exact with limbs in [0, 2^(width-1)), and the stepped a and x add
    nonnegative limbs below _limb_bound < 2^(width-1).  Packing is linear,
    so P = sum of c_j 2^(j width), j < m, exactly, |c_j| < 2^(width-1); and
    an integer has one expansion in digits from [-2^(width-1), 2^(width-1)).
    So if all c_j >= 0, they are P's digits, no top bit set; if some
    c_j < 0, P < 0 or a digit has its top bit set: the trip, P < 0 or a top
    bit set, is some c_j < 0, and an entry that does not trip is exact.
    """
    mask = (1 << width) - 1
    # a frame: u, a, b, the next child's m and its ROW, the last child's m
    frames = [((), 1, 0, 2, (1 << width) + 2, path[0] if path else top)]
    while frames:
        u, a, b, k, row, end = frames.pop()
        for k in range(k, end + 1):
            a += a >> width
            x = 2 * a + b
            b = (a & mask) * row - x - (x >> width)
            t = u + (k,)
            skip = visit(t, b)
            if skip and skip is not _SKIP:
                break
            row += (row << width) | 1
            last = path[len(t)] if len(t) < len(path) else top  # of t's children
            if k + 2 <= last and not skip and (len(t) > len(path) or t == path[:len(t)]):
                # u resumes at its next child once t's subtree is walked
                frames += [(u, a, b, k + 1, row, end),
                           (t, b, 0, k + 2, row + ((row << width) | 1), last)]
                break


def _limbs(packed: int, width: int) -> tuple[int, ...]:
    """The limbs of packed, width (a multiple of 64) bits each, lowest
    first, up to the last nonzero one, from one unpack into 64-bit words;
    each column of upper words is ORed in at C level, unless all 0."""
    count = -(-packed.bit_length() // width)
    words = struct.unpack(f"<{count * width // 64}Q", packed.to_bytes(count * width // 8, "little"))
    step = width // 64
    limbs = words[::step]
    for i in range(1, step):
        column = words[i::step]
        if any(column):
            limbs = map(or_, limbs, map(lshift, column, itertools.repeat(64 * i)))
    return tuple(limbs)


def count_via_formula(positions: Iterable[int], n: int) -> int:
    """p_S(n) * 2^(n - |S| - 1) when S is n-admissible, else 0."""
    s = as_peak_set(positions)
    if n < 1:
        raise ValueError("n must be >= 1")
    if s and s[-1] >= n:
        return 0
    poly = BinomialPolynomial(s[-1] if s else 0, _peak_coefficients(s))
    return poly.evaluate(n) * 2 ** (n - len(s) - 1)


def _recursion_counts(s: PeakSet) -> Iterator[int]:
    """count(s, q) for q = 1, 2, ... for a canonical s (0 if inadmissible).

    count(t, q) = 2 count(t, q-1) + the sum over derived pairs of
    2 count(lowered, q-1) + count(omitted, q-1) when max(t) < q, else 0,
    over the closure of s under derived sets, one length at a time.  The
    counts of one length are a list in _closure's order; the sets with
    max < q, the first `active`, each sum their getter's reads of the
    previous list, one C-level pass per length, and the rest stay 0.
    """
    if _violation(s) is not None:
        yield from itertools.repeat(0)  # never returns
    tops, getters = _closure(s)
    size, active = len(tops), 0
    counts = [1] + [0] * (size - 1)  # length 1: only () is counted
    for q in itertools.count(2):
        yield counts[-1]
        while active < size and tops[active] < q:
            active += 1
        counts = [sum(g(counts)) for g in getters[:active]] + [0] * (size - active)


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
