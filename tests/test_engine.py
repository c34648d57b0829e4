import itertools
import math
from concurrent.futures import ThreadPoolExecutor

import pytest

import peakpoly.verify as verify
from peakpoly.engine import (
    count_via_formula,
    count_via_recursion,
    derived_sets,
    insertion_cases,
    peak_polynomial,
)
from peakpoly.intpoly import BinomialPolynomial, sum_polynomials
from peakpoly.perms import (
    EnumerationCapError,
    InadmissibleSetError,
    _violation,
    count_bruteforce,
    enumerate_by_peak_set,
    is_structurally_admissible,
    permutations_with_peak_set,
    structurally_admissible_sets,
)


def test_derived_sets_three_element_example():
    pairs = derived_sets((3, 5, 8))
    assert [p.pivot for p in pairs] == [3, 5, 8]
    assert [p.lowered for p in pairs] == [(2, 4, 7), (3, 4, 7), (3, 5, 7)]
    assert [p.omitted for p in pairs] == [(4, 7), (3, 7), (3, 5)]
    assert [p.lowered_admissible for p in pairs] == [True, False, True]


def test_derived_sets_singleton_and_pair():
    (pair,) = derived_sets((2,))
    assert pair.lowered == (1,) and not pair.lowered_admissible
    assert pair.omitted == ()

    first, second = derived_sets((4, 6))
    assert first.lowered == (3, 5) and first.lowered_admissible
    assert first.omitted == (5,)
    assert second.lowered == (4, 5) and not second.lowered_admissible
    assert second.omitted == (4,)


def test_derived_sets_preserve_sizes():
    for s in structurally_admissible_sets(9):
        for pair in derived_sets(s):
            assert len(pair.lowered) == len(s)
            assert len(pair.omitted) == len(s) - 1


def test_derived_sets_rejects_bad_input():
    with pytest.raises(ValueError):
        derived_sets(())
    with pytest.raises(InadmissibleSetError):
        derived_sets((2, 3))
    with pytest.raises(InadmissibleSetError):
        derived_sets((1, 3))


def test_peak_polynomial_base_cases():
    assert peak_polynomial((2,)) == BinomialPolynomial(2, (0, 1))
    assert peak_polynomial(()) == BinomialPolynomial.constant(1)
    # the empty set counts the peakless permutations: 2^(n-1) of them
    for n in range(1, 8):
        assert count_via_formula((), n) == count_bruteforce((), n) == 2 ** (n - 1)


def test_peak_polynomial_worked_example():
    assert peak_polynomial((4, 6)) == BinomialPolynomial(6, (0, 25, 50, 43, 18, 3))


def test_peak_polynomial_rejects_inadmissible_top_level():
    with pytest.raises(InadmissibleSetError):
        peak_polynomial((1,))
    with pytest.raises(InadmissibleSetError):
        peak_polynomial((3, 4))


def test_peak_polynomial_anchor_degree_and_vanishing():
    for s in structurally_admissible_sets(10):
        p = peak_polynomial(s)
        m = s[-1]
        assert p.center == m
        assert p.coeffs[0] == 0
        assert p.evaluate(m) == 0
        assert p.degree == m - 1
        assert p.forward_difference(m).is_zero


def test_count_via_formula_examples():
    assert count_via_formula((4, 6), 7) == 400
    assert count_via_formula((2,), 4) == 8
    assert count_via_formula((4, 6), 6) == 0
    assert count_via_formula((1,), 9) == 0  # never admissible, no error


def test_count_via_formula_validates_once(monkeypatch):
    import peakpoly.perms as perms
    original = perms.as_peak_set
    calls = []

    def counting(positions):
        calls.append(positions)
        return original(positions)

    for module in ("perms", "engine"):
        monkeypatch.setattr(f"peakpoly.{module}.as_peak_set", counting)
    assert count_via_formula((4, 6), 7) == 400
    assert calls == [(4, 6)]
    # inadmissible, or max(S) >= n: 0, still from one call each
    assert count_via_formula((3, 4), 9) == 0
    assert count_via_formula((4, 6), 6) == 0
    assert calls == [(4, 6), (3, 4), (4, 6)]
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        count_via_formula((2,), 0)


def test_count_via_recursion_examples():
    assert count_via_recursion((2,), 4) == 8
    # one unrolled step: doubled same-set counts plus the derived-set counts
    assert (2 * count_bruteforce((2,), 3)
            + 2 * count_bruteforce((1,), 3)
            + count_bruteforce((), 3)) == 8
    for q in range(1, 9):
        assert count_via_recursion((), q) == 2 ** (q - 1)
    assert count_via_recursion((), 1000) == 2 ** 999
    assert count_via_recursion((4, 6), 7) == 400
    assert count_via_recursion((4, 6), 6) == 0  # max(S) >= n
    assert count_via_recursion((2, 3), 12) == 0  # inadmissible at every length


def test_triple_agreement_small():
    for n in range(1, 8):
        counts = enumerate_by_peak_set(n)
        for s in [()] + structurally_admissible_sets(max(n - 1, 2)):
            expected = counts.get(s, 0)
            assert count_via_formula(s, n) == expected
            assert count_via_recursion(s, n) == expected


@pytest.mark.parametrize("n", (9, 10))
def test_triple_agreement_at_oracle_limit(n):
    counts = enumerate_by_peak_set(n)
    candidates = [()] + structurally_admissible_sets(n - 1)
    for s in candidates:
        assert count_via_formula(s, n) == count_via_recursion(s, n) == counts.get(s, 0), s
    assert set(counts) <= set(candidates)


def test_first_difference_identity_as_polynomials():
    # the first difference of each peak polynomial equals the sum of its
    # derived-set polynomials, coefficient for coefficient; the deep sets'
    # builds read each u's kept shift many levels on and outgrow the
    # starting limb width, and each side is built by its own call
    for s in (*structurally_admissible_sets(8), (20, 45), (3, 9, 30), (2, 5, 40), (90,)):
        m = s[-1]
        parts = []
        for pair in derived_sets(s):
            parts.append(peak_polynomial(pair.lowered) if pair.lowered_admissible
                         else BinomialPolynomial.zero(pair.lowered[-1]))
            parts.append(peak_polynomial(pair.omitted))
        lhs = peak_polynomial(s).forward_difference()
        rhs = sum_polynomials(parts).recenter(m)
        assert lhs == rhs


def test_higher_difference_identity():
    for s in ((2,), (3, 5), (4, 6), (2, 4, 6)):
        m = s[-1]
        p = peak_polynomial(s)
        parts = []
        for pair in derived_sets(s):
            parts.append(peak_polynomial(pair.lowered) if pair.lowered_admissible
                         else BinomialPolynomial.zero())
            parts.append(peak_polynomial(pair.omitted))
        for j in range(1, m):
            lhs = p.forward_difference(j)
            rhs = sum_polynomials(q.forward_difference(j - 1) for q in parts)
            assert lhs == rhs.recenter(m)


def test_insertion_cases_worked_example():
    cases = insertion_cases((2,), 3)
    # the source 132 contributes its appended and peak-splitting images
    assert (1, 3, 2, 4) in cases["1"]
    assert (1, 4, 3, 2) in cases["2"]
    total = [perm for label in cases for perm in cases[label]]
    assert len(total) == count_bruteforce((2,), 4) == 8


def test_insertion_cases_partition_property():
    for s in structurally_admissible_sets(5):
        m = s[-1]
        for q in range(m, 7):
            cases = insertion_cases(s, q)
            combined = [perm for label in cases for perm in cases[label]]
            assert len(set(combined)) == len(combined)  # pairwise disjoint
            assert sorted(combined) == permutations_with_peak_set(s, q + 1)

            source = count_bruteforce(s, q)
            lowered_total = sum(count_bruteforce(p.lowered, q)
                                for p in derived_sets(s))
            omitted_total = sum(count_bruteforce(p.omitted, q)
                                for p in derived_sets(s))
            assert len(cases["1"]) == len(cases["2"]) == source
            assert len(cases["3"]) == lowered_total
            assert len(cases["4.1"]) + len(cases["4.2"]) == lowered_total
            assert len(cases["5"]) == omitted_total


def test_insertion_cases_output_is_sorted_and_validated():
    cases = insertion_cases((4, 6), 7)
    for label, perms in cases.items():
        assert perms == sorted(perms)
    assert sum(len(v) for v in cases.values()) == 3200
    with pytest.raises(ValueError):
        insertion_cases((), 4)
    with pytest.raises(ValueError):
        insertion_cases((4, 6), 5)
    with pytest.raises(InadmissibleSetError):
        insertion_cases((2, 3), 5)
    with pytest.raises(EnumerationCapError):
        insertion_cases((2,), 11)


def test_peak_polynomials_have_canonical_shape():
    for s in ((3, 5, 8), (3, 5), (2,)):
        entry = peak_polynomial(s)
        assert entry.center == s[-1]
        assert entry.coeffs[0] == 0


def test_peak_polynomial_is_safe_under_concurrent_use():
    sets = structurally_admissible_sets(10)
    expected = [peak_polynomial(s) for s in sets]
    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(3):
            results = list(pool.map(peak_polynomial, sets))
            assert results == expected


def test_recursion_handles_large_n_from_a_cold_start():
    # one bottom-up pass over the lengths: no recursion depth to run out of
    for s in ((2,), (4, 6), (2, 5, 8, 10)):
        assert count_via_recursion(s, 1000) == count_via_formula(s, 1000)


def test_deep_set_builds_without_recursion():
    # the chain of {1200} is {2}, ..., {1200}, built in one loop, so its
    # depth meets no recursion limit
    assert peak_polynomial((1200,)).degree == 1199
    assert count_via_formula((1200,), 1201) == count_via_recursion((1200,), 1201)


def test_a_chain_build_keeps_a_few_entries_not_all():
    # {k} is read by {k + 1} only, so the chain of {600} holds {k}'s list,
    # the one stepped from it and the row (0.24 MB traced); keeping all 599
    # lists, each of up to 600 coefficients, takes ~13 MB
    import tracemalloc
    tracemalloc.start()
    try:
        peak_polynomial((600,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_counts_match_for_larger_n_without_enumeration():
    # the two non-enumerative routes must agree far beyond the scan cap;
    # (40, 80)'s coefficients reach 151 bits, and the closure of
    # (2, 4, ..., 16) has 256 sets, of up to 8 elements
    cases = [(s, (12, 17, 25)) for s in ((2,), (4, 6), (2, 5, 9))]
    for s, ns in cases + [((40, 80), range(81, 86)), (tuple(range(2, 17, 2)), range(17, 31))]:
        for n in ns:
            assert count_via_formula(s, n) == count_via_recursion(s, n)


def test_validation_of_n():
    with pytest.raises(ValueError):
        count_via_formula((2,), 0)
    with pytest.raises(ValueError):
        count_via_recursion((2,), -3)


def test_engine_polynomials_are_integer_valued():
    from fractions import Fraction

    for s in structurally_admissible_sets(8):
        p = peak_polynomial(s)
        for x in range(-20, 41):
            falling = Fraction(1)
            total = Fraction(0)
            for j, c in enumerate(p.coeffs):
                if j:
                    falling *= x - p.center - (j - 1)
                total += Fraction(c) * falling / math.factorial(j)
            assert total.denominator == 1
            assert p.evaluate(x) == total


def _packed_singleton(k, width):
    # p_{k}(n) = C(n - 1, k - 1) - 1, so c_j = C(k - 1, j) at centre k for
    # j >= 1, and c_0 = 0; packed one limb per coefficient
    return sum(math.comb(k - 1, j) << j * width for j in range(1, k))


def _record_packed_passes(monkeypatch):
    # wrap the sweep's walk so each walk's (width, entries) is recorded
    walk, passes = verify._walk, []

    def recording(top, roots, width):
        entries = []
        passes.append((width, entries))
        for t, entry, signed in walk(top, roots, width):
            entries.append((t, entry))
            yield t, entry, signed

    monkeypatch.setattr(verify, "_walk", recording)
    return passes


def _record_chains(monkeypatch):
    # wrap the list chain of single sets so each build's (set,
    # coefficients) pairs are recorded
    import peakpoly.engine as engine
    chain, chains = engine._chain, []

    def recording(s):
        chains.append([])
        for t, coeffs in chain(s):
            chains[-1].append((t, tuple(coeffs)))
            yield t, coeffs

    monkeypatch.setattr(engine, "_chain", recording)
    return chains


def _walked(top, roots=None, width=64):
    # (t, packed entry) for each set that the walk to top yields under the
    # given roots (all by default), in its order
    roots = range(2, top + 1) if roots is None else roots
    return [(t, entry) for t, entry, _ in verify._walk(top, roots, width)]


def test_the_walk_visits_every_admissible_set_under_its_roots():
    # with no trip, as no coefficient to 14 needs 63 bits, the walk to top
    # yields each admissible set of maximum <= top whose first element is
    # a root, in lexicographic order; a singleton left out of the roots is
    # still stepped, so the sets under the next root are built right
    for top in range(2, 15):
        sets = sorted(structurally_admissible_sets(top))
        assert [t for t, _ in _walked(top)] == sets, top
        assert _walked(top, ()) == []
        whole = dict(_walked(top))
        for root in range(2, top + 1):
            walked = _walked(top, {root})
            assert [t for t, _ in walked] == [t for t in sets if t[0] == root], (top, root)
            assert all(whole[t] == entry for t, entry in walked), (top, root)


def test_the_walk_builds_nothing_from_a_trip():
    # at 64 bits, a set with a coefficient past 63 bits trips: the walk to
    # 24 yields it with its decoded coefficients in place of None and
    # builds neither its subtree nor its later siblings.  The reference
    # finds the trips among the exact entries of a walk at 128 bits, where
    # none trips, and drops each set built from one: a set with a trip as
    # a proper prefix or as an earlier sibling of a prefix
    exact = _walked(24, width=128)
    assert len(exact) == 75024
    over = sum(((1 << 128) - (1 << 63)) << j * 128 for j in range(24))
    trips = {t for t, entry in exact if entry & over}

    def built_from_a_trip(s):
        return any(s[:i] + (v,) in trips for i in range(len(s))
                   for v in range(s[i - 1] + 2 if i else 2, s[i] + (i + 1 < len(s))))

    kept = [t for t, _ in exact if not built_from_a_trip(t)]
    walked = list(verify._walk(24, range(2, 25), 64))
    assert [t for t, _, _ in walked] == kept and len(kept) == 72054

    def limbs(t, entry, width):
        return verify._unpack(entry.to_bytes(t[-1] * width // 8, "little"), width)

    entries = dict(exact)
    assert all(limbs(t, entry, 64) == limbs(t, entries[t], 128)
               for t, entry, signed in walked if signed is None)
    tripped = [t for t, _, signed in walked if signed is not None]
    assert set(tripped) == trips.intersection(kept)
    assert len(tripped) == 16374 and sum(t[-1] < 24 for t in tripped) == 2970


def _sizes(sets):
    # the (maximum, size) classes of sets, as sizes by maximum
    sizes = {}
    for t in sets:
        sizes.setdefault(t[-1], set()).add(len(t))
    return sizes


def test_a_build_packs_once_at_the_width_of_the_limb_bound(monkeypatch):
    # the width comes from a bound proved before the sweep, so each sweep
    # is one walk of the packed entries, at the least multiple of 64 bits
    # above the bound; a single set is built on lists
    chains = _record_chains(monkeypatch)
    # p_{k}(n) = C(n - 1, k - 1) - 1, so c_j = C(k - 1, j) for j >= 1
    p = peak_polynomial((200,))
    assert p.degree == 199
    assert all(p.evaluate(n) == math.comb(n - 1, 199) - 1 for n in range(200, 400))
    (chain,) = chains
    assert [t for t, _ in chain] == [(j,) for j in range(2, 201)]
    assert all(coeffs == (0, *(math.comb(j - 1, i) for i in range(1, j)))
               for (j,), coeffs in chain)

    passes = _record_packed_passes(monkeypatch)
    assert verify.sweep(21).failures == ()
    ((width, entries),) = passes
    assert width == 128
    singletons = [(t, entry) for t, entry in entries if len(t) == 1]
    assert [t for t, _ in singletons] == [(j,) for j in range(2, 22)]
    assert all(entry == _packed_singleton(j, width) for (j,), entry in singletons)


def test_a_deep_pair_has_the_coefficients_of_the_packed_builds():
    # {120, 240}'s coefficients equal the ones that packed builds at 512,
    # 640 and 832 bits gave
    import hashlib
    p = peak_polynomial((120, 240))
    assert p.degree == 239 and p.evaluate(240) == 0
    digest = hashlib.sha256(",".join(map(str, p.coeffs)).encode()).hexdigest()
    assert digest == "fcdfc052a2d6e356198f0eb441a79e02001956001e17dbb35b694d432abda2eb"


def test_wide_limbs_match_one_from_bytes_per_limb():
    # past 64 bits a limb is its words ORed together; the reference reads
    # each limb on its own
    import random
    rng = random.Random(7)
    for width in (128, 192, 512):
        # [1, 2 ** (width - 64), 3] has one nonzero word above a limb's lowest
        for limbs in ([2 ** 64, 1], [0, 2 ** (width - 1) + 5, 0, 3], [1, 2 ** (width - 64), 3],
                      [rng.getrandbits(width) | 2 ** 64 for _ in range(9)]):
            packed = sum(c << j * width for j, c in enumerate(limbs))
            data = packed.to_bytes(len(limbs) * width // 8, "little")
            size = width // 8
            reference = tuple(int.from_bytes(data[i:i + size], "little")
                              for i in range(0, len(data), size))
            assert verify._unpack(data, width) == reference == tuple(limbs), width


def _pascal(v):
    return [a + b for a, b in zip(v, v[1:] + [0])]


def _reference_limb_bounds(sets):
    # the bound set by set, with no sign assumed: for t of maximum m, with
    # v t1's bound moved to centre m - 1, b_t[j] = v[0] C(m, j + 1) +
    # Pascal(2 v + b_t2)[j], b_t2 0 when t2 is inadmissible, from b_() = [1]
    bound = {(): [1]}
    for t in sets:
        m, t1 = t[-1], t[:-1]
        below = t1[-1] if t1 else 0
        v = bound[t1]
        for _ in range(below, m - 1):
            v = _pascal(v)
        x = [2 * c for c in v] + [0] * (m + 1 - len(v))
        for j, c in enumerate(bound[t1 + (m - 1,)] if m - below > 2 else []):
            x[j] += c
        bound[t] = [v[0] * math.comb(m, j + 1) + x[j] + x[j + 1] for j in range(m)]
    return bound


def test_the_limb_bound_covers_every_coefficient_with_no_sign_assumed(monkeypatch):
    # the width is never checked again once chosen, so the bound over the
    # classes of a sweep to top (maximum m <= top, size k <= m // 2) must
    # be at least the bound set by set, and above |c_j| of every set built
    passes = _record_packed_passes(monkeypatch)
    for m in range(2, 17):
        verify.sweep(m)
    assert len(passes) == 15
    for top, (width, entries) in enumerate(passes, 2):
        sets = [t for t, _ in entries]
        assert _sizes(sets) == {m: set(range(1, m // 2 + 1)) for m in range(2, top + 1)}
        bound = verify._limb_bound(top)
        assert bound >= max(max(b) for b in _reference_limb_bounds(sets).values()), top
        assert width == (bound.bit_length() // 64 + 1) * 64, top
        for t, packed in entries:
            limbs = verify._unpack(packed.to_bytes(top * width // 8, "little"), width)
            assert all(bound > c for c in limbs), t


def test_the_limb_bound_is_pinned_on_a_sweep(monkeypatch):
    # the value of the bound when every class, size 1 too, scaled the
    # binomial row by g_(k-1)[0]: reading the row itself where that is 1
    # moves none.  A sweep gives the bound its top
    bound_of, given = verify._limb_bound, []

    def recording(top):
        given.append((top, bound_of(top)))
        return given[-1][1]

    monkeypatch.setattr(verify, "_limb_bound", recording)
    verify.sweep(20)
    assert given == [(20, 3347903864779873798912)]


def _pivot_packed(sets, width):
    # the paper's recursion on packed ints, the step the build made before
    # the three-term step: the first difference of p_t is the sum of its
    # derived sets' polynomials at centre m - 1, and p_t(m) = 0 anchors it
    entries = {(): 1}
    for t in sets:
        m, d = t[-1], 0
        for pair in derived_sets(t):
            for part in ((pair.lowered,) if pair.lowered_admissible else ()) + (pair.omitted,):
                entry = entries[part]
                for _ in range(part[-1] if part else m - 1, m - 1):
                    entry += entry >> width  # one Pascal step
                d += entry
        entries[t] = (d + (d >> width)) << width
        yield t, entries[t]


def test_the_three_term_step_packs_what_the_paper_recursion_packs():
    # every packed int of the walk to 22, at its own width, equals the one
    # that the derived-set recursion makes and unpacks to the coefficients
    # that the list chain builds, so none trips.  The walk yields the sets
    # in lexicographic order, the recursion in (max, lex) order
    import peakpoly.engine as engine
    from peakpoly.intpoly import _trimmed
    sets = structurally_admissible_sets(22)
    width = (verify._limb_bound(22).bit_length() // 64 + 1) * 64
    assert width == 128
    walked = _walked(22, width=width)
    assert walked == sorted(_pivot_packed(sets, width))
    for t, packed in walked:
        limbs = verify._unpack(packed.to_bytes(22 * width // 8, "little"), width)
        assert _trimmed(limbs) == engine._peak_coefficients(t), t


def test_the_chain_is_the_closure_under_the_three_term_step(monkeypatch):
    # the sets that peak_polynomial's chain builds are S closed under
    # t -> (t minus max t, that set plus max t - 1), with () and the
    # inadmissible sets left out.  At most max(S) - 1 sets, in increasing
    # maximum, S last
    chains = _record_chains(monkeypatch)
    for s in structurally_admissible_sets(14) + [(5, 10, 20, 40, 80), (2, 4, 6, 30)]:
        closure, pending = set(), [s]
        while pending:
            t = pending.pop()
            if t and is_structurally_admissible(t) and t not in closure:
                closure.add(t)
                pending += [t[:-1], t[:-1] + (t[-1] - 1,)]
        chains.clear()
        peak_polynomial(s)
        (entries,) = chains
        chain = [t for t, _ in entries]
        assert sorted(chain) == sorted(closure) and len(chain) <= s[-1] - 1, s
        assert chain[-1] == s
        assert all(a[-1] < b[-1] for a, b in zip(chain, chain[1:])), s


def _reference_recursion_counts(s):
    # the count recursion on lengths, stepped over dicts keyed by set, one
    # generator sum per set per length
    if _violation(s) is not None:
        yield from itertools.repeat(0)
    import peakpoly.engine as engine
    closure, pending = {}, [s]
    while pending:
        t = pending.pop()
        if t not in closure:
            terms = closure[t] = [(2, t)]
            for _, lowered, lowered_admissible, omitted in engine._slides(t):
                if lowered_admissible:
                    terms.append((2, lowered))
                terms.append((1, omitted))
            pending += [u for _, u in terms]
    counts = {t: 0 if t else 1 for t in closure}
    for q in itertools.count(2):
        yield counts[s]
        counts = {t: sum(w * counts[u] for w, u in terms) if not t or t[-1] < q else 0
                  for t, terms in closure.items()}


def test_the_coefficient_recursion_counts_what_the_dict_recursion_counts():
    # lengths 1..40 on (), every admissible set with max <= 10, and
    # inadmissible sets, whose columns are all zeros
    import peakpoly.engine as engine
    inadmissible = [(1,), (2, 3), (1, 4), (4, 5, 9), (3, 7, 8)]
    for s in [()] + structurally_admissible_sets(10) + inadmissible:
        column = list(itertools.islice(engine._recursion_counts(s), 40))
        assert column == list(itertools.islice(_reference_recursion_counts(s), 40)), s
        assert any(column) == (s not in inadmissible), s


def test_the_paper_recursion_builds_the_three_term_coefficients():
    # the subtraction-free recursion over derived sets gives exactly the
    # coefficients that the Billey-Burdzy-Sagan walk builds, with c_0 = 0
    # and every c_j > 0, 1 <= j <= m - 1: the paper's positivity, executed
    import peakpoly.engine as engine
    assert engine._recursion_coefficients(()) == [1]
    for s in structurally_admissible_sets(14) + [(40, 80), (3, 9, 30)]:
        coeffs = engine._recursion_coefficients(s)
        assert tuple(coeffs) == engine._peak_coefficients(s), s
        assert len(coeffs) == s[-1] and coeffs[0] == 0 and min(coeffs[1:]) > 0, s


def test_the_recursion_route_shares_no_build_code_with_the_formula_route(monkeypatch):
    # the counts check compares two theorems only if the recursion route
    # runs none of the formula route's build
    import peakpoly.engine as engine
    import peakpoly.intpoly as intpoly
    cases = [((), 7), ((2,), 5), ((4, 6), 30), ((3, 9, 30), 31), ((2, 5, 8, 10), 1000)]
    expected = [count_via_formula(s, n) for s, n in cases]

    def refuse(*args):
        raise AssertionError("the recursion route ran the formula route's build")

    for name in ("_walk", "_limb_bound"):
        monkeypatch.setattr(verify, name, refuse)
    for name in ("_peak_coefficients", "_chain"):
        monkeypatch.setattr(engine, name, refuse)
    monkeypatch.setattr(intpoly, "_shift_center", refuse)
    assert [count_via_recursion(s, n) for s, n in cases] == expected


def test_a_closure_of_more_sets_than_the_cap_is_refused(monkeypatch):
    # {2,4,6}'s closure has 8 sets: a cap of 8 walks it, and a cap of 7
    # refuses it as the walk finds the eighth, in every route that walks a
    # closure; the formula route walks none
    import peakpoly.engine as engine
    assert engine._CLOSURE_CAP == 100_000
    expected = count_via_formula((2, 4, 6), 9)
    monkeypatch.setattr(engine, "_CLOSURE_CAP", 8)
    assert len(engine._closure((2, 4, 6))) == 8
    assert count_via_recursion((2, 4, 6), 9) == expected
    monkeypatch.setattr(engine, "_CLOSURE_CAP", 7)
    assert count_via_formula((2, 4, 6), 9) == expected
    message = "^the closure of {2,4,6} under derived sets has more than 7 sets$"
    for walk in (lambda: engine._closure((2, 4, 6)), lambda: count_via_recursion((2, 4, 6), 9),
                 lambda: verify.verify_set((2, 4, 6), ("counts",))):
        with pytest.raises(EnumerationCapError, match=message):
            walk()


def test_the_recursion_switches_a_set_on_past_its_maximum():
    # count(S, max S) = 0 and count(S, max S + 1) is the S_n count: a set
    # counted one length early shows at n = max S
    import peakpoly.engine as engine
    for s in structurally_admissible_sets(9):
        column = list(itertools.islice(engine._recursion_counts(s), s[-1] + 1))
        assert column[s[-1] - 1] == 0, s
        assert column[s[-1]] == count_bruteforce(s, s[-1] + 1), s
