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
    count_bruteforce,
    enumerate_by_peak_set,
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


def test_cache_entries_have_canonical_shape():
    for s in ((3, 5, 8), (3, 5), (2,)):
        entry = peak_polynomial(s)
        assert entry.center == s[-1]
        assert entry.coeffs[0] == 0


def test_cache_is_safe_under_concurrent_use():
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
    # the down-closure of {1200} is the chain {1199}, ..., {2}; the build
    # walks it with an explicit stack, so its depth meets no recursion limit
    assert peak_polynomial((1200,)).degree == 1199
    assert count_via_formula((1200,), 1201) == count_via_recursion((1200,), 1201)


def test_a_chain_build_keeps_a_few_entries_not_all():
    # {k} is read by {k + 1} only, so the build of {600} drops each entry
    # two levels on; keeping all 599, each of up to 600 limbs, takes ~19 MB
    import tracemalloc
    tracemalloc.start()
    try:
        peak_polynomial((600,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_counts_match_for_larger_n_without_enumeration():
    # the two non-enumerative routes must agree far beyond the scan cap
    for s in ((2,), (4, 6), (2, 5, 9)):
        for n in (12, 17, 25):
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


def test_a_too_narrow_limb_width_trips_the_guard_and_rebuilds_wider(monkeypatch):
    import peakpoly.engine as engine
    monkeypatch.setattr(engine, "_LIMB_BITS", 64)
    packed, passes = engine._packed, []

    def recording(sets, width, guard_bits):
        entries = []
        passes.append((width, guard_bits, entries))
        for t, entry in packed(sets, width, guard_bits):
            entries.append((t, entry))
            yield t, entry

    monkeypatch.setattr(engine, "_packed", recording)
    p = peak_polynomial((200,))
    assert p.degree == 199
    assert all(p.evaluate(n) == math.comb(n - 1, 199) - 1 for n in range(200, 400))

    # the 64-bit pass stops at the first set whose coefficients reach the
    # guard bits, and every entry of either pass is exact
    (narrow, guard_bits, first), (wide, _, second) = passes
    assert narrow == 64 < wide
    (k,), last = first[-1]
    assert last is None
    room = narrow - guard_bits
    assert math.comb(k - 1, (k - 1) // 2).bit_length() > room
    assert all(math.comb(j - 1, (j - 1) // 2).bit_length() <= room for (j,), _ in first[:-1])
    assert all(entry == _packed_singleton(j, narrow) for (j,), entry in first[:-1])
    assert [t for t, _ in second] == [(j,) for j in range(2, 201)]
    assert all(entry == _packed_singleton(j, wide) for (j,), entry in second)

    # a sweep whose stored coefficients outgrow 64 bits hands the checks
    # the same coefficients, after one rebuild
    handed = []
    build = verify._build

    def keeping(sets, *start):
        for t, raw in build(sets, *start):
            handed.append(raw)
            yield t, raw

    monkeypatch.setattr(verify, "_build", keeping)
    passes.clear()
    assert verify.sweep(21).failures == ()
    (narrow, _, _), (wide, _, _) = passes
    assert narrow == 64 < wide
    narrow_handed = handed[:]
    monkeypatch.setattr(engine, "_LIMB_BITS", 128)
    handed.clear()
    passes.clear()
    verify.sweep(21)
    assert [width for width, _, _ in passes] == [128]
    assert len(handed) == len(structurally_admissible_sets(21))
    assert narrow_handed == handed


def test_a_guard_trip_rebuilds_once_wide_enough_for_the_limb_bound(monkeypatch):
    # {120, 240} trips the first pass at a low level; the bound on every
    # stored limb gives the width of the second pass, which cannot trip
    import hashlib
    import peakpoly.engine as engine
    packed, passes = engine._packed, []

    def limbs_from(k, width):
        # a mask of every limb's bits from the k-th up
        return int.from_bytes(((1 << width) - (1 << k)).to_bytes(width // 8, "little") * 240,
                              "little")

    def recording(sets, width, guard_bits):
        # the OR of the stored entries (all but the set's own), cut to the
        # limb bits from 8 below the bound's bit-length and from it
        passes.append(ors := [width, guard_bits, 0, 0])
        if width <= bits:
            yield from packed(sets, width, guard_bits)
            return
        near, above = limbs_from(bits - 8, width), limbs_from(bits, width)
        for t, entry in packed(sets, width, guard_bits):
            if entry is not None and t != sets[-1]:
                ors[2] |= entry & near
                ors[3] |= entry & above
            yield t, entry

    bound, bounds = engine._limb_bound, []

    def keeping(sets, weights):
        bounds.append(bound(sets, weights))
        return bounds[-1]

    monkeypatch.setattr(engine, "_packed", recording)
    monkeypatch.setattr(engine, "_limb_bound", keeping)
    bits = 473  # the bound's bit-length; the widest coefficient of {120, 240} has 469
    p = peak_polynomial((120, 240))
    assert len(passes) == 2 and bounds[0].bit_length() == bits
    # every stored limb of the second pass is below 2^473 <= 2^(width - G),
    # and some reach 2^465
    width, guard_bits, near, above = passes[1]
    assert bits <= width - guard_bits and near != 0 and above == 0
    # the coefficients that three passes, at widths 128, 512 and 832, built
    assert p.degree == 239 and p.evaluate(240) == 0
    digest = hashlib.sha256(",".join(map(str, p.coeffs)).encode()).hexdigest()
    assert digest == "fcdfc052a2d6e356198f0eb441a79e02001956001e17dbb35b694d432abda2eb"


def test_a_width_too_small_for_the_data_never_hands_out_a_wrapped_tuple(monkeypatch):
    # with 64 bits and no wider pass allowed, the build hands out each set
    # that fits, exact, and then nothing: not one wrapped coefficient
    import peakpoly.engine as engine
    monkeypatch.setattr(engine, "_LIMB_BITS", 64)
    packed, passes = engine._packed, []

    def once(sets, width, guard_bits):
        if passes:
            raise RuntimeError("no wider pass")
        passes.append(width)
        return packed(sets, width, guard_bits)

    monkeypatch.setattr(engine, "_packed", once)
    handed = []
    with pytest.raises(RuntimeError, match="no wider pass"):
        for t, raw in engine._build([(k,) for k in range(2, 201)]):
            handed.append((t, raw))
    assert passes == [64]
    assert 30 < len(handed) < 70
    assert handed == [((k,), (0,) + tuple(math.comb(k - 1, j) for j in range(1, k)))
                      for k in range(2, len(handed) + 2)]
