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
    # the two non-enumerative routes must agree far beyond the scan cap;
    # the formula packs (40, 80) into 192-bit limbs, and the recursion
    # shares no packing
    cases = [(s, (12, 17, 25)) for s in ((2,), (4, 6), (2, 5, 9))]
    for s, ns in cases + [((40, 80), range(81, 86))]:
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
    # wrap engine._packed so each build's (width, entries) is recorded
    import peakpoly.engine as engine
    packed, passes = engine._packed, []

    def recording(sets, width):
        entries = []
        passes.append((width, entries))
        for t, entry in packed(sets, width):
            entries.append((t, entry))
            yield t, entry

    monkeypatch.setattr(engine, "_packed", recording)
    return passes


def test_a_build_packs_once_at_the_width_of_the_limb_bound(monkeypatch):
    # the width comes from a bound proved before the build, so each build
    # is one pass of the packed table, at the least multiple of 64 bits
    # above the bound
    passes = _record_packed_passes(monkeypatch)
    # p_{k}(n) = C(n - 1, k - 1) - 1, and the chain's bound is 2^200 - 2
    p = peak_polynomial((200,))
    assert p.degree == 199
    assert all(p.evaluate(n) == math.comb(n - 1, 199) - 1 for n in range(200, 400))
    ((width, entries),) = passes
    assert width == 256
    assert [t for t, _ in entries] == [(j,) for j in range(2, 201)]
    assert all(entry == _packed_singleton(j, width) for (j,), entry in entries)

    for s, width in (((1200,), 1216), ((40, 80), 192)):
        passes.clear()
        peak_polynomial(s)
        assert [w for w, _ in passes] == [width], s

    passes.clear()
    assert verify.sweep(21).failures == ()
    assert [w for w, _ in passes] == [128]


def test_a_deep_pair_packs_once_with_the_coefficients_of_a_wider_build(monkeypatch):
    # {120, 240}'s bound is 478 bits, so it packs once at 512; its coefficients
    # equal the ones that builds at 640 and at 832 bits gave
    import hashlib
    passes = _record_packed_passes(monkeypatch)
    p = peak_polynomial((120, 240))
    assert [w for w, _ in passes] == [512]
    assert p.degree == 239 and p.evaluate(240) == 0
    digest = hashlib.sha256(",".join(map(str, p.coeffs)).encode()).hexdigest()
    assert digest == "fcdfc052a2d6e356198f0eb441a79e02001956001e17dbb35b694d432abda2eb"


def test_wide_limbs_match_one_from_bytes_per_limb():
    # past 64 bits a limb is its words ORed together; the reference reads
    # each limb on its own
    import random
    import peakpoly.engine as engine
    rng = random.Random(7)
    for width in (128, 192, 512):
        for limbs in ([2 ** 64, 1], [0, 2 ** (width - 1) + 5, 0, 3],
                      [rng.getrandbits(width) | 2 ** 64 for _ in range(9)]):
            packed = sum(c << j * width for j, c in enumerate(limbs))
            data = packed.to_bytes(-(-packed.bit_length() // width) * width // 8, "little")
            size = width // 8
            reference = tuple(int.from_bytes(data[i:i + size], "little")
                              for i in range(0, len(data), size))
            assert engine._limbs(packed, width) == reference == tuple(limbs), width


def _reference_limb_bounds(sets):
    # the bound set by set: b_t = 2 (w b_u + the sum of b over t's other
    # parts), from b_() = 1, where w weighs u's shift to max(t) - 1 over the
    # limbs that u can have; every term of a step is >= 0, so each of t's
    # limbs is at most b_t
    import peakpoly.engine as engine
    bound = {(): 1}
    for t in sets:
        u = t[:-1]
        below = u[-1] if u else 0
        steps = t[-1] - 1 - below
        w = sum(math.comb(steps, i) for i in range(min(steps, max(below - 1, 0)) + 1))
        bound[t] = 2 * (w * bound[u] + sum(bound[part] for _, part in engine._parts(t)[:-1]))
    return bound


def test_the_limb_bound_covers_every_set_and_every_coefficient():
    # the width is never checked again once chosen, so the bound by
    # (maximum, size) class must be at least the bound set by set, and
    # above every coefficient the build hands out: every set of a sweep,
    # the set itself of a down-closure
    import peakpoly.engine as engine
    builds = [(structurally_admissible_sets(m), 0) for m in range(2, 17)]
    for s in ((40, 80), (3, 9, 30), (2, 5, 40), (120, 240)):
        closure = sorted(filter(None, engine._closure(s)), key=lambda t: t[-1])
        builds.append((closure, len(closure) - 1))
    for sets, start in builds:
        bound = engine._limb_bound(sets)
        assert bound >= max(_reference_limb_bounds(sets).values()), sets[-1]
        assert all(bound > c for _, raw in engine._build(sets, start) for c in raw), sets[-1]
