import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakpoly.engine import peak_polynomial
from peakpoly.intpoly import (
    BinomialPolynomial,
    DifferenceTable,
    _shift_center,
    binomial,
    binomial_row,
    sum_polynomials,
)

# forward-difference grid of the degree-5 polynomial used as the worked
# example throughout: rows j = 0..6, columns k = 0..6
GOLDEN_TABLE = (
    (4, 2, 2, 2, 0, -3, 0),
    (-2, 0, 0, -2, -3, 3, 25),
    (2, 0, -2, -1, 6, 22, 50),
    (-2, -2, 1, 7, 16, 28, 43),
    (0, 3, 6, 9, 12, 15, 18),
    (3, 3, 3, 3, 3, 3, 3),
    (0, 0, 0, 0, 0, 0, 0),
)

P46 = BinomialPolynomial(6, (0, 25, 50, 43, 18, 3))
P2 = BinomialPolynomial(2, (0, 1))


def fraction_value(poly, x):
    """Independent evaluation: falling factorial over j! in exact rationals."""
    total = Fraction(0)
    for j, c in enumerate(poly.coeffs):
        falling = Fraction(1)
        for i in range(j):
            falling *= x - poly.center - i
        total += Fraction(c) * falling / math.factorial(j)
    return total


def pascal_shift(coeffs, steps):
    """Reference re-centring, one unit at a time: up by one is the Pascal
    step b_j = a_j + a_(j+1), down by one undoes it from the top."""
    coeffs = list(coeffs)
    for _ in range(steps):
        coeffs[:-1] = [a + b for a, b in zip(coeffs, coeffs[1:])]
    for _ in range(-steps):
        for j in range(len(coeffs) - 2, -1, -1):
            coeffs[j] -= coeffs[j + 1]
    return coeffs


coefficient_lists = st.lists(
    st.integers(min_value=-10**20, max_value=10**20), max_size=13)
polynomials = st.builds(
    lambda center, coeffs: BinomialPolynomial(center, tuple(coeffs)),
    st.integers(min_value=0, max_value=12), coefficient_lists)


def test_binomial_matches_comb_for_nonnegative():
    for t in range(0, 12):
        for j in range(0, 12):
            assert binomial(t, j) == math.comb(t, j)


def test_binomial_negative_arguments():
    assert [binomial(-1, j) for j in range(5)] == [1, -1, 1, -1, 1]
    assert binomial(-2, 2) == 3  # (-2)(-3)/2
    assert binomial(-3, 3) == -10
    with pytest.raises(ValueError):
        binomial(4, -1)


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=0, max_value=15))
def test_binomial_against_fraction_oracle(t, j):
    falling = Fraction(1)
    for i in range(j):
        falling *= t - i
    expected = falling / math.factorial(j)
    assert expected.denominator == 1
    assert binomial(t, j) == expected
    assert binomial_row(t, j)[j] == expected


def test_canonical_form():
    p = BinomialPolynomial(3, (1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    zero = BinomialPolynomial.zero(5)
    assert zero.coeffs == () and zero.degree == -1 and zero.is_zero
    with pytest.raises(ValueError):
        BinomialPolynomial(-1, (1,))
    with pytest.raises(ValueError):
        BinomialPolynomial(0, (1.5,))
    # trailing zeros go in one pass: one tuple slice per zero is quadratic
    start = time.perf_counter()
    assert BinomialPolynomial(0, (1,) + (0,) * 100_000).coeffs == (1,)
    assert time.perf_counter() - start < 1


def test_evaluate_examples():
    assert P2.evaluate(5) == 3
    assert BinomialPolynomial.zero().evaluate(123) == 0
    assert BinomialPolynomial.zero().evaluate(-7) == 0
    assert P46.evaluate(7) == 25  # one step past the root at 6


def test_forward_difference_examples():
    assert P2.forward_difference() == BinomialPolynomial.constant(1)
    assert P46.forward_difference(6).is_zero
    assert P46.forward_difference().evaluate(6) == 25
    with pytest.raises(ValueError):
        P46.forward_difference(-1)


def test_forward_difference_order_zero_is_identity():
    assert P46.forward_difference(0) == P46


def test_recenter_examples():
    assert P46.recenter(0).coeffs == (4, -2, 2, -2, 0, 3)
    assert P46.recenter(6) == P46
    one = BinomialPolynomial.constant(1)
    for center in (0, 3, 11):
        assert one.recenter(center).coeffs == (1,)


@given(coefficient_lists, st.integers(min_value=-40, max_value=40))
def test_shift_kernel_matches_unit_pascal_steps(coeffs, steps):
    shifted = list(coeffs)
    assert _shift_center(shifted, steps) is shifted
    assert shifted == pascal_shift(coeffs, steps)


@given(coefficient_lists, st.integers(min_value=-10**9, max_value=10**9))
def test_shift_kernel_round_trip_at_any_distance(coeffs, steps):
    assert _shift_center(_shift_center(list(coeffs), steps), -steps) == coeffs


def test_far_recenter_of_a_peak_polynomial():
    p = peak_polynomial(range(2, 21, 2))
    far = p.recenter(10**6)
    for x in (0, 1, 20, 21, 37, 999_999, 10**6, 10**6 + 3, 2 * 10**6):
        assert far.evaluate(x) == p.evaluate(x)
    assert far.recenter(20).coeffs == p.coeffs


def test_recenter_rejects_a_negative_center_before_shifting(monkeypatch):
    # the centre is checked before any coefficient is moved
    def refuse(coeffs, steps):
        raise AssertionError("recenter shifted before checking the centre")

    monkeypatch.setattr("peakpoly.intpoly._shift_center", refuse)
    with pytest.raises(ValueError):
        P46.recenter(-10**6)
    with pytest.raises(ValueError):
        P46.recenter(-1)


def test_antidifference_examples():
    assert P2.forward_difference().antidifference(2, 0) == P2
    seven = BinomialPolynomial.zero(4).antidifference(4, 7)
    assert seven == BinomialPolynomial.constant(7)
    rebuilt = BinomialPolynomial(6, (25, 50, 43, 18, 3)).antidifference(6, 0)
    assert rebuilt == P46
    with pytest.raises(ValueError):
        P46.antidifference(5, 0)


def test_difference_table_reproduces_golden_grid():
    table = P46.difference_table(6, 0, 6)
    assert table.cells == GOLDEN_TABLE
    assert table.value(3, 3) == 7
    assert table.value(0, 5) == -3
    assert table.value(2, 6) == 50
    with pytest.raises(IndexError):
        table.value(7, 0)
    with pytest.raises(IndexError):
        table.value(0, 7)


def test_difference_table_beyond_degree_is_zero():
    table = P46.difference_table(6, -3, 9)
    assert all(v == 0 for v in table.cells[6])
    one_row = BinomialPolynomial.constant(1).difference_table(2, -2, 2)
    assert one_row.cells == ((1, 1, 1, 1, 1), (0, 0, 0, 0, 0), (0, 0, 0, 0, 0))


def test_difference_table_validation():
    with pytest.raises(ValueError):
        P46.difference_table(-1, 0, 3)
    with pytest.raises(ValueError):
        P46.difference_table(2, 4, 3)


@given(polynomials, st.integers(min_value=0, max_value=16),
       st.integers(min_value=-10, max_value=20), st.integers(min_value=1, max_value=4))
def test_table_cells_satisfy_difference_recurrence(p, jmax, kmin, width):
    # jmax runs below and past the degree (at most 12)
    table = p.difference_table(jmax, kmin, kmin + width)
    for j in range(1, table.jmax + 1):
        for k in range(kmin, kmin + width):
            assert table.value(j, k) == table.value(j - 1, k + 1) - table.value(j - 1, k)
    # the reference reading: each cell evaluated on its own difference polynomial
    for j in range(jmax + 1):
        for k in range(kmin, kmin + width + 1):
            assert table.value(j, k) == p.forward_difference(j).evaluate(k)


def test_the_difference_table_evaluates_no_cell(monkeypatch):
    def refuse(*args):
        raise AssertionError("difference_table read a cell by evaluation")

    monkeypatch.setattr(BinomialPolynomial, "evaluate", refuse)
    monkeypatch.setattr(BinomialPolynomial, "forward_difference", refuse)
    assert P46.difference_table(6, 0, 6).cells == GOLDEN_TABLE


def test_table_csv_layout():
    csv_text = P2.difference_table(2, 2, 4).to_csv()
    assert csv_text == "j\\k,2,3,4\n0,0,1,2\n1,1,1,1\n2,0,0,0\n"


def test_add_examples():
    x = BinomialPolynomial(0, (0, 1))
    assert sum_polynomials([P2, BinomialPolynomial.constant(2)]) == x
    assert sum_polynomials([P46, BinomialPolynomial.zero()]) == P46
    assert sum_polynomials([BinomialPolynomial.zero(3), P46]) == P46
    assert sum_polynomials([]).is_zero
    with pytest.raises(TypeError):
        P2 + 1
    with pytest.raises(TypeError):
        1 + P2


def test_add_recenters_to_largest_center():
    a = BinomialPolynomial(2, (1, 1))
    b = BinomialPolynomial(5, (2, 3))
    assert (a + b).center == 5
    for x in range(-5, 15):
        assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


def test_equality_is_functional():
    assert BinomialPolynomial.constant(1, 0) == BinomialPolynomial.constant(1, 9)
    assert BinomialPolynomial.zero(2) == BinomialPolynomial.zero(8)
    assert P46.recenter(0) == P46
    assert P46 != P2
    assert hash(P46.recenter(0)) == hash(P46)
    assert (P2 == 1) is False
    assert (P2 != 1) is True


@settings(max_examples=60)
@given(polynomials, st.integers(min_value=-15, max_value=30))
def test_basis_shift_law(p, x):
    assert p.forward_difference().evaluate(x) == p.evaluate(x + 1) - p.evaluate(x)


@settings(max_examples=60)
@given(polynomials)
def test_antidifference_round_trip(p):
    assert p.forward_difference().antidifference(p.center, p.evaluate(p.center)) == p


@settings(max_examples=40)
@given(polynomials, st.integers(min_value=0, max_value=15),
       st.integers(min_value=-10, max_value=40))
def test_recentering_preserves_values(p, new_center, x):
    assert p.recenter(new_center).evaluate(x) == p.evaluate(x)


@settings(max_examples=60)
@given(polynomials)
def test_degree_law(p):
    d = p.forward_difference()
    if p.degree >= 1:
        assert d.degree == p.degree - 1
    else:
        assert d.is_zero


@settings(max_examples=40)
@given(polynomials, st.integers(min_value=-20, max_value=40))
def test_integer_valuedness_against_fraction_oracle(p, x):
    expected = fraction_value(p, x)
    assert expected.denominator == 1
    assert p.evaluate(x) == expected


def test_json_round_trip():
    data = json.loads(json.dumps(P46.to_json_dict()))
    assert data == {
        "center": 6,
        "coefficients": ["0", "25", "50", "43", "18", "3"],
        "degree": 5,
    }
    assert BinomialPolynomial.from_json_dict(data) == P46
    big = BinomialPolynomial(0, (10**30, -(10**25)))
    assert BinomialPolynomial.from_json_dict(big.to_json_dict()) == big


def test_expansion_rendering():
    assert P2.expansion() == "C(x-2,1)"
    assert P46.recenter(0).expansion() == "4 - 2*C(x,1) + 2*C(x,2) - 2*C(x,3) + 3*C(x,5)"
    assert P46.expansion() == ("25*C(x-6,1) + 50*C(x-6,2) + 43*C(x-6,3)"
                               " + 18*C(x-6,4) + 3*C(x-6,5)")
    assert BinomialPolynomial.zero().expansion() == "0"
    assert BinomialPolynomial(0, (-2, -1)).expansion() == "-2 - C(x,1)"
