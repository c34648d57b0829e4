"""Integer-valued polynomials in a binomial-coefficient basis.

A polynomial is stored as a centre k >= 0 and exact integer coefficients
c_0..c_d, and denotes

    f(x) = sum_j c_j * C(x - k, j)

where C(t, j) = t(t-1)...(t-j+1) / j! is the polynomial binomial
coefficient, defined for every integer t: negative arguments give signed
values and 0 <= t < j gives 0.

This basis is what makes the whole package exact.  The forward difference
(Df)(x) = f(x+1) - f(x) is a plain left shift of the coefficient sequence,
its inverse is a right shift, and moving the centre by s is the Vandermonde
convolution b_j = sum_i C(s, i) * a_(j+i), so nothing ever leaves
arbitrary-precision integers.  Coefficient j at centre k is (D^j f)(k).
"""

import itertools
import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from operator import add


def binomial(t: int, j: int) -> int:
    """C(t, j) for any integer t and j >= 0.

    For t < 0 the falling factorial alternates sign:
    C(t, j) = (-1)^j * C(j - t - 1, j).
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    if t >= 0:
        return math.comb(t, j)
    value = math.comb(j - t - 1, j)
    return -value if j % 2 else value


def binomial_row(t: int, degree: int) -> list[int]:
    """[C(t, 0), ..., C(t, degree)] by the falling-factorial recurrence
    C(t, j) = C(t, j - 1) * (t - j + 1) / j.

    Each division is exact because every prefix is itself a binomial
    coefficient, so floor division loses nothing, for negative t too.
    """
    row = [1]
    for j in range(1, degree + 1):
        row.append(row[-1] * (t - j + 1) // j)
    return row


def _shift_center(coeffs: list[int], steps: int) -> list[int]:
    """Re-expand, in place, coefficients at centre k as coefficients at
    centre k + steps (steps may be negative); returns the same list.

    C(x - k, j) = sum_i C(steps, i) * C(x - k - steps, j - i) (Vandermonde),
    so b_j = sum_i C(steps, i) * a_(j+i): O(d * min(d, |steps| + 1)) for
    degree d, as the row of C(steps, i) stops at i = steps when steps >= 0.
    Each term i > 0 is added in place over the first d + 1 - i entries,
    reading the untouched input a.
    """
    d = len(coeffs) - 1
    row = binomial_row(steps, d if steps < 0 else min(steps, d))
    original = coeffs[:]
    for i in range(1, len(row)):
        coeffs[:d + 1 - i] = map(add, coeffs, map(row[i].__mul__, original[i:]))
    return coeffs


def _trimmed(coeffs: Sequence[int]) -> tuple[int, ...]:
    """coeffs as a tuple without its trailing zeros, in one pass."""
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


class BinomialPolynomial:
    """Immutable integer-valued polynomial sum_j coeffs[j] * C(x - center, j).

    Canonical form: no trailing zero coefficients; the zero polynomial has
    an empty coefficient tuple.  Equality means equality as polynomial
    functions, so the centre of the zero polynomial (or of any constant)
    does not matter.
    """

    __slots__ = ("center", "coeffs")
    __match_args__ = ("center", "coeffs")

    def __init__(self, center: int, coeffs: tuple[int, ...]):
        if not isinstance(center, int) or isinstance(center, bool) or center < 0:
            raise ValueError(f"center must be an integer >= 0, got {center!r}")
        coeffs = tuple(coeffs)
        for c in coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"coefficients must be integers, got {c!r}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "coeffs", _trimmed(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not by setting slots
        return type(self), (self.center, self.coeffs)

    def __repr__(self):
        return f"{type(self).__qualname__}(center={self.center!r}, coeffs={self.coeffs!r})"

    @classmethod
    def zero(cls, center: int = 0) -> "BinomialPolynomial":
        return cls(center, ())

    @classmethod
    def constant(cls, value: int, center: int = 0) -> "BinomialPolynomial":
        return cls(center, (value,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, x: int) -> int:
        """Exact value at the integer x."""
        if not self.coeffs:
            return 0
        row = binomial_row(x - self.center, self.degree)
        return sum(c * b for c, b in zip(self.coeffs, row))

    def forward_difference(self, order: int = 1) -> "BinomialPolynomial":
        """The order-fold forward difference f(x+1) - f(x).

        D C(x - k, j) = C(x - k, j - 1), so each difference shifts the
        coefficient sequence one place left; the centre is unchanged.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        return BinomialPolynomial(self.center, self.coeffs[order:])

    def recenter(self, new_center: int) -> "BinomialPolynomial":
        """The same polynomial re-expanded around new_center by one
        _shift_center convolution, O(d^2) for degree d at any distance."""
        if new_center < 0:
            raise ValueError(f"center must be an integer >= 0, got {new_center!r}")
        coeffs = _shift_center(list(self.coeffs), new_center - self.center)
        return BinomialPolynomial(new_center, tuple(coeffs))

    def antidifference(self, anchor: int, value: int) -> "BinomialPolynomial":
        """The polynomial q with q.forward_difference() == self and q(anchor) == value.

        Restricted to anchor == center, which keeps the construction a pure
        right shift of the coefficients; re-center first for other anchors.
        """
        if anchor != self.center:
            raise ValueError(
                f"anchor must equal the center ({self.center}), got {anchor}")
        return BinomialPolynomial(self.center, (value,) + self.coeffs)

    def difference_table(self, jmax: int, kmin: int, kmax: int) -> "DifferenceTable":
        """Tabulate (D^j f)(k) for j = 0..jmax and k = kmin..kmax.

        Column k is coefficients 0..jmax at centre k: one shift to kmin, then
        one Pascal step per column, O(K * d + d^2) for K columns and degree d."""
        if jmax < 0:
            raise ValueError("jmax must be >= 0")
        if kmin > kmax:
            raise ValueError("kmin must be <= kmax")
        column = _shift_center(list(self.coeffs), kmin - self.center) + [0] * (jmax - self.degree)
        columns = []
        for _ in range(kmin, kmax + 1):
            columns.append(column[:jmax + 1])
            column[:-1] = map(add, column, column[1:])
        return DifferenceTable(jmax, kmin, kmax, tuple(zip(*columns)))

    def __add__(self, other):
        if not isinstance(other, BinomialPolynomial):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        center = max(self.center, other.center)
        a = self.recenter(center).coeffs
        b = other.recenter(center).coeffs
        summed = tuple(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))
        return BinomialPolynomial(center, summed)

    def __eq__(self, other):
        if not isinstance(other, BinomialPolynomial):
            return NotImplemented
        if self.center == other.center or self.is_zero or other.is_zero:
            return self.coeffs == other.coeffs
        return self.recenter(other.center).coeffs == other.coeffs

    def __hash__(self):
        return hash(self.recenter(0).coeffs if self.coeffs else ())

    def expansion(self) -> str:
        """Human-readable expansion, e.g. '25*C(x-6,1) + 50*C(x-6,2)'.

        Zero coefficients are skipped; the j=0 term renders as a bare
        integer and unit coefficients drop the '1*'.
        """
        if self.is_zero:
            return "0"
        var = "x" if self.center == 0 else f"x-{self.center}"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                body = str(abs(c))
            elif abs(c) == 1:
                body = f"C({var},{j})"
            else:
                body = f"{abs(c)}*C({var},{j})"
            parts.append((c < 0, body))
        first_neg, first_body = parts[0]
        text = ("-" if first_neg else "") + first_body
        for neg, body in parts[1:]:
            text += (" - " if neg else " + ") + body
        return text

    def to_json_dict(self) -> dict:
        """JSON form with coefficients as decimal strings (they can exceed
        what fixed-width consumers of the JSON can hold)."""
        return {
            "center": self.center,
            "coefficients": [str(c) for c in self.coeffs],
            "degree": self.degree,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BinomialPolynomial":
        return cls(int(data["center"]), tuple(int(c) for c in data["coefficients"]))


def sum_polynomials(polys: Iterable[BinomialPolynomial]) -> BinomialPolynomial:
    """Exact sum; operands are re-centred to the largest centre involved."""
    total = BinomialPolynomial.zero()
    for p in polys:
        total = total + p
    return total


class DifferenceTable(namedtuple("DifferenceTable", "jmax kmin kmax cells")):
    """Grid of iterated forward differences: cell (j, k) holds (D^j f)(k).

    Rows run j = 0..jmax top to bottom, columns k = kmin..kmax left to
    right, a tuple of int tuples.  Interior cells satisfy
    T[j][k] = T[j-1][k+1] - T[j-1][k].
    """

    __slots__ = ()

    def value(self, j: int, k: int) -> int:
        if not 0 <= j <= self.jmax:
            raise IndexError(f"j={j} outside 0..{self.jmax}")
        if not self.kmin <= k <= self.kmax:
            raise IndexError(f"k={k} outside {self.kmin}..{self.kmax}")
        return self.cells[j][k - self.kmin]

    def to_csv(self) -> str:
        r"""CSV with header 'j\k,kmin,...,kmax' and one row per order j."""
        import csv  # here, not at the top: only a CSV table loads it
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["j\\k"] + [str(k) for k in range(self.kmin, self.kmax + 1)])
        for j, row in enumerate(self.cells):
            writer.writerow([str(j)] + [str(v) for v in row])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "jmax": self.jmax,
            "kmin": self.kmin,
            "kmax": self.kmax,
            "cells": [[str(v) for v in row] for row in self.cells],
        }
