"""Exact scalar types and exact linear algebra.

Rationals are stdlib Fractions: arbitrary precision, always reduced, positive
denominator, so every arithmetic identity asserted in this package is checked
with zero rounding error. Surd adds the one extension field we need, numbers
of the form q*sqrt(r) with q, r rational, closed under the operations used by
the two-curvature solver; it never factors r.

The linear algebra runs on Python ints: each row is scaled by the lcm of its
denominators, which changes neither the rank nor the solution, and Bareiss
fraction-free elimination keeps every entry an integer. A solution becomes
Fractions once, at the end of back substitution.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[Fraction, int, str]


def as_rational(x: RationalLike) -> Fraction:
    """Coerce int/str/Fraction to Fraction; floats are rejected on purpose.
    A Fraction is returned as it is."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("float input would silently break exactness; pass a Fraction")
    return Fraction(x)


def _values(vals: Sequence[RationalLike], name: str) -> Sequence[RationalLike]:
    """vals, unless it is not an ordered Sequence (a set or dict would hand
    over its values in its own order) or is a str, bytes or bytearray, whose
    characters would be read as the values: TypeError naming `name`. One
    value may be a str."""
    if not isinstance(vals, Sequence) or isinstance(vals, (str, bytes, bytearray)):
        raise TypeError(f"{name} must be a sequence of values, got {vals!r}")
    return vals


@dataclass(frozen=True, eq=False)
class Surd:
    """Exact real coef*sqrt(radicand) with radicand a nonnegative rational.

    The radicand is kept as given; only zero has one representation (coef 0,
    radicand 1). Equality and hashing go by value: a real number is fixed by
    its sign and its square. Addition is defined when the two radicands
    differ by a rational square factor, which is all the solver needs.
    """

    coef: Fraction
    radicand: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        coef = as_rational(self.coef)
        rad = as_rational(self.radicand)
        if rad < 0:
            raise ValueError("radicand must be nonnegative")
        if not coef or not rad:
            coef, rad = Fraction(0), Fraction(1)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "radicand", rad)

    def _value(self) -> tuple[bool, Fraction]:
        return self.coef > 0, self.squared()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Surd):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def __float__(self) -> float:
        return float(self.coef) * math.sqrt(float(self.radicand))

    def __neg__(self) -> "Surd":
        return Surd(-self.coef, self.radicand)

    def __add__(self, other: "Surd") -> "Surd":
        if not isinstance(other, Surd):
            return NotImplemented
        if self.coef == 0:
            return other
        if other.coef == 0:
            return self
        if other.radicand != self.radicand:
            # sqrt(other.radicand) = sqrt(self.radicand) * sqrt(ratio), rational
            # exactly when the reduced ratio's numerator and denominator are squares.
            ratio = other.radicand / self.radicand
            num, den = math.isqrt(ratio.numerator), math.isqrt(ratio.denominator)
            if num * num != ratio.numerator or den * den != ratio.denominator:
                raise ValueError("sum of surds over different radicands is not a Surd")
            other = Surd(other.coef * Fraction(num, den), self.radicand)
        return Surd(self.coef + other.coef, self.radicand)

    def __rmul__(self, scalar: RationalLike) -> "Surd":
        return Surd(as_rational(scalar) * self.coef, self.radicand)

    def squared(self) -> Fraction:
        return self.coef * self.coef * self.radicand

    def is_zero(self) -> bool:
        return self.coef == 0


def clear_denominators(vals: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """The integers v * den for v in vals, with den the lcm of their denominators."""
    den = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals], den


def _int_rows(matrix: Sequence[Sequence[RationalLike]]) -> list[list[int]]:
    """Each row of a rational matrix scaled by the lcm of its denominators."""
    rows = (_values(row, f"matrix row {i}") for i, row in enumerate(matrix))
    return [
        clear_denominators([v if isinstance(v, (int, Fraction)) else as_rational(v) for v in row])[0]
        for row in rows
    ]


def _reduce(rows: list[list[int]], ncols: int) -> list[int]:
    """Bareiss fraction-free elimination in place over the first ncols columns.

    Pivot k ends in row k and is eliminated from the rows below it: each
    entry right of the pivot becomes (p x - f y) / prev, with p the pivot,
    f the row's entry under it, y the pivot row's entry above x, and prev the
    previous pivot (1 at first). By Sylvester's identity every entry is then
    a minor of the input, so the division is exact (Bareiss 1968); it is
    checked all the same, unless prev is 1. Returns the pivot columns in
    order, so their count is the rank.
    """
    pivots: list[int] = []
    prev = 1
    n = len(rows)
    for col in range(ncols):
        rank = len(pivots)
        if rank == n:
            break
        for pivot in range(rank, n):
            if rows[pivot][col]:
                break
        else:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for r in range(rank + 1, n):
            row = rows[r]
            f = row[col]
            row[col] = 0
            if prev == 1:
                # dividing by 1 is exact
                for c in range(col + 1, len(row)):
                    row[c] = p * row[c] - f * prow[c]
                continue
            for c in range(col + 1, len(row)):
                row[c], rem = divmod(p * row[c] - f * prow[c], prev)
                if rem:
                    raise RuntimeError("inexact Bareiss division (unreachable)")
        prev = p
        pivots.append(col)
    return pivots


def _solve_cleared(aug: list[list[int]]) -> tuple[list[int], int]:
    """(y, det) with x = y / det the solution of the n x (n + 1) integer
    augmented system aug, which is reduced in place.

    After elimination the last pivot is the determinant det of the system,
    up to the sign of the row swaps, so det * x is an integer vector
    (Cramer's rule); back substitution finds it on ints. Raises ValueError
    on a singular system.
    """
    n = len(aug)
    if len(_reduce(aug, n)) < n:
        raise ValueError("singular system")
    det = aug[n - 1][n - 1] if n else 1
    y = [0] * n
    for i in reversed(range(n)):
        row = aug[i]
        acc = det * row[n]
        for j in range(i + 1, n):
            acc -= row[j] * y[j]
        y[i], rem = divmod(acc, row[i])
        if rem:
            raise RuntimeError("inexact back substitution (unreachable)")
    return y, det


def solve_linear(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square rational system by fraction-free elimination, exactly.

    Each row is scaled to integers and _solve_cleared gives det * x on
    ints; the solution is divided by det once. Raises ValueError on a
    singular matrix or one that is not n x n for n right-hand sides.
    """
    n = len(_values(rhs, "rhs"))
    if len(matrix) != n or any(len(_values(row, f"matrix row {i}")) != n for i, row in enumerate(matrix)):
        raise ValueError(f"need an {n} x {n} matrix for {n} right-hand sides")
    y, det = _solve_cleared(_int_rows([[*row, b] for row, b in zip(matrix, rhs)]))
    return [Fraction(v, det) for v in y]


def matrix_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix by exact fraction-free row reduction.
    Raises ValueError on rows of unequal length."""
    rows = _int_rows(matrix)
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows differ in length")
    return len(_reduce(rows, len(rows[0]))) if rows else 0
