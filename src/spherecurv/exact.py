"""Exact scalar types and exact linear algebra.

Rationals are stdlib Fractions: arbitrary precision, always reduced, positive
denominator, so every arithmetic identity asserted in this package is checked
with zero rounding error. Surd adds the one extension field we need, numbers
of the form q*sqrt(r) with q, r rational, closed under the operations used by
the two-curvature solver.

The linear algebra runs on Python ints: each row is scaled by the lcm of its
denominators, which changes neither the rank nor the solution, and Bareiss
fraction-free elimination keeps every entry an integer. A solution becomes
Fractions once, at the end of back substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

RationalLike = Union[Fraction, int, str]


def as_rational(x: RationalLike) -> Fraction:
    """Coerce int/str/Fraction to Fraction; floats are rejected on purpose.
    A Fraction is returned as it is."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("float input would silently break exactness; pass a Fraction")
    return Fraction(x)


def _square_free_split(n: int) -> tuple[int, int]:
    """Write n >= 1 as s*s*f with f square-free; returns (s, f)."""
    s, f, d = 1, n, 2
    while d * d <= f:
        dd = d * d
        while f % dd == 0:
            f //= dd
            s *= d
        d += 1
    return s, f


@dataclass(frozen=True)
class Surd:
    """Exact real coef*sqrt(radicand) with radicand >= 0.

    The radicand is normalized to a square-free integer at construction
    (sqrt(p/q) = sqrt(p*q)/q, then square factors move into the coefficient),
    so equal values always have equal representations and rational values
    always carry radicand 1. Addition is defined for equal radicands only,
    which is all the solver needs.
    """

    coef: Fraction
    radicand: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        coef = as_rational(self.coef)
        rad = as_rational(self.radicand)
        if rad < 0:
            raise ValueError("radicand must be nonnegative")
        if rad == 0:
            coef = Fraction(0)
            rad = Fraction(1)
        else:
            s, f = _square_free_split(rad.numerator * rad.denominator)
            coef = coef * Fraction(s, rad.denominator)
            rad = Fraction(f)
        if coef == 0:
            rad = Fraction(1)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "radicand", rad)

    @classmethod
    def _normalized(cls, coef: Fraction, radicand: Fraction) -> "Surd":
        """A Surd from a radicand that is already a square-free integer, as
        every existing Surd's is, without splitting it again."""
        s = object.__new__(cls)
        object.__setattr__(s, "coef", coef)
        object.__setattr__(s, "radicand", radicand if coef != 0 else Fraction(1))
        return s

    def __float__(self) -> float:
        return float(self.coef) * math.sqrt(float(self.radicand))

    def __neg__(self) -> "Surd":
        return Surd._normalized(-self.coef, self.radicand)

    def __add__(self, other: "Surd") -> "Surd":
        if not isinstance(other, Surd):
            return NotImplemented
        if self.coef == 0:
            return other
        if other.coef == 0:
            return self
        if self.radicand != other.radicand:
            raise ValueError("sum of surds over different radicands is not a Surd")
        return Surd._normalized(self.coef + other.coef, self.radicand)

    def __rmul__(self, scalar: RationalLike) -> "Surd":
        return Surd._normalized(as_rational(scalar) * self.coef, self.radicand)

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
    return [
        clear_denominators([v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row])[0]
        for row in matrix
    ]


def _reduce(rows: list[list[int]], ncols: int) -> list[int]:
    """Bareiss fraction-free elimination in place over the first ncols columns.

    Pivot k ends in row k and is eliminated from the rows below it: each
    entry right of the pivot becomes (p x - f y) / prev, with p the pivot,
    f the row's entry under it, y the pivot row's entry above x, and prev the
    previous pivot (1 at first). By Sylvester's identity every entry is then
    a minor of the input, so the division is exact (Bareiss 1968); it is
    checked all the same. Returns the pivot columns in order, so their count
    is the rank.
    """
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for r in range(rank + 1, len(rows)):
            row = rows[r]
            f = row[col]
            row[col] = 0
            for c in range(col + 1, len(row)):
                row[c], rem = divmod(p * row[c] - f * prow[c], prev)
                if rem:
                    raise RuntimeError("inexact Bareiss division (unreachable)")
        prev = p
        pivots.append(col)
    return pivots


def solve_linear(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square rational system by fraction-free elimination, exactly.

    After elimination the last pivot is the determinant det of the scaled
    system, up to the sign of the row swaps, so det * x is an integer
    vector (Cramer's rule); back substitution finds it on ints and divides
    by det once. Raises ValueError on a singular matrix.
    """
    n = len(rhs)
    aug = _int_rows([[matrix[i][j] for j in range(n)] + [rhs[i]] for i in range(n)])
    if len(_reduce(aug, n)) < n:
        raise ValueError("singular system")
    det = aug[n - 1][n - 1] if n else 1
    y = [0] * n
    for i in reversed(range(n)):
        row = aug[i]
        y[i], rem = divmod(det * row[n] - sum(row[j] * y[j] for j in range(i + 1, n)), row[i])
        if rem:
            raise RuntimeError("inexact back substitution (unreachable)")
    return [Fraction(v, det) for v in y]


def matrix_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix by exact fraction-free row reduction."""
    rows = _int_rows(matrix)
    return len(_reduce(rows, len(rows[0]))) if rows else 0
