"""Exact scalar types and exact linear algebra.

Rationals are stdlib Fractions: arbitrary precision, always reduced, positive
denominator, so every arithmetic identity asserted in this package is checked
with zero rounding error. Surd adds the one extension field we need, numbers
of the form q*sqrt(r) with q, r rational, closed under the operations used by
the two-curvature solver.
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
        if self.radicand != other.radicand:
            raise ValueError("sum of surds over different radicands is not a Surd")
        return Surd(self.coef + other.coef, self.radicand)

    def __rmul__(self, scalar: RationalLike) -> "Surd":
        return Surd(as_rational(scalar) * self.coef, self.radicand)

    def squared(self) -> Fraction:
        return self.coef * self.coef * self.radicand

    def is_zero(self) -> bool:
        return self.coef == 0


def _reduce(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination in place over the first ncols columns.

    Pivot k ends in row k and is cleared from every other row; returns the
    pivot columns in order, so their count is the rank.
    """
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / prow[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], prow)]
        pivots.append(col)
    return pivots


def solve_linear(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square rational system by Gaussian elimination, exactly.

    Raises ValueError on a singular matrix.
    """
    n = len(rhs)
    aug = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    if len(_reduce(aug, n)) < n:
        raise ValueError("singular system")
    return [aug[i][n] / aug[i][i] for i in range(n)]


def matrix_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix by exact row reduction."""
    rows = [list(map(Fraction, row)) for row in matrix]
    return len(_reduce(rows, len(rows[0]))) if rows else 0
