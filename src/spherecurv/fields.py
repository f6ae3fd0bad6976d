"""Polynomial scalar fields on R^6 and their derivative tables.

Every field is an exponent table {exponent 6-tuple: coefficient}. Two kinds
are built in, and arbitrary tables can be given directly:

  coordinate   F(x) = x_i, the linear height function whose zero level on the
               sphere is a great 4-sphere
  quartic      F(x) = (x1^2 + x2^2 + x3^2 - x4^2 - x5^2 - x6^2)^2
                      + 4 (x1 x4 + x2 x5 + x3 x6)^2,
               the degree-4 form whose sphere levels are the classical
               homogeneous family with four distinct curvatures
  polynomial   arbitrary polynomial given by an exponent-tuple table

The kind is only a label for reports. At construction each field is
differentiated once into 6 gradient tables and 21 upper-triangle Hessian
tables; evaluation multiplies out the monomials those tables use once per
call and sums each table. Integral coefficients are kept as int, so rational
points give exact Fractions and float points give floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Mapping, Sequence

N_VARS = 6

COORDINATE = "coordinate"
CARTAN_QUARTIC = "cartan_quartic"
POLYNOMIAL = "polynomial"

# Upper-triangle Hessian layout: row i holds columns i..5.
_UPPER = tuple((i, j) for i in range(N_VARS) for j in range(i, N_VARS))

Table = tuple[tuple[tuple[int, ...], "int | Fraction"], ...]


def _derivative(table: Table, i: int) -> Table:
    """d/dx_i of an exponent table."""
    out = []
    for exps, c in table:
        if exps[i]:
            lowered = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            out.append((lowered, c * exps[i]))
    return tuple(out)


def _compile(tables: Sequence[Table]) -> tuple[tuple, tuple]:
    """Evaluation plan for several tables over one shared monomial list.

    Returns (chain, plans). Monomial 0 is the constant 1 and monomial k + 1 is
    monomial chain[k][0] times x[chain[k][1]]; the list is closed under
    removing one variable, so each monomial costs one multiplication. Each
    plan is (coefficients, monomial indices) for one table.
    """
    index = {(0,) * N_VARS: 0}
    chain: list[tuple[int, int]] = []

    def add(exps: tuple[int, ...]) -> int:
        k = index.get(exps)
        if k is None:
            var = next(i for i, e in enumerate(exps) if e)
            parent = add(exps[:var] + (exps[var] - 1,) + exps[var + 1:])
            chain.append((parent, var))
            k = index[exps] = len(chain)
        return k

    plans = tuple(
        (tuple(c for _, c in table), tuple(add(exps) for exps, _ in table))
        for table in tables
    )
    return tuple(chain), plans


@dataclass(frozen=True)
class ScalarField:
    """Polynomial field; its derivative tables are built once, at construction."""

    kind: str
    coeffs: Table
    index: int | None = None
    _plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        grad = tuple(_derivative(self.coeffs, i) for i in range(N_VARS))
        hess = tuple(_derivative(grad[i], j) for i, j in _UPPER)
        object.__setattr__(self, "_plan", _compile((self.coeffs,) + grad + hess))

    def describe(self) -> dict:
        """JSON-friendly summary used in reports."""
        out: dict = {"kind": self.kind}
        if self.kind == COORDINATE:
            out["index"] = self.index
        if self.kind == POLYNOMIAL:
            out["terms"] = len(self.coeffs)
        return out


def _normalize(coeffs: Mapping[tuple[int, ...], Fraction | int]) -> Table:
    """Sorted table without zero terms; integral coefficients become int."""
    norm = []
    for exps, c in sorted(coeffs.items()):
        if len(exps) != N_VARS or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent tuple: {exps}")
        c = Fraction(c)
        if c != 0:
            norm.append((tuple(int(e) for e in exps), int(c) if c.denominator == 1 else c))
    return tuple(norm)


def _convolve(f: Table, g: Table) -> dict[tuple[int, ...], Fraction | int]:
    acc: dict[tuple[int, ...], Fraction | int] = {}
    for ef, cf in f:
        for eg, cg in g:
            key = tuple(a + b for a, b in zip(ef, eg))
            acc[key] = acc.get(key, 0) + cf * cg
    return acc


def _unit(i: int, degree: int = 1) -> tuple[int, ...]:
    return tuple(degree if k == i else 0 for k in range(N_VARS))


def coordinate_field(index: int) -> ScalarField:
    if not 0 <= index < N_VARS:
        raise ValueError(f"coordinate index out of range: {index}")
    return ScalarField(kind=COORDINATE, coeffs=((_unit(index), 1),), index=index)


def cartan_field() -> ScalarField:
    """The quartic A^2 + 4 B^2 of the module docstring, expanded."""
    a = tuple((_unit(i, 2), 1 if i < 3 else -1) for i in range(N_VARS))
    b = tuple((tuple(int(i in (k, k + 3)) for i in range(N_VARS)), 1) for k in range(3))
    quartic = _convolve(a, a)
    for exps, c in _convolve(b, b).items():
        quartic[exps] = quartic.get(exps, 0) + 4 * c
    return ScalarField(kind=CARTAN_QUARTIC, coeffs=_normalize(quartic))


def polynomial_field(coeffs: Mapping[tuple[int, ...], Fraction | int]) -> ScalarField:
    """Polynomial from {exponent 6-tuple: coefficient}. Zero terms are dropped."""
    return ScalarField(kind=POLYNOMIAL, coeffs=_normalize(coeffs))


def _check_point(x) -> None:
    if len(x) != N_VARS:
        raise ValueError(f"point must have {N_VARS} components, got {len(x)}")
    for c in x:
        if isinstance(c, float) and not math.isfinite(c):
            raise ValueError("non-finite point component")


def _run(spec: ScalarField, x, n_tables: int) -> list:
    """The first n_tables of value, gradient and Hessian tables at x."""
    _check_point(x)
    chain, plans = spec._plan
    mono = [1]
    for parent, var in chain:
        mono.append(mono[parent] * x[var])
    get = mono.__getitem__
    return [sum(map(mul, cs, map(get, ks))) if ks else 0 for cs, ks in plans[:n_tables]]


def eval1(spec: ScalarField, x) -> tuple:
    """(value, gradient) of the field at x (6 floats or Fractions)."""
    out = _run(spec, x, 1 + N_VARS)
    return out[0], tuple(out[1:])


def eval2(spec: ScalarField, x) -> tuple:
    """(value, gradient, Hessian upper triangle) of the field at x."""
    out = _run(spec, x, 1 + N_VARS + len(_UPPER))
    return out[0], tuple(out[1:1 + N_VARS]), tuple(out[1 + N_VARS:])


def hess_terms(hess: Sequence) -> tuple:
    """The entries of a row-major upper-triangle Hessian that are not 0,
    each as (h, (i, j)); hess_bilinear reads them."""
    return tuple(compress(zip(hess, _UPPER), hess))


def hess_bilinear(terms: Sequence, u: Sequence, v: Sequence):
    """u^T H v for H given by hess_terms(hess), its nonzero upper entries.

    Entries equal to 0 are skipped. For finite u and v their terms are zeros
    of either sign, and adding one never changes the sum: it starts at int 0,
    so it is never -0.0. An all-zero Hessian gives int 0.
    """
    acc = 0
    for h, (i, j) in terms:
        acc += h * u[i] * v[i] if i == j else h * (u[i] * v[j] + u[j] * v[i])
    return acc
