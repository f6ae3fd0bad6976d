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

The kind is only a label for reports. Integral coefficients are kept as
int, so rational points give exact Fractions and float points give floats.

On a field's first evaluation its table is differentiated into 6 gradient
tables and 21 upper-triangle Hessian tables, compiled into one plan over a
shared monomial chain, and eval1 and eval2 run straight-line Python
generated from that plan: one multiplication per monomial, then each table
as one sum written out left to right from int 0. That is the order in which
sum() adds floats on Python 3.11, and the golden statistics hold its bits;
from 3.12 on sum() compensates float sums, so a written-out sum keeps the
same bits on every supported Python. Coefficients are bound by name, not
written as literals, so int, Fraction and float coefficients act as
themselves. The generated functions are cached per process under the
coefficient table with each coefficient's type, shared by equal fields and
left out of a field's pickled state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from itertools import compress
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
    """Polynomial field; its derivative tables are built on first evaluation."""

    kind: str
    coeffs: Table
    index: int | None = None

    @cached_property
    def _evaluators(self) -> tuple:
        """(eval1, eval2) for this table; the key holds each coefficient's
        type, so a 1.0 never gets the functions built for an equal 1."""
        return _built(tuple((exps, type(c), c) for exps, c in self.coeffs))

    def __getstate__(self) -> dict:
        """Pickled state without the generated functions, which do not
        pickle; each process generates or looks up its own."""
        state = dict(self.__dict__)
        state.pop("_evaluators", None)
        return state

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
        if len(exps) != N_VARS:
            raise ValueError(f"bad exponent tuple: {exps} has {len(exps)} entries, not {N_VARS}")
        # a float or bool exponent would be truncated or read as 0 / 1
        if any(type(e) is not int for e in exps):
            raise TypeError(f"bad exponent tuple: {exps}; exponents must be ints")
        if any(e < 0 for e in exps):
            raise ValueError(f"bad exponent tuple: {exps}; exponents must be nonnegative")
        c = Fraction(c)
        if c != 0:
            norm.append((tuple(exps), int(c) if c.denominator == 1 else c))
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
    if type(index) is not int:
        raise TypeError(f"coordinate index must be an int, got {index!r}")
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


def _evaluator_source(name: str, chain: tuple, plans: tuple, cname: dict) -> str:
    """Source of `name(x)`: the tables in plans at the point x, straight-line.

    First _check_point's checks: it runs when x does not have 6 components,
    or when some x_i - x_i is not 0, as it is for a float x_i only when x_i
    is not finite. Then one assignment per monomial that the tables use,
    `m{k} = m{parent} * x{var}` from `m0 = 1`, and each table as one sum
    left to right from int 0, `0 + c * m + c * m + ...`; a table without
    terms is the int 0. cname maps (type, value) of each coefficient to the
    name it is bound by.
    """
    need = {k for _, ks in plans for k in ks}
    for k in range(len(chain), 0, -1):
        if k in need:
            need.add(chain[k - 1][0])
    sums = [" + ".join(["0"] + [f"{cname[type(c), c]} * m{k}" for c, k in zip(cs, ks)])
            for cs, ks in plans]
    lines = [
        f"def {name}(x):",
        f"    if len(x) != {N_VARS}:",
        "        _check_point(x)",
        f"    {', '.join(f'x{i}' for i in range(N_VARS))} = x",
        f"    if {' or '.join(f'x{i} - x{i}' for i in range(N_VARS))}:",
        "        _check_point(x)",
        "    m0 = 1",
    ]
    lines += [f"    m{k} = m{parent} * x{var}"
              for k, (parent, var) in enumerate(chain, 1) if k in need]
    tables = (sums[1:1 + N_VARS], sums[1 + N_VARS:])
    parts = [sums[0]] + [f"({', '.join(t)},)" for t in tables if t]
    lines.append(f"    return {', '.join(parts)}")
    return "\n".join(lines) + "\n"


def _plan(coeffs: Table) -> tuple:
    """_compile's plan for a table's value, gradient and Hessian tables."""
    grad = tuple(_derivative(coeffs, i) for i in range(N_VARS))
    hess = tuple(_derivative(grad[i], j) for i, j in _UPPER)
    return _compile((coeffs,) + grad + hess)


@cache
def _built(key: tuple) -> tuple:
    """(eval1, eval2) of the point for the table of (exps, type, coefficient)
    triples key, built once per process and shared by equal fields."""
    chain, plans = _plan(tuple((exps, c) for exps, _, c in key))
    cname: dict = {}
    for cs, _ in plans:
        for c in cs:
            cname.setdefault((type(c), c), f"c{len(cname)}")
    namespace = {n: c for (_, c), n in cname.items()}
    namespace["_check_point"] = _check_point
    source = (_evaluator_source("eval1", chain, plans[:1 + N_VARS], cname)
              + _evaluator_source("eval2", chain, plans, cname))
    exec(compile(source, "<spherecurv.fields evaluators>", "exec"), namespace)
    return namespace["eval1"], namespace["eval2"]


def eval1(spec: ScalarField, x) -> tuple:
    """(value, gradient) of the field at x (6 floats or Fractions)."""
    return spec._evaluators[0](x)


def eval2(spec: ScalarField, x) -> tuple:
    """(value, gradient, Hessian upper triangle) of the field at x."""
    return spec._evaluators[1](x)


def hess_terms(hess: Sequence) -> tuple:
    """The entries of a row-major upper-triangle Hessian that are not 0,
    each as (h, (i, j)); shape.second_form sums its bilinear forms over them."""
    return tuple(compress(zip(hess, _UPPER), hess))
