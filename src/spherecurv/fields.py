"""Polynomial scalar fields on R^6 and their derivative tables.

Every field is an exponent table {exponent 6-tuple: coefficient}, built and
differentiated with the sparse polynomial type Poly. Two kinds are built
in, and arbitrary tables can be given directly:

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
and 21 upper-triangle Hessian tables, compiled into one plan over a shared
monomial chain, and eval1 and eval2 run straight-line Python generated from
that plan. Each table is one sum written out left to right from int 0: that
is how sum() adds floats on Python 3.11 (from 3.12 on it compensates), and
the golden statistics hold those bits. Coefficients are bound by name, so
int, Fraction and float coefficients act as themselves; the functions are
cached per process under the table with each coefficient's type, shared by
equal fields and left out of a field's pickled state.
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


class Poly:
    """Sparse polynomial in n variables: terms maps exponent n-tuples to int or
    Fraction coefficients, none 0; the constructor checks each term and reads
    a float exactly. +, -, *, ** and diff keep terms in first-seen order and
    types as computed: d/dx of Fraction(1, 2) x^2 is Fraction(1) x."""

    __slots__ = ("n", "terms")

    def __init__(self, terms: Mapping[tuple[int, ...], Fraction | int], n: int = N_VARS):
        self.n, self.terms = n, {}
        for exps, c in terms.items():
            if len(exps) != n:
                raise ValueError(f"bad exponent tuple: {exps} has {len(exps)} entries, not {n}")
            # a float or bool exponent would be truncated or read as 0 / 1
            if any(type(e) is not int for e in exps):
                raise TypeError(f"bad exponent tuple: {exps}; exponents must be ints")
            if any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple: {exps}; exponents must be nonnegative")
            if isinstance(c, (bool, str, bytes)):
                raise TypeError(f"coefficient at {exps} must be a number, got {c!r}")
            try:
                c = c if type(c) is int else Fraction(c)
            except (ValueError, OverflowError):  # NaN or infinity
                raise ValueError(f"coefficient at {exps} must be finite, got {c!r}") from None
            if c:
                self.terms[tuple(exps)] = c

    def _sum(self, pairs) -> Poly:
        """sum(c x^exps) over the (exps, c) pairs, in self's variables."""
        out, acc = Poly({}, self.n), {}
        for exps, c in pairs:
            acc[exps] = acc.get(exps, 0) + c
        out.terms = {exps: c for exps, c in acc.items() if c}
        return out

    def _items(self, other):
        return other.terms.items() if isinstance(other, Poly) else [((0,) * self.n, other)]

    def __add__(self, other) -> Poly:
        return self._sum([*self.terms.items(), *self._items(other)])

    def __mul__(self, other) -> Poly:
        return self._sum((tuple(map(int.__add__, ef, eg)), cf * cg)
                         for ef, cf in self.terms.items() for eg, cg in self._items(other))

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self) -> Poly:
        return self * -1

    def __sub__(self, other) -> Poly:
        return self + -other

    def __rsub__(self, other) -> Poly:
        return -self + other

    def __pow__(self, k: int) -> Poly:
        return math.prod([self] * k, start=Poly({(0,) * self.n: 1}, self.n))

    def __eq__(self, other) -> bool:
        return isinstance(other, (Poly, int, Fraction)) and not (self - other).terms

    def diff(self, i: int) -> Poly:
        return self._sum((exps[:i] + (exps[i] - 1,) + exps[i + 1:], c * exps[i])
                         for exps, c in self.terms.items() if exps[i])

    @property
    def table(self) -> Table:
        """The canonical form: terms sorted, each integral coefficient an int."""
        return tuple((exps, int(c) if c.denominator == 1 else c) for exps, c in sorted(self.terms.items()))


def _compile(tables: Sequence[Table]) -> tuple[tuple, tuple]:
    """Evaluation plan for several tables over one shared monomial list.

    Returns (chain, plans). Monomial 0 is the constant 1 and monomial k + 1 is
    monomial chain[k][0] times x[chain[k][1]]; the list is closed under
    removing one variable, so each monomial costs one multiplication. Each
    plan is (coefficients, monomial indices) for one table."""
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

    plans = tuple((tuple(c for _, c in table), tuple(add(exps) for exps, _ in table)) for table in tables)
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


def coordinate_field(index: int) -> ScalarField:
    if type(index) is not int:
        raise TypeError(f"coordinate index must be an int, got {index!r}")
    if not 0 <= index < N_VARS:
        raise ValueError(f"coordinate index out of range: {index}")
    return ScalarField(kind=COORDINATE, coeffs=((tuple(int(k == index) for k in range(N_VARS)), 1),), index=index)


def cartan_field() -> ScalarField:
    """The quartic A^2 + 4 B^2 of the module docstring, expanded."""
    a = Poly({tuple(2 * (k == i) for k in range(N_VARS)): 1 if i < 3 else -1 for i in range(N_VARS)})
    b = Poly({tuple(int(i in (k, k + 3)) for i in range(N_VARS)): 1 for k in range(3)})
    return ScalarField(kind=CARTAN_QUARTIC, coeffs=(a * a + 4 * b * b).table)


def polynomial_field(coeffs: Mapping[tuple[int, ...], Fraction | int]) -> ScalarField:
    """Polynomial from {exponent 6-tuple: coefficient}. Zero terms are dropped."""
    return ScalarField(kind=POLYNOMIAL, coeffs=Poly(coeffs).table)


def _check_point(x) -> None:
    if len(x) != N_VARS:
        raise ValueError(f"point must have {N_VARS} components, got {len(x)}")
    if any(isinstance(c, float) and not math.isfinite(c) for c in x):
        raise ValueError("non-finite point component")


def _evaluator_source(name: str, chain: tuple, plans: tuple, cname: dict) -> str:
    """Source of `name(x)`: the tables in plans at the point x, straight-line.

    First _check_point's checks: it runs when x does not have 6 components,
    or when some x_i - x_i is not 0, as it is for a float x_i only when x_i
    is not finite. Then one assignment per monomial that the tables use,
    `m{k} = m{parent} * x{var}` from `m0 = 1`, and each table as one sum
    left to right from int 0, `0 + c * m + c * m + ...`; a table without
    terms is the int 0. cname maps each coefficient's (type, value) to the
    name it is bound by."""
    need = {k for _, ks in plans for k in ks}
    for k in range(len(chain), 0, -1):
        if k in need:
            need.add(chain[k - 1][0])
    sums = [" + ".join(["0"] + [f"{cname[type(c), c]} * m{k}" for c, k in zip(cs, ks)]) for cs, ks in plans]
    lines = [
        f"def {name}(x):",
        f"    if len(x) != {N_VARS}:",
        "        _check_point(x)",
        f"    {', '.join(f'x{i}' for i in range(N_VARS))} = x",
        f"    if {' or '.join(f'x{i} - x{i}' for i in range(N_VARS))}:",
        "        _check_point(x)",
        "    m0 = 1",
    ]
    lines += [f"    m{k} = m{parent} * x{var}" for k, (parent, var) in enumerate(chain, 1) if k in need]
    tables = (sums[1:1 + N_VARS], sums[1 + N_VARS:])
    parts = [sums[0]] + [f"({', '.join(t)},)" for t in tables if t]
    lines.append(f"    return {', '.join(parts)}")
    return "\n".join(lines) + "\n"


def _plan(coeffs: Table) -> tuple:
    """_compile's plan for a table's value, gradient and Hessian tables."""
    f = Poly({})._sum(coeffs)
    grad = [f.diff(i) for i in range(N_VARS)]
    hess = [grad[i].diff(j) for i, j in _UPPER]
    return _compile([coeffs] + [p.terms.items() for p in grad + hess])


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
