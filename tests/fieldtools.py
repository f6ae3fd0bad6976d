"""Shared helpers: explicit polynomial forms of the built-in quartic, the
raw and uniform-float draws that the random references read, the sum that
the float-kernel references use, and the plan interpreter that the
generated field evaluators are checked against."""

import math
from fractions import Fraction

from spherecurv import N_VARS, RngStream, ScalarField, polynomial_field
from spherecurv.fields import _convolve, _plan
from spherecurv.rng import _output

# Upper-triangle Hessian layout: row i holds columns i..5.
UPPER = [(i, j) for i in range(N_VARS) for j in range(i, N_VARS)]


def left_sum(terms):
    """sum() as Python 3.11 computes it: left to right from int 0. Later
    versions compensate float sums; the float kernels do not."""
    acc = 0
    for t in terms:
        acc = acc + t
    return acc


def run_plan(spec: ScalarField, x, n_tables: int) -> list:
    """The first n_tables of value, gradient and Hessian tables at x, by
    walking the field's compiled plan: each monomial is its parent times one
    coordinate, from the constant 1, and each table is summed left to right
    from int 0. fields.eval1 and eval2 must give these results bit for bit."""
    chain, plans = _plan(spec.coeffs)
    mono = [1]
    for parent, var in chain:
        mono.append(mono[parent] * x[var])
    return [left_sum(c * mono[k] for c, k in zip(cs, ks)) for cs, ks in plans[:n_tables]]


def hess_matrix(hess):
    """Full symmetric matrix from an upper-triangle Hessian tuple."""
    mat = [[None] * N_VARS for _ in range(N_VARS)]
    for (i, j), h in zip(UPPER, hess):
        mat[i][j] = mat[j][i] = h
    return mat


def _monomial(index: int, degree: int = 1) -> tuple[int, ...]:
    exps = [0] * 6
    exps[index] = degree
    return tuple(exps)


def draw_u64(stream: RngStream) -> tuple[int, RngStream]:
    """The stream's next raw 64-bit output, with the advanced stream."""
    counter = stream.counter + 1
    return _output(stream.seed, counter), RngStream(stream.seed, counter)


def draw_float(stream: RngStream, lo: float, hi: float) -> tuple[float, RngStream]:
    """Uniform float in [lo, hi) from the top 53 bits of one raw draw."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise ValueError(f"invalid float range [{lo}, {hi})")
    raw, nxt = draw_u64(stream)
    u = (raw >> 11) * (2.0**-53)
    return lo + (hi - lo) * u, nxt


def polynomial_product(f: ScalarField, g: ScalarField) -> ScalarField:
    """Exact product of two fields (coefficient convolution)."""
    return polynomial_field(_convolve(f.coeffs, g.coeffs))


def poly_sum(*fields: ScalarField) -> ScalarField:
    acc: dict[tuple[int, ...], Fraction] = {}
    for f in fields:
        for exps, c in f.coeffs:
            acc[exps] = acc.get(exps, Fraction(0)) + c
    return polynomial_field(acc)


def poly_scale(f: ScalarField, c) -> ScalarField:
    return polynomial_field({exps: Fraction(c) * coef for exps, coef in f.coeffs})


def expanded_quartic() -> ScalarField:
    """The built-in quartic written out as an explicit 6-variable polynomial."""
    a = polynomial_field(
        {
            _monomial(0, 2): 1,
            _monomial(1, 2): 1,
            _monomial(2, 2): 1,
            _monomial(3, 2): -1,
            _monomial(4, 2): -1,
            _monomial(5, 2): -1,
        }
    )
    b = polynomial_field(
        {
            (1, 0, 0, 1, 0, 0): 1,
            (0, 1, 0, 0, 1, 0): 1,
            (0, 0, 1, 0, 0, 1): 1,
        }
    )
    return poly_sum(polynomial_product(a, a), poly_scale(polynomial_product(b, b), 4))
