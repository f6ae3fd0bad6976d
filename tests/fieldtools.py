"""Shared helpers: the polynomial ring's variables and its conversions to
and from fields, the built-in quartic expanded on the ring, the raw and
uniform-float draws that the random references read, the sum that the
float-kernel references use, and the plan interpreter that the generated
field evaluators are checked against."""

import math

from spherecurv import N_VARS, RngStream, ScalarField, polynomial_field
from spherecurv.fields import Poly, _plan
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


def variables(n: int = N_VARS) -> list[Poly]:
    """x_0 .. x_{n-1}, each a Poly in n variables."""
    return [Poly({tuple(int(k == i) for k in range(n)): 1}, n) for i in range(n)]


def ring(f: ScalarField) -> Poly:
    """The field's table as a Poly."""
    return Poly(dict(f.coeffs))


def field(p: Poly) -> ScalarField:
    """The Poly as a polynomial field."""
    return polynomial_field(p.terms)


def expanded_quartic() -> ScalarField:
    """The built-in quartic written out from the six variables."""
    x1, x2, x3, x4, x5, x6 = variables()
    a = x1**2 + x2**2 + x3**2 - x4**2 - x5**2 - x6**2
    b = x1 * x4 + x2 * x5 + x3 * x6
    return field(a**2 + 4 * b**2)
