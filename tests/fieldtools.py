"""Shared helpers: explicit polynomial forms of the built-in quartic."""

from fractions import Fraction

from spherecurv import N_VARS, ScalarField, polynomial_field, polynomial_product

# Upper-triangle Hessian layout: row i holds columns i..5.
UPPER = [(i, j) for i in range(N_VARS) for j in range(i, N_VARS)]


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
