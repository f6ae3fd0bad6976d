"""Second-order jets of elementary fields: the (value, gradient, upper-triangle
Hessian) tuples that eval2 returns for constants, coordinates, products and
powers, checked against hand-computed derivatives."""

from fractions import Fraction

import pytest

from spherecurv import N_VARS, coordinate_field, eval1, eval2, polynomial_field
from fieldtools import UPPER, hess_matrix, poly_scale, poly_sum, polynomial_product


def _monomial(*pairs):
    """Polynomial field of one monomial, given as (variable, power) pairs."""
    return polynomial_field({tuple(dict(pairs).get(i, 0) for i in range(N_VARS)): 1})


def _point(*values):
    return tuple(Fraction(v) for v in values) + (Fraction(1),) * (N_VARS - len(values))


def test_constant_jet_structure():
    value, grad, hess = eval2(poly_scale(_monomial(), 5), _point(2, 3))
    assert value == 5
    assert grad == (0,) * N_VARS
    assert hess == (0,) * len(UPPER)


def test_variable_jet_structure():
    """A coordinate has a unit gradient and a zero Hessian, as exact ints."""
    x = (0.1, 0.2, 3.0, 0.4, 0.5, 0.6)
    value, grad, hess = eval2(coordinate_field(2), x)
    assert value == 3.0 and type(value) is float
    assert grad == (0, 0, 1, 0, 0, 0)
    assert all(type(g) is int for g in grad)
    assert hess == (0,) * len(UPPER)
    assert all(type(h) is int for h in hess)
    assert eval1(coordinate_field(2), x) == (value, grad)


def test_product_of_two_variables():
    value, grad, hess = eval2(_monomial((0, 1), (1, 1)), _point(2, 5))
    mat = hess_matrix(hess)
    assert value == 10
    assert grad == (5, 2, 0, 0, 0, 0)
    assert mat[0][1] == 1
    assert mat[1][0] == 1
    assert mat[0][0] == 0


def test_square_has_constant_second_derivative():
    value, grad, hess = eval2(_monomial((3, 2)), _point(0, 0, 0, 7))
    assert value == 49
    assert grad[3] == 14
    assert hess_matrix(hess)[3][3] == 2


def test_pow_matches_repeated_multiplication():
    x = coordinate_field(1)
    explicit = polynomial_product(polynomial_product(x, x), polynomial_product(x, x))
    pt = _point(1, Fraction(3, 2))
    assert eval2(_monomial((1, 4)), pt) == eval2(explicit, pt)
    assert eval2(_monomial((1, 0)), pt) == eval2(poly_scale(_monomial(), 1), pt)
    assert eval2(_monomial((1, 1)), pt) == eval2(x, pt)
    with pytest.raises(ValueError):
        _monomial((1, -1))


def test_scalar_mixing():
    """3 x + 1 - x/2 mixes int and Fraction coefficients exactly."""
    x = coordinate_field(0)
    expr = poly_sum(poly_scale(x, 3), _monomial(), poly_scale(x, Fraction(-1, 2)))
    value, grad, _ = eval2(expr, _point(2))
    assert value == 3 * 2 + 1 - 1
    assert grad[0] == Fraction(5, 2)


def test_coordinate_field_jets():
    x = tuple(Fraction(v, 10) for v in (1, 2, 3, 4, 5, 6))
    value, grad, hess = eval2(coordinate_field(4), x)
    assert value == Fraction(1, 2)
    assert grad == (0, 0, 0, 0, 1, 0)
    assert all(type(g) is int for g in grad)
    assert hess == (0,) * len(UPPER)
    assert all(type(h) is int for h in hess)
    assert eval1(coordinate_field(4), x) == (value, grad)
