"""Exact arithmetic building blocks: rational coercion, surds, linear solves."""

from fractions import Fraction

import pytest

from spherecurv import Surd, as_rational, matrix_rank, solve_linear


def test_as_rational_accepts_int_str_fraction():
    assert as_rational(3) == Fraction(3)
    assert as_rational("2/7") == Fraction(2, 7)
    assert as_rational(Fraction(-5, 9)) == Fraction(-5, 9)


def test_as_rational_returns_a_fraction_unchanged():
    x = Fraction(-5, 9)
    assert as_rational(x) is x


def test_as_rational_rejects_float():
    with pytest.raises(TypeError):
        as_rational(0.5)


class TestSurd:
    def test_perfect_square_folds_to_rational(self):
        s = Surd(Fraction(1), Fraction(16))
        assert s.coef == 4
        assert s.radicand == 1

    def test_square_factor_extraction(self):
        s = Surd(Fraction(1, 2), Fraction(12))
        assert s.coef == 1
        assert s.radicand == 3

    def test_zero_normalizes_radicand(self):
        s = Surd(Fraction(0), Fraction(7))
        assert s.radicand == 1
        assert s.is_zero()

    def test_float_value(self):
        s = Surd(Fraction(1, 2), Fraction(12))
        assert abs(float(s) - 3**0.5) < 1e-15

    def test_addition_same_radicand(self):
        a = Surd(Fraction(1, 3), Fraction(5))
        b = Surd(Fraction(1, 6), Fraction(5))
        assert a + b == Surd(Fraction(1, 2), Fraction(5))

    def test_addition_zero_is_neutral(self):
        z = Surd(Fraction(0))
        a = Surd(Fraction(2), Fraction(3))
        assert z + a == a
        assert a + z == a

    def test_addition_mixed_radicands_rejected(self):
        a = Surd(Fraction(1), Fraction(2))
        b = Surd(Fraction(1), Fraction(3))
        with pytest.raises(ValueError):
            a + b

    def test_scalar_multiplication(self):
        a = Surd(Fraction(1, 2), Fraction(3))
        assert 4 * a == Surd(Fraction(2), Fraction(3))
        assert Fraction(1, 2) * a == Surd(Fraction(1, 4), Fraction(3))

    def test_squared_is_exact_rational(self):
        a = Surd(Fraction(-3, 2), Fraction(7))
        assert a.squared() == Fraction(63, 4)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            Surd(Fraction(1), Fraction(-1))

    def test_negation(self):
        a = Surd(Fraction(2, 3), Fraction(5))
        assert (-a).coef == Fraction(-2, 3)
        assert (-a + a).is_zero()


def test_solve_linear_known_system():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    rhs = [Fraction(5), Fraction(10)]
    assert solve_linear(m, rhs) == [Fraction(1), Fraction(3)]


def test_solve_linear_vandermonde():
    xs = [Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
    m = [[x**k for x in xs] for k in range(4)]
    rhs = [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
    sol = solve_linear(m, rhs)
    for k in range(4):
        assert sum(xs[i] ** k * sol[i] for i in range(4)) == rhs[k]


def test_solve_linear_requires_pivoting():
    m = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert solve_linear(m, [Fraction(3), Fraction(4)]) == [Fraction(4), Fraction(3)]


def test_solve_linear_singular_raises():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(ValueError):
        solve_linear(m, [Fraction(1), Fraction(1)])


def test_matrix_rank_cases():
    assert matrix_rank([]) == 0
    assert matrix_rank([[Fraction(0), Fraction(0)]]) == 0
    assert matrix_rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    full = [[Fraction(1), Fraction(0)], [Fraction(5), Fraction(1)]]
    assert matrix_rank(full) == 2
    tall = [[Fraction(1)], [Fraction(2)], [Fraction(3)]]
    assert matrix_rank(tall) == 1
