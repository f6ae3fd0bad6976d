"""Exact arithmetic building blocks: rational coercion, surds, linear solves."""

import random
from fractions import Fraction

import pytest

from spherecurv import RngStream, Surd, as_rational, draw_rationals, exact, matrix_rank, solve_linear


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
        assert s == Surd(Fraction(4))
        assert s.squared() == 16
        assert float(s) == 4.0

    def test_square_factor_extraction(self):
        s = Surd(Fraction(1, 2), Fraction(12))
        assert s == Surd(Fraction(1), Fraction(3))
        assert s.squared() == 3
        assert abs(float(s) - 3**0.5) < 1e-15

    def test_equal_values_over_different_radicands(self):
        a, b = Surd(Fraction(1), Fraction(16)), Surd(Fraction(4))
        c, d = Surd(Fraction(1, 2), Fraction(12)), Surd(Fraction(1), Fraction(3))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert c == d and hash(c) == hash(d) and len({c, d}) == 1
        assert a != -a and c != a
        assert Surd(Fraction(1), Fraction(8)) + Surd(Fraction(1), Fraction(2)) == Surd(
            Fraction(3), Fraction(2)
        )
        with pytest.raises(ValueError):
            Surd(Fraction(1), Fraction(2)) + Surd(Fraction(1), Fraction(3))

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


def test_surd_arithmetic_matches_full_normalization():
    """Negation, sums and scalar multiples equal the Surds built directly
    from the resulting coefficient and radicand."""
    radicands = [Fraction(1), Fraction(12), Fraction(7, 18), Fraction(50, 3)]
    coefs = [Fraction(0), Fraction(1), Fraction(-3, 4), Fraction(5, 7)]
    for r in radicands:
        for c1 in coefs:
            a = Surd(c1, r)
            assert -a == Surd(-a.coef, a.radicand)
            for c2 in coefs + [-c1]:
                b = Surd(c2, r)
                total = a + b
                assert total == Surd(a.coef + b.coef, a.radicand if a.coef else b.radicand)
                assert total.radicand == 1 or total.coef != 0
                assert c2 * a == Surd(c2 * a.coef, a.radicand)
                assert (0 * a).radicand == 1


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


def test_linear_algebra_rejects_bad_input():
    with pytest.raises(TypeError):
        solve_linear([[0.1]], [1])
    with pytest.raises(TypeError):
        matrix_rank([[1, 0.5]])
    with pytest.raises(ValueError):
        solve_linear([[1, 0, 0], [0, 1, 0]], [1, 2])
    with pytest.raises(ValueError):
        solve_linear([[1, 2]], [1, 2])
    with pytest.raises(ValueError):
        matrix_rank([[1, 2], [3]])
    assert solve_linear([["1/2"]], [1]) == [Fraction(2)]


def _fraction_reduce(rows, ncols):
    """Gauss-Jordan elimination over Fraction, as the shared elimination
    was before it became fraction-free; returns the pivot columns."""
    pivots = []
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


def _fraction_solve(matrix, rhs):
    n = len(rhs)
    aug = [[Fraction(v) for v in matrix[i]] + [Fraction(rhs[i])] for i in range(n)]
    if len(_fraction_reduce(aug, n)) < n:
        return None
    return [aug[i][n] / aug[i][i] for i in range(n)]


def _fraction_rank(matrix):
    rows = [list(map(Fraction, row)) for row in matrix]
    return len(_fraction_reduce(rows, len(rows[0]))) if rows else 0


def _random_matrices(count):
    """Seeded rational matrices at heights 2, 1000 and 10^6, with every shape
    from 1x1 to 5x5; height 2 gives many zero entries and so many pivot
    swaps. Every third matrix gets one row replaced by a combination of two
    others, and every fourth a zeroed column, so rank deficiency is common
    in square, tall and wide shapes alike."""
    root = RngStream(1968)
    for n in range(count):
        stream = root.split(n)
        height = (2, 1000, 10**6)[n % 3]
        rows, cols = 1 + n % 5, 1 + (n // 5) % 5
        vals, stream = draw_rationals(stream, height, rows * cols + 2)
        m = [list(vals[r * cols:(r + 1) * cols]) for r in range(rows)]
        if n % 3 == 0 and rows >= 3:
            c1, c2 = vals[-2:]
            m[n % rows] = [c1 * a + c2 * b for a, b in zip(m[(n + 1) % rows], m[(n + 2) % rows])]
        if n % 4 == 0:
            for row in m:
                row[n % cols] = Fraction(0)
        rhs, stream = draw_rationals(stream, height, rows)
        yield m, list(rhs)


def test_fraction_free_kernels_match_fraction_reference():
    """matrix_rank on every shape and solve_linear on every square matrix
    (augmented with a right-hand side) equal Gauss-Jordan over Fraction, as
    does _solve_cleared's y / det on the rows scaled to integers;
    singular systems raise ValueError exactly when the reference finds
    fewer than n pivots."""
    singular = deficient = 0
    for m, rhs in _random_matrices(2500):
        rank = matrix_rank(m)
        assert rank == _fraction_rank(m)
        deficient += rank < min(len(m), len(m[0]))
        if len(m) == len(m[0]):
            ref = _fraction_solve(m, rhs)
            aug = exact._int_rows([[*row, b] for row, b in zip(m, rhs)])
            if ref is None:
                singular += 1
                with pytest.raises(ValueError):
                    solve_linear(m, rhs)
                with pytest.raises(ValueError):
                    exact._solve_cleared(aug)
            else:
                assert solve_linear(m, rhs) == ref
                y, det = exact._solve_cleared(aug)
                assert [Fraction(v, det) for v in y] == ref
    assert singular > 50 and deficient > 300


def test_bareiss_cases():
    F = Fraction
    # pivot swaps at the first and the second column
    assert solve_linear([[0, 0, 1], [0, 2, 0], [3, 0, 0]], [1, 2, 3]) == [1, 1, 1]
    assert solve_linear([[1, 1, 0], [1, 1, 1], [0, 1, 1]], [2, 3, 2]) == [1, 1, 1]
    # rows scaled to different denominators
    assert solve_linear([[F(1, 3), F(1, 2)], [F(2, 7), F(-5)]], [F(5, 6), F(-33, 7)]) == [1, 1]
    # a zero column in the middle: the column is skipped, later pivots still divide
    assert matrix_rank([[1, 0, 2], [2, 0, 5], [3, 0, 7]]) == 2
    # wide and tall rank-deficient
    assert matrix_rank([[1, 2, 3, 4], [2, 4, 6, 8], [F(1, 2), 1, F(3, 2), 2]]) == 1
    assert matrix_rank([[1, 2], [2, 4], [3, 6], [0, 0]]) == 1
    assert matrix_rank([[0, 0, 0], [0, 0, 0]]) == 0


def _reference_reduce(rows, ncols):
    """exact._reduce as it was before the straight-line rewrite, verbatim."""
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


def _reference_solve_cleared(aug):
    """exact._solve_cleared as it was before the straight-line rewrite,
    verbatim apart from calling _reference_reduce."""
    n = len(aug)
    if len(_reference_reduce(aug, n)) < n:
        raise ValueError("singular system")
    det = aug[n - 1][n - 1] if n else 1
    y = [0] * n
    for i in reversed(range(n)):
        row = aug[i]
        y[i], rem = divmod(det * row[n] - sum(row[j] * y[j] for j in range(i + 1, n)), row[i])
        if rem:
            raise RuntimeError("inexact back substitution (unreachable)")
    return y, det


def _seeded_int_matrix(r, rows, cols, n):
    """A rows x cols integer matrix; case n picks entries from {-1, 0, 1}
    (mostly 0), from -1000..1000 or from +-2^70, replaces a row by an
    integer combination of two others (every third case), and zeroes the
    first entry of row 0 (every fourth), which forces a swap at column 0
    whenever another row has a nonzero one."""
    style = n % 3
    def entry():
        if style == 0:
            return r.choice((-1, 0, 0, 0, 1))
        bound = 1000 if style == 1 else 2**70
        return r.randint(-bound, bound)
    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    if n % 3 == 0 and rows >= 3:
        c1, c2 = r.randint(-3, 3), r.randint(-3, 3)
        m[n % rows] = [c1 * a + c2 * b for a, b in zip(m[(n + 1) % rows], m[(n + 2) % rows])]
    if n % 4 == 0 and rows and cols:
        m[0][0] = 0
    return m


def test_reduce_and_solve_cleared_match_the_loops_they_replace():
    """_reduce and _solve_cleared give the reference loops' pivots, reduced
    rows and (y, det), and the same singular ValueError, on seeded integer
    matrices of every shape from 0 x 0 to 5 x 7 (wide augmented ones
    included), reduced over every column count; the cases include swaps at
    column 0, rank deficiency and later pivots of +1 and -1 with rows left
    to eliminate, where the previous pivot is +-1 part-way through."""
    r = random.Random(25)
    swaps = deficient = later_one = later_minus_one = singular = 0
    shapes = [(rows, cols) for rows in range(6) for cols in range(8)]
    for n in range(3000):
        rows, cols = shapes[n % len(shapes)]
        m = _seeded_int_matrix(r, rows, cols, n // len(shapes))
        ncols = r.randint(0, cols)
        got, want = [row[:] for row in m], [row[:] for row in m]
        pivots = exact._reduce(got, ncols)
        assert pivots == _reference_reduce(want, ncols) and got == want, m
        swaps += ncols > 0 and rows > 1 and m[0][0] == 0 and any(row[0] for row in m)
        deficient += len(pivots) < min(rows, ncols)
        for k in range(1, len(pivots) - 1):
            if k + 2 < rows:
                later_one += got[k][pivots[k]] == 1
                later_minus_one += got[k][pivots[k]] == -1
        aug = _seeded_int_matrix(r, rows, rows + 1, n // len(shapes))
        try:
            want = _reference_solve_cleared([row[:] for row in aug])
        except ValueError as exc:
            singular += 1
            with pytest.raises(ValueError, match=f"^{exc}$"):
                exact._solve_cleared([row[:] for row in aug])
        else:
            assert exact._solve_cleared([row[:] for row in aug]) == want, aug
    assert exact._reduce([], 0) == [] and exact._solve_cleared([]) == ([], 1)
    assert exact._solve_cleared([[-3, 6]]) == ([6], -3)
    assert swaps > 300 and deficient > 250 and singular > 700
    assert later_one > 15 and later_minus_one > 15


def test_inexact_divisions_raise():
    """The remainder checks of the elimination and of back substitution
    still raise. Integer input never reaches them (Sylvester's identity
    makes every division exact), so Fraction entries stand in: a minor
    with a denominator leaves a remainder."""
    third = Fraction(1, 3)
    with pytest.raises(RuntimeError, match="inexact Bareiss division"):
        exact._reduce([[2, 0, 0], [0, 1, 0], [0, 0, third]], 3)
    with pytest.raises(RuntimeError, match="inexact back substitution"):
        exact._solve_cleared([[2, third]])
