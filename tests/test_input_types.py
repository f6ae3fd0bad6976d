"""Library inputs of the wrong type fail at the boundary that owns them,
with a TypeError that names the argument, before any work is done."""

from fractions import Fraction

import pytest

from spherecurv import (
    DerivativeTable,
    I_closed,
    I_def,
    LevelSpec,
    Quadruple,
    RngStream,
    SymMat4,
    clifford_model,
    coordinate_field,
    diag_from_K,
    diag_from_system,
    dpsi_coeff,
    g2_solve,
    g3_kernel,
    gauss_R,
    matrix_rank,
    recover_curvatures,
    sign_lemma,
    solve_linear,
    sweep_analyze,
)

_EQUATOR = LevelSpec(coordinate_field(5), 0.0)
_LAM = Quadruple((1, 2, 3, 4))
_ONES = (1, 1, 1, 1)


def _rows_with(i, j, entry):
    """The 4x4 identity rows with entry at (i, j) and (j, i)."""
    rows = [[float(r == c) for c in range(4)] for r in range(4)]
    rows[i][j] = rows[j][i] = entry
    return tuple(map(tuple, rows))


# (call, message): each call raises TypeError with exactly this message
_ROWS = [
    # True once built clifford_True_3, whose model_check passed
    (lambda: clifford_model(True, 3), "r must be an int, got True"),
    # once the internal "both arguments should be Rational instances"
    (lambda: clifford_model(2.0, 2.0), "r must be an int, got 2.0"),
    (lambda: clifford_model(2, 2.0), "s must be an int, got 2.0"),
    # accepted, and sweep_analyze then failed inside the projection
    (lambda: LevelSpec(coordinate_field(5), "0"), "level must be a real number, got '0'"),
    (lambda: LevelSpec(coordinate_field(5), None), "level must be a real number, got None"),
    # a bool is a numbers.Real: True was kept as the level
    (lambda: LevelSpec(coordinate_field(5), True), "level must be a real number, got True"),
    # once "'>' not supported between instances of 'str' and 'float'"
    (lambda: sweep_analyze(_EQUATOR, 2, 0, "1"), "f1_tol must be a real number, got '1'"),
    # once ran with f1_tol 1 and answered equator
    (lambda: sweep_analyze(_EQUATOR, 2, 0, True), "f1_tol must be a real number, got True"),
    # once "unsupported operand type(s) for &"
    (lambda: RngStream(1.5), "seed must be an int, got 1.5"),
    (lambda: RngStream("a"), "seed must be an int, got 'a'"),
    (lambda: RngStream(1, 2.0), "counter must be an int, got 2.0"),
    (lambda: RngStream(1).split(1.5), "key must be an int, got 1.5"),
    # accepted, and sym_eigen then failed with "can't multiply sequence by
    # non-int of type 'str'"
    (lambda: SymMat4(_rows_with(0, 1, "x")), "SymMat4 entry at row 0, column 1 must be a real number, got 'x'"),
    (lambda: SymMat4(_rows_with(3, 3, None)), "SymMat4 entry at row 3, column 3 must be a real number, got None"),
    (lambda: SymMat4(_rows_with(2, 2, True)), "SymMat4 entry at row 2, column 2 must be a real number, got True"),
    # once parsed as floats
    (lambda: SymMat4.from_upper(["1"] * 10), "upper-triangle entry 0 must be a real number, got '1'"),
    (lambda: SymMat4.from_upper([1.0] * 9 + [False]), "upper-triangle entry 9 must be a real number, got False"),
    # once "'float' object has no attribute 'denominator'"; the exact
    # functions share one message for a float
    (lambda: I_def(_LAM, [[1.5] * 4] * 4), "float input would silently break exactness; pass a Fraction"),
    # once "'tuple' object has no attribute 'lam'"
    (lambda: dpsi_coeff((_LAM.lam, _ONES, (0, 0, 0, 0))), "table must be a DerivativeTable, got tuple"),
    # a count or index is checked for its type before its range: 1.5 once
    # raised ValueError for k and l, and 1.0 for p
    (lambda: g2_solve(1.0, 4), "k must be an int, got 1.0"),
    (lambda: g2_solve(1.5, 4), "k must be an int, got 1.5"),
    (lambda: g3_kernel(1.0, 1, 2, (1, 2, 3)), "p must be an int, got 1.0"),
    (lambda: g3_kernel(1, 1.5, 2, (1, 2, 3)), "q must be an int, got 1.5"),
    (lambda: diag_from_system(_LAM, 1, 1.5), "l must be an int, got 1.5"),
    # a str or bytes was read as its characters: Quadruple("1234") was
    # (1, 2, 3, 4), K = "1111" was (1, 1, 1, 1), g3_kernel answered 0,
    # matrix_rank(["12", "34"]) 2 and solve_linear solved [[1, 2], [3, 4]];
    # diag_from_K raised "Invalid literal for Fraction: 'a'"
    (lambda: Quadruple("1234"), "a quadruple must be a sequence of values, got '1234'"),
    (lambda: Quadruple(b"1234"), "a quadruple must be a sequence of values, got b'1234'"),
    (lambda: I_closed(_LAM, "1111"), "K must be a sequence of values, got '1111'"),
    (lambda: diag_from_K(_LAM, "abcd"), "K must be a sequence of values, got 'abcd'"),
    (lambda: DerivativeTable(_LAM, _ONES, "0000"), "mixed must be a sequence of values, got '0000'"),
    (lambda: I_def(_LAM, ["1111"] * 4), "diag row 0 must be a sequence of values, got '1111'"),
    (lambda: g3_kernel(1, 1, 2, "123"), "lams must be a sequence of values, got '123'"),
    (lambda: matrix_rank(["12", "34"]), "matrix row 0 must be a sequence of values, got '12'"),
    (lambda: solve_linear(["12", "34"], "56"), "rhs must be a sequence of values, got '56'"),
    (lambda: solve_linear([[1, 2], "34"], [5, 6]), "matrix row 1 must be a sequence of values, got '34'"),
    # an unordered iterable was read in its own order: Quadruple({4, 3, 2, 1})
    # built (1, 2, 3, 4), I_closed with K = {4, 1, 3, 2} gave the value for
    # K = (1, 2, 3, 4), g3_kernel answered 0, matrix_rank read the sets' rows
    # and solve_linear solved for the dict's keys
    (lambda: Quadruple({4, 3, 2, 1}), "a quadruple must be a sequence of values, got {1, 2, 3, 4}"),
    (lambda: I_closed(_LAM, {4, 1, 3, 2}), "K must be a sequence of values, got {1, 2, 3, 4}"),
    (lambda: g3_kernel(1, 1, 2, {1, 2, 3}), "lams must be a sequence of values, got {1, 2, 3}"),
    (lambda: matrix_rank([{1, 2}, {3, 4}]), "matrix row 0 must be a sequence of values, got {1, 2}"),
    (lambda: solve_linear([[1, 0], [0, 1]], {5: 1, 6: 2}), "rhs must be a sequence of values, got {5: 1, 6: 2}"),
    # recover_curvatures read "1" and True as 1, and None raised mpmath's
    # "cannot create mpf from None"
    (lambda: recover_curvatures("1", 2, 3, 4), "p1 must be a real number, got '1'"),
    (lambda: recover_curvatures(True, Fraction(0), Fraction(0), Fraction(0)), "p1 must be a real number, got True"),
    (lambda: recover_curvatures(None, 2, 3, 4), "p1 must be a real number, got None"),
    (lambda: recover_curvatures(0, b"12", 0, 1), "p2 must be a real number, got b'12'"),
    (lambda: recover_curvatures(0, 12, False, 1), "p3 must be a real number, got False"),
    (lambda: recover_curvatures(0, 12, 0, "1"), "e4 must be a real number, got '1'"),
]

# lam given as something other than a Quadruple, to each function that reads
# it; once "'tuple' object has no attribute 'lam'"
_LAM_CALLS = {
    "diag_from_K": lambda lam: diag_from_K(lam, _ONES),
    "diag_from_system": lambda lam: diag_from_system(lam, 1, 0),
    "I_def": lambda lam: I_def(lam, [_ONES] * 4),
    "I_closed": lambda lam: I_closed(lam, _ONES),
    "sign_lemma": lambda lam: sign_lemma(lam, _ONES),
    "gauss_R": gauss_R,
}

# (call, message): each call raises ValueError with exactly this message;
# both once raised "IndexError: list index out of range"
_SHAPE_ROWS = [
    (lambda: I_def(_LAM, [_ONES] * 3), "diag has four rows, got 3"),
    (lambda: I_def(_LAM, [(1, 1, 1)] * 4), "diag row 0 has four entries, got 3"),
]


@pytest.mark.parametrize("call, message", _ROWS, ids=[message for _call, message in _ROWS])
def test_wrong_type_raises_a_named_type_error(call, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("name", sorted(_LAM_CALLS))
def test_lam_must_be_a_quadruple(name):
    call = _LAM_CALLS[name]
    call(_LAM)
    with pytest.raises(TypeError, match="^lam must be a Quadruple, got tuple$"):
        call((1, 2, 3, 4))
    table = DerivativeTable(_LAM, _ONES, _ONES)
    with pytest.raises(TypeError, match="^lam must be a Quadruple, got DerivativeTable$"):
        call(table)


@pytest.mark.parametrize("call, message", _SHAPE_ROWS, ids=[message for _call, message in _SHAPE_ROWS])
def test_wrong_shape_raises_a_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_valid_inputs_keep_working():
    """The checks leave the accepted inputs alone: a bool seed or key is
    still read as 0 or 1, and an int or Fraction level or matrix entry is a
    real number."""
    assert RngStream(True) == RngStream(1)
    assert RngStream(5).split(True) == RngStream(5).split(1)
    assert LevelSpec(coordinate_field(5), 0).level == 0
    assert LevelSpec(coordinate_field(5), Fraction(1, 4)).level == Fraction(1, 4)
    assert SymMat4(_rows_with(0, 1, 2)).rows[1][0] == 2
    assert SymMat4.from_upper([1, 0, 0, 0, 1, 0, 0, 1, 0, Fraction(1, 2)]).rows[3][3] == 0.5
