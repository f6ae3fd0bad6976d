"""Library inputs of the wrong type fail at the boundary that owns them,
with a TypeError that names the argument, before any work is done."""

from fractions import Fraction

import pytest

from spherecurv import LevelSpec, RngStream, SymMat4, clifford_model, coordinate_field, sweep_analyze

_EQUATOR = LevelSpec(coordinate_field(5), 0.0)


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
]


@pytest.mark.parametrize("call, message", _ROWS, ids=[message for _call, message in _ROWS])
def test_wrong_type_raises_a_named_type_error(call, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
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
