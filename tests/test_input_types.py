"""Library inputs of the wrong type fail at the boundary that owns them,
with a TypeError that names the argument, before any work is done."""

from fractions import Fraction

import pytest

from spherecurv import LevelSpec, RngStream, clifford_model, coordinate_field, sweep_analyze

_EQUATOR = LevelSpec(coordinate_field(5), 0.0)


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
    # once "'>' not supported between instances of 'str' and 'float'"
    (lambda: sweep_analyze(_EQUATOR, 2, 0, "1"), "f1_tol must be a real number, got '1'"),
    # once "unsupported operand type(s) for &"
    (lambda: RngStream(1.5), "seed must be an int, got 1.5"),
    (lambda: RngStream("a"), "seed must be an int, got 'a'"),
    (lambda: RngStream(1, 2.0), "counter must be an int, got 2.0"),
    (lambda: RngStream(1).split(1.5), "key must be an int, got 1.5"),
]


@pytest.mark.parametrize("call, message", _ROWS, ids=[message for _call, message in _ROWS])
def test_wrong_type_raises_a_named_type_error(call, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


def test_valid_inputs_keep_working():
    """The checks leave the accepted inputs alone: a bool seed or key is
    still read as 0 or 1, and an int or Fraction level is a real number."""
    assert RngStream(True) == RngStream(1)
    assert RngStream(5).split(True) == RngStream(5).split(1)
    assert LevelSpec(coordinate_field(5), 0).level == 0
    assert LevelSpec(coordinate_field(5), Fraction(1, 4)).level == Fraction(1, 4)
