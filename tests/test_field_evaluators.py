"""The generated field evaluators against the plan interpreter they replace:
same bits and types on float points, equal Fractions on rational points,
nothing generated in a field's pickled state, and one set of functions per
coefficient table with its types."""

import dataclasses
import io
import pickle
import types
from fractions import Fraction

import pytest

from spherecurv import (
    LevelSpec,
    RngStream,
    ScalarField,
    cartan_field,
    coordinate_field,
    draw_rational,
    eval1,
    eval2,
    polynomial_field,
    sample_on_sphere,
    sweep_analyze,
)
from spherecurv.fields import POLYNOMIAL
from fieldtools import run_plan

# A constant, a Fraction coefficient and terms of degree 1 to 3; its zero
# level is a smooth surface of S^5 that sweeps project onto.
POLY_COEFFS = {
    (0, 0, 0, 0, 0, 0): Fraction(1, 5),
    (0, 0, 0, 0, 0, 1): 1,
    (1, 1, 0, 0, 0, 0): Fraction(1, 3),
    (0, 0, 2, 1, 0, 0): -2,
}

FIELDS = {
    "equator": lambda: coordinate_field(5),
    "cartan": cartan_field,
    "fraction-poly": lambda: polynomial_field(POLY_COEFFS),
}


def _bits(values):
    return [(type(v).__name__, v.hex() if isinstance(v, float) else v) for v in values]


def _flat(result):
    value, *rest = result
    return [value] + [v for part in rest for v in part]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_float_points_match_the_plan_interpreter(name):
    field = FIELDS[name]()
    stream = RngStream(2200)
    for _ in range(3000):
        point, stream = sample_on_sphere(stream)
        x = point.coords
        assert _bits(_flat(eval1(field, x))) == _bits(run_plan(field, x, 7))
        assert _bits(_flat(eval2(field, x))) == _bits(run_plan(field, x, 28))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fraction_points_give_equal_fractions(name):
    field = FIELDS[name]()
    stream = RngStream(2201)
    for _ in range(40):
        x = []
        for _ in range(6):
            q, stream = draw_rational(stream, 50)
            x.append(q)
        assert _bits(_flat(eval1(field, x))) == _bits(run_plan(field, x, 7))
        assert _bits(_flat(eval2(field, x))) == _bits(run_plan(field, x, 28))


def test_pickled_field_holds_no_function():
    field = polynomial_field(POLY_COEFFS)
    eval2(field, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6))
    pickled = []

    class Recorder(pickle.Pickler):
        def reducer_override(self, obj):
            pickled.append(obj)
            return NotImplemented

    Recorder(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(field)
    assert field in pickled
    assert not [obj for obj in pickled if isinstance(obj, types.FunctionType)]
    clone = pickle.loads(pickle.dumps(field))
    assert clone == field
    x = (0.6, -0.5, 0.4, -0.3, 0.2, -0.1)
    assert _bits(_flat(eval2(clone, x))) == _bits(_flat(eval2(field, x)))


def test_pooled_sweep_of_a_fraction_field_equals_the_serial_one():
    spec = LevelSpec(polynomial_field(POLY_COEFFS), 0.0)
    solo = sweep_analyze(spec, 24, seed=5, workers=1)
    pooled = sweep_analyze(spec, 24, seed=5, workers=2)
    assert solo.n_points == 24
    assert _bits(dataclasses.astuple(pooled)) == _bits(dataclasses.astuple(solo))


def test_int_and_float_coefficients_get_functions_of_their_own():
    exps = (1, 0, 0, 0, 0, 0)
    with_int = ScalarField(kind=POLYNOMIAL, coeffs=((exps, 1),))
    with_float = ScalarField(kind=POLYNOMIAL, coeffs=((exps, 1.0),))
    assert with_int == with_float
    x = (3, 0, 0, 0, 0, 0)
    for field, kind in ((with_int, int), (with_float, float), (with_int, int)):
        value, grad, hess = eval2(field, x)
        assert (value, grad[0]) == (3, 1)
        assert type(value) is kind and type(grad[0]) is kind
        assert type(eval1(field, x)[0]) is kind
        assert hess == (0,) * 21
