"""The closed-form model catalog and its high-precision self-checks."""

import dataclasses
import math
from fractions import Fraction

import pytest

from spherecurv import (
    LevelSpec,
    RngStream,
    all_models,
    cartan_field,
    cartan_level,
    cartan_model,
    checks_passed,
    clifford_model,
    curvature_report,
    equator_model,
    model_check,
    sample_level_point,
)
from spherecurv import catalog

SQ3 = math.sqrt(3.0)


def test_catalog_membership_and_order():
    models = all_models()
    assert [m.name for m in models] == ["equator", "clifford_1_3", "clifford_2_2", "cartan"]
    assert [m.g for m in models] == [1, 2, 2, 4]
    assert [m.S_expected for m in models] == [0, 4, 4, 12]
    assert [m.R_expected for m in models] == [12, 8, 8, 0]
    assert [m.theta0 for m in models] == pytest.approx(
        [math.pi / 2, math.pi / 6, math.pi / 4, math.pi / 8]
    )


def test_all_model_checks_pass():
    for model in all_models():
        results = model_check(model)
        assert checks_passed(results), [r for r in results if not r.passed]
        assert {r.name for r in results} >= {
            "distinct_count",
            "multiplicity_sum",
            "multiplicity_period",
            "s_matches_g",
            "nonnegative_R",
            "descending_order",
            "minimality",
            "s_value",
        }


def test_tampered_model_fails_checks():
    broken = dataclasses.replace(clifford_model(1, 3), S_expected=5)
    results = model_check(broken)
    failed = {r.name for r in results if not r.passed}
    assert "s_matches_g" in failed
    assert "s_value" in failed
    assert not checks_passed(results)


def test_tampered_multiplicities_fail():
    broken = dataclasses.replace(cartan_model(), multiplicities=(2, 1, 1, 1))
    results = model_check(broken)
    failed = {r.name for r in results if not r.passed}
    assert "multiplicity_sum" in failed or "minimality" in failed


def _multiset(model):
    """All four curvatures of a model with multiplicity, as floats."""
    return [float(v) for m, v in zip(model.multiplicities, model.distinct_curvatures()) for _ in range(m)]


def test_clifford_one_three_closed_forms():
    m = clifford_model(1, 3)
    vals = [float(v) for v in m.distinct_curvatures()]
    assert vals == pytest.approx([SQ3, -1 / SQ3], abs=1e-14)
    multiset = _multiset(m)
    assert len(multiset) == 4
    f3 = sum(v**3 for v in multiset)
    k_prod = multiset[0] * multiset[1] * multiset[2] * multiset[3]
    assert f3 == pytest.approx(8 * SQ3 / 3, abs=1e-12)
    assert k_prod == pytest.approx(-1 / 3, abs=1e-12)


def test_clifford_two_two_closed_forms():
    m = clifford_model(2, 2)
    vals = [float(v) for v in m.distinct_curvatures()]
    assert vals == pytest.approx([1.0, -1.0], abs=1e-14)


def test_cartan_closed_forms():
    m = cartan_model()
    vals = [float(v) for v in m.distinct_curvatures()]
    expected = [1 / math.tan(math.pi * (2 * k + 1) / 8) for k in range(4)]
    assert vals == pytest.approx(expected, abs=1e-14)
    multiset = _multiset(m)
    assert sum(multiset) == pytest.approx(0.0, abs=1e-14)
    assert sum(v * v for v in multiset) == pytest.approx(12.0, abs=1e-12)
    prod = multiset[0] * multiset[1] * multiset[2] * multiset[3]
    assert prod == pytest.approx(1.0, abs=1e-12)


def test_clifford_model_validation():
    with pytest.raises(ValueError):
        clifford_model(2, 3)
    with pytest.raises(ValueError):
        clifford_model(3, 1)
    with pytest.raises(ValueError):
        clifford_model(0, 4)


def test_form_str_writes_a_coefficient_other_than_one():
    """No catalog model has a square-root form with a coefficient other than
    1 or -1, so this branch runs only here."""
    assert catalog._form_str(("sqrt", 2, 3)) == "2*sqrt(3)"
    assert catalog._form_str(("sqrt", Fraction(-3, 2), Fraction(1, 3))) == "-3/2*sqrt(1/3)"
    assert catalog._form_str(("sqrt", Fraction(-1), Fraction(1, 3))) == "-sqrt(1/3)"


def test_cartan_level_values_and_range():
    assert cartan_level(math.pi / 8) == pytest.approx(0.5, abs=1e-15)
    ts = [0.01 + k * 0.05 for k in range(15) if 0.01 + k * 0.05 < math.pi / 4]
    levels = [cartan_level(t) for t in ts]
    assert all(0.0 < v < 1.0 for v in levels)
    assert all(a > b for a, b in zip(levels, levels[1:]))  # decreasing in t
    with pytest.raises(ValueError):
        cartan_level(0.0)
    with pytest.raises(ValueError):
        cartan_level(math.pi / 4)


def test_describe_payload_shape():
    d = cartan_model().describe()
    assert d["name"] == "cartan"
    assert d["g"] == 4
    assert d["S"] == 12
    assert d["R"] == 0
    assert d["field"] == {"kind": "cartan_quartic"}
    assert d["level"] == 0.5
    assert len(d["curvatures"]) == 4
    assert d["curvature_forms"][0] == "cot(pi/8)"
    clifford = clifford_model(1, 3).describe()
    assert clifford["field"] is None
    assert clifford["level"] is None
    assert clifford["curvature_forms"] == ["sqrt(3)", "-sqrt(1/3)"]


@pytest.mark.parametrize(
    "model",
    [equator_model(), cartan_model()],
    ids=["equator", "cartan"],
)
def test_sampled_curvatures_match_model_multiset(model):
    """Sampled spectra agree with the closed forms up to a global sign.

    Both fielded models have sign-symmetric curvature multisets, so any
    orientation convention must reproduce the multiset itself.
    """
    expected = sorted(_multiset(model))
    spec = model.field_spec
    s = RngStream(77)
    for _ in range(200):
        point, s = sample_level_point(spec, s)
        rep = curvature_report(spec, point)
        got = sorted(rep.lambdas)
        direct = max(abs(a - b) for a, b in zip(got, expected))
        flipped = max(
            abs(a - b) for a, b in zip(sorted(-v for v in got), expected)
        )
        assert min(direct, flipped) <= 1e-6


def _planted_cartan():
    """The cartan model with -3 in place of cot(7 pi / 8)."""
    model = cartan_model()
    return dataclasses.replace(model, curvature_forms=model.curvature_forms[:3] + (("rational", Fraction(-3)),))


def test_planted_wrong_curvature_fails():
    results = model_check(_planted_cartan())
    failed = {r.name for r in results if not r.passed}
    assert {"minimality", "cot_ladder"} <= failed
    assert checks_passed(model_check(cartan_model()))
