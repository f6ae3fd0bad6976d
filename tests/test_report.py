"""Report serialization: JSON schema conformance and CSV round-trips."""

import csv
import io
import json
import math

import pytest
from jsonschema import Draft202012Validator, ValidationError, validate

from spherecurv import (
    IdentityVerdict,
    REPORT_SCHEMA,
    SCHEMA_VERSION,
    SurfaceStats,
    VERDICTS,
    all_models,
    build_report,
    model_check,
    to_csv,
    to_json,
)
from spherecurv.report import (
    _cell,
    catalog_payload,
    fmt_float,
    stats_payload,
    verdicts_payload,
)

STATS = SurfaceStats(
    n_points=12,
    n_failures=1,
    max_abs_f1=3.5527136788005009e-15,
    s_mean=11.999999999999998,
    s_min=11.999999999999996,
    s_max=12.000000000000002,
    f3_mean=-1.1102230246251565e-16,
    f3_spread=4.440892098500626e-16,
    g_histogram={4: 10, 1: 2},
    theta0_mean=0.39269908169872414,
    verdict="cartan",
    failure_samples=("projection diverged at trial 7",),
)

ANALYZE_CONFIG = {
    "surface": "cartan",
    "t": math.pi / 8,
    "level": 0.5000000000000001,
    "samples": 12,
    "seed": 0,
    "tol": 1e-8,
    "trials": None,
    "identity": None,
    "height": None,
    "output": None,
    "format": "json",
    "workers": 1,
}

VERIFY_CONFIG = {
    "surface": None,
    "t": None,
    "level": None,
    "samples": None,
    "seed": 7,
    "tol": None,
    "trials": 50,
    "identity": "dpsi",
    "height": 1000,
    "output": None,
    "format": "json",
    "workers": 2,
}


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


class TestFmtFloat:
    @pytest.mark.parametrize(
        "x", [0.1, 1 / 3, 1e300, 5e-324, 0.0, -2.5, 12.000000000000002]
    )
    def test_round_trips_doubles(self, x):
        assert float(fmt_float(x)) == x

    def test_none_is_empty(self):
        assert fmt_float(None) == ""

    def test_integral_floats_stay_short(self):
        assert fmt_float(12.0) == "12"


class TestPayloads:
    def test_stats_histogram_keys_become_strings(self):
        d = stats_payload(STATS)
        assert d["g_histogram"] == {"4": 10, "1": 2}
        assert d["failure_samples"] == ["projection diverged at trial 7"]
        assert d["n_points"] == 12
        assert d["verdict"] == "cartan"

    def test_verdicts_payload(self):
        v = IdentityVerdict("g2", 40, 0, True, None)
        assert verdicts_payload([v]) == [
            {
                "identity": "g2",
                "trials": 40,
                "failures": 0,
                "exact": True,
                "first_counterexample": None,
            }
        ]

    def test_catalog_payload(self):
        entries = [(m, model_check(m)) for m in all_models()]
        payload = catalog_payload(entries)
        assert len(payload) == 4
        assert all(p["all_passed"] for p in payload)
        assert payload[0]["model"]["name"] == "equator"
        assert all(
            set(c) == {"name", "passed", "detail"}
            for p in payload
            for c in p["checks"]
        )


class TestJson:
    def test_build_report_shape(self):
        rep = build_report("analyze", ANALYZE_CONFIG, stats_payload(STATS), 0.25)
        assert list(rep) == ["schema_version", "command", "config", "results", "timing"]
        assert rep["schema_version"] == SCHEMA_VERSION

    def test_json_round_trip(self):
        rep = build_report("analyze", ANALYZE_CONFIG, stats_payload(STATS), 0.25)
        text = to_json(rep)
        assert text.endswith("\n")
        assert json.loads(text) == rep

    def test_nan_rejected(self):
        bad = dict(stats_payload(STATS), s_mean=float("nan"))
        rep = build_report("analyze", ANALYZE_CONFIG, bad, 0.0)
        with pytest.raises(ValueError):
            to_json(rep)


class TestSchema:
    def test_schema_is_valid_draft_2020_12(self):
        Draft202012Validator.check_schema(REPORT_SCHEMA)

    def test_analyze_report_validates(self):
        rep = build_report("analyze", ANALYZE_CONFIG, stats_payload(STATS), 0.25)
        validate(json.loads(to_json(rep)), REPORT_SCHEMA)

    def test_verify_report_validates(self):
        v = IdentityVerdict("dpsi", 50, 0, True, None)
        rep = build_report("verify", VERIFY_CONFIG, verdicts_payload([v]), 0.1)
        validate(json.loads(to_json(rep)), REPORT_SCHEMA)

    def test_catalog_report_validates(self):
        entries = [(m, model_check(m)) for m in all_models()]
        config = dict(VERIFY_CONFIG, trials=None, identity=None, height=None, seed=0, workers=1)
        rep = build_report("catalog", config, catalog_payload(entries), 0.2)
        validate(json.loads(to_json(rep)), REPORT_SCHEMA)

    def test_verdict_enum_is_the_catalog_names_and_two_outcomes(self):
        enum = REPORT_SCHEMA["$defs"]["analyze_results"]["properties"]["verdict"]["enum"]
        assert enum == list(VERDICTS)
        assert list(VERDICTS[:4]) == [m.name for m in all_models()]
        assert VERDICTS[4:] == ("non_isoparametric", "inconclusive")

    def test_extra_top_level_key_rejected(self):
        rep = build_report("analyze", ANALYZE_CONFIG, stats_payload(STATS), 0.25)
        rep["extra"] = 1
        with pytest.raises(ValidationError):
            validate(rep, REPORT_SCHEMA)

    def test_bad_verdict_rejected(self):
        bad = dict(stats_payload(STATS), verdict="mystery")
        rep = build_report("analyze", ANALYZE_CONFIG, bad, 0.25)
        with pytest.raises(ValidationError):
            validate(rep, REPORT_SCHEMA)


class TestCsv:
    def test_analyze_row_round_trips(self):
        text = to_csv("analyze", stats_payload(STATS))
        rows = _rows(text)
        assert len(rows) == 2
        head, row = rows
        assert head == [
            "n_points", "n_failures", "max_abs_f1", "s_mean", "s_min", "s_max",
            "f3_mean", "f3_spread", "g_histogram", "theta0_mean", "verdict",
        ]
        assert int(row[0]) == STATS.n_points
        assert int(row[1]) == STATS.n_failures
        assert float(row[2]) == STATS.max_abs_f1
        assert float(row[3]) == STATS.s_mean
        assert float(row[7]) == STATS.f3_spread
        assert row[8] == "1:2;4:10"
        assert float(row[9]) == STATS.theta0_mean
        assert row[10] == "cartan"

    def test_analyze_null_theta0_is_empty_cell(self):
        stats = stats_payload(
            SurfaceStats(5, 0, 0.9, 7.0, 6.0, 8.0, 0.1, 0.2, {3: 5}, None, "non_isoparametric")
        )
        rows = _rows(to_csv("analyze", stats))
        assert rows[1][9] == ""

    def test_verify_rows_and_counterexample_escaping(self):
        good = IdentityVerdict("g2", 10, 0, True, None)
        bad = IdentityVerdict(
            "dpsi", 10, 2, True, {"lam": ['1/2', '-3'], "note": 'has "quotes", commas'}
        )
        text = to_csv("verify", verdicts_payload([good, bad]))
        rows = _rows(text)
        assert rows[0] == ["identity", "trials", "failures", "exact", "first_counterexample"]
        assert rows[1] == ["g2", "10", "0", "true", ""]
        assert rows[2][:4] == ["dpsi", "10", "2", "true"]
        assert json.loads(rows[2][4]) == bad.first_counterexample

    def test_catalog_rows(self):
        entries = [(m, model_check(m)) for m in all_models()]
        rows = _rows(to_csv("catalog", catalog_payload(entries)))
        assert rows[0] == [
            "name", "g", "multiplicities", "curvatures", "S", "R", "theta0", "all_passed",
        ]
        assert [r[0] for r in rows[1:]] == ["equator", "clifford_1_3", "clifford_2_2", "cartan"]
        cartan = rows[4]
        assert cartan[2] == "1;1;1;1"
        assert len(cartan[3].split(";")) == 4
        assert float(cartan[4]) == 12.0
        assert float(cartan[5]) == 0.0
        assert all(r[7] == "true" for r in rows[1:])

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError):
            to_csv("explode", {})

    def test_analyze_columns_follow_the_schema(self, monkeypatch):
        """A field added to the schema's required list reaches the CSV header
        and row with no further change to the report code."""
        required = REPORT_SCHEMA["$defs"]["analyze_results"]["required"]
        monkeypatch.setitem(
            REPORT_SCHEMA["$defs"]["analyze_results"], "required", [*required, "extra"]
        )
        payload = dict(stats_payload(STATS), extra=[1.5, True])
        head, row = _rows(to_csv("analyze", payload))
        assert head[-1] == "extra"
        assert row[-1] == "1.5;true"
        assert head[:-1] == required


class TestCell:
    def test_bool_before_int(self):
        assert (_cell(True), _cell(False), _cell(1), _cell(0)) == ("true", "false", "1", "0")

    def test_floats_and_none(self):
        assert _cell(-0.0) == "-0"
        assert _cell(0.1) == "0.10000000000000001"
        assert _cell(None) == ""

    def test_nested_list(self):
        assert _cell([1, [2.0, None], False, "x"]) == "1;2;;false;x"

    def test_dict_is_json(self):
        assert _cell({"k": "1", "n": [1, 2]}) == '{"k": "1", "n": [1, 2]}'
