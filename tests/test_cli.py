"""End-to-end CLI behavior through in-process main() calls."""

import csv
import io
import json
import math
import os
import re
import sys

import pytest
from jsonschema import validate

import spherecurv.cli as cli
from spherecurv import CheckResult, IdentityVerdict, REPORT_SCHEMA
from spherecurv.cli import ConfigError, main, parse_angle


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strip_timing(text: str) -> str:
    return re.sub(r'"timing": [-+0-9.eE]+', '"timing": 0', text)


class TestParseAngle:
    def test_pi_literals(self):
        assert parse_angle("pi/8") == math.pi / 8
        assert parse_angle("pi/6") == math.pi / 6
        assert parse_angle(" PI/4 ") == math.pi / 4

    def test_decimal_radians(self):
        assert parse_angle("0.3") == 0.3
        assert parse_angle("1e-2") == 0.01

    @pytest.mark.parametrize("bad", ["pi/0", "pi/-2", "pi/x", "abc", "inf", "nan", ""])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_angle(bad)


class TestColor:
    class _Tty:
        def isatty(self):
            return True

        def write(self, _):
            pass

    def test_wrapped_on_tty(self, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        monkeypatch.setattr(sys, "stderr", self._Tty())
        assert cli._color("hi", "32") == "\x1b[32mhi\x1b[0m"

    def test_no_color_env_wins(self, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        monkeypatch.setattr(sys, "stderr", self._Tty())
        assert cli._color("hi", "32") == "hi"

    def test_plain_when_not_tty(self, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        assert cli._color("hi", "32") == "hi"


class TestCatalogCommand:
    def test_catalog_json(self, capsys):
        code, out, err = _run(capsys, "catalog")
        assert code == 0
        report = json.loads(out)
        validate(report, REPORT_SCHEMA)
        assert report["command"] == "catalog"
        assert [e["model"]["name"] for e in report["results"]] == [
            "equator", "clifford_1_3", "clifford_2_2", "cartan",
        ]
        assert all(e["all_passed"] for e in report["results"])
        assert err.count("catalog ") == 4
        assert "[ok]" in err

    def test_catalog_csv(self, capsys):
        code, out, _ = _run(capsys, "catalog", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 5
        assert rows[0][0] == "name"

    def test_catalog_failure_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "model_check", lambda model: [CheckResult("s_value", False, "off")]
        )
        code, out, err = _run(capsys, "catalog")
        assert code == 3
        assert json.loads(out)["results"][0]["all_passed"] is False
        assert "FAIL" in err


class TestAnalyzeCommand:
    def test_equator_run(self, capsys):
        code, out, err = _run(capsys, "analyze", "--surface", "equator", "--samples", "10")
        assert code == 0
        report = json.loads(out)
        validate(report, REPORT_SCHEMA)
        res = report["results"]
        assert res["verdict"] == "equator"
        assert res["n_points"] == 10
        assert res["n_failures"] == 0
        assert res["s_max"] <= 1e-10
        cfg = report["config"]
        assert cfg["surface"] == "equator"
        assert cfg["t"] is None
        assert cfg["level"] == 0.0
        assert cfg["samples"] == 10
        assert cfg["identity"] is None
        assert "verdict equator" in err

    def test_cartan_run(self, capsys):
        code, out, _ = _run(
            capsys, "analyze", "--surface", "cartan", "--t", "pi/8", "--samples", "15"
        )
        assert code == 0
        report = json.loads(out)
        validate(report, REPORT_SCHEMA)
        res = report["results"]
        assert res["verdict"] == "cartan"
        assert res["max_abs_f1"] <= 1e-8
        assert res["g_histogram"] == {"4": 15}
        cfg = report["config"]
        assert cfg["t"] == pytest.approx(math.pi / 8, abs=1e-15)
        assert cfg["level"] == pytest.approx(0.5, abs=1e-15)

    def test_tol_is_echoed_and_decides_the_verdict(self, capsys):
        """The minimal cartan member's max|f1| is about 3.7e-12, rounding
        noise, so at --tol 1e-300 it is no longer treated as minimal."""
        code, out, _ = _run(
            capsys, "analyze", "--surface", "cartan", "--t", "pi/8", "--samples", "24", "--tol", "1e-300"
        )
        assert code == 0
        report = json.loads(out)
        assert report["config"]["tol"] == 1e-300
        assert report["results"]["verdict"] == "non_isoparametric"
        assert 1e-300 < report["results"]["max_abs_f1"] <= 1e-8

    def test_tol_that_is_not_a_number_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--surface", "equator", "--tol", "abc"])
        assert exc.value.code == 2
        assert "argument --tol: not a number: 'abc'" in capsys.readouterr().err

    def test_csv_format(self, capsys):
        code, out, _ = _run(
            capsys, "analyze", "--surface", "equator", "--samples", "6",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        assert rows[1][-1] == "equator"
        assert int(rows[1][0]) == 6

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = _run(
            capsys, "analyze", "--surface", "equator", "--samples", "5",
            "--output", str(path),
        )
        assert code == 0
        assert out == ""
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["config"]["output"] == str(path)
        assert report["results"]["n_points"] == 5

    def test_reports_identical_up_to_timing(self, capsys):
        argv = ("analyze", "--surface", "cartan", "--t", "pi/8", "--samples", "12")
        _, first, _ = _run(capsys, *argv)
        _, second, _ = _run(capsys, *argv)
        assert _strip_timing(first) == _strip_timing(second)

    def test_seed_changes_samples(self, capsys):
        _, a, _ = _run(capsys, "analyze", "--surface", "cartan", "--t", "0.3",
                       "--samples", "8")
        _, b, _ = _run(capsys, "analyze", "--surface", "cartan", "--t", "0.3",
                       "--samples", "8", "--seed", "1")
        assert json.loads(a)["results"]["max_abs_f1"] != json.loads(b)["results"]["max_abs_f1"]

    def test_workers_flag_keeps_results(self, capsys):
        _, solo, _ = _run(capsys, "analyze", "--surface", "equator", "--samples", "8")
        _, pooled, _ = _run(capsys, "analyze", "--surface", "equator", "--samples", "8",
                            "--workers", "2")
        assert json.loads(solo)["results"] == json.loads(pooled)["results"]

    def test_t_with_equator_is_config_error(self, capsys):
        code, out, err = _run(capsys, "analyze", "--surface", "equator", "--t", "pi/8")
        assert code == 2
        assert out == ""
        assert "--t" in err

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_bad_output_path_rejected_up_front(self, capsys, monkeypatch, tmp_path, target):
        def never(*args, **kwargs):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr(cli, "sweep_analyze", never)
        code, out, err = _run(capsys, "analyze", "--surface", "equator",
                              "--output", str(tmp_path / target))
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_empty_output_path_exits_2(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr(cli, "run_identity_sweep", never)
        code, out, err = _run(capsys, "verify", "--identity", "g2", "--trials", "3",
                              "--output", "")
        assert code == 2
        assert out == ""
        assert err == "error: --output needs a path, got ''\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_output_write_exits_2(self, capsys):
        code, out, err = _run(capsys, "analyze", "--surface", "equator", "--samples", "3",
                              "--output", "/dev/full")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write --output /dev/full: ")
        assert err.count("\n") == 1

    def test_unwritable_output_exits_2(self, capsys, monkeypatch, tmp_path):
        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli, "open", denied, raising=False)
        path = tmp_path / "report.json"
        code, out, err = _run(capsys, "analyze", "--surface", "equator", "--samples", "3",
                              "--output", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write --output {path}: Permission denied\n"
        assert not path.exists()

    def test_start_point_next_to_focal_set_projects(self, capsys):
        code, out, _ = _run(capsys, "analyze", "--surface", "cartan", "--t", "pi/8",
                            "--samples", "64", "--seed", "300059")
        assert code == 0
        assert json.loads(out)["results"]["n_failures"] == 0

    def test_missing_t_is_config_error(self, capsys):
        code, out, err = _run(capsys, "analyze", "--surface", "cartan")
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("t", ["0.9", "0", "pi/4", "pi/3"])
    def test_t_out_of_range(self, capsys, t):
        code, _, err = _run(capsys, "analyze", "--surface", "cartan", "--t", t)
        assert code == 2
        assert "error:" in err

    def test_bad_angle_literal(self, capsys):
        code, _, err = _run(capsys, "analyze", "--surface", "cartan", "--t", "pi/zero")
        assert code == 2
        assert "error:" in err

    def test_projection_blowup_exits_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("12 of 20 projections failed")

        monkeypatch.setattr(cli, "sweep_analyze", boom)
        code, out, err = _run(capsys, "analyze", "--surface", "equator")
        assert code == 3
        assert out == ""
        assert "analyze:" in err


class TestVerifyCommand:
    def test_small_sweep(self, capsys):
        code, out, err = _run(capsys, "verify", "--identity", "g2", "--trials", "25")
        assert code == 0
        report = json.loads(out)
        validate(report, REPORT_SCHEMA)
        row = report["results"][0]
        assert row == {
            "identity": "g2",
            "trials": 25,
            "failures": 0,
            "exact": True,
            "first_counterexample": None,
        }
        cfg = report["config"]
        assert cfg["identity"] == "g2"
        assert cfg["trials"] == 25
        assert cfg["height"] == 1000
        assert cfg["surface"] is None
        assert "[ok]" in err

    def test_csv_format(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "--identity", "vandermonde", "--trials", "10",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][:4] == ["vandermonde", "10", "0", "true"]

    def test_failures_exit_3(self, capsys, monkeypatch):
        verdict = IdentityVerdict("g2", 5, 2, True, {"k": "1", "trial": "0"})
        monkeypatch.setattr(cli, "run_identity_sweep", lambda *a, **k: verdict)
        code, out, err = _run(capsys, "verify", "--identity", "g2", "--trials", "5")
        assert code == 3
        row = json.loads(out)["results"][0]
        assert row["failures"] == 2
        assert row["first_counterexample"] == {"k": "1", "trial": "0"}
        assert "FAIL" in err

    def test_height_without_distinct_values_exits_2(self, capsys):
        code, out, err = _run(capsys, "verify", "--identity", "i-sign", "--height", "1")
        assert code == 2
        assert out == ""
        assert "distinct" in err

    @pytest.mark.parametrize("height, trials", [("1", "3"), ("2", "40")])
    def test_recover_with_repeated_curvatures_exits_0(self, capsys, height, trials):
        code, out, err = _run(
            capsys, "verify", "--identity", "recover", "--height", height, "--trials", trials
        )
        assert code == 0
        assert json.loads(out)["results"][0]["failures"] == 0

    @pytest.mark.parametrize("identity", ["i-sign", "g2"])
    def test_height_beyond_64_bits_exits_0(self, capsys, identity):
        """Ranges wider than 2^64 used to reject every raw draw and hang, and
        g2 used to factor a radicand that grows with the height squared."""
        code, out, err = _run(
            capsys, "verify", "--identity", identity, "--trials", "5", "--height", str(2**70)
        )
        assert code == 0
        report = json.loads(out)
        assert report["config"]["height"] == 2**70
        assert report["results"][0]["failures"] == 0

    def test_unknown_identity_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--identity", "made-up"])
        assert exc.value.code == 2
        capsys.readouterr()



_CONFIG_KEYS = [
    "surface", "t", "level", "samples", "seed", "tol",
    "trials", "identity", "height", "output", "format", "workers",
]


@pytest.mark.parametrize(
    "argv",
    [
        ("catalog",),
        ("analyze", "--surface", "equator", "--samples", "5"),
        ("verify", "--identity", "g2", "--trials", "5"),
    ],
)
def test_config_keys_keep_their_order(capsys, argv):
    """Every command echoes all twelve config keys, in one fixed order."""
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert list(json.loads(out)["config"]) == _CONFIG_KEYS


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--surface", "equator", "--samples", "0"],
            ["analyze", "--surface", "equator", "--samples", "x"],
            ["analyze", "--surface", "equator", "--tol", "-1"],
            ["analyze", "--surface", "equator", "--tol", "0"],
            ["analyze", "--surface", "moon"],
            ["analyze"],
            ["verify", "--identity", "g2", "--trials", "0"],
            ["verify", "--identity", "g2", "--height", "-3"],
            ["catalog", "--workers", "0"],
            ["catalog", "--format", "yaml"],
            [],
        ],
    )
    def test_parser_rejects(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()
