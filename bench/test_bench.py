"""Self-tests of the benchmark: its checks, time limit, tracer and contract.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import multiprocessing
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402

CARTAN_ARGV = run.group_argv("cartan", 4, 5) + ["--workers", "1"]
ISIGN_ARGV = run.group_argv("i-sign", 20, 5) + ["--workers", "1"]


@pytest.fixture(autouse=True)
def alarm_handler():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        yield
    finally:
        signal.signal(signal.SIGALRM, previous)


def _report(argv: list[str]) -> dict:
    code, text, error = run.call_cli(argv)
    assert (code, error) == (0, "")
    return json.loads(text)


def test_real_reports_pass_their_checks():
    assert checks.check_report(_report(CARTAN_ARGV), CARTAN_ARGV) == ([], [])
    assert checks.check_report(_report(ISIGN_ARGV), ISIGN_ARGV) == ([], [])
    equator = run.group_argv("equator", 4, 5)
    assert checks.check_report(_report(equator), equator) == ([], [])
    assert checks.check_report(_report(["catalog"]), ["catalog"]) == ([], [])


@pytest.mark.parametrize("field, value, kind", [
    ("verdict", "equator", "wrong"),
    ("theta0_mean", 0.3, "wrong"),
    ("s_max", 12.1, "wrong"),
    ("g_histogram", {"2": 4}, "wrong"),
    ("n_failures", 1, "failed"),
])
def test_planted_analyze_report_is_counted_failed(monkeypatch, field, value, kind):
    planted = copy.deepcopy(_report(CARTAN_ARGV))
    planted["results"][field] = value
    if field == "n_failures":
        planted["results"]["n_points"] -= 1
    monkeypatch.setattr(run, "call_cli", lambda argv, timeout: (0, json.dumps(planted), ""))
    op = run.run_op(run.Op("cartan", "cartan", CARTAN_ARGV, 4, 1))
    assert not op.ok
    assert getattr(op, kind)


def test_planted_verify_failure_is_wrong(monkeypatch):
    planted = copy.deepcopy(_report(ISIGN_ARGV))
    planted["results"][0].update(failures=1, first_counterexample={"trial": "0"})
    monkeypatch.setattr(run, "call_cli", lambda argv, timeout: (3, json.dumps(planted), ""))
    op = run.run_op(run.Op("i-sign", "i-sign", ISIGN_ARGV, 20, 1))
    assert op.wrong and op.failed == ["exit code 3"]


def test_pair_mismatch_is_wrong():
    one = _report(CARTAN_ARGV)["results"]
    two = dict(one, verdict="inconclusive")
    assert checks.check_same_results(one, one) == []
    assert checks.check_same_results(one, two)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_hanging_operation_times_out_as_failed(workers):
    # Height 1 offers only three distinct rationals, so the quadruple draw never returns.
    argv = ["verify", "--identity", "i-sign", "--trials", "4", "--height", "1", "--workers", workers]
    op = run.run_op(run.Op("i-sign", "i-sign", argv, 4, int(workers)), timeout=1.0)
    assert op.failed and "timed out" in op.failed[0]
    assert multiprocessing.active_children() == []


def test_tracer_self_time_and_absent_targets():
    spans = [
        (2, 1, 1, "child", 10, 30, None),
        (3, 1, 1, "child", 40, 45, None),
        (1, 0, 1, "parent", 0, 100, None),
    ]
    assert tracer_mod.self_times(spans) == {2: 20, 3: 5, 1: 75}
    t = tracer_mod.Tracer([("spherecurv.shape.fit_theta0", None), ("spherecurv.shape.no_such_function", None),
                           ("spherecurv.no_such_module.f", None)])
    import spherecurv.shape as shape

    original = shape.fit_theta0
    t.install()
    assert shape.fit_theta0 is not original
    assert t.absent == ["spherecurv.shape.no_such_function", "spherecurv.no_such_module.f"]
    t.uninstall()
    assert shape.fit_theta0 is original


def test_traced_operations_give_per_layer_metrics():
    t = tracer_mod.Tracer(layers.TARGETS)
    ops = [run.run_op(run.Op("cartan", "cartan", CARTAN_ARGV, 4, 1), t),
           run.run_op(run.Op("i-sign", "i-sign", ISIGN_ARGV, 20, 1), t)]
    assert all(op.ok for op in ops) and t.absent == []
    info = {op.span_id: layers.OpInfo(op.layer_key, op.n, op.workers) for op in ops}
    metrics = layers.layer_metrics(t.spans, info)
    assert metrics["rng.draws_per_point"] >= 12
    assert metrics["fields.eval1_calls_per_point"] > 1
    for name in ("sphere.project_us", "shape.fit_theta0_us", "eigen.sym_eigen_us", "shape.sweep_self_us",
                 "rng.draw_us_per_trial.i-sign", "identities.check_us_per_trial.i-sign",
                 "identities.I_closed_us", "report.emit_us"):
        assert metrics[name] > 0, name
    assert 0 < metrics["rng.accept_ratio"] <= 1


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analyze-equator", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _main_result(capsys, monkeypatch=None, plant=False) -> dict:
    if plant:
        monkeypatch.setattr(checks, "check_analyze", lambda report, argv: (["planted"], []))
    assert run.main(["--workload", "analyze-equator", "--seed", "3", "--seconds", "0.1", "--trace", "0"]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_result_line_follows_the_contract(capsys):
    result = _main_result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_planted_wrong_reports_make_the_run_incorrect(capsys, monkeypatch):
    result = _main_result(capsys, monkeypatch, plant=True)
    assert result["correct"] is False
    # every analyze call failed: the equator group and the equator pairs
    assert result["failed"] >= 3 * run.BATCH["equator"] + run.PAIR_BATCH["equator"] * 2
    assert result["metrics"]["success_ratio"]["value"] < 1
