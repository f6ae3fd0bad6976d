"""The README's `spherecurv` commands run as written, and the analyze
report it shows is the one its command prints."""

import json
import re
import shlex
from pathlib import Path

from spherecurv import cli
from spherecurv.shape import S_TOL

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def test_every_readme_command_runs_as_written_and_gives_the_shown_analyze_report(tmp_path, capsys):
    commands = [
        shlex.split(line)[1:]
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("spherecurv ")
    ]
    assert len(commands) == 7
    reports = []
    for i, argv in enumerate(commands):
        out = tmp_path / f"{i}.json"
        assert cli.main(argv + ["--output", str(out)]) == 0, argv
        reports.append(json.loads(out.read_text()))
    capsys.readouterr()

    # The sample is "Output (abbreviated)": its rounded floats (max_abs_f1,
    # the f3 values, theta0_mean and t) and timing are not compared.
    (sample,) = [json.loads(block) for block in _blocks("json")]
    shown = sample["results"]
    (report,) = [
        r for r in reports
        if r["command"] == "analyze" and all(r["config"][k] == sample["config"][k] for k in ("surface", "samples"))
    ]
    got = report["results"]
    for key in ("n_points", "n_failures", "g_histogram", "verdict", "failure_samples"):
        assert got[key] == shown[key], key
    for key in ("s_mean", "s_min", "s_max"):
        assert abs(got[key] - shown[key]) <= S_TOL, key
