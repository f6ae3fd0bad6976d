"""Output checks for the reports the benchmark's operations produce.

Each check takes a parsed JSON report (and the argv that produced it) and
returns two lists of messages: `wrong`, values that are not what the program
must report, and `failed`, work the report says it could not do (analyze
points whose projection failed). The benchmark counts every point or trial of
a call with any message as failed; only `wrong` messages make a run
incorrect.
"""

from __future__ import annotations

import math

S_CARTAN = 12.0
S_TOL = 1e-6
THETA0_TOL = 1e-9
EQUATOR_S_MAX = 1e-10


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


Messages = tuple[list[str], list[str]]


def check_analyze(report: dict, argv: list[str]) -> Messages:
    res = report["results"]
    surface = _flag(argv, "--surface")
    samples = int(_flag(argv, "--samples"))
    problems = []
    failed = [f"n_failures is {res['n_failures']}"] if res["n_failures"] != 0 else []
    if res["n_points"] + res["n_failures"] != samples:
        problems.append(f"n_points {res['n_points']} + n_failures {res['n_failures']} != samples {samples}")
    if surface == "cartan":
        if res["verdict"] != "cartan":
            problems.append(f"verdict {res['verdict']!r}, expected 'cartan'")
        if set(res["g_histogram"]) != {"4"}:
            problems.append(f"g_histogram {res['g_histogram']} holds keys other than 4")
        for key in ("s_min", "s_max", "s_mean"):
            if not abs(res[key] - S_CARTAN) <= S_TOL:
                problems.append(f"{key} {res[key]!r} not within {S_TOL} of {S_CARTAN}")
        theta0 = res["theta0_mean"]
        if theta0 is None or not abs(theta0 - math.pi / 8) <= THETA0_TOL:
            problems.append(f"theta0_mean {theta0!r} not within {THETA0_TOL} of pi/8")
    elif surface == "equator":
        if res["verdict"] != "equator":
            problems.append(f"verdict {res['verdict']!r}, expected 'equator'")
        if set(res["g_histogram"]) != {"1"}:
            problems.append(f"g_histogram {res['g_histogram']} holds keys other than 1")
        if not res["s_max"] <= EQUATOR_S_MAX:
            problems.append(f"s_max {res['s_max']!r} above {EQUATOR_S_MAX}")
    else:
        problems.append(f"no check for surface {surface!r}")
    return problems, failed


def check_verify(report: dict, argv: list[str]) -> Messages:
    identity = _flag(argv, "--identity")
    trials = int(_flag(argv, "--trials"))
    rows = report["results"]
    if len(rows) != 1:
        return [f"expected one verdict row, got {len(rows)}"], []
    row = rows[0]
    problems = []
    if row["identity"] != identity:
        problems.append(f"identity {row['identity']!r}, expected {identity!r}")
    if row["trials"] != trials:
        problems.append(f"trials {row['trials']} != {trials}")
    if row["failures"] != 0:
        problems.append(f"failures is {row['failures']}")
    if identity != "recover" and row["exact"] is not True:
        problems.append(f"exact is {row['exact']!r} for {identity}")
    return problems, []


def check_catalog(report: dict) -> list[str]:
    entries = report["results"]
    if not entries:
        return ["catalog is empty"]
    return [f"model {e['model'].get('name')!r} fails its checks" for e in entries if not e["all_passed"]]


def check_report(report: dict, argv: list[str]) -> Messages:
    """Dispatch on the subcommand named in argv."""
    command = argv[0]
    if report.get("command") != command:
        return [f"report command {report.get('command')!r}, expected {command!r}"], []
    if command == "analyze":
        return check_analyze(report, argv)
    if command == "verify":
        return check_verify(report, argv)
    if command == "catalog":
        return check_catalog(report), []
    return [f"no check for command {command!r}"], []


def check_same_results(one, two) -> list[str]:
    """The `results` of workers-1 and workers-2 runs of one config must be equal."""
    if one != two:
        return ["results differ between --workers 1 and --workers 2"]
    return []
