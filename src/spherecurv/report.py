"""Machine-readable run reports: versioned JSON payloads and CSV projection.

The JSON layout is frozen under schema_version "1" and documented by
REPORT_SCHEMA (JSON Schema draft 2020-12). Reports built from the same config
and seed are byte-identical except for the wall-clock `timing` field, which
is the only nondeterministic value in the payload.

CSV prints every float with 17 significant digits, enough for exact
round-tripping of IEEE doubles.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import TYPE_CHECKING, Sequence

from .catalog import VERDICTS, CheckResult, IsoModel, checks_passed

if TYPE_CHECKING:
    from .identities import IdentityVerdict
    from .shape import SurfaceStats

SCHEMA_VERSION = "1"


def fmt_float(x: float | None) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def stats_payload(stats: SurfaceStats) -> dict:
    d = asdict(stats)
    d["g_histogram"] = {str(k): v for k, v in stats.g_histogram.items()}
    d["failure_samples"] = list(stats.failure_samples)
    return d


def verdicts_payload(verdicts: Sequence[IdentityVerdict]) -> list[dict]:
    return [asdict(v) for v in verdicts]


def catalog_payload(entries: Sequence[tuple[IsoModel, list[CheckResult]]]) -> list[dict]:
    return [
        {
            "model": model.describe(),
            "checks": [asdict(c) for c in checks],
            "all_passed": checks_passed(checks),
        }
        for model, checks in entries
    ]


def build_report(command: str, config: dict, results, timing: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "results": results,
        "timing": timing,
    }


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


# The catalog CSV is a projection: it leaves out curvature_forms, field and level.
_CATALOG_COLUMNS = ("name", "g", "multiplicities", "curvatures", "S", "R", "theta0", "all_passed")


def _cell(value) -> str:
    """One CSV cell, formatted by the value's JSON type."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None or isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, list):
        return ";".join(map(_cell, value))
    if isinstance(value, dict):
        return json.dumps(value)
    return str(value)


def to_csv(command: str, results) -> str:
    """CSV projection of the results block, one row per record. Analyze and
    verify columns are the required fields of their REPORT_SCHEMA entry."""
    import csv
    import io

    if command == "analyze":
        columns = REPORT_SCHEMA["$defs"]["analyze_results"]["required"]
        hist = ";".join(f"{k}:{v}" for k, v in sorted(results["g_histogram"].items()))
        rows = [dict(results, g_histogram=hist)]
    elif command == "verify":
        columns = REPORT_SCHEMA["$defs"]["verify_results"]["items"]["required"]
        rows = results
    elif command == "catalog":
        columns = _CATALOG_COLUMNS
        rows = [dict(entry["model"], all_passed=entry["all_passed"]) for entry in results]
    else:
        raise ValueError(f"unknown command {command!r}")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(row[c]) for c in columns] for row in rows)
    return out.getvalue()


_NUMBER_OR_NULL = {"type": ["number", "null"]}

REPORT_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "spherecurv run report",
    "type": "object",
    "required": ["schema_version", "command", "config", "results", "timing"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": ["analyze", "verify", "catalog"]},
        "config": {
            "type": "object",
            "required": ["seed", "format", "workers"],
            "properties": {
                "surface": {"type": ["string", "null"]},
                "t": _NUMBER_OR_NULL,
                "level": _NUMBER_OR_NULL,
                "samples": {"type": ["integer", "null"]},
                "seed": {"type": "integer"},
                "tol": _NUMBER_OR_NULL,
                "trials": {"type": ["integer", "null"]},
                "identity": {"type": ["string", "null"]},
                "height": {"type": ["integer", "null"]},
                "output": {"type": ["string", "null"]},
                "format": {"enum": ["json", "csv"]},
                "workers": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "timing": {"type": "number", "minimum": 0},
        "results": {
            "oneOf": [
                {"$ref": "#/$defs/analyze_results"},
                {"$ref": "#/$defs/verify_results"},
                {"$ref": "#/$defs/catalog_results"},
            ]
        },
    },
    "$defs": {
        "analyze_results": {
            "type": "object",
            "required": [
                "n_points", "n_failures", "max_abs_f1", "s_mean", "s_min", "s_max",
                "f3_mean", "f3_spread", "g_histogram", "theta0_mean", "verdict",
            ],
            "additionalProperties": False,
            "properties": {
                "n_points": {"type": "integer", "minimum": 0},
                "n_failures": {"type": "integer", "minimum": 0},
                "max_abs_f1": {"type": "number"},
                "s_mean": {"type": "number"},
                "s_min": {"type": "number"},
                "s_max": {"type": "number"},
                "f3_mean": {"type": "number"},
                "f3_spread": {"type": "number"},
                "g_histogram": {
                    "type": "object",
                    "patternProperties": {"^[0-9]+$": {"type": "integer", "minimum": 0}},
                    "additionalProperties": False,
                },
                "theta0_mean": _NUMBER_OR_NULL,
                "verdict": {"enum": list(VERDICTS)},
                "failure_samples": {"type": "array", "items": {"type": "string"}},
            },
        },
        "verify_results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["identity", "trials", "failures", "exact", "first_counterexample"],
                "additionalProperties": False,
                "properties": {
                    "identity": {"type": "string"},
                    "trials": {"type": "integer", "minimum": 1},
                    "failures": {"type": "integer", "minimum": 0},
                    "exact": {"type": "boolean"},
                    "first_counterexample": {"type": ["object", "null"]},
                },
            },
        },
        "catalog_results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["model", "checks", "all_passed"],
                "additionalProperties": False,
                "properties": {
                    "model": {
                        "type": "object",
                        "required": [
                            "name", "g", "multiplicities", "curvatures",
                            "curvature_forms", "S", "R", "theta0", "field", "level",
                        ],
                        "additionalProperties": False,
                        "properties": {
                            "name": {"type": "string"},
                            "g": {"type": "integer"},
                            "multiplicities": {"type": "array", "items": {"type": "integer"}},
                            "curvatures": {"type": "array", "items": {"type": "number"}},
                            "curvature_forms": {"type": "array", "items": {"type": "string"}},
                            "S": {"type": "number"},
                            "R": {"type": "number"},
                            "theta0": _NUMBER_OR_NULL,
                            "field": {"type": ["object", "null"]},
                            "level": _NUMBER_OR_NULL,
                        },
                    },
                    "checks": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["name", "passed", "detail"],
                            "additionalProperties": False,
                            "properties": {
                                "name": {"type": "string"},
                                "passed": {"type": "boolean"},
                                "detail": {"type": "string"},
                            },
                        },
                    },
                    "all_passed": {"type": "boolean"},
                },
            },
        },
    },
}
