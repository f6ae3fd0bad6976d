"""The benchmark's traced run wraps functions by module path; each must exist
and, for the per-point targets, still be called, or its per-layer metrics
silently read 0."""

import importlib
import math
from pathlib import Path

import pytest

from spherecurv import LevelSpec, cartan_field, cartan_level, coordinate_field, sweep_analyze

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _layers(monkeypatch):
    """The benchmark's bench/layers.py, which lists the traced targets. These
    tests check that list against src/, so without bench/ they fail and say so."""
    if not (BENCH_DIR / "layers.py").is_file():
        pytest.fail(f"bench/layers.py is missing (looked for {BENCH_DIR / 'layers.py'}); "
                    "these tests check the benchmark's traced targets and need bench/")
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    return importlib.import_module("layers")


def test_every_traced_target_resolves(monkeypatch):
    layers = _layers(monkeypatch)
    missing = []
    for name, _count in layers.TARGETS:
        module_name, _, attr = name.rpartition(".")
        if not hasattr(importlib.import_module(module_name), attr):
            missing.append(name)
    assert layers.TARGETS and missing == []


def test_per_point_targets_are_called(monkeypatch):
    """A kernel that inlined a traced function would leave its span empty and
    its per-layer metric at 0; each per-point target must still be called."""
    layers = _layers(monkeypatch)
    names = [name for name, _count in layers.TARGETS
             if name.startswith(("spherecurv.shape.", "spherecurv.sphere."))]
    calls = dict.fromkeys(names, 0)
    for name in names:
        module_name, _, attr = name.rpartition(".")
        module = importlib.import_module(module_name)

        def counted(*args, _fn=getattr(module, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    sweep_analyze(LevelSpec(coordinate_field(5), 0.0), 4, seed=3, workers=1)
    assert len(names) == 10
    assert [name for name, n in calls.items() if n == 0] == []


def _per_point_calls(monkeypatch, spec):
    """Calls of each shape and sphere target during a 4-point sweep at seed 3."""
    layers = _layers(monkeypatch)
    calls = {}
    for name, _count in layers.TARGETS:
        if not name.startswith(("spherecurv.shape.", "spherecurv.sphere.")):
            continue
        calls[name] = 0
        module_name, _, attr = name.rpartition(".")
        module = importlib.import_module(module_name)

        def counted(*args, _fn=getattr(module, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    sweep_analyze(spec, 4, seed=3, workers=1)
    return calls


@pytest.mark.parametrize("surface, eval1_calls", [("equator", 23), ("cartan", 29)])
def test_per_point_targets_are_called_as_often_as_before(monkeypatch, surface, eval1_calls):
    """A kernel that inlined a traced call would halve a per-call mean, not
    zero it; so each single-call target runs exactly once per point, and
    eval1 as often as the projection and the normal need."""
    spec = {
        "equator": LevelSpec(coordinate_field(5), 0.0),
        "cartan": LevelSpec(cartan_field(), cartan_level(math.pi / 8)),
    }[surface]
    calls = _per_point_calls(monkeypatch, spec)
    assert calls.pop("spherecurv.sphere.eval1") == eval1_calls
    assert len(calls) == 9 and set(calls.values()) == {4}, calls
