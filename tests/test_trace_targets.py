"""The benchmark's traced run wraps functions by module path; each must exist
and, for the per-point targets, still be called, or its per-layer metrics
silently read 0."""

import importlib
from pathlib import Path

from spherecurv import LevelSpec, coordinate_field, sweep_analyze

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    layers = importlib.import_module("layers")
    missing = []
    for name, _count in layers.TARGETS:
        module_name, _, attr = name.rpartition(".")
        if not hasattr(importlib.import_module(module_name), attr):
            missing.append(name)
    assert layers.TARGETS and missing == []


def test_per_point_targets_are_called(monkeypatch):
    """A kernel that inlined a traced function would leave its span empty and
    its per-layer metric at 0; each per-point target must still be called."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    layers = importlib.import_module("layers")
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
