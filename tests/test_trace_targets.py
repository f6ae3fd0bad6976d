"""The benchmark's traced run wraps functions by module path; each must exist,
or its per-layer metrics silently read 0."""

import importlib
from pathlib import Path

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
