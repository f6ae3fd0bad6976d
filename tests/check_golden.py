"""The golden sweep statistics of test_float_golden.py, checked without pytest.

    PYTHONPATH=src python tests/check_golden.py

For interpreters that have no pytest installed: a stand-in `pytest` module
lets test_float_golden import, and each of its RUNS is swept at one and two
workers and compared with GOLDEN by float.hex, as the test does. Prints one
line per sweep and exits 1 when any differs.
"""

import dataclasses
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    import pytest  # noqa: F401
except ImportError:
    sys.modules["pytest"] = types.SimpleNamespace(
        mark=types.SimpleNamespace(parametrize=lambda *args, **kwargs: lambda fn: fn)
    )

import test_float_golden as golden  # noqa: E402

from spherecurv import sweep_analyze  # noqa: E402


def main() -> int:
    failed = False
    version = sys.version.split()[0]
    for surface in sorted(golden.RUNS):
        make_spec, n, seed = golden.RUNS[surface]
        want = golden.GOLDEN[surface]
        for workers in (1, 2):
            stats = sweep_analyze(make_spec(), n, seed, workers=workers)
            got = {}
            for f in dataclasses.fields(stats):
                value = getattr(stats, f.name)
                got[f.name] = value.hex() if isinstance(value, float) else value
            differ = [name for name in want if got.get(name) != want[name]]
            failed = failed or bool(differ) or got.keys() != want.keys()
            verdict = "differs in " + ", ".join(differ) if differ else "ok"
            print(f"python {version} {surface} workers={workers}: {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
