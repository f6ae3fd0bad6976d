"""Golden values of the float engine: sweep statistics pinned bit for bit.

The values were recorded before the per-point kernels were tuned. Any change
that alters a float operation of the point pipeline (sampling, projection,
frame, second form, eigenvalues, theta fit or aggregation) moves at least
one of them, so "close enough" drift fails here instead of passing the
tolerance-based tests.
"""

import dataclasses
import math

import pytest

from spherecurv import LevelSpec, cartan_field, cartan_level, coordinate_field, sweep_analyze

GOLDEN = {
    "equator": {
        "n_points": 200,
        "n_failures": 0,
        "max_abs_f1": "0x1.0000000000000p-161",
        "s_mean": "0x1.4851eb851eb85p-331",
        "s_min": "0x0.0p+0",
        "s_max": "0x1.0000000000000p-324",
        "f3_mean": "-0x1.47b851eb851ecp-494",
        "f3_spread": "0x1.0000000000000p-487",
        "g_histogram": {1: 200},
        "theta0_mean": "0x1.921fb54442d18p+0",
        "verdict": "equator",
        "failure_samples": (),
    },
    "cartan": {
        "n_points": 64,
        "n_failures": 0,
        "max_abs_f1": "0x1.533c000000000p-37",
        "s_mean": "0x1.7ffffffffff4dp+3",
        "s_min": "0x1.7ffffffffe9d4p+3",
        "s_max": "0x1.8000000000010p+3",
        "f3_mean": "0x1.d3f6000000000p-40",
        "f3_spread": "0x1.007f000000000p-32",
        "g_histogram": {4: 64},
        "theta0_mean": "0x1.921fb54442ca5p-2",
        "verdict": "cartan",
        "failure_samples": (),
    },
}

RUNS = {
    "equator": (lambda: LevelSpec(coordinate_field(5), 0.0), 200, 3),
    "cartan": (lambda: LevelSpec(cartan_field(), cartan_level(math.pi / 8)), 64, 4),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("surface", sorted(RUNS))
def test_sweep_statistics_are_bit_identical(surface, workers):
    make_spec, n, seed = RUNS[surface]
    stats = sweep_analyze(make_spec(), n, seed, workers=workers)
    got = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        got[f.name] = value.hex() if isinstance(value, float) else value
    assert got == GOLDEN[surface]
