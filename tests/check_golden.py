"""The golden sweep statistics of test_float_golden.py, and the recovered
curvatures of RECOVER, checked without pytest.

    PYTHONPATH=src python tests/check_golden.py

For interpreters that have no pytest or mpmath installed: a stand-in
`pytest` module lets test_float_golden import, and each of its RUNS is swept
at one and two workers and compared with GOLDEN by float.hex, as the test
does. Each RECOVER input, rational with irrational, far-apart or repeated
rational roots, goes through recover_curvatures and is compared by float.hex with its correctly
rounded roots; test_identities checks those against closed forms. Prints
one line per sweep and per input and exits 1 when any differs.
"""

import dataclasses
import math
import sys
import types
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    import pytest  # noqa: F401
except ImportError:
    sys.modules["pytest"] = types.SimpleNamespace(
        mark=types.SimpleNamespace(parametrize=lambda *args, **kwargs: lambda fn: fn)
    )

import test_float_golden as golden  # noqa: E402

from spherecurv import recover_curvatures, sweep_analyze  # noqa: E402

# 1 + 3 2^-53, halfway between two doubles
TIE = Fraction(2**53 + 3, 2**53)


def _power_sums(*lams):
    """(p1, p2, p3, e4) of the curvatures lams."""
    return sum(lams), sum(x * x for x in lams), sum(x**3 for x in lams), math.prod(lams)


# roots -> ((p1, p2, p3, e4), float.hex of the roots, ascending)
RECOVER = {
    "+-sqrt2 +- 1": (
        (0, 12, 0, 1),
        ("-0x1.3504f333f9de6p+1", "-0x1.a827999fcef32p-2", "0x1.a827999fcef32p-2", "0x1.3504f333f9de6p+1"),
    ),
    "1 twice, +-sqrt2": (
        (2, 6, 2, -2),
        ("-0x1.6a09e667f3bcdp+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.6a09e667f3bcdp+0"),
    ),
    "+-sqrt2, +-sqrt3": (
        (0, 10, 0, 6),
        ("-0x1.bb67ae8584caap+0", "-0x1.6a09e667f3bcdp+0", "0x1.6a09e667f3bcdp+0", "0x1.bb67ae8584caap+0"),
    ),
    "+-sqrt2 twice": (
        (0, 8, 0, 4),
        ("-0x1.6a09e667f3bcdp+0", "-0x1.6a09e667f3bcdp+0", "0x1.6a09e667f3bcdp+0", "0x1.6a09e667f3bcdp+0"),
    ),
    "+-sqrt2, +-sqrt2 10^100": (
        (0, 4 + 4 * 10**200, 0, 4 * 10**200),
        ("-0x1.9dce3e3d94c83p+332", "-0x1.6a09e667f3bcdp+0", "0x1.6a09e667f3bcdp+0", "0x1.9dce3e3d94c83p+332"),
    ),
    "+-1, +-sqrt2 10^-60": (
        (0, 2 + 4 * Fraction(1, 10**120), 0, 2 * Fraction(1, 10**120)),
        ("-0x1.0000000000000p+0", "-0x1.22e3091bd857cp-199", "0x1.22e3091bd857cp-199", "0x1.0000000000000p+0"),
    ),
    "the tie, 3, +-sqrt2": (
        (TIE + 3, TIE * TIE + 13, TIE**3 + 27, -6 * TIE),
        ("-0x1.6a09e667f3bcdp+0", "0x1.0000000000002p+0", "0x1.6a09e667f3bcdp+0", "0x1.8000000000000p+1"),
    ),
    "1, 2, 3, 10^400": (
        (6 + 10**400, 14 + 10**800, 36 + 10**1200, 6 * 10**400),
        ("0x1.0000000000000p+0", "0x1.0000000000000p+1", "0x1.8000000000000p+1", "inf"),
    ),
    "-445/363, -707/879 twice, 193/15": (
        _power_sums(Fraction(-445, 363), Fraction(-707, 879), Fraction(-707, 879), Fraction(193, 15)),
        ("-0x1.39d44685fe96fp+0", "-0x1.9bd03c93f32f8p-1", "-0x1.9bd03c93f32f8p-1", "0x1.9bbbbbbbbbbbcp+3"),
    ),
    "1/3 four times": (
        _power_sums(*[Fraction(1, 3)] * 4),
        ("0x1.5555555555555p-2", "0x1.5555555555555p-2", "0x1.5555555555555p-2", "0x1.5555555555555p-2"),
    ),
}


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
    for roots, (inputs, want) in RECOVER.items():
        got = tuple(x.hex() for x in recover_curvatures(*inputs))
        failed = failed or got != want
        print(f"python {version} recover {roots}: {'ok' if got == want else 'got ' + ', '.join(got)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
