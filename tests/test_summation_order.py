"""Same bits on every supported Python: no pinned float depends on sum().

From Python 3.12 on, sum() compensates float sums, where 3.11 adds them left
to right; the golden statistics hold 3.11's results. Here every float
sum() of the point pipeline is replaced by a correctly rounded one, so a
pinned bit that hangs on sum()'s rounding fails on any interpreter.
"""

import builtins
import math

import pytest

from spherecurv import eigen, fields, shape, sphere
import test_float_golden as golden


def _correctly_rounded_sum(values, start=0):
    """math.fsum for a nonempty all-float input from start 0, else sum()."""
    values = list(values)
    if values and start == 0 and all(type(v) is float for v in values):
        return math.fsum(values)
    return builtins.sum(values, start)


@pytest.mark.parametrize("surface", sorted(golden.RUNS))
def test_golden_statistics_do_not_depend_on_sum(surface, monkeypatch):
    for module in (fields, sphere, shape, eigen):
        monkeypatch.setattr(module, "sum", _correctly_rounded_sum, raising=False)
    golden.test_sweep_statistics_are_bit_identical(surface, workers=1)
