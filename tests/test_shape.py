"""Second fundamental form, curvature invariants, angle fit, and sweeps.

The two product-of-spheres quadrics used here have hand-computable second
forms, which pins the orientation convention (normal along the tangential
gradient) as well as the magnitudes:

  x1^2 + x2^2        = 1/4  at (1/2, 0, sqrt(3)/2, 0, 0, 0) -> (sqrt3, -1/sqrt3 x3)
  x1^2 + x2^2 + x3^2 = 1/2  at (1/sqrt2, 0, 0, 1/sqrt2, 0, 0) -> (1, 1, -1, -1)
"""

import dataclasses
import inspect
import math
import random
from fractions import Fraction
from operator import mul

import pytest

from spherecurv import (
    FocalPointError,
    LevelSpec,
    RngStream,
    SpherePoint,
    cartan_field,
    cartan_level,
    coordinate_field,
    curvature_report,
    SymMat4,
    draw_gaussian,
    eval2,
    fit_theta0,
    frame_at,
    polynomial_field,
    sample_level_point,
    second_form,
    sweep_analyze,
    sym_eigen,
    TangentFrame,
)
from spherecurv import shape, sphere
from spherecurv.shape import misfit_derivatives

from fieldtools import left_sum

SQ3 = math.sqrt(3.0)

EQUATOR = LevelSpec(coordinate_field(5), 0.0)
M13 = LevelSpec(
    polynomial_field({(2, 0, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0, 0): 1}), 0.25
)
M22 = LevelSpec(
    polynomial_field(
        {(2, 0, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0, 0): 1, (0, 0, 2, 0, 0, 0): 1}
    ),
    0.5,
)
CARTAN_MIN = LevelSpec(cartan_field(), cartan_level(math.pi / 8))

M13_POINT = SpherePoint((0.5, 0.0, SQ3 / 2, 0.0, 0.0, 0.0))
M22_POINT = SpherePoint((math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5), 0.0, 0.0))


def test_equator_second_form_vanishes():
    s = RngStream(15)
    for _ in range(5):
        p, s = sample_level_point(EQUATOR, s)
        h = second_form(EQUATOR, frame_at(p, EQUATOR))
        for i in range(4):
            for j in range(4):
                assert abs(h.rows[i][j]) <= 1e-13


def test_sphere_product_one_three_curvatures():
    rep = curvature_report(M13, M13_POINT)
    assert rep.lambdas == pytest.approx((-1 / SQ3, -1 / SQ3, -1 / SQ3, SQ3), abs=1e-12)
    assert rep.g == 2
    assert rep.multiplicities == (1, 3)
    assert rep.distinct == pytest.approx((SQ3, -1 / SQ3), abs=1e-12)
    assert rep.f1 == pytest.approx(0.0, abs=1e-12)
    assert rep.S == pytest.approx(4.0, abs=1e-12)
    assert rep.f3 == pytest.approx(8 * SQ3 / 3, abs=1e-12)
    assert rep.K == pytest.approx(-1 / 3, abs=1e-12)
    assert rep.theta0 == pytest.approx(math.pi / 6, abs=1e-9)
    assert rep.R == pytest.approx(8.0, abs=1e-11)


def test_sphere_product_two_two_curvatures():
    rep = curvature_report(M22, M22_POINT)
    assert rep.lambdas == pytest.approx((-1.0, -1.0, 1.0, 1.0), abs=1e-12)
    assert rep.multiplicities == (2, 2)
    assert rep.f1 == pytest.approx(0.0, abs=1e-12)
    assert rep.f3 == pytest.approx(0.0, abs=1e-12)
    assert rep.S == pytest.approx(4.0, abs=1e-12)
    assert rep.K == pytest.approx(1.0, abs=1e-12)
    assert rep.theta0 == pytest.approx(math.pi / 4, abs=1e-9)


def test_scalar_curvature_is_the_defining_combination():
    rep = curvature_report(M13, M13_POINT)
    assert rep.R == 12.0 + rep.f1 * rep.f1 - rep.S


def test_report_power_sums_match_eigenvalues():
    rep = curvature_report(M13, M13_POINT)
    assert rep.f2 == pytest.approx(sum(v * v for v in rep.lambdas), abs=1e-14)
    assert rep.f4 == pytest.approx(sum(v**4 for v in rep.lambdas), abs=1e-14)
    assert rep.S == rep.f2


class TestThetaFit:
    def test_exact_four_value_ladder(self):
        g = 4
        theta = math.pi / 8
        vals = [math.cos(theta + k * math.pi / g) / math.sin(theta + k * math.pi / g)
                for k in range(g)]
        fitted, residual = fit_theta0(vals)
        assert fitted == pytest.approx(theta, abs=1e-9)
        assert residual <= 1e-9

    def test_exact_two_value_ladder(self):
        vals = [SQ3, -1 / SQ3]
        fitted, residual = fit_theta0(vals)
        assert fitted == pytest.approx(math.pi / 6, abs=1e-9)
        assert residual <= 1e-9

    def test_single_value_convention(self):
        fitted, residual = fit_theta0([0.25])
        assert fitted == math.pi / 2
        assert residual == 0.25

    def test_perturbed_ladder_has_visible_residual(self):
        theta = math.pi / 8
        vals = [math.cos(theta + k * math.pi / 4) / math.sin(theta + k * math.pi / 4)
                for k in range(4)]
        vals[1] += 0.01
        _, residual = fit_theta0(vals)
        assert residual > 1e-3

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_theta0([1.0, 2.0])  # ascending, not descending

    @pytest.mark.parametrize(
        "vals", [[], [math.nan], [math.nan, 0.0], [math.inf, 1.0], [1.0, -math.inf], [-math.inf]]
    )
    def test_empty_or_non_finite_input_rejected(self, vals):
        with pytest.raises(ValueError, match="finite"):
            fit_theta0(vals)

    @pytest.mark.parametrize("vals", [[1e308, -1e308], [1e200, -1e200], [1e300, 0.0, -1.0, -1e300]])
    def test_misfit_beyond_the_float_range_raises_value_error(self, vals):
        with pytest.raises(ValueError, match="too large"):
            fit_theta0(vals)

    @pytest.mark.parametrize("g", [2, 4])
    def test_random_ladders_recover_theta(self, g):
        rng = random.Random(100 + g)
        for _ in range(500):
            theta = rng.uniform(0.01, math.pi / g - 0.01)
            vals = [1.0 / math.tan(theta + k * math.pi / g) for k in range(g)]
            fitted, residual = fit_theta0(vals)
            assert abs(fitted - theta) <= 1e-12
            assert residual <= 1e-9

    @pytest.mark.parametrize("g", [2, 4])
    def test_random_non_ladders_reach_the_dense_scan_minimum(self, g):
        """The fit's residual is no worse than a 4096-point scan of (0, pi/g)
        polished by golden-section search around its best point."""
        rng = random.Random(200 + g)
        for _ in range(150):
            vals = sorted((rng.uniform(-4.0, 4.0) for _ in range(g)), reverse=True)
            _, residual = fit_theta0(vals)
            assert residual <= _dense_scan_residual(vals, g) + 1e-9, vals

    def test_second_derivative_matches_finite_difference(self):
        vals = (0.242, -0.861, -1.231, -1.618)
        h = 1e-6
        for theta in (0.1, 0.45, 0.7):
            d1, d2 = misfit_derivatives(vals, 4, theta)
            fd1 = (_misfit(vals, 4, theta + h) - _misfit(vals, 4, theta - h)) / (2 * h)
            fd2 = (misfit_derivatives(vals, 4, theta + h)[0]
                   - misfit_derivatives(vals, 4, theta - h)[0]) / (2 * h)
            assert d1 == pytest.approx(fd1, rel=1e-6, abs=1e-6)
            assert d2 == pytest.approx(fd2, rel=1e-6)
        assert misfit_derivatives(vals, 4, 0.45)[1] == pytest.approx(444.4589, abs=1e-3)


def _misfit(vals, g, theta):
    return sum((lam - 1.0 / math.tan(theta + k * math.pi / g)) ** 2 for k, lam in enumerate(vals))


def _dense_scan_residual(vals, g, n=4096):
    lo, hi = 1e-9, math.pi / g - 1e-9
    width = (hi - lo) / n
    best = min(range(n + 1), key=lambda k: _misfit(vals, g, lo + width * k))
    a, b = lo + width * max(best - 1, 0), lo + width * min(best + 1, n)
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        c, d = b - ratio * (b - a), a + ratio * (b - a)
        if _misfit(vals, g, c) < _misfit(vals, g, d):
            b = d
        else:
            a = c
    return math.sqrt(_misfit(vals, g, 0.5 * (a + b)))


def test_orientation_flip_negates_odd_invariants():
    """Replacing (F, c) by (-F, -c) flips the normal, so f1 and f3 change
    sign, the even invariants survive, and the multiplicity pattern reverses."""
    neg_field = polynomial_field(
        {exps: -c for exps, c in M13.field.coeffs}
    )
    flipped = LevelSpec(neg_field, -M13.level)
    rep = curvature_report(M13, M13_POINT)
    rep_f = curvature_report(flipped, M13_POINT)
    assert rep_f.f1 == pytest.approx(-rep.f1, abs=1e-12)
    assert rep_f.f3 == pytest.approx(-rep.f3, abs=1e-12)
    assert rep_f.f2 == pytest.approx(rep.f2, abs=1e-12)
    assert rep_f.f4 == pytest.approx(rep.f4, abs=1e-12)
    assert rep_f.K == pytest.approx(rep.K, abs=1e-12)
    assert rep_f.multiplicities == tuple(reversed(rep.multiplicities))
    assert rep_f.lambdas == pytest.approx(
        tuple(-v for v in reversed(rep.lambdas)), abs=1e-12
    )


def _random_rotation4(seed: int):
    s = RngStream(seed)
    cols = []
    for _ in range(4):
        col = []
        for _ in range(4):
            g, s = draw_gaussian(s)
            col.append(g)
        cols.append(col)
    basis = []
    for col in cols:
        v = list(col)
        for b in basis:
            d = sum(x * y for x, y in zip(v, b))
            v = [x - d * y for x, y in zip(v, b)]
        n = math.sqrt(sum(x * x for x in v))
        basis.append([x / n for x in v])
    return basis


def test_frame_rotation_leaves_spectrum_alone():
    frame = frame_at(M13_POINT, M13)
    base_vals, _ = sym_eigen(second_form(M13, frame))
    for seed in range(5):
        rot = _random_rotation4(seed)
        rotated = tuple(
            tuple(sum(rot[a][b] * frame.vectors[b][i] for b in range(4)) for i in range(6))
            for a in range(4)
        )
        new_frame = TangentFrame(base=frame.base, normal=frame.normal, vectors=rotated)
        vals, _ = sym_eigen(second_form(M13, new_frame))
        assert vals == pytest.approx(base_vals, abs=1e-12)


class TestSweep:
    def test_equator_sweep(self):
        stats = sweep_analyze(EQUATOR, 16, seed=3)
        assert stats.verdict == "equator"
        assert stats.n_points == 16
        assert stats.n_failures == 0
        assert stats.g_histogram == {1: 16}
        assert stats.s_max <= 1e-10
        assert stats.theta0_mean == pytest.approx(math.pi / 2, abs=1e-12)

    def test_one_three_sweep(self):
        stats = sweep_analyze(M13, 30, seed=5)
        assert stats.verdict == "clifford_1_3"
        assert abs(stats.s_mean - 4.0) <= 1e-9

    def test_two_two_sweep(self):
        stats = sweep_analyze(M22, 30, seed=5)
        assert stats.verdict == "clifford_2_2"
        assert abs(stats.s_mean - 4.0) <= 1e-9

    def test_minimal_quartic_sweep(self):
        stats = sweep_analyze(CARTAN_MIN, 40, seed=11)
        assert stats.verdict == "cartan"
        assert stats.max_abs_f1 <= 1e-8
        assert stats.g_histogram == {4: 40}

    def test_nonminimal_quartic_sweep(self):
        spec = LevelSpec(cartan_field(), cartan_level(0.3))
        stats = sweep_analyze(spec, 25, seed=2)
        assert stats.verdict == "non_isoparametric"
        assert stats.max_abs_f1 > 1e-3

    def test_matching_signature_with_wrong_s_is_inconclusive(self):
        spec = LevelSpec(cartan_field(), cartan_level(0.3))
        stats = sweep_analyze(spec, 12, seed=2, f1_tol=10.0)
        assert stats.verdict == "inconclusive"

    def test_one_signature_that_no_model_matches_in_s_is_inconclusive(self):
        """Every row has g = 2 with multiplicities (1, 3), clifford_1_3's
        signature, but S = 5 where that model has 4, so the verdict falls
        through the model loop; at S = 4 the same rows name the model."""
        rows = [(i, True, 0.0, 5.0, 0.0, 2, (3, 1), None) for i in range(3)]
        assert shape._classify(rows, 0.0, 1e-8) == "inconclusive"
        rows = [row[:3] + (4.0,) + row[4:] for row in rows]
        assert shape._classify(rows, 0.0, 1e-8) == "clifford_1_3"

    def test_rows_that_disagree_in_signature_are_inconclusive(self):
        """One row has clifford_1_3's signature, g = 2 with multiplicities
        (1, 3), and one clifford_2_2's, both at S = 4: each alone names its
        model, together they name none."""
        rows = [(0, True, 0.0, 4.0, 0.0, 2, (3, 1), None), (1, True, 0.0, 4.0, 0.0, 2, (2, 2), None)]
        assert shape._classify(rows[:1], 0.0, 1e-8) == "clifford_1_3"
        assert shape._classify(rows[1:], 0.0, 1e-8) == "clifford_2_2"
        assert shape._classify(rows, 0.0, 1e-8) == "inconclusive"

    def test_worker_count_does_not_change_results(self):
        serial = sweep_analyze(CARTAN_MIN, 24, seed=9, workers=1)
        parallel = sweep_analyze(CARTAN_MIN, 24, seed=9, workers=3)
        assert serial == parallel

    def test_planted_failures_are_counted_and_named_by_index(self, monkeypatch):
        real = shape.sample_level_point
        calls = []

        def flaky(spec, stream):
            calls.append(stream)
            if len(calls) - 1 in (1, 4):
                raise shape.ProjectionError("planted", residual=1.0)
            return real(spec, stream)

        monkeypatch.setattr(shape, "sample_level_point", flaky)
        stats = sweep_analyze(EQUATOR, 20, seed=3)
        assert len(calls) == 20
        assert stats.n_failures == 2
        assert stats.n_points == 18
        assert stats.failure_samples == ("point 1: planted", "point 4: planted")

    def test_unreachable_level_fails_loudly(self):
        bad = LevelSpec(cartan_field(), 3.0)
        with pytest.raises(RuntimeError):
            sweep_analyze(bad, 10, seed=1)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            sweep_analyze(EQUATOR, 0, seed=1)

    @pytest.mark.parametrize(
        "n, seed, workers, error, message",
        [
            (5, 1.5, 1, TypeError, "^seed must be an int, got 1.5$"),
            (5.0, 0, 1, TypeError, "^n must be an int, got 5.0$"),
            (5, 0, 0, ValueError, "^workers must be at least 1, got 0$"),
            (5, 0, 2.5, TypeError, "^workers must be an int, got 2.5$"),
            (5, 0, True, TypeError, "^workers must be an int, got True$"),
        ],
    )
    def test_sweep_arguments_are_checked_before_sampling(self, n, seed, workers, error, message, monkeypatch):
        """A float seed once raised an internal TypeError from rng._child_seed,
        a float n one about 'float' object as an integer, and workers 0, 2.5
        or True ran as if valid."""
        def never(*args):
            raise AssertionError("sampled before the arguments were checked")

        monkeypatch.setattr(shape, "_sweep_point", never)
        with pytest.raises(error, match=message):
            sweep_analyze(EQUATOR, n, seed, workers=workers)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-8])
    def test_f1_tol_must_be_positive_and_finite(self, bad, monkeypatch):
        """A NaN threshold would make non_isoparametric unreachable, since
        max|f1| > nan is always False; the check runs before any sampling."""
        def never(*args):
            raise AssertionError("sampled before f1_tol was checked")

        monkeypatch.setattr(shape, "map_chunks", never)
        with pytest.raises(ValueError, match="f1_tol"):
            sweep_analyze(CARTAN_MIN, 8, seed=1, f1_tol=bad)


# second_form and the power sums before their kernels were written out
# component by component, kept as references; the reference second_form sums
# every upper Hessian entry, zeros included.


def _dense_hess_bilinear(hess, u, v):
    """u^T H v over every upper-triangle entry, zeros included: the form
    before zero entries were skipped."""
    acc = 0
    k = 0
    for i in range(6):
        ui = u[i]
        acc += hess[k] * ui * v[i]
        k += 1
        for j in range(i + 1, 6):
            acc += hess[k] * (ui * v[j] + u[j] * v[i])
            k += 1
    return acc


def _ref_second_form(spec, frame):
    p = frame.base.coords
    _, grad, hess = eval2(spec.field, p)
    gp = left_sum(map(mul, grad, p))
    tang = [g - gp * c for g, c in zip(grad, p)]
    nt = math.sqrt(left_sum(map(mul, tang, tang)))
    upper = []
    for a in range(4):
        for b in range(a, 4):
            val = _dense_hess_bilinear(hess, frame.vectors[a], frame.vectors[b])
            if a == b:
                val -= gp
            upper.append(val / nt)
    return SymMat4.from_upper(upper)


def _ref_power_sums(lambdas):
    return (
        lambdas[0] + lambdas[1] + lambdas[2] + lambdas[3],
        left_sum(map(mul, lambdas, lambdas)),
        left_sum([v**3 for v in lambdas]),
        left_sum([v**4 for v in lambdas]),
        lambdas[0] * lambdas[1] * lambdas[2] * lambdas[3],
    )


KERNEL_SURFACES = {
    "equator": (EQUATOR, 1000),
    "cartan-pi/8": (CARTAN_MIN, 300),
    "cartan-0.3": (LevelSpec(cartan_field(), cartan_level(0.3)), 300),
    "quadric": (M13, 200),
}


def _hex(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("surface", sorted(KERNEL_SURFACES))
def test_second_form_and_power_sums_match_the_loop_forms_bit_for_bit(surface):
    """Every entry by float.hex, so signed zeros count, at seeded points."""
    spec, n = KERNEL_SURFACES[surface]
    for i in range(n):
        point, _ = sample_level_point(spec, RngStream(2021).split(i))
        frame = frame_at(point, spec)
        got, ref = second_form(spec, frame), _ref_second_form(spec, frame)
        assert [_hex(row) for row in got.rows] == [_hex(row) for row in ref.rows], i
        rep = curvature_report(spec, point)
        assert _hex(rep.lambdas) == _hex(sym_eigen(got)[0]), i
        assert _hex((rep.f1, rep.f2, rep.f3, rep.f4, rep.K)) == _hex(_ref_power_sums(rep.lambdas)), i


@pytest.mark.parametrize("spec, point", [(M13, M13_POINT), (M22, M22_POINT), (EQUATOR, None)],
                         ids=["m13", "m22", "equator"])
def test_curvature_report_equals_the_checked_constructor(spec, point):
    """curvature_report fills CurvatureReport's fields without its __init__;
    the value equals, hashes and prints as the constructed one, and its
    fields stay frozen. That skips no check only while the class has no
    __post_init__; adding one fails here, so the fill must be revisited."""
    assert not hasattr(shape.CurvatureReport, "__post_init__")
    if point is None:
        point, _ = sample_level_point(spec, RngStream(5))
    rep = curvature_report(spec, point)
    built = shape.CurvatureReport(**{f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)})
    assert rep == built and hash(rep) == hash(built) and repr(rep) == repr(built)
    assert vars(rep) == vars(built) and list(vars(rep)) == list(vars(built))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.g = 0


def _gauss_with_zeros(rng):
    """Six normals, each replaced by 0.0 or -0.0 with probability 1/4."""
    return [rng.choice((0.0, -0.0)) if rng.random() < 0.25 else rng.gauss(0.0, 1.0)
            for _ in range(6)]


def _sparse_table(rng):
    """Up to five terms of degree <= 3 with small int or Fraction coefficients."""
    table = {}
    for _ in range(rng.randint(1, 5)):
        exps = [0] * 6
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(6)] += 1
        table[tuple(exps)] = rng.choice((1, -2, 3, Fraction(1, 3), Fraction(-5, 2)))
    return table


@pytest.mark.parametrize("kind", ["coordinate", "cartan", "sparse"])
def test_zero_skipping_second_form_matches_dense_form(kind):
    """second_form skips the Hessian's zero entries; bit for bit, sign of zero
    included, it matches the form over every entry on 2000 seeded base points
    and 4-frames with signed zeros in every vector."""
    rng = random.Random(f"hess-bilinear-{kind}")
    fields = {
        "coordinate": [coordinate_field(i) for i in range(6)],
        "cartan": [cartan_field()],
        "sparse": [polynomial_field(_sparse_table(rng)) for _ in range(50)],
    }[kind]
    zero_entries = checked = 0
    for n in range(2000):
        spec = LevelSpec(fields[n % len(fields)], 0.0)
        base = SpherePoint(tuple(_gauss_with_zeros(rng)))
        frame = TangentFrame(base, (0.0,) * 6, tuple(tuple(_gauss_with_zeros(rng)) for _ in range(4)))
        try:
            got = second_form(spec, frame)
        except FocalPointError:
            continue
        zero_entries += sum(1 for h in eval2(spec.field, base.coords)[2] if h == 0)
        ref = _ref_second_form(spec, frame)
        assert [_hex(row) for row in got.rows] == [_hex(row) for row in ref.rows], n
        checked += 1
    assert checked > 1000 and zero_entries > 0


def test_default_tolerances():
    assert inspect.signature(sweep_analyze).parameters["f1_tol"].default == 1e-8
    assert shape.S_TOL == 1e-6
    assert shape.CLUSTER_TOL == 1e-4
    assert sphere._TOL == 1e-12
    assert shape.MAX_FAILURE_FRACTION == 0.10
