"""Constraint projection, frames, and sampling on the unit 5-sphere."""

import copy
import dataclasses
import math
import pickle
import random
import re
from operator import mul
from pathlib import Path

import pytest

from spherecurv import (
    N_VARS,
    CurvatureReport,
    FocalPointError,
    LevelSpec,
    ProjectionError,
    RngStream,
    SpherePoint,
    TangentFrame,
    cartan_field,
    cartan_level,
    coordinate_field,
    curvature_report,
    draw_gaussians,
    eval1,
    frame_at,
    polynomial_field,
    project_to_level,
    sample_level_point,
    sample_on_sphere,
    second_form,
    surface_normal,
    sweep_analyze,
    tangent_basis,
)
from spherecurv import sphere
from spherecurv.rng import _child_seeds, _stream
from spherecurv.sphere import _MAX_HALVINGS, _MAX_ITER, FOCAL_EPS, _focal_certified, _tangential_gradient

from fieldtools import left_sum


def _norm(v):
    return math.sqrt(sum(c * c for c in v))


def _residual(spec, x):
    """max of the two constraint residuals at x."""
    return max(abs(sum(c * c for c in x) - 1.0), abs(eval1(spec.field, x)[0] - spec.level))


EQUATOR = LevelSpec(coordinate_field(5), 0.0)
QUARTIC_HALF = LevelSpec(cartan_field(), 0.5)


def test_projection_onto_equator_is_explicit():
    """Newton moves in span{x, grad}: zero the last coordinate, renormalize.

    For x0 = (0.3, 0.4, 0, 0, 0, 0.5) the exact answer is (0.6, 0.8, 0, ...).
    """
    p = project_to_level((0.3, 0.4, 0.0, 0.0, 0.0, 0.5), EQUATOR)
    expected = (0.6, 0.8, 0.0, 0.0, 0.0, 0.0)
    assert max(abs(a - b) for a, b in zip(p.coords, expected)) < 1e-12


def test_projection_satisfies_both_constraints():
    p = project_to_level((0.9, -0.1, 0.2, 0.3, -0.2, 0.1), QUARTIC_HALF)
    assert abs(_norm(p.coords) - 1.0) <= 1e-12
    assert _residual(QUARTIC_HALF, p.coords) <= 1e-12


def test_projection_is_idempotent():
    p = project_to_level((0.9, -0.1, 0.2, 0.3, -0.2, 0.1), QUARTIC_HALF)
    q = project_to_level(p.coords, QUARTIC_HALF)
    assert max(abs(a - b) for a, b in zip(p.coords, q.coords)) < 1e-10


def test_unattainable_level_raises():
    # the quartic on the sphere has range [0, 1]
    too_high = LevelSpec(cartan_field(), 2.0)
    with pytest.raises((ProjectionError, FocalPointError)):
        project_to_level((0.9, -0.1, 0.2, 0.3, -0.2, 0.1), too_high)


def test_focal_point_detected():
    # e1 lies on the top level {F = 1}, where the tangential gradient vanishes
    top = LevelSpec(cartan_field(), 1.0)
    point = project_to_level((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), top)
    with pytest.raises(FocalPointError):
        surface_normal(point, top)


def test_surface_normal_properties():
    p = project_to_level((0.3, 0.5, -0.4, 0.2, 0.6, 0.1), QUARTIC_HALF)
    n = surface_normal(p, QUARTIC_HALF)
    assert abs(_norm(n) - 1.0) <= 1e-12
    # tangent to the sphere
    assert abs(sum(a * b for a, b in zip(n, p.coords))) <= 1e-12
    # aligned with the tangential part of the gradient
    _, grad = eval1(QUARTIC_HALF.field, p.coords)
    gp = sum(g * c for g, c in zip(grad, p.coords))
    tang = [g - gp * c for g, c in zip(grad, p.coords)]
    nt = _norm(tang)
    assert max(abs(a - b / nt) for a, b in zip(n, tang)) <= 1e-12


def test_tangent_basis_is_orthonormal_and_tangent():
    p = project_to_level((0.3, 0.5, -0.4, 0.2, 0.6, 0.1), QUARTIC_HALF)
    frame = frame_at(p, QUARTIC_HALF)
    assert len(frame.vectors) == 4
    for a, ea in enumerate(frame.vectors):
        assert abs(_norm(ea) - 1.0) <= 1e-12
        assert abs(sum(x * y for x, y in zip(ea, p.coords))) <= 1e-12
        assert abs(sum(x * y for x, y in zip(ea, frame.normal))) <= 1e-12
        for eb in frame.vectors[a + 1 :]:
            assert abs(sum(x * y for x, y in zip(ea, eb))) <= 1e-12


def test_tangent_basis_needs_a_unit_normal_slot():
    p = project_to_level((0.1, 0.2, 0.3, 0.4, 0.5, 0.6), EQUATOR)
    n = surface_normal(p, EQUATOR)
    basis = tangent_basis(p, n)
    assert len(basis) == 4


def test_sample_on_sphere_unit_norm_and_determinism():
    s = RngStream(11)
    p1, s1 = sample_on_sphere(s)
    p2, _ = sample_on_sphere(s)
    assert p1 == p2
    assert s1.counter - s.counter == 12  # six normals, two raw outputs each
    assert abs(_norm(p1.coords) - 1.0) <= 1e-12
    p3, _ = sample_on_sphere(s1)
    assert p3 != p1


def test_sample_level_point_hits_surface():
    s = RngStream(99)
    for _ in range(10):
        p, s = sample_level_point(QUARTIC_HALF, s)
        assert abs(_norm(p.coords) - 1.0) <= 1e-12
        assert _residual(QUARTIC_HALF, p.coords) <= 1e-12


def test_start_next_to_focal_set_projects():
    """This start has F ~ 5e-5 against level 1/2; its first step needs 7 halvings."""
    spec = LevelSpec(cartan_field(), cartan_level(math.pi / 8))
    point, _ = sample_level_point(spec, RngStream(300059).split(52))
    assert _residual(spec, point.coords) <= 1e-12


def test_projection_rejects_bad_input():
    with pytest.raises(ValueError):
        project_to_level((1.0, 0.0), EQUATOR)


def test_projection_rejects_the_origin():
    with pytest.raises(ValueError, match="cannot project the origin"):
        project_to_level((0.0,) * N_VARS, EQUATOR)


def test_sphere_point_needs_six_coordinates():
    with pytest.raises(ValueError, match=r"points live in R\^6"):
        SpherePoint((1.0, 0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_non_finite_level_is_rejected(level):
    """A NaN level once projected every start to itself, unprojected, since
    the residual test drops a NaN; the spec now refuses it."""
    with pytest.raises(ValueError, match="level must be finite"):
        LevelSpec(cartan_field(), level)


@pytest.mark.parametrize("level", [0, 0.5, -0.25, 2.0])
def test_finite_levels_are_accepted(level):
    assert LevelSpec(cartan_field(), level).level == level


def test_quadric_level_projection():
    quadric = LevelSpec(
        polynomial_field({(2, 0, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0, 0): 1}),
        0.25,
    )
    p = project_to_level((0.4, 0.3, 0.5, 0.2, -0.6, 0.1), quadric)
    assert abs(p.coords[0] ** 2 + p.coords[1] ** 2 - 0.25) <= 1e-12
    assert abs(_norm(p.coords) - 1.0) <= 1e-12


@pytest.mark.parametrize("length", [5, 7])
def test_tangent_basis_rejects_a_normal_of_the_wrong_length(length):
    """A 5-entry normal once gave four 5-vectors, and a 7-entry one lost its
    last entry without complaint."""
    p = project_to_level((0.1, 0.2, 0.3, 0.4, 0.5, 0.6), EQUATOR)
    normal = (0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)[:length]
    with pytest.raises(ValueError, match=f"normal must have 6 components, got {length}"):
        tangent_basis(p, normal)


# The loop forms of the frame and the projection, before their 6-vector
# kernels were written out component by component, kept as references.


def _ref_dot(a, b):
    return left_sum(map(mul, a, b))


def _ref_norm(a):
    return math.sqrt(_ref_dot(a, a))


def _ref_axpy(a, t, b):
    return [x + t * y for x, y in zip(a, b)]


def _ref_tangential_norm(grad, p):
    gp = _ref_dot(grad, p)
    return _ref_norm([g - gp * c for g, c in zip(grad, p)])


def _ref_project_to_level(x0, spec, tol=1e-12):
    x = [float(c) for c in x0]

    def residuals(pt):
        value, grad = eval1(spec.field, pt)
        xx = _ref_dot(pt, pt)
        return xx, xx - 1.0, value - spec.level, grad

    xx, c1, c2, grad = residuals(x)
    res = max(abs(c1), abs(c2))
    for _ in range(_MAX_ITER):
        if res <= tol:
            break
        xg, gg = _ref_dot(x, grad), _ref_dot(grad, grad)
        a11, a12, a21, a22 = 2.0 * xx, 2.0 * xg, xg, gg
        det = a11 * a22 - a12 * a21
        norm_x = math.sqrt(xx)
        unit = [c / norm_x for c in x]
        tangential_grad = _ref_tangential_norm(grad, unit)
        if abs(det) < 1e-300 or tangential_grad < FOCAL_EPS:
            raise FocalPointError(
                f"degenerate tangential gradient ({tangential_grad:.3e}) during projection"
            )
        alpha = (-c1 * a22 + c2 * a12) / det
        beta = (-a11 * c2 + a21 * c1) / det
        step = 1.0
        for _halving in range(_MAX_HALVINGS):
            trial = _ref_axpy(_ref_axpy(x, step * alpha, x), step * beta, grad)
            txx, t1, t2, tgrad = residuals(trial)
            tres = max(abs(t1), abs(t2))
            if tres < res or tres <= tol:
                x, xx, c1, c2, grad, res = trial, txx, t1, t2, tgrad, tres
                break
            step *= 0.5
        else:
            break
    if res > tol:
        raise ProjectionError(
            f"projection stalled at residual {res:.3e} (target {tol:.1e})", res
        )
    return SpherePoint(tuple(x))


def _ref_tangent_basis(p, normal):
    anchors = [tuple(p.coords), tuple(normal)]
    for k in range(N_VARS):
        if len(anchors) == N_VARS:
            break
        vec = [0.0] * N_VARS
        vec[k] = 1.0
        for _pass in range(2):
            for anchor in anchors:
                t = -left_sum(map(mul, vec, anchor))
                vec = [v + t * a for v, a in zip(vec, anchor)]
        n = _ref_norm(vec)
        if n < 1e-6:
            continue
        anchors.append(tuple([v / n for v in vec]))
    return tuple(anchors[2:])


def _hex(value):
    """float.hex of every float in a nest of tuples, so signed zeros count."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(_hex(v) for v in value)
    return value


def _outcome(fn, *args):
    """("ok", coordinates) of the projected point, or the error's type, text
    and residual."""
    try:
        return "ok", _hex(fn(*args).coords)
    except (FocalPointError, ProjectionError) as exc:
        return type(exc).__name__, str(exc), _hex(getattr(exc, "residual", None))


KERNEL_SURFACES = {
    "equator": (EQUATOR, 1000),
    "cartan-pi/8": (LevelSpec(cartan_field(), cartan_level(math.pi / 8)), 300),
    "cartan-0.3": (LevelSpec(cartan_field(), cartan_level(0.3)), 300),
    "quadric": (LevelSpec(polynomial_field({(2, 0, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0, 0): 1}), 0.25),
                200),
}


@pytest.mark.parametrize("surface", sorted(KERNEL_SURFACES))
def test_projection_and_frame_match_the_loop_forms_bit_for_bit(surface):
    """Every coordinate by float.hex, at seeded starts; the frame at each
    projected point."""
    spec, n = KERNEL_SURFACES[surface]
    projected = 0
    for i in range(n):
        start, _ = sample_on_sphere(RngStream(2020).split(i))
        got = _outcome(project_to_level, start.coords, spec)
        assert got == _outcome(_ref_project_to_level, start.coords, spec), i
        if got[0] != "ok":
            continue
        point = SpherePoint(tuple(float.fromhex(c) for c in got[1]))
        normal = surface_normal(point, spec)
        assert _hex(tangent_basis(point, normal)) == _hex(_ref_tangent_basis(point, normal)), i
        projected += 1
    assert projected == n


def _frame_outcome(fn, p, normal):
    """The frame by float.hex, or the text of the ValueError. float.hex
    reads every nan as 'nan': the sign bit of a nan that a float operation
    returns is the C compiler's choice of operand order, and the kernel and
    the loop form already differ there."""
    try:
        return _hex(fn(SpherePoint(p), normal))
    except ValueError as exc:
        return str(exc)


def _unit(k, sign=1.0):
    return tuple(sign if i == k else 0.0 for i in range(N_VARS))


_INF, _NAN = math.inf, math.nan
FRAME_EDGE_CASES = {
    # signed zeros in p and in the normal
    "signed-zeros": ((0.6, -0.0, 0.8, 0.0, -0.0, 0.0), (-0.0, 1.0, 0.0, -0.0, 0.0, -0.0)),
    "signed-zeros-mixed": ((-0.0, 0.6, -0.0, -0.8, 0.0, -0.0), (0.0, -0.0, -0.6, -0.0, -0.8, 0.0)),
    "negative-zero-normal": ((0.0, 0.0, 0.0, 0.0, 0.0, 1.0), (-0.0, -0.0, -0.0, -1.0, -0.0, -0.0)),
    # p = +-e_k, so seed e_k leaves a zero residual and is skipped
    **{f"p=e{k}": (_unit(k), _unit((k + 1) % N_VARS)) for k in range(N_VARS)},
    **{f"p=-e{k}": (_unit(k, -1.0), _unit((k + 2) % N_VARS, -1.0)) for k in range(N_VARS)},
    "p=e0-tilted-normal": (_unit(0), (0.0, 0.6, 0.0, -0.8, 0.0, 0.0)),
    # the normal equal to p: only its own seed is skipped
    "normal=p": (_unit(2), _unit(2)),
    # non-finite coordinates
    "nan-in-p": ((0.6, _NAN, 0.8, 0.0, 0.0, 0.0), _unit(1)),
    "inf-in-p": ((_INF, 1.0, 0.0, 0.0, 0.0, 0.0), _unit(2)),
    "minus-inf-in-normal": (_unit(4), (0.0, -_INF, 0.0, 0.0, 0.0, 0.0)),
    "nan-in-normal": ((0.0, 0.6, 0.0, 0.8, 0.0, 0.0), (_NAN, 0.0, 0.0, 0.0, 0.0, 1.0)),
}


@pytest.mark.parametrize("case", sorted(FRAME_EDGE_CASES))
def test_frame_matches_the_loop_form_on_edge_inputs(case):
    """tangent_basis bit for bit against the loop form: signed zeros,
    coordinate axes whose own seed is skipped, and non-finite coordinates,
    which fill the frame with nans."""
    p, normal = FRAME_EDGE_CASES[case]
    assert _frame_outcome(tangent_basis, p, normal) == _frame_outcome(_ref_tangent_basis, p, normal)


@pytest.mark.parametrize("start, level, kind", [
    (None, cartan_level(math.pi / 8), "ok"),  # the near-focal start
    ((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.5, "FocalPointError"),
    ((0.9, -0.1, 0.2, 0.3, -0.2, 0.1), 2.0, "ProjectionError"),
])
def test_projection_outcome_and_error_text_match_the_loop_form(start, level, kind):
    """The start next to the focal set that needs 7 halvings, a start on the
    top level's focal set, and a level the quartic never reaches."""
    if start is None:
        start = sample_on_sphere(RngStream(300059).split(52))[0].coords
    spec = LevelSpec(cartan_field(), level)
    got = _outcome(project_to_level, start, spec)
    assert got[0] == kind
    assert got == _outcome(_ref_project_to_level, start, spec)


# The focal certificate of the projection: where it passes, the tangential
# gradient norm that the full check computes is at least FOCAL_EPS.


def _check_norm(x, grad):
    """(xx, xg, gg) as project_to_level forms them, and the norm its full
    focal check computes through the unit vector."""
    xx, xg, gg = (left_sum(map(mul, a, b)) for a, b in ((x, x), (x, grad), (grad, grad)))
    unit = tuple(c / math.sqrt(xx) for c in x)
    return (xx, xg, gg), _tangential_gradient(grad, unit)[2]


def _straddling_pair(rng, tangential):
    """A near-unit x and a gradient whose component orthogonal to x has
    norm about `tangential`, beside a radial part of random size."""
    x = [rng.gauss(0.0, 1.0) for _ in range(N_VARS)]
    n = math.sqrt(sum(c * c for c in x))
    scale = 1.0 + rng.uniform(-1e-3, 1e-3)
    x = [c / n * scale for c in x]
    v = [rng.gauss(0.0, 1.0) for _ in range(N_VARS)]
    t = sum(a * b for a, b in zip(v, x)) / sum(c * c for c in x)
    v = [a - t * b for a, b in zip(v, x)]
    nv = math.sqrt(sum(c * c for c in v))
    radial = rng.choice((0.0, 10.0 ** rng.uniform(-12, 12)))
    return x, [radial * a + tangential * b / nv for a, b in zip(x, v)]


def test_focal_certificate_never_passes_a_focal_iterate():
    """10^4 seeded pairs: half with a tangential part log-uniform from 1e-12
    to 1e-7 beside a radial part up to 1e12 (where rounding swamps the
    tangential part), half fully random at scales 1e-6 to 1e6. Every pair
    the certificate passes has a computed norm of at least FOCAL_EPS, and
    both outcomes of the full check occur among the pairs it does not pass."""
    rng = random.Random(28)
    passed = fallback_focal = fallback_clear = 0
    for i in range(10_000):
        if i % 2:
            x, grad = _straddling_pair(rng, 10.0 ** rng.uniform(-12, -7))
        else:
            x = [rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-1, 1) for _ in range(N_VARS)]
            grad = [rng.gauss(0.0, 1.0) * 10.0 ** rng.uniform(-6, 6) for _ in range(N_VARS)]
        sums, norm = _check_norm(x, grad)
        if _focal_certified(*sums):
            assert norm >= FOCAL_EPS, (x, grad)
            passed += 1
        elif norm < FOCAL_EPS:
            fallback_focal += 1
        else:
            fallback_clear += 1
    assert passed > 5000 and fallback_focal > 500 and fallback_clear > 500


@pytest.mark.parametrize("radial", [0.0, 1e-30, 1e-12, 1.0])
def test_focal_certificate_at_its_threshold(radial):
    """Pairs planted across both thresholds: a tangential part t from 0.5 to
    4 FOCAL_EPS along e_2 at x = e_1. With no radial part the certificate
    passes exactly where t^2 > 4e-20 (1 + 1e-12) + rounding, so near t =
    2 FOCAL_EPS; a unit radial part keeps it from passing at all, since
    1e-12 gg is far above t^2."""
    x = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    outcomes = []
    for k in range(351):
        t = FOCAL_EPS * (0.5 + k / 100)
        sums, norm = _check_norm(x, (radial, t, 0.0, 0.0, 0.0, 0.0))
        certified = _focal_certified(*sums)
        assert not certified or norm >= FOCAL_EPS, t
        outcomes.append(certified)
    if radial <= 1e-12:
        first = outcomes.index(True)
        assert all(outcomes[first:]) and not any(outcomes[:first])
        assert 2.0 * FOCAL_EPS <= FOCAL_EPS * (0.5 + first / 100) <= 2.02 * FOCAL_EPS
    else:
        assert not any(outcomes)


@pytest.mark.parametrize("x, grad", [
    ((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0, math.inf, 0.0, 0.0, 0.0, 0.0)),
    ((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), (math.inf, math.inf, 0.0, 0.0, 0.0, 0.0)),
    ((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0, math.nan, 0.0, 0.0, 0.0, 0.0)),
    ((1e40, 0.0, 0.0, 0.0, 0.0, 0.0), (1e150, 1e-10, 0.0, 0.0, 0.0, 0.0)),
    ((math.nan, 1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 1.0, 0.0, 0.0, 0.0)),
    ((1e-60, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)),
    ((1e60, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)),
], ids=["gg-inf", "inf-inf", "nan", "xg-squared-overflows", "x-nan", "xx-tiny", "xx-huge"])
def test_focal_certificate_defers_non_finite_and_extreme_input(x, grad):
    """An inf or nan in gg or xg * xg, or x.x outside (1e-100, 1e100), makes
    the certificate fail, so the full check runs."""
    xx, xg, gg = (left_sum(map(mul, a, b)) for a, b in ((x, x), (x, grad), (grad, grad)))
    assert not _focal_certified(xx, xg, gg)


def test_equator_projection_needs_no_full_focal_check(monkeypatch):
    """On the equator every Newton iterate is certified, so the unit vector
    and its tangential gradient are never formed there."""
    calls = []

    def counted(grad, p):
        calls.append(p)
        return _tangential_gradient(grad, p)

    monkeypatch.setattr(sphere, "_tangential_gradient", counted)
    for i in range(200):
        start, _ = sample_on_sphere(RngStream(2828).split(i))
        project_to_level(start.coords, EQUATOR)
    assert calls == []


def _assert_equals_the_constructed(record):
    """record equals, hashes, prints and lists its fields as the one its
    class's __init__ builds from the same values, and its fields are frozen."""
    cls = type(record)
    built = cls(**{f.name: getattr(record, f.name) for f in dataclasses.fields(record)})
    assert record == built and hash(record) == hash(built) and repr(record) == repr(built)
    assert vars(record) == vars(built) and list(vars(record)) == list(vars(built))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, dataclasses.fields(record)[0].name, None)


# Every constructor bypass in the package: the module and the class it fills with
# object.__new__ in place of its checked __init__. Each one was priced
# against the constructor it skips (CHANGES.md), so a new one fails here
# until it is priced and listed.
_BYPASSES = [("eigen", "SymMat4"), ("rng", "RngStream"), ("shape", "CurvatureReport"), ("sphere", "TangentFrame")]

_BYPASS_SPECS = {
    "equator": EQUATOR,
    "cartan": LevelSpec(cartan_field(), cartan_level(math.pi / 8)),
    "m13": LevelSpec(polynomial_field({(2, 0, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0, 0): 1}), 0.25),
    "m22": LevelSpec(polynomial_field({(2, 0, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0, 0): 1, (0, 0, 2, 0, 0, 0): 1}), 0.5),
}


@pytest.mark.parametrize("name", sorted(_BYPASS_SPECS))
def test_records_filled_without_init_equal_the_constructed_ones(name):
    """Every object.__new__ fill in the package is one of _BYPASSES, and
    each fill of the point pipeline (the stream after sample_on_sphere,
    frame_at's frame, second_form's matrix and curvature_report's record)
    equals the record its class's constructor builds from the same values,
    so passes that constructor's checks. frame_at fills only base and
    normal; the first read of vectors (here the getattr that builds the
    twin) computes and stores the basis."""
    found = []
    for path in sorted(Path(sphere.__file__).parent.glob("*.py")):
        text = path.read_text()
        names = re.findall(r"object\.__new__\((\w+)\)", text)
        assert len(names) == text.count("object.__new__("), path.name
        found += [(path.stem, cls) for cls in names]
    assert found == _BYPASSES
    # a fill skips __post_init__, so a check these two gain must be priced
    assert not hasattr(TangentFrame, "__post_init__") and not hasattr(CurvatureReport, "__post_init__")
    spec = _BYPASS_SPECS[name]
    records = []
    for i in range(5):
        stream = RngStream(34).split(i)
        start, after = sample_on_sphere(stream)
        comps, drawn = draw_gaussians(stream, N_VARS)
        n = _norm(comps)
        assert start == SpherePoint(tuple(c / n for c in comps)) and after == drawn
        point = project_to_level(start.coords, spec)
        frame = frame_at(point, spec)
        records += [after, frame, second_form(spec, frame), curvature_report(spec, point)]
    # the streams of _sweep_point, from the seeds map_chunks hands it
    records += [_stream(seed) for seed in _child_seeds(34, 0, 5)]
    assert sorted({type(r).__name__ for r in records}) == sorted(cls for _module, cls in _BYPASSES)
    for record in records:
        _assert_equals_the_constructed(record)


def _count_tangent_basis(monkeypatch):
    calls = []

    def counted(p, normal):
        calls.append(p)
        return tangent_basis(p, normal)

    monkeypatch.setattr(sphere, "tangent_basis", counted)
    return calls


@pytest.mark.parametrize("spec, built", [(EQUATOR, 0), (LevelSpec(cartan_field(), cartan_level(math.pi / 8)), 4)],
                         ids=["equator", "cartan"])
def test_a_sweep_builds_the_basis_only_where_the_form_reads_it(monkeypatch, spec, built):
    """second_form returns a linear field's umbilic form without reading the
    frame's basis, so an equator point never builds one; a cartan point
    builds it once."""
    calls = _count_tangent_basis(monkeypatch)
    sweep_analyze(spec, 4, seed=3, workers=1)
    assert len(calls) == built


def _fresh_frames():
    """Frames of equator and cartan points whose basis was never read."""
    cartan = LevelSpec(cartan_field(), cartan_level(math.pi / 8))
    for spec in (EQUATOR, cartan):
        for i in range(3):
            point, _ = sample_level_point(spec, RngStream(37).split(i))
            yield lambda point=point, spec=spec: frame_at(point, spec)


def test_the_frame_builds_its_basis_on_first_read_and_stores_it(monkeypatch):
    calls = _count_tangent_basis(monkeypatch)
    for fresh in _fresh_frames():
        frame = fresh()
        assert "vectors" not in vars(frame) and calls == []
        vectors = frame.vectors
        assert len(calls) == 1 and vars(frame)["vectors"] is vectors
        assert frame.vectors is vectors and len(calls) == 1
        assert _hex(vectors) == _hex(tangent_basis(frame.base, frame.normal))
        calls.clear()


def test_an_unread_frame_acts_as_the_constructed_one():
    """==, hash, repr, copy and pickle of a frame whose basis was never read
    are those of TangentFrame(base, normal, vectors); any other missing name
    is still missing, and the basis stays frozen."""
    for fresh in _fresh_frames():
        frame = fresh()
        built = TangentFrame(frame.base, frame.normal, tangent_basis(frame.base, frame.normal))
        assert fresh() == built and built == fresh()
        assert hash(fresh()) == hash(built) and repr(fresh()) == repr(built)
        assert copy.copy(fresh()) == built and pickle.loads(pickle.dumps(fresh())) == built
        assert not hasattr(fresh(), "nope")
        with pytest.raises(AttributeError, match="^'TangentFrame' object has no attribute 'nope'$"):
            fresh().nope
        with pytest.raises(dataclasses.FrozenInstanceError):
            fresh().vectors = built.vectors


def test_sample_on_sphere_redraws_from_the_stream_after_a_tiny_draw(monkeypatch):
    """A draw of norm at most 1e-8 is dropped, and the point comes from the
    stream after it, as draw_gaussians would hand it on."""
    expected = sample_on_sphere(RngStream(34, 17))
    gaussians = sphere._gaussians
    draws = []

    def tiny_first(seed, counter, n):
        draws.append(counter)
        return (0.0,) * n if len(draws) == 1 else gaussians(seed, counter, n)

    monkeypatch.setattr(sphere, "_gaussians", tiny_first)
    assert sample_on_sphere(RngStream(34, 5)) == expected and draws == [5, 17]
