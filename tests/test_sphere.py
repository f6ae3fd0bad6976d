"""Constraint projection, frames, and sampling on the unit 5-sphere."""

import math
from operator import mul

import pytest

from spherecurv import (
    N_VARS,
    FocalPointError,
    LevelSpec,
    ProjectionError,
    RngStream,
    SpherePoint,
    cartan_field,
    cartan_level,
    coordinate_field,
    eval1,
    frame_at,
    polynomial_field,
    project_to_level,
    sample_level_point,
    sample_on_sphere,
    surface_normal,
    tangent_basis,
)
from spherecurv.sphere import _MAX_HALVINGS, _MAX_ITER, FOCAL_EPS

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
    p = project_to_level((0.9, -0.1, 0.2, 0.3, -0.2, 0.1), QUARTIC_HALF, tol=1e-12)
    assert abs(_norm(p.coords) - 1.0) <= 1e-12
    assert _residual(QUARTIC_HALF, p.coords) <= 1e-12


def test_projection_is_idempotent():
    p = project_to_level((0.9, -0.1, 0.2, 0.3, -0.2, 0.1), QUARTIC_HALF, tol=1e-13)
    q = project_to_level(p.coords, QUARTIC_HALF, tol=1e-13)
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


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
def test_projection_tol_must_be_positive_and_finite(bad):
    """At tol = inf the start point, 0.40 off the level, would come back
    unprojected; at nan the stall check would never fire."""
    with pytest.raises(ValueError, match="tol"):
        project_to_level((0.9, -0.1, 0.2, 0.3, -0.2, 0.1), QUARTIC_HALF, tol=bad)


def test_quadric_level_projection():
    quadric = LevelSpec(
        polynomial_field({(2, 0, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0, 0): 1}),
        0.25,
    )
    p = project_to_level((0.4, 0.3, 0.5, 0.2, -0.6, 0.1), quadric, tol=1e-13)
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
