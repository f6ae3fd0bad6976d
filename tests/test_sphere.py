"""Constraint projection, frames, and sampling on the unit 5-sphere."""

import math

import pytest

from spherecurv import (
    FocalPointError,
    LevelSpec,
    ProjectionError,
    RngStream,
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


def _norm(v):
    return math.sqrt(sum(c * c for c in v))


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
    assert abs(QUARTIC_HALF.residual(p.coords)) <= 1e-12


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
        assert abs(QUARTIC_HALF.residual(p.coords)) <= 1e-12


def test_start_next_to_focal_set_projects():
    """This start has F ~ 5e-5 against level 1/2; its first step needs 7 halvings."""
    spec = LevelSpec(cartan_field(), cartan_level(math.pi / 8))
    point, _ = sample_level_point(spec, RngStream(300059).split(52))
    assert spec.residual(point.coords) <= 1e-12


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
