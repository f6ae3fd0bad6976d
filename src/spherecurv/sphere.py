"""Geometry of level hypersurfaces of the unit sphere in R^6.

A LevelSpec pairs a scalar field F with a target value c; the surface under
study is {x : |x| = 1, F(x) = c}. Everything here works with the tangential
gradient PgradF, the component of grad F orthogonal to the position vector:
points where it vanishes are focal points of the family, where the
hypersurface degenerates and no frame exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .fields import N_VARS, ScalarField, eval1
from .rng import RngStream, draw_gaussians

FOCAL_EPS = 1e-10
_SEED_SKIP_EPS = 1e-6
_MAX_ITER = 50  # Newton steps per projection
# Step halvings per Newton step. Start points next to the focal set of the
# quartic need more than a few: one with F ~ 5e-5 needs 7.
_MAX_HALVINGS = 12


class FocalPointError(ValueError):
    """Tangential gradient below threshold: the level surface is singular here."""


class ProjectionError(RuntimeError):
    """Newton projection failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class LevelSpec:
    field: ScalarField
    level: float

    def residual(self, x: Sequence[float]) -> float:
        """max of the two constraint residuals at x."""
        value, _ = eval1(self.field, x)
        return max(abs(_dot(x, x) - 1.0), abs(value - self.level))


@dataclass(frozen=True)
class SpherePoint:
    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != N_VARS:
            raise ValueError("points live in R^6")


@dataclass(frozen=True)
class TangentFrame:
    """Base point, unit normal inside the sphere, and orthonormal 4-frame."""

    base: SpherePoint
    normal: tuple[float, ...]
    vectors: tuple[tuple[float, ...], ...]


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(map(mul, a, b))


def _norm(a: Sequence[float]) -> float:
    return math.sqrt(_dot(a, a))


def _axpy(a: Sequence[float], t: float, b: Sequence[float]) -> list[float]:
    return [x + t * y for x, y in zip(a, b)]


def _tangential_gradient(grad: Sequence[float], p: Sequence[float]) -> tuple:
    """(<grad, p>, P grad, |P grad|), P the projection orthogonal to unit p."""
    gp = _dot(grad, p)
    tang = [g - gp * c for g, c in zip(grad, p)]
    return gp, tang, _norm(tang)


def project_to_level(
    x0: Sequence[float],
    spec: LevelSpec,
    tol: float = 1e-12,
) -> SpherePoint:
    """Newton-project x0 onto {|x| = 1} intersect {F = level}.

    Each step solves the linearized pair of constraints inside the 2-plane
    spanned by the current position and the field gradient, with step halving
    when a full step would grow the residual. Raises ValueError unless tol is
    positive and finite, ProjectionError when the residual target tol is not
    met, and FocalPointError when an iterate's tangential gradient vanishes.
    """
    if len(x0) != N_VARS:
        raise ValueError("start point must have 6 components")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    x = [float(c) for c in x0]

    def residuals(pt: Sequence[float]) -> tuple[float, float, float, tuple[float, ...]]:
        """(|pt|^2, |pt|^2 - 1, F(pt) - level, grad F(pt))."""
        value, grad = eval1(spec.field, pt)
        xx = _dot(pt, pt)
        return xx, xx - 1.0, value - spec.level, grad

    xx, c1, c2, grad = residuals(x)
    if xx == 0.0:
        raise ValueError("cannot project the origin")
    res = max(abs(c1), abs(c2))
    for _ in range(_MAX_ITER):
        if res <= tol:
            break
        # Directions: current position and field gradient.
        xg, gg = _dot(x, grad), _dot(grad, grad)
        a11, a12, a21, a22 = 2.0 * xx, 2.0 * xg, xg, gg
        det = a11 * a22 - a12 * a21
        norm_x = math.sqrt(xx)
        if norm_x == 0.0:
            raise ProjectionError("iterate collapsed to the origin", res)
        unit = [c / norm_x for c in x]
        tangential_grad = _tangential_gradient(grad, unit)[2]
        if abs(det) < 1e-300 or tangential_grad < FOCAL_EPS:
            raise FocalPointError(
                f"degenerate tangential gradient ({tangential_grad:.3e}) during projection"
            )
        alpha = (-c1 * a22 + c2 * a12) / det
        beta = (-a11 * c2 + a21 * c1) / det
        step = 1.0
        for _halving in range(_MAX_HALVINGS):
            trial = _axpy(_axpy(x, step * alpha, x), step * beta, grad)
            txx, t1, t2, tgrad = residuals(trial)
            tres = max(abs(t1), abs(t2))
            if tres < res or tres <= tol:
                x, xx, c1, c2, grad, res = trial, txx, t1, t2, tgrad, tres
                break
            step *= 0.5
        else:
            break  # no useful step; report non-convergence below
    if res > tol:
        raise ProjectionError(
            f"projection stalled at residual {res:.3e} (target {tol:.1e})", res
        )
    return SpherePoint(tuple(x))


def surface_normal(p: SpherePoint, spec: LevelSpec) -> tuple[float, ...]:
    """Unit normal of the level surface inside the sphere: PgradF/|PgradF|."""
    _, grad = eval1(spec.field, p.coords)
    _, tang, n = _tangential_gradient(grad, p.coords)
    if n < FOCAL_EPS:
        raise FocalPointError(f"tangential gradient {n:.3e} below {FOCAL_EPS:.0e}")
    return tuple([v / n for v in tang])


def tangent_basis(p: SpherePoint, normal: Sequence[float]) -> tuple[tuple[float, ...], ...]:
    """Orthonormal basis of the 4-space orthogonal to both p and the normal.

    Deterministic Gram-Schmidt over the coordinate seeds e_1..e_6 in order;
    a seed whose residual norm falls below 1e-6 is skipped, so the frame is a
    reproducible function of (p, normal).
    """
    # p and the normal, then the basis vectors as they are found.
    anchors = [tuple(p.coords), tuple(normal)]
    for k in range(N_VARS):
        if len(anchors) == N_VARS:
            break
        vec = [0.0] * N_VARS
        vec[k] = 1.0
        # second pass stabilizes near-dependent seeds
        for _pass in range(2):
            for anchor in anchors:
                t = -sum(map(mul, vec, anchor))
                vec = [v + t * a for v, a in zip(vec, anchor)]
        n = _norm(vec)
        if n < _SEED_SKIP_EPS:
            continue
        anchors.append(tuple([v / n for v in vec]))
    if len(anchors) != N_VARS:
        raise ValueError("could not complete a tangent 4-frame from coordinate seeds")
    return tuple(anchors[2:])


def frame_at(p: SpherePoint, spec: LevelSpec) -> TangentFrame:
    normal = surface_normal(p, spec)
    return TangentFrame(base=p, normal=normal, vectors=tangent_basis(p, normal))


def sample_on_sphere(stream: RngStream) -> tuple[SpherePoint, RngStream]:
    """Uniform point on the unit 5-sphere via normalized Gaussians."""
    while True:
        comps, stream = draw_gaussians(stream, N_VARS)
        n = _norm(comps)
        if n > 1e-8:
            return SpherePoint(tuple([c / n for c in comps])), stream


def sample_level_point(spec: LevelSpec, stream: RngStream) -> tuple[SpherePoint, RngStream]:
    """One random point of the level surface: sphere sample then projection."""
    start, stream = sample_on_sphere(stream)
    return project_to_level(start.coords, spec), stream
