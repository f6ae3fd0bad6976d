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
from typing import Sequence

from .fields import N_VARS, ScalarField, eval1
from .rng import _MASK64, RngStream, _gaussians, _require_real, _stream

FOCAL_EPS = 1e-10
_SEED_SKIP_EPS = 1e-6
_MAX_ITER = 50  # Newton steps per projection
_TOL = 1e-12  # residual target of a projection
# Step halvings per Newton step. Start points next to the focal set of the
# quartic need more than a few: one with F ~ 5e-5 needs 7.
_MAX_HALVINGS = 12
# Gram-Schmidt seeds of tangent_basis: the coordinate vectors e_1..e_6.
_SEEDS = tuple(tuple(float(i == k) for i in range(N_VARS)) for k in range(N_VARS))


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

    def __post_init__(self) -> None:
        _require_real(self.level, "level")
        # max() in the projection's residual drops a NaN, so a NaN level
        # would hand back the start point unprojected
        if isinstance(self.level, float) and not math.isfinite(self.level):
            raise ValueError(f"level must be finite, got {self.level}")


@dataclass(frozen=True)
class SpherePoint:
    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != N_VARS:
            raise ValueError("points live in R^6")


@dataclass(frozen=True)
class TangentFrame:
    """Base point, unit normal inside the sphere, and orthonormal 4-frame.

    frame_at leaves vectors unset: its first read computes
    tangent_basis(base, normal) and stores it, so a frame whose basis is
    never read (that of a linear field in second_form) never builds it.
    """

    base: SpherePoint
    normal: tuple[float, ...]
    # no default: a class attribute would be found before __getattr__ runs
    vectors: tuple[tuple[float, ...], ...]

    def __getattr__(self, name: str):
        # runs only for a name the instance lacks
        if name != "vectors":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        vectors = self.__dict__["vectors"] = tangent_basis(self.base, self.normal)
        return vectors


def _norm(a: Sequence[float]) -> float:
    a0, a1, a2, a3, a4, a5 = a
    return math.sqrt(0 + a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 + a5 * a5)


def _tangential_gradient(grad: Sequence[float], p: Sequence[float]) -> tuple:
    """(<grad, p>, P grad, |P grad|), P the projection orthogonal to unit p."""
    g0, g1, g2, g3, g4, g5 = grad
    p0, p1, p2, p3, p4, p5 = p
    gp = 0 + g0 * p0 + g1 * p1 + g2 * p2 + g3 * p3 + g4 * p4 + g5 * p5
    tang = (
        g0 - gp * p0, g1 - gp * p1, g2 - gp * p2, g3 - gp * p3, g4 - gp * p4, g5 - gp * p5
    )
    return gp, tang, _norm(tang)


def _focal_certified(xx: float, xg: float, gg: float) -> bool:
    """True when the projection's focal check provably passes: the norm
    that _tangential_gradient(grad, x / sqrt(xx)) computes is at least
    FOCAL_EPS. xx, xg and gg are x.x, x.grad and grad.grad, each summed left
    to right from int 0 as project_to_level forms them.

    Exactly, T^2 = |P grad|^2 = gg - xg^2 / xx. Let u = 2^-53. With xx in
    (1e-100, 1e100), a term that underflows is negligible next to the bounds
    below, and each 6-term sum is within 6u / (1 - 6u) of its value, for xg
    relative to |x| |grad|. The product, quotient and difference round once
    each, so the computed gg - xg * xg / xx is within 30u gg of T^2, and
    passing the test gives T^2 > 3.99e-20 + 0.99e-12 gg: T > 1.99e-10 and
    T > 0.99e-6 |grad|. The norm the check computes rounds the square root
    of xx, the unit vector, the dot product and the subtractions, which
    moves it at most 20u |grad| < 3e-9 T from T, then the last sum and the
    square root, a relative 4u more: it is above 1.98e-10 > FOCAL_EPS.
    An inf or nan in gg or xg * xg makes the test false, so such an iterate
    takes the full check.
    """
    return 1e-100 < xx < 1e100 and gg - xg * xg / xx > 4e-20 + 1e-12 * gg


def project_to_level(x0: Sequence[float], spec: LevelSpec) -> SpherePoint:
    """Newton-project x0 onto {|x| = 1} intersect {F = level}.

    Each step solves the linearized pair of constraints inside the 2-plane
    spanned by the current position and the field gradient, with step halving
    when a full step would grow the residual. Raises ProjectionError when the
    residual target _TOL is not met, and FocalPointError when an iterate's
    tangential gradient vanishes.
    """
    if len(x0) != N_VARS:
        raise ValueError("start point must have 6 components")
    tol = _TOL
    x = tuple(map(float, x0))
    level = spec.level
    value, grad = eval1(spec.field, x)
    p0, p1, p2, p3, p4, p5 = x
    xx = 0 + p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3 + p4 * p4 + p5 * p5
    if xx == 0.0:
        raise ValueError("cannot project the origin")
    c1, c2 = xx - 1.0, value - level
    res = max(abs(c1), abs(c2))
    for _ in range(_MAX_ITER):
        if res <= tol:
            break
        # Directions: current position and field gradient.
        g0, g1, g2, g3, g4, g5 = grad
        xg = 0 + p0 * g0 + p1 * g1 + p2 * g2 + p3 * g3 + p4 * g4 + p5 * g5
        gg = 0 + g0 * g0 + g1 * g1 + g2 * g2 + g3 * g3 + g4 * g4 + g5 * g5
        a11, a12, a21, a22 = 2.0 * xx, 2.0 * xg, xg, gg
        det = a11 * a22 - a12 * a21
        if xx == 0.0:
            raise ProjectionError("iterate collapsed to the origin", res)
        # The unit vector and its tangential gradient only where the
        # certificate cannot show that the focal check passes.
        if abs(det) < 1e-300 or not _focal_certified(xx, xg, gg):
            norm_x = math.sqrt(xx)
            unit = (p0 / norm_x, p1 / norm_x, p2 / norm_x, p3 / norm_x, p4 / norm_x, p5 / norm_x)
            tangential_grad = _tangential_gradient(grad, unit)[2]
            if abs(det) < 1e-300 or tangential_grad < FOCAL_EPS:
                raise FocalPointError(
                    f"degenerate tangential gradient ({tangential_grad:.3e}) during projection"
                )
        alpha = (-c1 * a22 + c2 * a12) / det
        beta = (-a11 * c2 + a21 * c1) / det
        step = 1.0
        for _halving in range(_MAX_HALVINGS):
            # trial = (x + step alpha x) + step beta grad
            sa, sb = step * alpha, step * beta
            y0, y1, y2 = p0 + sa * p0 + sb * g0, p1 + sa * p1 + sb * g1, p2 + sa * p2 + sb * g2
            y3, y4, y5 = p3 + sa * p3 + sb * g3, p4 + sa * p4 + sb * g4, p5 + sa * p5 + sb * g5
            trial = (y0, y1, y2, y3, y4, y5)
            tvalue, tgrad = eval1(spec.field, trial)
            txx = 0 + y0 * y0 + y1 * y1 + y2 * y2 + y3 * y3 + y4 * y4 + y5 * y5
            t1, t2 = txx - 1.0, tvalue - level
            tres = max(abs(t1), abs(t2))
            if tres < res or tres <= tol:
                p0, p1, p2, p3, p4, p5 = trial
                xx, c1, c2, grad, res = txx, t1, t2, tgrad, tres
                break
            step *= 0.5
        else:
            break  # no useful step; report non-convergence below
    if res > tol:
        raise ProjectionError(
            f"projection stalled at residual {res:.3e} (target {tol:.1e})", res
        )
    return SpherePoint((p0, p1, p2, p3, p4, p5))


def surface_normal(p: SpherePoint, spec: LevelSpec) -> tuple[float, ...]:
    """Unit normal of the level surface inside the sphere: PgradF/|PgradF|."""
    _, grad = eval1(spec.field, p.coords)
    _, (t0, t1, t2, t3, t4, t5), n = _tangential_gradient(grad, p.coords)
    if n < FOCAL_EPS:
        raise FocalPointError(f"tangential gradient {n:.3e} below {FOCAL_EPS:.0e}")
    return (t0 / n, t1 / n, t2 / n, t3 / n, t4 / n, t5 / n)


def tangent_basis(p: SpherePoint, normal: Sequence[float]) -> tuple[tuple[float, ...], ...]:
    """Orthonormal basis of the 4-space orthogonal to both p and the normal.

    Deterministic Gram-Schmidt over the coordinate seeds e_1..e_6 in order;
    a seed whose residual norm falls below 1e-6 is skipped, so the frame is a
    reproducible function of (p, normal).
    """
    if len(normal) != N_VARS:
        raise ValueError(f"normal must have {N_VARS} components, got {len(normal)}")
    # p and the normal, then the basis vectors as they are found.
    anchors = [tuple(p.coords), tuple(normal)]
    for seed in _SEEDS:
        if len(anchors) == N_VARS:
            break
        v0, v1, v2, v3, v4, v5 = seed
        # two passes over the anchors; the second stabilizes near-dependent seeds
        for a0, a1, a2, a3, a4, a5 in anchors * 2:
            t = -(0 + v0 * a0 + v1 * a1 + v2 * a2 + v3 * a3 + v4 * a4 + v5 * a5)
            v0, v1, v2 = v0 + t * a0, v1 + t * a1, v2 + t * a2
            v3, v4, v5 = v3 + t * a3, v4 + t * a4, v5 + t * a5
        n = math.sqrt(0 + v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3 + v4 * v4 + v5 * v5)
        if n < _SEED_SKIP_EPS:
            continue
        anchors.append((v0 / n, v1 / n, v2 / n, v3 / n, v4 / n, v5 / n))
    if len(anchors) != N_VARS:
        raise ValueError("could not complete a tangent 4-frame from coordinate seeds")
    return tuple(anchors[2:])


def frame_at(p: SpherePoint, spec: LevelSpec) -> TangentFrame:
    """Frame at p with its basis left to its first read."""
    normal = surface_normal(p, spec)
    # TangentFrame has no __post_init__, so filling its fields directly
    # skips no check and saves the frozen __init__'s setattr per field
    frame = object.__new__(TangentFrame)
    frame.__dict__.update(base=p, normal=normal)
    return frame


def sample_on_sphere(stream: RngStream) -> tuple[SpherePoint, RngStream]:
    """Uniform point on the unit 5-sphere via normalized Gaussians: the
    values of draw_gaussians(stream, 6), redrawn from the stream after them
    while their norm is at most 1e-8."""
    seed, counter = stream.seed, stream.counter
    while True:
        comps = _gaussians(seed, counter, N_VARS)
        counter += 2 * N_VARS
        n = _norm(comps)
        if n > 1e-8:
            c0, c1, c2, c3, c4, c5 = comps
            # the counter masked as RngStream(seed, counter) masks it
            return SpherePoint((c0 / n, c1 / n, c2 / n, c3 / n, c4 / n, c5 / n)), _stream(seed, counter & _MASK64)


def sample_level_point(spec: LevelSpec, stream: RngStream) -> tuple[SpherePoint, RngStream]:
    """One random point of the level surface: sphere sample then projection."""
    start, stream = sample_on_sphere(stream)
    return project_to_level(start.coords, spec), stream
