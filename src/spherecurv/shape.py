"""Second fundamental form and curvature invariants of sphere level surfaces.

For a unit-sphere point p on {F = c} with unit tangential-gradient normal nu,
the second fundamental form against an orthonormal tangent frame {e_a} is

    h(e_a, e_b) = (HessF(e_a, e_b) - <gradF, p> delta_ab) / |PgradF|,

the intrinsic spherical Hessian of F scaled by the tangential gradient norm.
Its eigenvalues are the principal curvatures; this module turns them into the
scalar invariants used for classification (power sums, Gauss-Kronecker
product, scalar curvature, the number of distinct curvatures, and the angle
offset of the cotangent ladder when the pattern allows one).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Sequence

from .catalog import all_models
from .eigen import SymMat4, _from_floats, sym_eigen
from .fields import eval2, hess_terms
from .rng import _require_real, _stream, map_chunks
from .sphere import (
    FOCAL_EPS,
    FocalPointError,
    LevelSpec,
    ProjectionError,
    SpherePoint,
    TangentFrame,
    _tangential_gradient,
    frame_at,
    sample_level_point,
)

S_TOL = 1e-6  # allowed deviation of S from a catalog value
F3_TOL = 1e-6  # allowed spread of f3 over a sweep's points, so that f3 counts as constant
CLUSTER_TOL = 1e-4  # eigenvalue gap that separates distinct curvatures
MAX_FAILURE_FRACTION = 0.10  # share of failed projections a sweep tolerates

_MODELS = all_models()


@dataclass(frozen=True)
class CurvatureReport:
    """Principal-curvature invariants at one surface point.

    lambdas are ascending. distinct/multiplicities are ordered by descending
    curvature value, matching the lambda_1 > ... > lambda_g convention of the
    cotangent ladder cot(theta0 + (k-1)pi/g).
    """

    point: tuple[float, ...]
    lambdas: tuple[float, float, float, float]
    f1: float
    f2: float
    f3: float
    f4: float
    S: float
    K: float
    R: float
    g: int
    distinct: tuple[float, ...]
    multiplicities: tuple[int, ...]
    theta0: float | None = None
    theta0_residual: float | None = None


@dataclass(frozen=True)
class SurfaceStats:
    """Aggregate of a random sweep over one level surface."""

    n_points: int
    n_failures: int
    max_abs_f1: float
    s_mean: float
    s_min: float
    s_max: float
    f3_mean: float
    f3_spread: float
    g_histogram: dict[int, int]
    theta0_mean: float | None
    verdict: str
    failure_samples: tuple[str, ...] = field(default=())


def second_form(spec: LevelSpec, frame: TangentFrame) -> SymMat4:
    """Second fundamental form matrix in the given tangent frame.

    Orientation follows the +tangential-gradient normal; flipping the normal
    negates the matrix.
    """
    p = frame.base.coords
    _, grad, hess = eval2(spec.field, p)
    gp, _, nt = _tangential_gradient(grad, p)
    if nt < FOCAL_EPS:
        raise FocalPointError(f"tangential gradient {nt:.3e} below {FOCAL_EPS:.0e}")
    terms = hess_terms(hess)
    if not terms:
        # a linear field: each entry's sum is int 0, minus gp on the diagonal
        d, z = (0 - gp) / nt, 0 / nt
        return _from_floats(d, z, z, z, d, z, z, d, z, d)
    upper = []
    vectors = frame.vectors
    for a in range(4):
        ea = vectors[a]
        for b in range(a, 4):
            eb = vectors[b]
            # ea^T H eb over the nonzero upper entries only. For finite
            # vectors a zero entry's term is a zero of either sign, and adding
            # one cannot change a sum that starts at int 0, which is never
            # -0.0; so the sum has the bits of the one over every entry.
            val = 0
            for h, (i, j) in terms:
                val += h * ea[i] * eb[i] if i == j else h * (ea[i] * eb[j] + ea[j] * eb[i])
            if a == b:
                val -= gp
            upper.append(val / nt)
    return _from_floats(*upper)


def _cluster(ascending: Sequence[float]) -> list[list[float]]:
    groups: list[list[float]] = [[ascending[0]]]
    for v in ascending[1:]:
        if v - groups[-1][-1] <= CLUSTER_TOL:
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups


def misfit_derivatives(vals: Sequence[float], g: int, theta: float) -> tuple[float, float]:
    """First and second theta-derivatives of the ladder misfit sum_k gap_k^2,
    gap_k = lambda_k - cot(a_k), a_k = theta + (k-1)pi/g. With s_k, c_k = sin,
    cos a_k: d1 = sum 2 gap_k/s_k^2 and d2 = sum 2/s_k^4 - 4 gap_k c_k/s_k^3."""
    step = math.pi / g
    d1 = d2 = 0.0
    for k, lam in enumerate(vals):
        angle = theta + k * step
        s, c = math.sin(angle), math.cos(angle)
        gap = lam - c / s
        d1 += 2.0 * gap / (s * s)
        d2 += 2.0 / (s * s * s * s) - 4.0 * gap * c / (s * s * s)
    return d1, d2


def fit_theta0(distinct: Sequence[float]) -> tuple[float, float]:
    """Least-squares angle offset for lambda_k = cot((k-1)pi/g + theta0).

    `distinct` holds the g >= 1 distinct curvature values, finite and in
    strictly descending order; ValueError otherwise, and also when the
    misfit leaves the float range. Returns (theta0,
    residual) where residual is the root of the summed squared misfit. For
    g = 1 the ladder is the single value cot(theta0) = 0, so theta0 = pi/2
    and the residual is |lambda|.
    """
    vals = [float(v) for v in distinct]
    g = len(vals)
    if not vals or not all(map(math.isfinite, vals)):
        raise ValueError("distinct curvatures must be a nonempty list of finite values")
    if g == 1:
        return math.pi / 2, abs(vals[0])
    if any(a <= b for a, b in zip(vals, vals[1:])):
        raise ValueError("distinct curvatures must be strictly descending")

    step = math.pi / g

    def misfit(theta: float) -> float:
        acc = 0.0
        # float ** raises OverflowError where * would give inf
        try:
            for k, lam in enumerate(vals):
                angle = theta + k * step
                acc += (lam - math.cos(angle) / math.sin(angle)) ** 2
        except OverflowError:
            raise ValueError(f"distinct curvatures too large for the ladder fit: {vals}") from None
        return acc

    # A coarse scan pins the basin; Newton on the misfit's derivative polishes
    # inside the neighbouring grid points, bisecting when a step would leave them.
    lo, hi = 1e-9, step - 1e-9
    n_grid = 256
    best_k = min(range(n_grid + 1), key=lambda k: misfit(lo + (hi - lo) * k / n_grid))
    width = (hi - lo) / n_grid
    theta = lo + width * best_k
    left, right = max(lo, theta - width), min(hi, theta + width)
    for _ in range(100):
        d1, d2 = misfit_derivatives(vals, g, theta)
        left, right = (left, theta) if d1 > 0.0 else (theta, right)
        if d2 > 0.0 and abs(d1) < 1e-15 * d2:
            theta -= d1 / d2
            break
        candidate = theta - d1 / d2 if d2 > 0.0 else theta
        theta = candidate if left < candidate < right else 0.5 * (left + right)
    return theta, math.sqrt(misfit(theta))


def curvature_report(spec: LevelSpec, point: SpherePoint) -> CurvatureReport:
    """All curvature invariants of the level surface at one point."""
    frame = frame_at(point, spec)
    h = second_form(spec, frame)
    lambdas, _vectors = sym_eigen(h)
    l0, l1, l2, l3 = lambdas
    f1 = l0 + l1 + l2 + l3
    f2 = 0 + l0 * l0 + l1 * l1 + l2 * l2 + l3 * l3
    f3 = 0 + l0**3 + l1**3 + l2**3 + l3**3
    f4 = 0 + l0**4 + l1**4 + l2**4 + l3**4
    S = f2
    K = l0 * l1 * l2 * l3
    R = 12.0 + f1 * f1 - S

    groups = _cluster(lambdas)
    # Each mean's sum runs left to right from int 0 on every Python, as sum()
    # does on 3.11; from 3.12 on sum() compensates float sums.
    distinct_desc = tuple(reduce(add, grp, 0) / len(grp) for grp in reversed(groups))
    mults_desc = tuple(len(grp) for grp in reversed(groups))
    g = len(groups)

    # Every pattern but g = 3 is a ladder; four distinct values have multiplicity 1 each.
    theta0 = residual = None
    if g != 3:
        theta0, residual = fit_theta0(distinct_desc)

    # CurvatureReport has no __post_init__, so filling its fields directly
    # skips no check and saves the frozen __init__'s setattr per field
    rep = object.__new__(CurvatureReport)
    rep.__dict__.update(
        point=point.coords,
        lambdas=lambdas,
        f1=f1,
        f2=f2,
        f3=f3,
        f4=f4,
        S=S,
        K=K,
        R=R,
        g=g,
        distinct=distinct_desc,
        multiplicities=mults_desc,
        theta0=theta0,
        theta0_residual=residual,
    )
    return rep


def _kahan_sum(values: Sequence[float]) -> float:
    """Compensated sum, so aggregation order does not leak into the total."""
    total = carry = 0.0
    for x in values:
        y = x - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def _sweep_point(seed: int, spec: LevelSpec) -> tuple:
    """(True, f1, S, f3, g, multiplicities, theta0) at the point drawn from
    the stream RngStream(seed), or (False, message) when no point can be
    sampled there. seed comes from map_chunks, an int below 2^64, so the
    stream is filled without the checked constructor."""
    try:
        point, _ = sample_level_point(spec, _stream(seed))
        rep = curvature_report(spec, point)
    except (FocalPointError, ProjectionError) as exc:
        return (False, str(exc))
    return (True, rep.f1, rep.S, rep.f3, rep.g, rep.multiplicities, rep.theta0)


def _classify(ok_rows: list[tuple], max_abs_f1: float, f1_tol: float) -> str:
    """non_isoparametric when max |f1| exceeds f1_tol; otherwise, when f3
    spreads by at most F3_TOL over the rows, the name of the catalog model
    every row matches in (g, multiplicities) and S, if any."""
    if max_abs_f1 > f1_tol:
        return "non_isoparametric"
    f3_vals = [row[4] for row in ok_rows]
    if not max(f3_vals) - min(f3_vals) <= F3_TOL:
        return "inconclusive"
    signatures = {(row[5], tuple(sorted(row[6]))) for row in ok_rows}
    if len(signatures) != 1:
        return "inconclusive"
    (signature,) = signatures
    for model in _MODELS:
        if (model.g, tuple(sorted(model.multiplicities))) == signature and all(
            abs(row[3] - model.S_expected) <= S_TOL for row in ok_rows
        ):
            return model.name
    return "inconclusive"


def sweep_analyze(
    spec: LevelSpec,
    n: int,
    seed: int,
    f1_tol: float = 1e-8,
    workers: int = 1,
) -> SurfaceStats:
    """Sample n surface points and aggregate their curvature invariants.

    f1_tol is the largest max |f1| (four times the mean curvature) still
    treated as minimal; TypeError unless it is a real number other than a
    bool, ValueError unless it is positive and finite. Raises RuntimeError
    when more than MAX_FAILURE_FRACTION of the projections fail; individual
    failures below that are counted and the first few messages kept.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    _require_real(f1_tol, "f1_tol")
    if not (f1_tol > 0.0 and math.isfinite(f1_tol)):
        raise ValueError(f"f1_tol must be a positive finite number, got {f1_tol!r}")

    rows = [(i, *row) for i, row in map_chunks(_sweep_point, n, workers, seed, spec)]
    ok_rows = [r for r in rows if r[1]]
    failures = [f"point {r[0]}: {r[2]}" for r in rows if not r[1]]
    if len(failures) > MAX_FAILURE_FRACTION * n:
        raise RuntimeError(f"{len(failures)}/{n} projections failed; first: {failures[0]}")

    max_abs_f1 = max(abs(r[2]) for r in ok_rows)
    s_vals = [r[3] for r in ok_rows]
    f3_vals = [r[4] for r in ok_rows]
    thetas = [r[7] for r in ok_rows if r[7] is not None]
    return SurfaceStats(
        n_points=len(ok_rows),
        n_failures=len(failures),
        max_abs_f1=max_abs_f1,
        s_mean=_kahan_sum(s_vals) / len(ok_rows),
        s_min=min(s_vals),
        s_max=max(s_vals),
        f3_mean=_kahan_sum(f3_vals) / len(ok_rows),
        f3_spread=max(f3_vals) - min(f3_vals),
        g_histogram=dict(sorted(Counter(r[5] for r in ok_rows).items())),
        theta0_mean=(_kahan_sum(thetas) / len(thetas)) if thetas else None,
        verdict=_classify(ok_rows, max_abs_f1, f1_tol),
        failure_samples=tuple(failures[:3]),
    )
