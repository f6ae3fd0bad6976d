"""Acceptance checklist: one test per numbered criterion, run in order.

Each test prints exactly one line, `criterion N PASS: ...` or
`criterion N FAIL: ...`, before asserting, so the pytest summary doubles as
the acceptance report. Criteria with a stated runtime budget time the actual
command or sweep.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp

from spherecurv import (
    DerivativeTable,
    LevelSpec,
    Quadruple,
    RngStream,
    TangentFrame,
    all_models,
    cartan_field,
    cartan_level,
    coordinate_field,
    curvature_report,
    dpsi_coeff,
    draw_gaussian,
    frame_at,
    g2_solve,
    gauss_R,
    I_closed,
    polynomial_field,
    recover_curvatures,
    run_identity_sweep,
    sample_level_point,
    second_form,
    sym_eigen,
)
from fieldtools import expanded_quartic, poly_scale

SEED = 0
SRC = Path(__file__).resolve().parent.parent / "src"


def _report(num: int, checks: list[tuple[bool, str]]) -> None:
    ok = all(flag for flag, _ in checks)
    shown = [d for _, d in checks] if ok else [d for flag, d in checks if not flag]
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: " + "; ".join(shown))
    assert ok, f"criterion {num} failed: {shown}"


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "spherecurv.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))),
    )


def test_criterion_01_minimal_quartic_member():
    t0 = time.perf_counter()
    proc = _run_cli(
        "analyze", "--surface", "cartan", "--t", "pi/8",
        "--samples", "1000", "--seed", str(SEED),
    )
    elapsed = time.perf_counter() - t0
    res = json.loads(proc.stdout)["results"]

    # Per-point invariants not aggregated in the report, recomputed over the
    # same 1000 child streams the sweep used.
    spec = LevelSpec(cartan_field(), cartan_level(math.pi / 8))
    root = RngStream(SEED)
    worst_f3 = worst_k = worst_theta = 0.0
    for idx in range(1000):
        point, _ = sample_level_point(spec, root.split(idx))
        rep = curvature_report(spec, point)
        worst_f3 = max(worst_f3, abs(rep.f3))
        worst_k = max(worst_k, abs(rep.K - 1.0))
        theta_dev = math.inf if rep.theta0 is None else abs(rep.theta0 - math.pi / 8)
        worst_theta = max(worst_theta, theta_dev)

    s_dev = max(abs(res["s_min"] - 12.0), abs(res["s_max"] - 12.0))
    checks = [
        (proc.returncode == 0, f"exit {proc.returncode}"),
        (res["verdict"] == "cartan", f"verdict {res['verdict']}"),
        (res["n_failures"] == 0, f"{res['n_failures']} projection failures"),
        (res["max_abs_f1"] <= 1e-8, f"max|f1|={res['max_abs_f1']:.2e}"),
        (s_dev <= 1e-6, f"max|S-12|={s_dev:.2e}"),
        (res["g_histogram"] == {"4": 1000}, f"g histogram {res['g_histogram']}"),
        (
            abs(res["theta0_mean"] - math.pi / 8) <= 1e-6,
            f"|mean theta0 - pi/8|={abs(res['theta0_mean'] - math.pi / 8):.2e}",
        ),
        (worst_theta <= 1e-6, f"max|theta0-pi/8|={worst_theta:.2e}"),
        (worst_f3 <= 1e-6, f"max|f3|={worst_f3:.2e}"),
        (worst_k <= 1e-6, f"max|K-1|={worst_k:.2e}"),
        (elapsed <= 30.0, f"{elapsed:.1f}s (budget 30s)"),
    ]
    _report(1, checks)


def test_criterion_02_nonminimal_control():
    proc = _run_cli(
        "analyze", "--surface", "cartan", "--t", "0.3",
        "--samples", "200", "--seed", str(SEED),
    )
    res = json.loads(proc.stdout)["results"]
    checks = [
        (proc.returncode == 0, f"exit {proc.returncode}"),
        (res["max_abs_f1"] > 1e-3, f"max|f1|={res['max_abs_f1']:.4f}>1e-3"),
        (res["verdict"] == "non_isoparametric", f"verdict {res['verdict']}"),
    ]
    _report(2, checks)


def test_criterion_03_catalog_values():
    proc = _run_cli("catalog")
    entries = json.loads(proc.stdout)["results"]
    s_values = [e["model"]["S"] for e in entries]
    r_values = [e["model"]["R"] for e in entries]
    every_check = all(c["passed"] for e in entries for c in e["checks"])
    checks = [
        (proc.returncode == 0, f"exit {proc.returncode}"),
        (s_values == [0, 4, 4, 12], f"S={s_values}"),
        (r_values == [12, 8, 8, 0], f"R={r_values}"),
        (every_check and all(e["all_passed"] for e in entries), "all model checks true"),
    ]
    _report(3, checks)


def test_criterion_04_two_curvature_solutions():
    (lam13, mu13), branch13 = g2_solve(1, 4)
    (lam22, mu22), branch22 = g2_solve(2, 4)
    dev = max(
        abs(float(lam13) - math.sqrt(3)),
        abs(float(mu13) + 1 / math.sqrt(3)),
        abs(float(lam22) - 1.0),
        abs(float(mu22) + 1.0),
    )
    exact = True
    for k, S in ((1, F(4)), (2, F(4))):
        for lam, mu in g2_solve(k, S):
            exact = exact and (k * lam + (4 - k) * mu).is_zero()
            exact = exact and k * lam.squared() + (4 - k) * mu.squared() == S
    checks = [
        (dev <= 1e-12, f"max float deviation {dev:.2e}"),
        (exact, "both branches solve the system exactly"),
        (branch13 == (-lam13, -mu13), "sign branch structure"),
    ]
    _report(4, checks)


def test_criterion_05_three_curvature_kernel():
    t0 = time.perf_counter()
    verdict = run_identity_sweep("g3", 1000, seed=SEED)
    elapsed = time.perf_counter() - t0
    checks = [
        (verdict.failures == 0, f"{verdict.failures} failures in {verdict.trials} trials"),
        (elapsed <= 5.0, f"{elapsed:.2f}s (budget 5s)"),
    ]
    _report(5, checks)


def test_criterion_06_vandermonde_structure():
    t0 = time.perf_counter()
    verdict = run_identity_sweep("vandermonde", 10_000, seed=SEED)
    elapsed = time.perf_counter() - t0
    checks = [
        (verdict.failures == 0, f"{verdict.failures} failures in {verdict.trials} trials"),
        (verdict.exact, "exact arithmetic"),
        (elapsed <= 60.0, f"{elapsed:.1f}s (budget 60s)"),
    ]
    _report(6, checks)


def test_criterion_07_interaction_closed_forms():
    t0 = time.perf_counter()
    verdict = run_identity_sweep("i-closed", 10_000, seed=SEED)
    elapsed = time.perf_counter() - t0
    checks = [
        (verdict.failures == 0, f"{verdict.failures} failures in {verdict.trials} trials"),
        (verdict.exact, "exact arithmetic"),
        (True, f"{elapsed:.1f}s"),
    ]
    _report(7, checks)


def test_criterion_08_sign_lemma():
    t0 = time.perf_counter()
    verdict = run_identity_sweep("i-sign", 100_000, seed=SEED)
    elapsed = time.perf_counter() - t0
    checks = [
        (verdict.failures == 0, f"{verdict.failures} failures in {verdict.trials} trials"),
        (elapsed <= 120.0, f"{elapsed:.1f}s (budget 120s)"),
    ]
    _report(8, checks)


def test_criterion_09_divergence_coefficient():
    t0 = time.perf_counter()
    verdict = run_identity_sweep("dpsi", 10_000, seed=SEED)
    elapsed = time.perf_counter() - t0
    table = DerivativeTable(
        Quadruple((F(-2), F(1, 3), F(1), F(7, 2))),
        (F(2), F(-1), F(1, 5), F(3)),
        (F(1), F(-2), F(3, 7), F(5)),
    )
    spot = dpsi_coeff(table) == gauss_R(table.lam) / 2 - sum(I_closed(table.lam, table.K))
    checks = [
        (
            verdict.failures == 0,
            f"{verdict.failures} failures in {verdict.trials} trials (random mixed terms)",
        ),
        (verdict.exact, "exact arithmetic"),
        (spot, "explicit nonzero-mixed table matches gauss_R/2 - sum(I_l)"),
        (True, f"{elapsed:.1f}s"),
    ]
    _report(9, checks)


def test_criterion_10_invariant_recovery():
    roots_a = recover_curvatures(F(0), F(12), F(0), F(1))
    r2 = math.sqrt(2)
    expected_a = sorted([-(r2 + 1), -(r2 - 1), r2 - 1, r2 + 1])
    dev_a = max(abs(x - y) for x, y in zip(roots_a, expected_a))

    with mp.workdps(60):
        p3 = 8 * mp.sqrt(3) / 3
        roots_b = recover_curvatures(F(0), F(4), p3, F(-1, 3), dps=60)
    s3 = math.sqrt(3)
    expected_b = [-1 / s3, -1 / s3, -1 / s3, s3]
    dev_b = max(abs(x - y) for x, y in zip(roots_b, expected_b))

    checks = [
        (dev_a <= 1e-9, f"symmetric pair case deviation {dev_a:.2e}"),
        (dev_b <= 1e-9, f"triple root case deviation {dev_b:.2e}"),
    ]
    _report(10, checks)


def _negated(spec: LevelSpec, neg_field) -> LevelSpec:
    return LevelSpec(neg_field, -spec.level)


def _rotation_from(stream: RngStream):
    cols = []
    for _ in range(4):
        col = []
        for _ in range(4):
            g, stream = draw_gaussian(stream)
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


def test_criterion_11_orientation_and_frame_invariance():
    quartic = expanded_quartic()
    quadric = polynomial_field({(2, 0, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0, 0): 1})
    axis = polynomial_field({(0, 0, 0, 0, 0, 1): 1})
    families = [
        (LevelSpec(cartan_field(), cartan_level(math.pi / 8)), poly_scale(quartic, -1)),
        (LevelSpec(cartan_field(), cartan_level(0.3)), poly_scale(quartic, -1)),
        (LevelSpec(quadric, 0.25), poly_scale(quadric, -1)),
        (LevelSpec(coordinate_field(5), 0.0), poly_scale(axis, -1)),
    ]
    per_family = 125
    tol = 1e-10
    worst_flip = 0.0
    worst_frame = 0.0
    n_points = 0
    for fam_idx, (spec, neg_field) in enumerate(families):
        flipped = _negated(spec, neg_field)
        root = RngStream(1000 + fam_idx)
        for idx in range(per_family):
            point, stream = sample_level_point(spec, root.split(idx))
            rep = curvature_report(spec, point)
            rep_f = curvature_report(flipped, point)
            devs = [
                abs(rep_f.f1 + rep.f1),
                abs(rep_f.f3 + rep.f3),
                abs(rep_f.f2 - rep.f2),
                abs(rep_f.f4 - rep.f4),
                abs(rep_f.K - rep.K),
                abs(rep_f.R - rep.R),
            ]
            mirrored = tuple(-v for v in reversed(rep.lambdas))
            devs.extend(abs(a - b) for a, b in zip(rep_f.lambdas, mirrored))
            worst_flip = max(worst_flip, max(devs))

            frame = frame_at(point, spec)
            rot = _rotation_from(stream)
            rotated = tuple(
                tuple(
                    sum(rot[a][b] * frame.vectors[b][i] for b in range(4))
                    for i in range(6)
                )
                for a in range(4)
            )
            new_frame = TangentFrame(base=frame.base, normal=frame.normal, vectors=rotated)
            vals, _ = sym_eigen(second_form(spec, new_frame))
            worst_frame = max(
                worst_frame, max(abs(a - b) for a, b in zip(vals, rep.lambdas))
            )
            n_points += 1

    checks = [
        (n_points == 500, f"{n_points} points across {len(families)} surfaces"),
        (worst_flip <= tol, f"worst orientation-flip deviation {worst_flip:.2e}"),
        (worst_frame <= tol, f"worst frame-rotation deviation {worst_frame:.2e}"),
    ]
    _report(11, checks)
