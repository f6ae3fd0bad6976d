"""Which functions the traced run wraps, and the per-layer metrics read from them.

Every target is named as the calling module binds it, so the wrapper sits on
the call the program actually makes. Per-layer metrics come from the spans of
workers-1 operations only: with a process pool the work runs in child
processes whose spans never reach this one.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracer import Span, self_times

IDENTITIES = ("g2", "g3", "vandermonde", "i-closed", "i-sign", "dpsi", "recover")


def _draws_advanced(args, result) -> int:
    """Stream counter advance of one sample_on_sphere call."""
    return result[1].counter - args[0].counter


TARGETS = [
    ("spherecurv.cli.sweep_analyze", None),
    ("spherecurv.cli.run_identity_sweep", None),
    ("spherecurv.cli.model_check", None),
    ("spherecurv.cli.to_json", None),
    ("spherecurv.cli.to_csv", None),
    ("spherecurv.shape.sample_level_point", None),
    ("spherecurv.shape.curvature_report", None),
    ("spherecurv.shape.frame_at", None),
    ("spherecurv.shape.second_form", None),
    ("spherecurv.shape.eval2", None),
    ("spherecurv.shape.sym_eigen", None),
    ("spherecurv.shape.fit_theta0", None),
    ("spherecurv.sphere.sample_on_sphere", _draws_advanced),
    ("spherecurv.sphere.project_to_level", None),
    ("spherecurv.sphere.eval1", None),
    ("spherecurv.identities.draw_rational", None),
    ("spherecurv.identities.draw_int", None),
    ("spherecurv.identities._draw_distinct_quadruple", None),
    ("spherecurv.identities.I_closed", None),
    ("spherecurv.identities.I_def", None),
    ("spherecurv.identities.diag_from_K", None),
    ("spherecurv.identities.diag_from_system", None),
    ("spherecurv.identities.dpsi_coeff", None),
    ("spherecurv.identities.g2_solve", None),
    ("spherecurv.identities.g3_kernel", None),
    ("spherecurv.identities.recover_curvatures", None),
    ("spherecurv.identities.solve_linear", None),
    ("spherecurv.identities.matrix_rank", None),
]

# Per-call mean durations: metric name -> span name.
_MEAN_US = {
    "sphere.sample_us": "spherecurv.sphere.sample_on_sphere",
    "sphere.project_us": "spherecurv.sphere.project_to_level",
    "sphere.frame_us": "spherecurv.shape.frame_at",
    "fields.eval1_us": "spherecurv.sphere.eval1",
    "fields.eval2_us": "spherecurv.shape.eval2",
    "shape.fit_theta0_us": "spherecurv.shape.fit_theta0",
    "shape.second_form_us": "spherecurv.shape.second_form",
    "eigen.sym_eigen_us": "spherecurv.shape.sym_eigen",
    "identities.I_closed_us": "spherecurv.identities.I_closed",
    "identities.I_def_us": "spherecurv.identities.I_def",
    "identities.diag_from_K_us": "spherecurv.identities.diag_from_K",
    "identities.diag_from_system_us": "spherecurv.identities.diag_from_system",
    "identities.dpsi_coeff_us": "spherecurv.identities.dpsi_coeff",
    "identities.g2_solve_us": "spherecurv.identities.g2_solve",
    "identities.g3_kernel_us": "spherecurv.identities.g3_kernel",
    "identities.recover_curvatures_us": "spherecurv.identities.recover_curvatures",
    "exact.solve_linear_us": "spherecurv.identities.solve_linear",
    "exact.matrix_rank_us": "spherecurv.identities.matrix_rank",
}
_DRAWS = ("spherecurv.identities.draw_rational", "spherecurv.identities.draw_int")
_QUAD = "spherecurv.identities._draw_distinct_quadruple"

# Every per-layer metric the traced run prints, with its unit, in BENCHMARK.json order.
PER_LAYER = (
    [("rng.draws_per_point", "count")]
    + [(f"rng.draw_us_per_trial.{i}", "us") for i in IDENTITIES]
    + [
        ("rng.accept_ratio", "ratio"),
        ("sphere.sample_us", "us"),
        ("sphere.project_us", "us"),
        ("sphere.frame_us", "us"),
        ("fields.eval1_calls_per_point", "count"),
        ("fields.eval1_us", "us"),
        ("fields.eval2_us", "us"),
        ("shape.fit_theta0_us", "us"),
        ("shape.second_form_us", "us"),
        ("shape.sweep_self_us", "us"),
        ("shape.scipy_import_s", "s"),
        ("shape.pool_startup_s", "s"),
        ("eigen.sym_eigen_us", "us"),
        ("identities.I_closed_us", "us"),
        ("identities.I_def_us", "us"),
        ("identities.diag_from_K_us", "us"),
        ("identities.diag_from_system_us", "us"),
        ("identities.dpsi_coeff_us", "us"),
        ("identities.g2_solve_us", "us"),
        ("identities.g3_kernel_us", "us"),
        ("identities.recover_curvatures_us", "us"),
    ]
    + [(f"identities.check_us_per_trial.{i}", "us") for i in IDENTITIES]
    + [
        ("identities.pool_startup_s", "s"),
        ("pool.parallel_efficiency", "ratio"),
        ("exact.solve_linear_us", "us"),
        ("exact.matrix_rank_us", "us"),
        ("catalog.model_check_ms", "ms"),
        ("report.emit_us", "us"),
        ("machine.ref_ms", "ms"),
        ("trace.overhead_pct.points_per_s", "%"),
    ]
    + [(f"trace.overhead_pct.trials_per_s.{i}", "%") for i in IDENTITIES]
)


@dataclass(frozen=True)
class OpInfo:
    """What one traced operation ran: the sample key, its size and worker count."""

    key: str
    n: int
    workers: int


def layer_metrics(spans: list[Span], ops: dict[int, OpInfo]) -> dict[str, float]:
    """Per-layer metrics derived from spans; a metric whose spans are absent reads 0."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    counts: dict[str, int] = {}
    draw_ns: dict[str, int] = {}
    sweep_ns: dict[str, int] = {}
    sweep_self_ns = 0
    quad_ids = set()
    kept = []
    for span in spans:
        sid, _parent, op, name, start, end, count = span
        info = ops.get(op)
        if info is None or info.workers != 1:
            continue
        kept.append(span)
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + (end - start)
        if count is not None:
            counts[name] = counts.get(name, 0) + count
        if name in _DRAWS:
            draw_ns[info.key] = draw_ns.get(info.key, 0) + (end - start)
        elif name == "spherecurv.cli.run_identity_sweep":
            sweep_ns[info.key] = sweep_ns.get(info.key, 0) + (end - start)
        elif name == "spherecurv.cli.sweep_analyze":
            sweep_self_ns += selfs[sid]
        elif name == _QUAD:
            quad_ids.add(sid)
    trials: dict[str, int] = {}
    catalog_runs = 0
    for info in ops.values():
        if info.workers != 1:
            continue
        if info.key in IDENTITIES:
            trials[info.key] = trials.get(info.key, 0) + info.n
        elif info.key == "catalog":
            catalog_runs += 1
    quad_draws = sum(1 for s in kept if s[3] == "spherecurv.identities.draw_rational" and s[1] in quad_ids)

    def mean_us(name: str) -> float:
        return total_ns.get(name, 0) / calls[name] / 1e3 if calls.get(name) else 0.0

    points = calls.get("spherecurv.shape.sample_level_point", 0)
    out: dict[str, float] = {}
    out["rng.draws_per_point"] = (
        counts.get("spherecurv.sphere.sample_on_sphere", 0) / calls["spherecurv.sphere.sample_on_sphere"]
        if calls.get("spherecurv.sphere.sample_on_sphere") else 0.0
    )
    for ident in IDENTITIES:
        n = trials.get(ident, 0)
        draw = draw_ns.get(ident, 0)
        out[f"rng.draw_us_per_trial.{ident}"] = draw / n / 1e3 if n else 0.0
        out[f"identities.check_us_per_trial.{ident}"] = (sweep_ns.get(ident, 0) - draw) / n / 1e3 if n else 0.0
    out["rng.accept_ratio"] = 4 * len(quad_ids) / quad_draws if quad_draws else 0.0
    out["fields.eval1_calls_per_point"] = calls.get("spherecurv.sphere.eval1", 0) / points if points else 0.0
    out["shape.sweep_self_us"] = sweep_self_ns / points / 1e3 if points else 0.0
    for metric, name in _MEAN_US.items():
        out[metric] = mean_us(name)
    model_check_ns = total_ns.get("spherecurv.cli.model_check", 0)
    out["catalog.model_check_ms"] = model_check_ns / catalog_runs / 1e6 if catalog_runs else 0.0
    emits = calls.get("spherecurv.cli.to_json", 0) + calls.get("spherecurv.cli.to_csv", 0)
    emit_ns = total_ns.get("spherecurv.cli.to_json", 0) + total_ns.get("spherecurv.cli.to_csv", 0)
    out["report.emit_us"] = emit_ns / emits / 1e3 if emits else 0.0
    return out
