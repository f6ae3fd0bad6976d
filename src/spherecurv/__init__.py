"""Curvature invariants of level surfaces in the unit 5-sphere, a catalog of
the closed-form constant-curvature models, and exact rational verification of
the algebraic identities behind their classification.

Exports load lazily (PEP 562): `import spherecurv` imports no submodule, and
the first access to an export imports only the submodule that defines it, so
a caller of the catalog never compiles the exact engine or the analyze
pipeline. `_EXPORTS` maps each export to that submodule, and `__all__` is
read from it.
"""

import importlib

# submodule -> the names it exports
_EXPORTS = {
    "catalog": ("CheckResult", "IsoModel", "VERDICTS", "all_models", "cartan_level",
                "cartan_model", "checks_passed", "clifford_model", "equator_model", "model_check"),
    "eigen": ("SymMat4", "sym_eigen"),
    "exact": ("Surd", "as_rational", "matrix_rank", "solve_linear"),
    "fields": ("N_VARS", "ScalarField", "cartan_field", "coordinate_field", "eval1", "eval2",
               "hess_terms", "polynomial_field"),
    "identities": ("IDENTITY_NAMES", "DerivativeTable", "IdentityVerdict", "Quadruple", "I_closed",
                   "I_def", "diag_from_K", "diag_from_system", "dpsi_coeff", "g2_solve", "g3_kernel",
                   "gauss_R", "recover_curvatures", "run_identity_sweep", "sign_lemma"),
    "report": ("REPORT_SCHEMA", "SCHEMA_VERSION", "build_report", "to_csv", "to_json"),
    "rng": ("RngStream", "draw_gaussian", "draw_gaussians", "draw_int", "draw_rational",
            "draw_rationals"),
    "shape": ("CurvatureReport", "SurfaceStats", "curvature_report", "fit_theta0", "second_form",
              "sweep_analyze"),
    "sphere": ("FocalPointError", "LevelSpec", "ProjectionError", "SpherePoint", "TangentFrame",
               "frame_at", "project_to_level", "sample_level_point", "sample_on_sphere",
               "surface_normal", "tangent_basis"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    """Import the export's submodule and bind the export here, so that later
    reads are plain attribute lookups."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
