"""Curvature invariants of level surfaces in the unit 5-sphere, a catalog of
the closed-form constant-curvature models, and exact rational verification of
the algebraic identities behind their classification."""

import types

from .catalog import (
    CheckResult,
    IsoModel,
    all_models,
    cartan_level,
    cartan_model,
    checks_passed,
    clifford_model,
    equator_model,
    model_check,
)
from .eigen import SymMat4, sym_eigen
from .exact import Surd, as_rational, matrix_rank, solve_linear
from .fields import (
    N_VARS,
    ScalarField,
    cartan_field,
    coordinate_field,
    eval1,
    eval2,
    hess_terms,
    polynomial_field,
)
from .identities import (
    IDENTITY_NAMES,
    DerivativeTable,
    IdentityVerdict,
    Quadruple,
    I_closed,
    I_def,
    diag_from_K,
    diag_from_system,
    dpsi_coeff,
    g2_solve,
    g3_kernel,
    gauss_R,
    recover_curvatures,
    run_identity_sweep,
    sign_lemma,
)
from .report import REPORT_SCHEMA, SCHEMA_VERSION, build_report, to_csv, to_json
from .rng import (
    RngStream,
    draw_gaussian,
    draw_gaussians,
    draw_int,
    draw_rational,
    draw_rationals,
)
from .shape import (
    VERDICTS,
    CurvatureReport,
    SurfaceStats,
    curvature_report,
    fit_theta0,
    second_form,
    sweep_analyze,
)
from .sphere import (
    FocalPointError,
    LevelSpec,
    ProjectionError,
    SpherePoint,
    TangentFrame,
    frame_at,
    project_to_level,
    sample_level_point,
    sample_on_sphere,
    surface_normal,
    tangent_basis,
)

__version__ = "0.1.0"

# Every public name imported above, except the submodules, then the version.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
) + ["__version__"]
