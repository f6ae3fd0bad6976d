"""Closed hypersurfaces of S^5 with constant principal curvatures and f1 = 0.

Four members, indexed by the number g of distinct curvatures:

  g = 1  equator: great 4-sphere, totally geodesic, S = 0
  g = 2  product tori S^r(sqrt(r)/2) x S^s(sqrt(s)/2) for (r,s) = (1,3), (2,2),
         curvatures sqrt(s/r) (mult r) and -sqrt(r/s) (mult s), S = 4
  g = 4  the homogeneous quartic-form member with curvatures
         cot(pi/8 + (k-1)pi/4), all multiplicities 1, S = 12

Curvatures are stored as exact closed forms and evaluated on demand with
mpmath; model_check re-verifies every structural invariant at 60 digits
rather than trusting the constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .fields import cartan_field, coordinate_field
from .rng import _require_int
from .sphere import LevelSpec

_DEFAULT_DPS = 50


def _eval_form(form: tuple, dps: int):
    """Evaluate a curvature closed-form tag at dps decimal digits."""
    import mpmath as mp

    with mp.workdps(dps):
        kind = form[0]
        if kind == "rational":
            q: Fraction = form[1]
            return mp.mpf(q.numerator) / q.denominator
        if kind == "sqrt":
            coef, rad = form[1], form[2]
            return (mp.mpf(coef.numerator) / coef.denominator) * mp.sqrt(
                mp.mpf(rad.numerator) / rad.denominator
            )
        if kind == "cot":
            a: Fraction = form[1]
            return mp.cot(mp.pi * a.numerator / a.denominator)
        raise ValueError(f"unknown closed form {form!r}")


def _form_str(form: tuple) -> str:
    kind = form[0]
    if kind == "rational":
        return str(form[1])
    if kind == "sqrt":
        coef, rad = form[1], form[2]
        base = f"sqrt({rad})"
        if coef == 1:
            return base
        if coef == -1:
            return f"-{base}"
        return f"{coef}*{base}"
    if kind == "cot":
        a: Fraction = form[1]
        if a.numerator == 1:
            return f"cot(pi/{a.denominator})"
        return f"cot({a.numerator}*pi/{a.denominator})"
    raise ValueError(f"unknown closed form {form!r}")


@dataclass(frozen=True)
class IsoModel:
    """One catalog member. Curvature forms are ordered by descending value."""

    name: str
    g: int
    multiplicities: tuple[int, ...]
    curvature_forms: tuple[tuple, ...]
    theta0_over_pi: Fraction | None
    S_expected: int
    field_spec: LevelSpec | None = None

    def distinct_curvatures(self) -> list:
        return [_eval_form(f, _DEFAULT_DPS) for f in self.curvature_forms]

    @property
    def theta0(self) -> float | None:
        if self.theta0_over_pi is None:
            return None
        return math.pi * float(self.theta0_over_pi)

    @property
    def R_expected(self) -> int:
        return 12 - self.S_expected

    def describe(self) -> dict:
        return {
            "name": self.name,
            "g": self.g,
            "multiplicities": list(self.multiplicities),
            "curvatures": [float(v) for v in self.distinct_curvatures()],
            "curvature_forms": [_form_str(f) for f in self.curvature_forms],
            "S": self.S_expected,
            "R": self.R_expected,
            "theta0": self.theta0,
            "field": self.field_spec.field.describe() if self.field_spec else None,
            "level": self.field_spec.level if self.field_spec else None,
        }


def equator_model() -> IsoModel:
    return IsoModel(
        name="equator",
        g=1,
        multiplicities=(4,),
        curvature_forms=(("rational", Fraction(0)),),
        theta0_over_pi=Fraction(1, 2),
        S_expected=0,
        field_spec=LevelSpec(field=coordinate_field(5), level=0.0),
    )


def clifford_model(r: int, s: int) -> IsoModel:
    """Minimal product torus S^r x S^s, radii sqrt(r)/2 and sqrt(s)/2."""
    _require_int(r=r, s=s)
    if r + s != 4 or not 1 <= r <= s:
        raise ValueError(f"need r+s=4 with 1 <= r <= s, got ({r},{s})")
    # cot(theta0) = sqrt(s/r):  (1,3) -> pi/6, (2,2) -> pi/4
    theta0 = {1: Fraction(1, 6), 2: Fraction(1, 4)}[r]
    return IsoModel(
        name=f"clifford_{r}_{s}",
        g=2,
        multiplicities=(r, s),
        curvature_forms=(
            ("sqrt", Fraction(1), Fraction(s, r)),
            ("sqrt", Fraction(-1), Fraction(r, s)),
        ),
        theta0_over_pi=theta0,
        S_expected=4,
        field_spec=None,
    )


def cartan_model() -> IsoModel:
    return IsoModel(
        name="cartan",
        g=4,
        multiplicities=(1, 1, 1, 1),
        curvature_forms=tuple(("cot", Fraction(2 * k + 1, 8)) for k in range(4)),
        theta0_over_pi=Fraction(1, 8),
        S_expected=12,
        field_spec=LevelSpec(field=cartan_field(), level=0.5),
    )


def all_models() -> list[IsoModel]:
    return [equator_model(), clifford_model(1, 3), clifford_model(2, 2), cartan_model()]


def cartan_level(t: float) -> float:
    """Level value of the quartic field on the family member at angle t."""
    if not 0.0 < t < math.pi / 4:
        raise ValueError(f"t must lie strictly inside (0, pi/4), got {t}")
    return math.cos(2.0 * t) ** 2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def model_check(model: IsoModel) -> list[CheckResult]:
    """Re-verify every structural invariant of a model at high precision.

    Closed forms are evaluated at dps + 10 digits, dps = _DEFAULT_DPS = 50;
    analytic identities must hold to 10^-(dps-10) = 1e-40, integer
    identities exactly.
    """
    dps = _DEFAULT_DPS
    import mpmath as mp

    results: list[CheckResult] = []
    tol = mp.mpf(10) ** (-(dps - 10))

    def add(name: str, passed: bool, detail: str) -> None:
        results.append(CheckResult(name, bool(passed), detail))

    g = model.g
    mults = model.multiplicities
    add(
        "distinct_count",
        len(mults) == g == len(model.curvature_forms),
        f"g={g}, |mults|={len(mults)}, |forms|={len(model.curvature_forms)}",
    )
    add("multiplicity_sum", sum(mults) == 4, f"sum={sum(mults)}")
    period_ok = all(mults[k] == mults[(k + 2) % g] for k in range(g))
    add("multiplicity_period", period_ok, f"mults={mults}")
    add(
        "s_matches_g",
        model.S_expected == 4 * (g - 1),
        f"S={model.S_expected}, 4(g-1)={4 * (g - 1)}",
    )
    add(
        "nonnegative_R",
        model.R_expected >= 0,
        f"R=12-S={model.R_expected}",
    )

    with mp.workdps(dps + 10):
        lams = [_eval_form(f, dps + 10) for f in model.curvature_forms]
        descending = all(a > b for a, b in zip(lams, lams[1:]))
        add("descending_order", descending or g == 1, f"values={[float(v) for v in lams]}")

        f1 = mp.fsum(m * lam for m, lam in zip(mults, lams))
        add("minimality", abs(f1) < tol, f"|sum m_k lam_k| = {mp.nstr(abs(f1), 3)}")

        s_val = mp.fsum(m * lam * lam for m, lam in zip(mults, lams))
        add(
            "s_value",
            abs(s_val - model.S_expected) < tol,
            f"|sum m_k lam_k^2 - S| = {mp.nstr(abs(s_val - model.S_expected), 3)}",
        )

        if model.theta0_over_pi is not None:
            t0 = mp.pi * model.theta0_over_pi.numerator / model.theta0_over_pi.denominator
            worst = mp.mpf(0)
            for k, lam in enumerate(lams):
                ladder = mp.cot(t0 + mp.pi * k / g)
                worst = max(worst, abs(lam - ladder))
            add("cot_ladder", worst < tol, f"max |lam_k - cot(theta0 + (k-1)pi/g)| = {mp.nstr(worst, 3)}")

    return results


def checks_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
