"""Four-step mediation analysis with surrogate-confounder adjustment.

Steps, all sharing the [intercept | causes | surrogates | covariates] base
design that effects.outcome_design lays out:
  1. outcome on causes (total effects, beta)
  2. mediator on causes (theta)
  3. outcome on mediator alone (does the mediator matter at all?)
  4. outcome on causes plus mediator (direct effects beta_m, lambda)

Because steps 1, 2 and 4 share the base design, OLS guarantees the
decomposition beta = beta_m + lambda * theta coefficient-wise; the fit
verifies it to 1e-8 and refuses to return a report that violates it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CauseMatrix, CovariateMatrix
from .errors import NumericError, ValidationError
from .effects import RegressionReport, _as_vector, check_alpha, ols_fit, outcome_design

MEDIATOR_NAME = "mediator"

STATUS_NO_TOTAL = "no_total_effect"
STATUS_NOT_ESTABLISHED = "not_established"
STATUS_FULL = "fully_mediated"
STATUS_PARTIAL = "partially_mediated"


@dataclass(eq=False)
class MediationReport:
    step1: RegressionReport  # outcome ~ causes (+ surrogates)
    step2: RegressionReport  # mediator ~ causes (+ surrogates)
    step3: RegressionReport  # outcome ~ mediator
    step4: RegressionReport  # outcome ~ causes + mediator (+ surrogates)
    beta_total: np.ndarray
    beta_direct: np.ndarray
    theta: np.ndarray
    lam: float  # mediator coefficient in step 4
    attenuation: np.ndarray  # beta_total - beta_direct
    cause_names: list[str]
    status: dict[str, str]
    decomposition_residual: float

    def to_dict(self) -> dict:
        """The fields as tables.canonical_json writes them, `lam` as "lambda"."""
        doc = dict(vars(self))
        doc["lambda"] = doc.pop("lam")
        return doc


def mediate(
    a: CauseMatrix,
    z: np.ndarray,
    r: np.ndarray,
    y: np.ndarray,
    x: CovariateMatrix | None = None,
    alpha: float = 0.05,
) -> MediationReport:
    """Test whether the causes act on `y` through `r`, each step at level `alpha` in (0, 1)."""
    check_alpha(alpha)
    rv = _as_vector(r)
    yv = _as_vector(y)
    design, base_names, _ = outcome_design(a, z, x, rv, yv)
    if np.array_equal(rv, yv):
        raise ValidationError("mediator and outcome are the identical vector")

    step1 = ols_fit(design, yv, base_names)
    step2 = ols_fit(design, rv, base_names)
    step3 = ols_fit(
        np.column_stack([np.ones((a.n_units, 1)), rv]), yv, ["Intercept", MEDIATOR_NAME]
    )
    step4 = ols_fit(
        np.column_stack([design, rv]), yv, base_names + [MEDIATOR_NAME]
    )

    coefs1 = step1.coefficients()
    coefs2 = step2.coefficients()
    coefs4 = step4.coefficients()
    lam = float(coefs4[-1])
    # exact OLS identity across the shared base design
    residual = float(np.max(np.abs(coefs1 - (coefs4[:-1] + lam * coefs2))))
    if residual > 1e-8:
        raise NumericError(
            f"mediation decomposition failed: max residual {residual:.3e} > 1e-8"
        )

    d = a.n_causes
    beta_total = coefs1[1 : 1 + d]
    beta_direct = coefs4[1 : 1 + d]
    theta = coefs2[1 : 1 + d]

    p3 = step3.row(MEDIATOR_NAME).p_value
    status: dict[str, str] = {}
    for j, name in enumerate(a.column_names):
        p1 = step1.rows[1 + j].p_value
        p2 = step2.rows[1 + j].p_value
        p4 = step4.rows[1 + j].p_value
        if p1 > alpha:
            status[name] = STATUS_NO_TOTAL
        elif p2 > alpha or p3 > alpha:
            status[name] = STATUS_NOT_ESTABLISHED
        elif p4 > alpha:
            status[name] = STATUS_FULL
        else:
            status[name] = STATUS_PARTIAL

    return MediationReport(
        step1=step1,
        step2=step2,
        step3=step3,
        step4=step4,
        beta_total=beta_total,
        beta_direct=beta_direct,
        theta=theta,
        lam=lam,
        attenuation=beta_total - beta_direct,
        cause_names=list(a.column_names),
        status=status,
        decomposition_residual=residual,
    )
