"""Outcome regressions and effect estimates.

ols_fit carries the full inferential load for the package: coefficients
from a rank-revealing solve of the normal equations, classical standard
errors, Student-t p-values (see tdist), and 95% confidence intervals.
The causal estimator regresses the outcome on the causes plus surrogate
confounders; the non-causal one omits the surrogates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import CauseMatrix, CovariateMatrix, OutcomeVector
from .errors import RankDeficiencyError, ValidationError
from .ppca import SurrogateConfounders
from .tdist import t_quantile, t_two_sided_p

CONDITION_LIMIT = 1e10
SIGNIFICANCE_STARS = {"5%": "*", "10%": "**", "none": ""}


def significance_tag(p_value: float) -> str:
    if p_value <= 0.05:
        return "5%"
    if p_value <= 0.10:
        return "10%"
    return "none"


@dataclass
class RegressionRow:
    name: str
    mean: float
    std: float
    t_stat: float
    p_value: float
    ci_low: float
    ci_high: float
    significance: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "mean": self.mean,
            "std": self.std,
            "t_stat": self.t_stat,
            "p_value": self.p_value,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "significance": self.significance,
        }


@dataclass(eq=False)
class RegressionReport:
    rows: list[RegressionRow]  # intercept first
    residual_variance: float
    n: int
    dof: int

    def row(self, name: str) -> RegressionRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def coefficients(self) -> np.ndarray:
        return np.array([r.mean for r in self.rows])

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "residual_variance": self.residual_variance,
            "n": self.n,
            "dof": self.dof,
        }


@dataclass(eq=False)
class CausalEffectEstimate:
    beta: np.ndarray  # cause coefficients, in column order
    gamma: np.ndarray  # surrogate coefficients (empty for non-causal fits)
    cause_names: list[str]
    report: RegressionReport

    def to_dict(self) -> dict:
        return {
            "beta": [float(v) for v in self.beta],
            "gamma": [float(v) for v in self.gamma],
            "cause_names": list(self.cause_names),
            "regression": self.report.to_dict(),
        }


def _as_vector(y) -> np.ndarray:
    values = np.asarray(getattr(y, "values", y), dtype=float)
    if values.ndim != 1:
        raise ValidationError("outcome must be one-dimensional")
    return values


def ols_fit(design: np.ndarray, y, names: list[str] | None = None) -> RegressionReport:
    """Least squares with classical inference.

    `design` must carry the intercept as its first column. Standard
    errors use s^2 (X'X)^-1 with s^2 = RSS / (N - Q - 1); p-values are
    two-sided Student-t. A condition number above 1e10 is treated as
    rank deficiency and reported with the columns implicated.
    """
    x = np.asarray(design, dtype=float)
    yv = _as_vector(y)
    if x.ndim != 2:
        raise ValidationError("design must be two-dimensional")
    n, p = x.shape
    if yv.shape[0] != n:
        raise ValidationError("outcome length disagrees with design")
    if n <= p:
        raise ValidationError(f"need more rows ({n}) than columns ({p})")
    if not np.all(x[:, 0] == 1.0):
        raise ValidationError("first design column must be the intercept (all ones)")
    if names is None:
        names = ["Intercept"] + [f"x{j}" for j in range(1, p)]
    if len(names) != p:
        raise ValidationError("name count disagrees with design width")

    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if s[-1] <= 0.0 or s[0] / s[-1] > CONDITION_LIMIT:
        # columns loading on the smallest singular direction are the culprits
        null_dir = np.abs(vt[-1])
        suspects = [names[j] for j in np.flatnonzero(null_dir > 0.3 * null_dir.max())]
        raise RankDeficiencyError(
            f"design is rank deficient (condition number > {CONDITION_LIMIT:g}); "
            f"collinear columns: {suspects}",
            columns=suspects,
        )

    beta = vt.T @ ((u.T @ yv) / s)
    residuals = yv - x @ beta
    rss = float(residuals @ residuals)
    dof = n - p  # N - Q - 1 with Q = p - 1 predictors
    s2 = rss / dof
    unscaled = (vt.T / s) ** 2  # diag of (X'X)^-1 via the SVD
    var = s2 * unscaled.sum(axis=1)
    std = np.sqrt(var)

    t_crit = t_quantile(0.975, dof)
    rows = []
    for j in range(p):
        if std[j] > 0.0:
            t_stat = float(beta[j] / std[j])
            p_value = t_two_sided_p(t_stat, dof)
        else:
            # perfect fit: the estimate has no sampling noise left
            t_stat = math.inf if beta[j] >= 0 else -math.inf
            p_value = 0.0
        rows.append(
            RegressionRow(
                name=names[j],
                mean=float(beta[j]),
                std=float(std[j]),
                t_stat=t_stat,
                p_value=p_value,
                ci_low=float(beta[j] - t_crit * std[j]),
                ci_high=float(beta[j] + t_crit * std[j]),
                significance=significance_tag(p_value),
            )
        )
    return RegressionReport(rows=rows, residual_variance=s2, n=n, dof=dof)


def _surrogate_design(z: SurrogateConfounders) -> tuple[np.ndarray, list[int]]:
    """Usable surrogate columns: constant ones carry nothing and are dropped."""
    zv = np.asarray(z.values, dtype=float)
    keep = [j for j in range(zv.shape[1]) if np.ptp(zv[:, j]) > 0.0]
    return zv[:, keep], keep


def _check_lengths(n: int, *lengths: int) -> None:
    if any(l != n for l in lengths):
        raise ValidationError("inputs disagree on the number of units")


def estimate_effects_causal(
    a: CauseMatrix,
    z: SurrogateConfounders,
    y: OutcomeVector,
    x: CovariateMatrix | None = None,
) -> CausalEffectEstimate:
    """Regress the outcome on [intercept | causes | surrogates | covariates]."""
    if a.has_missing:
        raise ValidationError("causes must be complete; impute first")
    yv = _as_vector(y)
    zv, kept = _surrogate_design(z)
    _check_lengths(a.n_units, yv.shape[0], z.values.shape[0])
    blocks = [np.ones((a.n_units, 1)), a.values, zv]
    names = ["Intercept"] + list(a.column_names) + [f"z{j + 1}" for j in kept]
    if x is not None:
        _check_lengths(a.n_units, x.values.shape[0])
        blocks.append(x.values)
        names += list(x.column_names)
    report = ols_fit(np.column_stack(blocks), yv, names)
    coefs = report.coefficients()
    d = a.n_causes
    gamma = np.zeros(z.values.shape[1])
    gamma[kept] = coefs[1 + d : 1 + d + len(kept)]
    return CausalEffectEstimate(
        beta=coefs[1 : 1 + d],
        gamma=gamma,
        cause_names=list(a.column_names),
        report=report,
    )


def estimate_effects_noncausal(
    a: CauseMatrix,
    y: OutcomeVector,
    x: CovariateMatrix | None = None,
) -> CausalEffectEstimate:
    """Same regression without the surrogate block (the naive estimator)."""
    if a.has_missing:
        raise ValidationError("causes must be complete; impute first")
    yv = _as_vector(y)
    _check_lengths(a.n_units, yv.shape[0])
    blocks = [np.ones((a.n_units, 1)), a.values]
    names = ["Intercept"] + list(a.column_names)
    if x is not None:
        _check_lengths(a.n_units, x.values.shape[0])
        blocks.append(x.values)
        names += list(x.column_names)
    report = ols_fit(np.column_stack(blocks), yv, names)
    return CausalEffectEstimate(
        beta=report.coefficients()[1 : 1 + a.n_causes],
        gamma=np.empty(0),
        cause_names=list(a.column_names),
        report=report,
    )


def contrast(
    estimate: CausalEffectEstimate, a_from: np.ndarray, a_to: np.ndarray
) -> float:
    """Expected outcome change moving the cause vector a_from -> a_to."""
    a_from = np.asarray(a_from, dtype=float)
    a_to = np.asarray(a_to, dtype=float)
    d = estimate.beta.shape[0]
    if a_from.shape != (d,) or a_to.shape != (d,):
        raise ValidationError(f"contrast vectors must have length {d}")
    return float(estimate.beta @ (a_to - a_from))


def predictive_comparison(
    a: CauseMatrix,
    z: SurrogateConfounders,
    y: OutcomeVector,
    x: CovariateMatrix | None = None,
    split: float = 0.2,
    seed: int = 0,
) -> dict:
    """Held-out MSE/MAE of the causal versus the non-causal regression.

    `split` is the test fraction of a seeded shuffle split; both models
    are fitted on the same training rows and scored on the same test rows.
    """
    if not 0.0 < split < 1.0:
        raise ValidationError("split must lie strictly in (0, 1)")
    if a.has_missing:
        raise ValidationError("causes must be complete; impute first")
    yv = _as_vector(y)
    zv, kept = _surrogate_design(z)
    _check_lengths(a.n_units, yv.shape[0], z.values.shape[0])
    xv = None
    if x is not None:
        _check_lengths(a.n_units, x.values.shape[0])
        xv = x.values

    n = a.n_units
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_test = max(1, int(split * n))
    test, train = perm[:n_test], perm[n_test:]
    q_causal = 1 + a.n_causes + zv.shape[1] + (0 if xv is None else xv.shape[1])
    if n_test < q_causal + 1:
        raise ValidationError(
            f"test split of {n_test} rows is too small for {q_causal - 1} predictors"
        )

    def blocks(rows, with_z):
        parts = [np.ones((rows.size, 1)), a.values[rows]]
        if with_z:
            parts.append(zv[rows])
        if xv is not None:
            parts.append(xv[rows])
        return np.column_stack(parts)

    out = {}
    for label, with_z in (("causal", True), ("noncausal", False)):
        fit = ols_fit(blocks(train, with_z), yv[train])
        pred = blocks(test, with_z) @ fit.coefficients()
        err = yv[test] - pred
        out[label] = {
            "mse": float(np.mean(err * err)),
            "mae": float(np.mean(np.abs(err))),
        }
    return out
