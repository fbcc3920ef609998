"""Outcome regressions and effect estimates.

ols_fit carries the full inferential load for the package: coefficients
from a rank-revealing solve of the normal equations, classical standard
errors, Student-t p-values (see tdist), and 95% confidence intervals.
Every outcome regression in the package is fitted on the design that
outcome_design lays out. The causal estimator regresses the outcome on
the causes plus surrogate confounders; the non-causal one omits them.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import record
from .dataset import CauseMatrix, CovariateMatrix, _rng_permutation, check_complete
from .errors import RankDeficiencyError, ValidationError
from .tdist import t_quantile, t_two_sided_p

CONDITION_LIMIT = 1e10
SIGNIFICANCE_STARS = {"5%": "*", "10%": "**", "none": ""}


def significance_tag(p_value: float) -> str:
    if p_value <= 0.05:
        return "5%"
    if p_value <= 0.10:
        return "10%"
    return "none"


def check_alpha(alpha: float) -> None:
    """A test level must lie strictly in (0, 1), NaN excluded."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie strictly in (0, 1), got {alpha}")


@record(eq=True)
class RegressionRow:
    name: str
    mean: float
    std: float
    t_stat: float
    p_value: float
    ci_low: float
    ci_high: float
    significance: str


@record
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


@record
class CausalEffectEstimate:
    beta: np.ndarray  # cause coefficients, in column order
    gamma: np.ndarray  # surrogate coefficients (empty for non-causal fits)
    cause_names: list[str]
    regression: RegressionReport


def _as_vector(y) -> np.ndarray:
    """An outcome as a 1-D float array; every entry must be finite."""
    values = np.asarray(y, dtype=float)
    if values.ndim != 1:
        raise ValidationError("outcome must be one-dimensional")
    if not np.isfinite(values).all():
        raise ValidationError("outcome contains missing or non-finite values")
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


def outcome_design(
    a: CauseMatrix,
    z: np.ndarray | None,
    x: CovariateMatrix | None,
    *outcomes: np.ndarray,
    causes: list[str] | None = None,
) -> tuple[np.ndarray, list[str], list[int]]:
    """[intercept | causes | surrogates | covariates], its names, kept z columns.

    The causes come in column order, or as the named `causes` in the order
    given. The surrogates `z` are an N x K array. Constant surrogate columns
    carry nothing and are dropped; the rest keep their index in the name
    z{j+1}, which no cause or covariate may take. The surrogates,
    covariates and each of `outcomes` must have one row per unit.
    """
    check_complete(a, "outcome_design")
    n = a.n_units
    names = ["Intercept", *(a.column_names if causes is None else causes)]
    # copy columns only for a subset: the copy is Fortran-ordered, and the
    # design's memory layout moves the OLS solution in the last bits
    if causes is not None:
        blocks = [np.ones((n, 1)), a.values[:, [a.column_names.index(c) for c in causes]]]
    else:
        blocks = [np.ones((n, 1)), a.values]
    kept: list[int] = []
    if z is not None:
        zv = np.asarray(z, dtype=float)
        if zv.ndim != 2:
            raise ValidationError("surrogate confounders must be N x K")
        others = [*names[1:], *(x.column_names if x is not None else [])]
        clash = sorted(set(others) & {f"z{j + 1}" for j in range(zv.shape[1])})
        if clash:
            raise ValidationError(
                f"cause or covariate name(s) {clash} clash with the surrogate columns"
                " z1, z2, ...; rename them"
            )
        kept = [j for j in range(zv.shape[1]) if np.ptp(zv[:, j]) > 0.0]
        blocks.append(zv[:, kept])
        names += [f"z{j + 1}" for j in kept]
    if x is not None:
        blocks.append(x.values)
        names += list(x.column_names)
    if any(v.shape[0] != n for v in [*blocks[2:], *outcomes]):
        raise ValidationError("inputs disagree on the number of units")
    return np.column_stack(blocks), names, kept


def _estimate(a, z, y, x) -> CausalEffectEstimate:
    yv = _as_vector(y)
    design, names, kept = outcome_design(a, z, x, yv)
    report = ols_fit(design, yv, names)
    coefs = report.coefficients()
    d = a.n_causes
    gamma = np.zeros(0 if z is None else np.shape(z)[1])
    gamma[kept] = coefs[1 + d : 1 + d + len(kept)]
    return CausalEffectEstimate(
        beta=coefs[1 : 1 + d],
        gamma=gamma,
        cause_names=list(a.column_names),
        regression=report,
    )


def estimate_effects_causal(
    a: CauseMatrix,
    z: np.ndarray,
    y: np.ndarray,
    x: CovariateMatrix | None = None,
) -> CausalEffectEstimate:
    """Regress the outcome on [intercept | causes | surrogates | covariates]."""
    return _estimate(a, z, y, x)


def estimate_effects_noncausal(
    a: CauseMatrix,
    y: np.ndarray,
    x: CovariateMatrix | None = None,
) -> CausalEffectEstimate:
    """Same regression without the surrogate block (the naive estimator)."""
    return _estimate(a, None, y, x)


def check_split(split: float) -> None:
    """A test fraction must lie strictly in (0, 1), NaN excluded."""
    if not 0.0 < split < 1.0:
        raise ValidationError("split must lie strictly in (0, 1)")


def predictive_comparison(
    a: CauseMatrix,
    z: np.ndarray,
    y: np.ndarray,
    x: CovariateMatrix | None = None,
    split: float = 0.2,
    seed: int = 0,
) -> dict:
    """Held-out MSE/MAE of the causal versus the non-causal regression.

    `split` is the test fraction of the split `default_rng(seed).permutation(n)`
    draws, for a seed in [0, 2**64), as `_rng_permutation` replays it; both
    models are fitted on the same training rows and scored on the same test rows.
    """
    check_split(split)
    yv = _as_vector(y)
    causal, naive = outcome_design(a, z, x, yv)[0], outcome_design(a, None, x, yv)[0]

    n = a.n_units
    perm = _rng_permutation(n, seed)
    n_test = max(1, int(split * n))
    test, train = perm[:n_test], perm[n_test:]
    if n_test < causal.shape[1] + 1:
        raise ValidationError(
            f"test split of {n_test} rows is too small for {causal.shape[1] - 1} predictors"
        )

    out = {}
    for label, design in (("causal", causal), ("noncausal", naive)):
        fit = ols_fit(design[train], yv[train])
        err = yv[test] - design[test] @ fit.coefficients()
        out[label] = {
            "mse": float(np.mean(err * err)),
            "mae": float(np.mean(np.abs(err))),
        }
    return out
