"""Outcome regressions checked against hand algebra and scipy.

The 3-point regression below is solved by hand: X'X = [[3,3],[3,5]],
X'y = [4,5], so beta = [5/6, 1/2], RSS = 1/6 with one residual degree
of freedom, and the slope's p-value is exactly 1/3 (Cauchy tail).
"""

import math

import numpy as np
import pytest
import scipy.stats

from multicause.dataset import CauseMatrix, CovariateMatrix
from multicause.effects import (
    estimate_effects_causal,
    estimate_effects_noncausal,
    ols_fit,
    predictive_comparison,
    significance_tag,
)
from multicause.errors import RankDeficiencyError, ValidationError


def matrix_from(vals):
    n, d = np.asarray(vals).shape
    return CauseMatrix(
        np.asarray(vals, dtype=float),
        [f"c{j}" for j in range(d)],
        [f"u{i}" for i in range(n)],
    )


def test_three_point_regression_by_hand():
    design = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    report = ols_fit(design, [1.0, 1.0, 2.0], ["Intercept", "x"])
    intercept, slope = report.rows
    assert intercept.mean == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert slope.mean == pytest.approx(0.5, abs=1e-12)
    assert report.residual_variance == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert report.dof == 1
    # std errors from s2 * diag((X'X)^-1) = (1/6) * [5/6, 1/2]
    assert intercept.std == pytest.approx(math.sqrt(5.0) / 6.0, abs=1e-12)
    assert slope.std == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), abs=1e-12)
    # dof 1 is the Cauchy: P(|T| > sqrt(3)) = 1 - 2*atan(sqrt(3))/pi = 1/3
    assert slope.t_stat == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert slope.p_value == pytest.approx(1.0 / 3.0, abs=1e-10)
    t_crit = math.tan(math.pi * 0.475)
    assert slope.ci_low == pytest.approx(0.5 - t_crit * slope.std, abs=1e-8)
    assert slope.ci_high == pytest.approx(0.5 + t_crit * slope.std, abs=1e-8)
    assert slope.significance == "none"


def test_noiseless_fit_has_zero_p_values():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 2))
    design = np.column_stack([np.ones(40), x])
    y = design @ np.array([1.0, 2.0, -3.0])
    report = ols_fit(design, y)
    for row in report.rows:
        assert row.std == pytest.approx(0.0, abs=1e-10)
        assert row.p_value == 0.0
        assert row.significance == "5%"


def test_inference_matches_scipy():
    rng = np.random.default_rng(1)
    n, q = 300, 4
    design = np.column_stack([np.ones(n), rng.standard_normal((n, q))])
    y = design @ rng.standard_normal(q + 1) + 0.7 * rng.standard_normal(n)
    report = ols_fit(design, y)

    beta, rss, *_ = np.linalg.lstsq(design, y, rcond=None)
    dof = n - q - 1
    s2 = float(rss[0]) / dof
    cov = s2 * np.linalg.inv(design.T @ design)
    std = np.sqrt(np.diag(cov))
    t_stats = beta / std
    p_vals = 2.0 * scipy.stats.t.sf(np.abs(t_stats), dof)
    t_crit = scipy.stats.t.ppf(0.975, dof)

    assert report.residual_variance == pytest.approx(s2, rel=1e-10)
    for j, row in enumerate(report.rows):
        assert row.mean == pytest.approx(beta[j], abs=1e-10)
        assert row.std == pytest.approx(std[j], abs=1e-10)
        assert row.t_stat == pytest.approx(t_stats[j], abs=1e-8)
        assert row.p_value == pytest.approx(p_vals[j], abs=1e-8)
        assert row.ci_low == pytest.approx(beta[j] - t_crit * std[j], abs=1e-8)
        assert row.ci_high == pytest.approx(beta[j] + t_crit * std[j], abs=1e-8)


def test_residuals_orthogonal_to_design():
    rng = np.random.default_rng(2)
    design = np.column_stack([np.ones(100), rng.standard_normal((100, 3))])
    y = rng.standard_normal(100)
    report = ols_fit(design, y)
    resid = y - design @ report.coefficients()
    assert np.max(np.abs(design.T @ resid)) < 1e-9


def test_intercept_is_outcome_mean_with_centered_predictors():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((150, 3))
    x -= x.mean(axis=0)
    design = np.column_stack([np.ones(150), x])
    y = rng.standard_normal(150) + 4.2
    report = ols_fit(design, y)
    assert report.rows[0].mean == pytest.approx(float(y.mean()), abs=1e-10)


def test_rank_deficiency_names_the_collinear_columns():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(60)
    design = np.column_stack([np.ones(60), x, 2.0 * x])
    with pytest.raises(RankDeficiencyError) as err:
        ols_fit(design, rng.standard_normal(60), ["Intercept", "a", "a_twice"])
    assert set(err.value.columns) >= {"a", "a_twice"}


def test_ols_input_validation():
    design = np.column_stack([np.ones(10), np.arange(10.0)])
    y = np.arange(10.0)
    with pytest.raises(ValidationError):
        ols_fit(design[:, 1:], y)  # no intercept column
    with pytest.raises(ValidationError):
        ols_fit(design, y[:5])
    with pytest.raises(ValidationError):
        ols_fit(design[:2], y[:2])  # more columns than rows
    with pytest.raises(ValidationError):
        ols_fit(design, y, ["only_one_name"])
    with pytest.raises(ValidationError):
        ols_fit(design, np.ones((10, 2)))


def test_constant_surrogates_reduce_to_the_naive_fit():
    rng = np.random.default_rng(5)
    a = matrix_from(rng.standard_normal((120, 3)))
    y = a.values @ [1.0, -0.5, 0.2] + rng.standard_normal(120)
    dead = np.zeros((120, 2))
    causal = estimate_effects_causal(a, dead, y)
    naive = estimate_effects_noncausal(a, y)
    assert np.allclose(causal.beta, naive.beta, atol=1e-10)
    assert causal.gamma.shape == (2,)
    assert np.all(causal.gamma == 0.0)
    assert [r.name for r in causal.regression.rows] == ["Intercept", "c0", "c1", "c2"]


def test_surrogate_adjustment_recovers_confounded_coefficients():
    rng = np.random.default_rng(6)
    n = 2000
    z = rng.standard_normal((n, 1))
    a_vals = 0.9 * z + 0.5 * rng.standard_normal((n, 2))
    theta = np.array([1.0, -2.0])
    y = a_vals @ theta + 3.0 * z[:, 0] + 0.1 * rng.standard_normal(n)
    a = matrix_from(a_vals)
    causal = estimate_effects_causal(a, z, y)
    naive = estimate_effects_noncausal(a, y)
    assert np.allclose(causal.beta, theta, atol=0.05)
    assert abs(naive.beta[0] - theta[0]) > 0.5  # confounding really bites
    assert causal.gamma[0] == pytest.approx(3.0, abs=0.1)
    assert causal.regression.row("z1").significance == "5%"


def test_partially_constant_surrogate_block_keeps_indexing():
    rng = np.random.default_rng(7)
    a = matrix_from(rng.standard_normal((100, 2)))
    z_vals = np.column_stack([np.full(100, 2.5), rng.standard_normal(100)])
    y = a.values @ [1.0, 1.0] + 0.4 * z_vals[:, 1]
    est = estimate_effects_causal(a, z_vals, y)
    assert est.gamma[0] == 0.0
    assert est.gamma[1] == pytest.approx(0.4, abs=1e-8)
    # the surviving column keeps its original position in the name
    assert est.regression.row("z2").mean == pytest.approx(0.4, abs=1e-8)
    with pytest.raises(KeyError):
        est.regression.row("z1")


def test_covariates_are_appended_and_estimated():
    rng = np.random.default_rng(8)
    a = matrix_from(rng.standard_normal((200, 2)))
    w = rng.standard_normal((200, 1))
    y = a.values @ [0.5, -0.5] + 2.0 * w[:, 0]
    cov = CovariateMatrix(w, ["season"])
    est = estimate_effects_noncausal(a, y, x=cov)
    assert est.regression.row("season").mean == pytest.approx(2.0, abs=1e-8)
    assert est.beta == pytest.approx([0.5, -0.5], abs=1e-8)


def test_surrogate_names_may_not_clash_with_causes_or_covariates():
    rng = np.random.default_rng(9)
    vals = rng.standard_normal((50, 2))
    y = vals @ [1.0, -1.0] + rng.standard_normal(50)
    z = rng.standard_normal((50, 2))
    a = CauseMatrix(vals, ["z1", "b"], [f"u{i}" for i in range(50)])
    with pytest.raises(ValidationError, match=r"\['z1'\]"):
        estimate_effects_causal(a, z, y)
    cov = CovariateMatrix(rng.standard_normal((50, 1)), ["z2"])
    with pytest.raises(ValidationError, match=r"\['z2'\]"):
        estimate_effects_causal(matrix_from(vals), z, y, x=cov)
    # without surrogates the names are free, and z3 lies beyond K = 2
    assert estimate_effects_noncausal(a, y).regression.row("z1").mean == pytest.approx(1.0, abs=0.5)
    cov = CovariateMatrix(rng.standard_normal((50, 1)), ["z3"])
    assert estimate_effects_causal(matrix_from(vals), z, y, x=cov).regression.row("z3")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_outcome_must_be_a_finite_vector(bad):
    rng = np.random.default_rng(12)
    a = matrix_from(rng.standard_normal((30, 2)))
    z = rng.standard_normal((30, 1))
    y = rng.standard_normal(30)
    with pytest.raises(ValidationError, match="one-dimensional"):
        estimate_effects_noncausal(a, y[:, None])
    y[4] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        estimate_effects_noncausal(a, y)
    with pytest.raises(ValidationError, match="non-finite"):
        estimate_effects_causal(a, z, y)
    with pytest.raises(ValidationError, match="non-finite"):
        predictive_comparison(a, z, y)


def test_missing_causes_are_rejected():
    vals = np.array([[1.0, np.nan], [0.5, 1.0], [0.2, 0.3]])
    m = CauseMatrix(vals, ["a", "b"], ["u0", "u1", "u2"])
    y = np.zeros(3)
    with pytest.raises(ValidationError):
        estimate_effects_noncausal(m, y)
    with pytest.raises(ValidationError):
        estimate_effects_causal(m, np.zeros((3, 1)), y)


def test_predictive_comparison_prefers_surrogates_under_confounding():
    rng = np.random.default_rng(9)
    n = 1500
    z = rng.standard_normal((n, 1))
    a_vals = 0.8 * z + 0.6 * rng.standard_normal((n, 3))
    y_vals = a_vals @ [1.0, 0.5, -1.0] + 2.5 * z[:, 0]
    out = predictive_comparison(
        matrix_from(a_vals), z, y_vals, split=0.25
    )
    assert out["causal"]["mse"] < 1e-20  # exact linear model, no noise
    assert out["noncausal"]["mse"] > 0.5
    assert out["causal"]["mae"] <= out["noncausal"]["mae"]


def test_predictive_comparison_validation():
    rng = np.random.default_rng(10)
    a = matrix_from(rng.standard_normal((30, 3)))
    z = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    with pytest.raises(ValidationError):
        predictive_comparison(a, z, y, split=0.0)
    with pytest.raises(ValidationError):
        predictive_comparison(a, z, y, split=1.0)
    with pytest.raises(ValidationError) as err:
        predictive_comparison(a, z, y, split=0.1)  # 3 test rows, 6 predictors
    assert "too small" in str(err.value)


def test_significance_tags():
    assert significance_tag(0.01) == "5%"
    assert significance_tag(0.05) == "5%"
    assert significance_tag(0.07) == "10%"
    assert significance_tag(0.10) == "10%"
    assert significance_tag(0.2) == "none"
