"""Chained-equations imputation against constructions with known answers."""

import numpy as np
import pytest

from multicause.dataset import CauseMatrix
from multicause.errors import ValidationError
from multicause.imputation import MiceConfig, impute_mice
from multicause.synthetic import config_confounded, generate


def matrix_from(vals, miss=None):
    n, d = np.asarray(vals).shape
    return CauseMatrix(
        np.asarray(vals, dtype=float),
        [f"c{j}" for j in range(d)],
        [f"u{i}" for i in range(n)],
        miss,
    )


def test_noiseless_linear_dependence_recovered():
    # c2 = 3*c0 - 2*c1 + 1 exactly; hidden entries must come back exactly
    rng = np.random.default_rng(0)
    n = 200
    c0 = rng.standard_normal(n)
    c1 = rng.standard_normal(n)
    c2 = 3.0 * c0 - 2.0 * c1 + 1.0
    vals = np.column_stack([c0, c1, c2])
    miss = np.zeros((n, 3), dtype=bool)
    miss[rng.choice(n, 40, replace=False), 2] = True
    truth = vals[miss]
    masked = vals.copy()
    masked[miss] = np.nan
    res = impute_mice(matrix_from(masked, miss))
    assert res.converged
    assert np.max(np.abs(res.matrix.values[miss] - truth)) < 1e-8


def test_observed_entries_bitwise_unchanged():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((60, 4))
    miss = rng.random((60, 4)) < 0.15
    miss[:, 0] = False
    masked = vals.copy()
    masked[miss] = np.nan
    m = matrix_from(masked, miss)
    res = impute_mice(m)
    assert np.array_equal(res.matrix.values[~miss], vals[~miss])
    assert not res.matrix.has_missing


def test_complete_input_is_a_noop():
    rng = np.random.default_rng(2)
    m = matrix_from(rng.standard_normal((30, 3)))
    res = impute_mice(m)
    assert res.sweeps == 0 and res.converged
    assert np.array_equal(res.matrix.values, m.values)


def test_beats_mean_imputation_on_mar_data():
    wins = 0
    for seed in range(30):
        cfg = config_confounded(n_units=1000, seed=seed, missing_rate=0.1)
        m, _, _, truth = generate(cfg)
        res = impute_mice(m, MiceConfig())
        miss = m.missing
        target = truth.causes_complete[miss]
        rmse = np.sqrt(np.mean((res.matrix.values[miss] - target) ** 2))
        col_mean = np.nanmean(np.where(miss, np.nan, m.values), axis=0)
        mean_rmse = np.sqrt(
            np.mean((np.broadcast_to(col_mean, m.values.shape)[miss] - target) ** 2)
        )
        wins += rmse < mean_rmse
    assert wins >= 28, f"only {wins}/30 better than mean fill"


def test_rank_deficient_regression_falls_back_to_means():
    # c1 duplicates c0, so regressing c2 on (c0, c1) is singular
    rng = np.random.default_rng(3)
    c0 = rng.standard_normal(50)
    vals = np.column_stack([c0, c0, rng.standard_normal(50)])
    miss = np.zeros((50, 3), dtype=bool)
    miss[:10, 2] = True
    masked = vals.copy()
    masked[miss] = np.nan
    res = impute_mice(matrix_from(masked, miss))
    assert res.mean_fallback_columns == ["c2"]
    expected = np.nanmean(masked[:, 2])
    assert np.allclose(res.matrix.values[:10, 2], expected)


def test_single_column_missing_is_rejected():
    # every hole in a one-column matrix is a fully unobserved unit
    vals = np.array([[1.0], [np.nan], [3.0], [np.nan]])
    with pytest.raises(ValidationError) as err:
        impute_mice(matrix_from(vals))
    assert "no observed causes" in str(err.value)


def test_validation_errors():
    # column with a single observed value
    vals = np.array([[1.0, 1.0], [np.nan, 2.0], [np.nan, 3.0]])
    with pytest.raises(ValidationError) as err:
        impute_mice(matrix_from(vals))
    assert "fewer than 2 observed" in str(err.value)
    # row with nothing observed
    vals = np.array([[np.nan, np.nan], [1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValidationError) as err:
        impute_mice(matrix_from(vals))
    assert "no observed causes" in str(err.value)


def test_deterministic_given_config():
    cfg = config_confounded(n_units=500, seed=7, missing_rate=0.15)
    m, _, _, _ = generate(cfg)
    a = impute_mice(m, MiceConfig()).matrix.values
    b = impute_mice(m, MiceConfig()).matrix.values
    assert np.array_equal(a, b)

