"""Chained-equations imputation against constructions with known answers,
and against a per-column lstsq reference loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicause.dataset import CauseMatrix
from multicause.errors import ValidationError
from multicause.imputation import MiceConfig, impute_mice
from multicause.synthetic import config_confounded, generate


def matrix_from(vals, miss=None):
    """A cause matrix of `vals`, with NaN written into the `miss` cells."""
    vals = np.array(vals, dtype=float)
    if miss is not None:
        vals[miss] = np.nan
    n, d = vals.shape
    return CauseMatrix(vals, [f"c{j}" for j in range(d)], [f"u{i}" for i in range(n)])


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


def test_stop_rule_does_not_depend_on_the_units():
    # the same problem in thousandths or in millions converges in the same
    # number of sweeps: the rule reads a sweep's change in column sds
    rng = np.random.default_rng(11)
    n = 300
    vals = rng.standard_normal((n, 3)) @ [[1.0, 0.6, 0.3], [0.0, 0.8, 0.4], [0.0, 0.0, 0.7]]
    miss = rng.random((n, 3)) < 0.3
    miss[:, 0] = False
    cfg = MiceConfig(iterations=500)
    runs = [impute_mice(matrix_from(vals * scale, miss), cfg) for scale in (1.0, 1e-3, 1e6)]
    assert all(res.converged for res in runs)
    assert [res.sweeps for res in runs] == [runs[0].sweeps] * 3
    assert runs[0].sweeps > 5
    # max_change stays in the column's own units
    assert runs[2].max_change == pytest.approx(1e6 * runs[0].max_change, rel=1e-3)


def test_deterministic_given_config():
    cfg = config_confounded(n_units=500, seed=7, missing_rate=0.15)
    m, _, _, _ = generate(cfg)
    a = impute_mice(m, MiceConfig()).matrix.values
    b = impute_mice(m, MiceConfig()).matrix.values
    assert np.array_equal(a, b)


def lstsq_mice(vals, miss, cfg):
    """The sweeps as one lstsq per column over a copied design.

    Returns (completed values, sweeps, converged, fallback column indices).
    """
    n, d = vals.shape
    x = vals.copy()
    col_means = np.nanmean(vals, axis=0)
    col_sd = np.nanstd(vals, axis=0)
    cell_sd = np.broadcast_to(np.where(col_sd == 0, 1.0, col_sd), (n, d))[miss]
    for j in range(d):
        x[miss[:, j], j] = col_means[j]
    targets = [j for j in range(d) if miss[:, j].any()]
    if not targets:
        return x, 0, True, []
    fallback = set()
    converged = False
    for sweeps in range(1, cfg.iterations + 1):
        previous = x[miss].copy()
        for j in targets:
            rows = ~miss[:, j]
            others = [k for k in range(d) if k != j]
            design = np.column_stack([np.ones(int(rows.sum())), x[rows][:, others]])
            beta, _, rank, _ = np.linalg.lstsq(design, x[rows, j], rcond=None)
            if rank < design.shape[1]:
                x[miss[:, j], j] = col_means[j]
                fallback.add(j)
                continue
            pred = np.column_stack([np.ones(int(miss[:, j].sum())), x[miss[:, j]][:, others]])
            x[miss[:, j], j] = pred @ beta
        if np.max(np.abs(x[miss] - previous) / cell_sd) < cfg.convergence_tol:
            converged = True
            break
    return x, sweeps, converged, sorted(fallback)


def assert_matches_lstsq_loop(vals, miss, cfg, duplicate=False):
    """impute_mice against `lstsq_mice`, on the raw and on standardized columns.

    Both find the same singular regressions. Gaps are read per column in
    units of its observed sd. The reference solves each regression by
    lstsq on the raw columns, so its own error grows with the raw design's
    condition number kr, which offsets and spread-out units inflate; the
    Gram sweeps work on standardized columns, whose condition number ks the
    normal equations square. Against the raw loop the gap may reach
    16 eps (ks^2 + ks kr), and both stop at the same sweep wherever that
    bound is well below the stopping rule's tolerance, which is read in
    column sds. The same loop fed the standardized columns must agree to
    16 eps ks^2 (1 + |mu|/sd), the |mu|/sd because its z-space mean fill
    is rounded at that scale; both runs then sweep to the cap. Over 600
    random problems of the strategy below the largest gaps were 0.17 and
    0.36 of those bounds. Condition numbers are taken without c1 when it
    copies c0; those fits fall back, and there all the loops agree exactly.
    """
    n, d = vals.shape
    res = impute_mice(matrix_from(vals, miss), cfg)
    ref, sweeps, converged, fallback = lstsq_mice(vals, miss, cfg)
    assert res.mean_fallback_columns == [f"c{j}" for j in fallback]
    if duplicate and miss.any():
        assert fallback == sorted(set(np.flatnonzero(miss.any(axis=0))))

    eps = np.finfo(float).eps
    mu, sd = np.nanmean(vals, axis=0), np.nanstd(vals, axis=0)
    kept = [j for j in range(d) if not (duplicate and j == 1)]
    ones = np.ones((n, 1))
    ks = np.linalg.cond(np.hstack([ones, ((ref - mu) / sd)[:, kept]]))
    kr = np.linalg.cond(np.hstack([ones, ref[:, kept]]))
    bound = 16 * eps * (ks**2 + ks * kr)
    gap = np.abs(res.matrix.values - ref).max(axis=0) / sd
    assert np.all(gap <= bound)
    if np.max(bound) < cfg.convergence_tol / 10:
        # the reference's own error leaves the stopping rule's tolerance
        # resolved, so both loops stop at the same sweep
        assert (res.sweeps, res.converged) == (sweeps, converged)

    to_cap = MiceConfig(iterations=cfg.iterations, convergence_tol=0.0)
    res = impute_mice(matrix_from(vals, miss), to_cap)
    z, _, _, _ = lstsq_mice((vals - mu) / sd, miss, to_cap)
    gap = np.abs(res.matrix.values - (mu + sd * z)).max(axis=0) / sd
    assert np.all(gap <= 16 * eps * ks * min(ks, 1e3) * (1 + np.abs(mu) / sd))


@st.composite
def mice_problems(draw):
    """Correlated causes with cells missing at random, their units up to
    1e7 apart and their means up to thousands of sds from 0.

    With `duplicate`, column c1 is an exact copy of c0 and both are fully
    observed, so every other column's regression is singular.
    """
    n = draw(st.integers(20, 300))
    d = draw(st.integers(2, 8))
    rate = draw(st.sampled_from([0.05, 0.15, 0.3]))
    duplicate = d >= 3 and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = rng.normal(0, 3, d) * 10.0 ** rng.uniform(0, 3, d)
    units = 10.0 ** rng.uniform(-3.5, 3.5, d)
    vals = (rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) + offset) * units
    miss = rng.random((n, d)) < rate
    miss[:2] = False  # every column keeps two observed entries
    if duplicate:
        vals[:, 1] = vals[:, 0]
        miss[:, :2] = False
    miss[miss.all(axis=1), -1] = False
    return np.where(miss, np.nan, vals), miss, duplicate


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(mice_problems(), st.sampled_from([MiceConfig(), MiceConfig(iterations=3)]))
def test_gram_sweeps_match_a_per_column_lstsq_loop(problem, cfg):
    vals, miss, duplicate = problem
    assert_matches_lstsq_loop(vals, miss, cfg, duplicate)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("near_copy", [False, True])
def test_gram_sweeps_match_lstsq_on_ill_scaled_columns(seed, near_copy):
    # a column near 1e5 with sd 1e2, two columns whose units are 1e7 apart,
    # and with `near_copy` a column that copies another up to 1e-6 of its sd
    rng = np.random.default_rng(seed)
    n, d = 200, 5
    vals = rng.standard_normal((n, d)) @ rng.standard_normal((d, d))
    if near_copy:
        vals[:, 3] = vals[:, 4] + 1e-6 * vals[:, 4].std() * rng.standard_normal(n)
    vals[:, 0] = 1e5 + 1e2 * vals[:, 0]
    vals[:, 1] *= 1e4
    vals[:, 2] *= 1e-3
    miss = rng.random((n, d)) < 0.15
    miss[:2] = False
    miss[miss.all(axis=1), -1] = False
    assert_matches_lstsq_loop(np.where(miss, np.nan, vals), miss, MiceConfig())
