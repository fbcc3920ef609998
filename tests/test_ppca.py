"""Factor model fitting and the held-out predictive check.

The EM maximum for complete data has a closed form from the sample
spectrum, which gives an exact oracle for the fit; posterior formulas
are checked against hand-derived special cases and scipy linear algebra,
and the fitted likelihood against scipy's multivariate normal, row by row.
"""

import hashlib
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multicause.dataset import CauseMatrix, HoldoutMask, make_holdout
from multicause.errors import NumericError, ValidationError
from multicause.ppca import (
    _CHECK_CHUNK,
    DEFAULT_K,
    PpcaConfig,
    PpcaModel,
    closed_form_max_loglik,
    fit_ppca,
    _patterns,
    posterior_mean_partial,
    predictive_check,
)

TIGHT = PpcaConfig(max_iter=5000, tol=1e-15, seed=0)


def matrix_from(vals):
    n, d = np.asarray(vals).shape
    return CauseMatrix(
        np.asarray(vals, dtype=float),
        [f"c{j}" for j in range(d)],
        [f"u{i}" for i in range(n)],
    )


def sample_ppca(n, w, s2, seed, mu=None):
    d, k = w.shape
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, k))
    noise = rng.standard_normal((n, d)) * math.sqrt(s2)
    base = np.zeros(d) if mu is None else mu
    return matrix_from(base + z @ w.T + noise), z


W_TRUE = np.array(
    [
        [1.2, 0.0],
        [0.8, 0.5],
        [-0.6, 1.0],
        [0.3, -0.7],
        [0.0, 0.9],
        [-1.1, 0.2],
    ]
)


def test_em_reaches_the_closed_form_maximum():
    m, _ = sample_ppca(800, W_TRUE, 0.3, seed=1)
    model = fit_ppca(m, 2, TIGHT)
    assert model.converged
    target = closed_form_max_loglik(m, 2)
    assert abs(model.log_likelihood - target) < 1e-6
    # and never exceeds it: the closed form is the global maximum
    assert model.log_likelihood <= target + 1e-9


def test_fit_trace_is_monotone():
    m, _ = sample_ppca(400, W_TRUE, 0.5, seed=2)
    model = fit_ppca(m, 2, PpcaConfig(max_iter=200, seed=3))
    trace = np.array(model.fit_trace)
    assert np.all(np.diff(trace) >= -1e-7 * np.maximum(1.0, np.abs(trace[:-1])))


def test_loadings_span_the_true_subspace():
    m, _ = sample_ppca(4000, W_TRUE, 0.1, seed=4)
    model = fit_ppca(m, 2, TIGHT)
    angles = scipy.linalg.subspace_angles(model.loadings, W_TRUE)
    assert np.degrees(angles).max() < 5.0


def test_fitted_covariance_matches_spectral_solution():
    # the optimal marginal covariance is U_K (L_K - s2 I) U_K' + s2 I
    m, _ = sample_ppca(600, W_TRUE, 0.4, seed=5)
    model = fit_ppca(m, 2, TIGHT)
    x = m.values
    xc = x - x.mean(axis=0)
    s = xc.T @ xc / x.shape[0]
    evals, evecs = np.linalg.eigh(s)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    s2 = evals[2:].mean()
    u = evecs[:, :2]
    cov_opt = u @ np.diag(evals[:2] - s2) @ u.T + s2 * np.eye(6)
    assert np.allclose(model.marginal_covariance(), cov_opt, atol=1e-6)
    assert abs(model.noise_variance - s2) < 1e-6


def test_posterior_mean_formula_and_small_noise_limit():
    m, _ = sample_ppca(50, W_TRUE, 0.2, seed=6)
    model = PpcaModel(
        loadings=W_TRUE,
        mean=np.zeros(6),
        noise_variance=0.2,
        k=2,
        log_likelihood=0.0,
    )
    sur = posterior_mean_partial(model, m)
    xc = m.values - model.mean
    expected = scipy.linalg.solve(
        W_TRUE.T @ W_TRUE + 0.2 * np.eye(2), W_TRUE.T @ xc.T
    ).T
    assert np.allclose(sur.values, expected, atol=1e-8)
    assert np.allclose(
        sur.posterior_covariance,
        0.2 * scipy.linalg.inv(W_TRUE.T @ W_TRUE + 0.2 * np.eye(2)),
        atol=1e-10,
    )
    # s2 -> 0 turns the posterior mean into the least-squares projection
    tiny = PpcaModel(
        loadings=W_TRUE,
        mean=np.zeros(6),
        noise_variance=1e-10,
        k=2,
        log_likelihood=0.0,
    )
    proj = (np.linalg.pinv(W_TRUE) @ xc.T).T
    assert np.allclose(posterior_mean_partial(tiny, m).values, proj, atol=1e-6)


def test_posterior_mean_single_factor_hand_formula():
    w = np.array([[2.0], [1.0], [-1.0]])
    model = PpcaModel(
        loadings=w, mean=np.ones(3), noise_variance=0.5, k=1, log_likelihood=0.0
    )
    m = matrix_from([[3.0, 2.0, 0.0], [1.0, 1.0, 1.0]])
    sur = posterior_mean_partial(model, m)
    # z = w'(a - mu) / (w'w + s2), with w'w = 6
    assert sur.values[0, 0] == pytest.approx((2 * 2 + 1 * 1 - 1 * -1) / 6.5)
    assert sur.values[1, 0] == pytest.approx(0.0, abs=1e-12)


def test_partial_posterior_with_nothing_held_matches_full():
    m, _ = sample_ppca(80, W_TRUE, 0.3, seed=7)
    model = fit_ppca(m, 2, PpcaConfig(seed=0))
    empty = HoldoutMask(np.zeros((80, 6), dtype=bool))
    full = posterior_mean_partial(model, m)
    part = posterior_mean_partial(model, m, empty)
    assert np.allclose(part.values, full.values, atol=1e-12)
    assert part.posterior_covariance.shape == (80, 2, 2)
    assert np.allclose(part.posterior_covariance[17], full.posterior_covariance)


def test_partial_posterior_ignores_held_coordinates():
    m, _ = sample_ppca(60, W_TRUE, 0.3, seed=8)
    model = fit_ppca(m, 2, PpcaConfig(seed=0))
    mask = make_holdout(m, rate=0.34, seed=9)
    sur = posterior_mean_partial(model, m, mask)
    poisoned = m.values.copy()
    poisoned[mask.held] = 1e6
    sur2 = posterior_mean_partial(model, matrix_from(poisoned), mask)
    assert np.array_equal(sur.values, sur2.values)
    # oracle for one row: condition on the observed block only
    i = 11
    obs = ~mask.held[i]
    wg = model.loadings[obs]
    mg = wg.T @ wg + model.noise_variance * np.eye(2)
    zi = scipy.linalg.solve(mg, wg.T @ (m.values[i, obs] - model.mean[obs]))
    assert np.allclose(sur.values[i], zi, atol=1e-10)


def test_shift_equivariance_of_the_fit():
    cfg = PpcaConfig(max_iter=150, tol=0.0, seed=1)
    m, _ = sample_ppca(300, W_TRUE, 0.4, seed=10)
    shift = np.arange(6, dtype=float)
    shifted = matrix_from(m.values + shift)
    a = fit_ppca(m, 2, cfg)
    b = fit_ppca(shifted, 2, cfg)
    assert np.allclose(a.mean + shift, b.mean, atol=1e-10)
    assert np.allclose(a.loadings, b.loadings, atol=1e-8)
    assert a.noise_variance == pytest.approx(b.noise_variance, abs=1e-8)


def test_masked_fit_never_sees_held_cells():
    m, _ = sample_ppca(400, W_TRUE, 0.3, seed=11)
    mask = make_holdout(m, rate=0.2, seed=12)
    clean = fit_ppca(m, 2, PpcaConfig(seed=0), mask=mask)
    poisoned = m.values.copy()
    poisoned[mask.held] = -123.0
    dirty = fit_ppca(matrix_from(poisoned), 2, PpcaConfig(seed=0), mask=mask)
    assert np.array_equal(clean.loadings, dirty.loadings)
    assert clean.noise_variance == dirty.noise_variance
    assert clean.log_likelihood == dirty.log_likelihood


def test_masked_fit_recovers_the_model():
    m, _ = sample_ppca(3000, W_TRUE, 0.2, seed=13)
    mask = make_holdout(m, rate=0.2, seed=14)
    model = fit_ppca(m, 2, PpcaConfig(max_iter=2000, tol=1e-12, seed=0), mask=mask)
    angles = scipy.linalg.subspace_angles(model.loadings, W_TRUE)
    assert np.degrees(angles).max() < 5.0
    assert model.noise_variance == pytest.approx(0.2, rel=0.15)


def test_predictive_check_calibrated_and_deterministic():
    m, _ = sample_ppca(400, W_TRUE, 0.3, seed=15)
    mask = make_holdout(m, rate=0.2, seed=16)
    model = fit_ppca(m, 2, PpcaConfig(seed=0), mask=mask)
    res = predictive_check(model, m, mask, seed=5)
    again = predictive_check(model, m, mask, seed=5)
    assert res.score == again.score
    assert np.array_equal(res.per_unit_scores, again.per_unit_scores)
    assert 0.35 < res.score < 0.65
    assert res.passed
    pooled = predictive_check(model, m, mask, seed=5, method="pooled")
    assert 0.0 <= pooled.score <= 1.0
    assert pooled.method == "pooled"


def test_predictive_check_flags_displaced_holdout():
    m, _ = sample_ppca(300, W_TRUE, 0.3, seed=17)
    mask = make_holdout(m, rate=0.2, seed=18)
    model = fit_ppca(m, 2, PpcaConfig(seed=0), mask=mask)
    bad = m.values.copy()
    bad[mask.held] += 10.0 * math.sqrt(model.noise_variance + 2.0)
    res = predictive_check(model, matrix_from(bad), mask, seed=5)
    assert res.score < 0.05
    assert not res.passed


def test_predictive_check_input_validation():
    m, _ = sample_ppca(50, W_TRUE, 0.3, seed=19)
    mask = make_holdout(m, rate=0.2, seed=20)
    model = fit_ppca(m, 2, PpcaConfig(seed=0), mask=mask)
    with pytest.raises(ValidationError):
        predictive_check(model, m, mask, replications=5)
    with pytest.raises(ValidationError):
        predictive_check(model, m, mask, mc_samples=5)
    with pytest.raises(ValidationError):
        predictive_check(model, m, mask, method="median")
    with pytest.raises(ValidationError):
        predictive_check(model, m, mask, seed=-1)
    bare = HoldoutMask(np.zeros((50, 6), dtype=bool))
    with pytest.raises(ValidationError) as err:
        predictive_check(model, m, bare)
    assert "held-out" in str(err.value)


def test_fit_rejects_k_out_of_range_and_rank_deficiency():
    m, _ = sample_ppca(100, W_TRUE, 0.3, seed=21)
    with pytest.raises(ValidationError):
        fit_ppca(m, 0)
    with pytest.raises(ValidationError):
        fit_ppca(m, 6)
    with pytest.raises(ValidationError):
        fit_ppca(matrix_from(m.values[:2]), 2)
    # rank-1 data cannot support K=2
    u = np.linspace(-1, 1, 100)
    rank1 = matrix_from(np.outer(u, [1.0, 2.0, -1.0, 0.5]))
    with pytest.raises(NumericError) as err:
        fit_ppca(rank1, 2)
    assert "rank" in str(err.value)
    # a column observed in a single row cannot be fitted
    held = np.zeros((100, 6), dtype=bool)
    held[1:, 3] = True
    with pytest.raises(ValidationError, match="almost fully held out"):
        fit_ppca(m, 2, mask=HoldoutMask(held))


def test_missing_data_is_rejected_everywhere():
    vals = np.array([[1.0, 2.0, 3.0], [np.nan, 1.0, 0.0], [0.5, 0.5, 0.5]])
    miss = np.isnan(vals)
    m = CauseMatrix(vals, ["a", "b", "c"], ["u0", "u1", "u2"], miss)
    with pytest.raises(ValidationError):
        fit_ppca(m, 1)
    model = PpcaModel(
        loadings=np.array([[1.0], [0.5], [0.2]]),
        mean=np.zeros(3),
        noise_variance=1.0,
        k=1,
        log_likelihood=0.0,
    )
    with pytest.raises(ValidationError):
        posterior_mean_partial(model, m)


def test_model_serialization_round_trip():
    m, _ = sample_ppca(200, W_TRUE, 0.3, seed=22)
    model = fit_ppca(m, 2, PpcaConfig(seed=0))
    payload = model.to_dict()
    back = PpcaModel.from_dict(payload)
    assert np.array_equal(back.loadings, model.loadings)
    assert np.array_equal(back.mean, model.mean)
    assert back.noise_variance == model.noise_variance
    assert back.k == model.k
    assert back.log_likelihood == model.log_likelihood
    # unknown keys are tolerated, broken payloads are not
    payload["columns"] = ["c0", "c1", "c2", "c3", "c4", "c5"]
    PpcaModel.from_dict(payload)
    with pytest.raises(ValidationError):
        PpcaModel.from_dict({"loadings": [[1.0]]})


def test_model_rejects_non_finite_parameters():
    good = dict(loadings=W_TRUE, mean=np.zeros(6), noise_variance=0.2, k=2, log_likelihood=0.0)
    bad_loadings = W_TRUE.copy()
    bad_loadings[3, 1] = np.nan
    bad_mean = np.zeros(6)
    bad_mean[0] = np.inf
    for change in (
        {"loadings": bad_loadings},
        {"mean": bad_mean},
        {"noise_variance": math.inf},
    ):
        with pytest.raises(ValidationError, match="finite"):
            PpcaModel(**{**good, **change})


def test_default_latent_dimensions():
    assert DEFAULT_K == {"rating": 10, "popularity": 5, "custom": 5}


@st.composite
def oracle_problems(draw):
    """Random PPCA data, K and a holdout mask (None for complete data).

    The mask has one pattern shared by more than D rows, so EM compresses
    that block, next to random patterns with few rows each.
    """
    d = draw(st.integers(3, 7))
    k = draw(st.integers(1, d - 1))
    n = draw(st.integers(30, 120))
    rate = draw(st.sampled_from([0.0, 0.15, 0.35]))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((d, k))
    m, _ = sample_ppca(n, w, 0.2 + rng.random(), seed, mu=rng.standard_normal(d))
    if rate == 0.0:
        return m, k, None, seed
    held = rng.random((n, d)) < rate
    tall = d + 1 + seed % 5
    held[:tall] = False
    held[:tall, seed % d] = True
    held[-2:] = False  # every column keeps two observed entries
    held[held.all(axis=1), seed % d] = False
    _, counts = np.unique(~held, axis=0, return_counts=True)
    assume(counts.min() <= d)
    return m, k, HoldoutMask(held), seed


ORACLE = settings(max_examples=30, deadline=None, database=None, derandomize=True)


def observed_of(m, mask):
    return np.ones(m.values.shape, dtype=bool) if mask is None else ~mask.held


@ORACLE
@given(oracle_problems())
def test_fitted_loglik_matches_scipy_row_by_row(problem):
    m, k, mask, seed = problem
    observed = observed_of(m, mask)
    model = fit_ppca(m, k, PpcaConfig(max_iter=15, seed=seed), mask=mask)
    w, mu, s2 = model.loadings, model.mean, model.noise_variance
    expected = 0.0
    for i, obs in enumerate(observed):
        cov = w[obs] @ w[obs].T + s2 * np.eye(int(obs.sum()))
        expected += scipy.stats.multivariate_normal(mu[obs], cov).logpdf(m.values[i, obs])
    assert model.log_likelihood == pytest.approx(expected, rel=1e-9)


@ORACLE
@given(oracle_problems())
def test_partial_posterior_matches_per_row_solve(problem):
    m, k, mask, seed = problem
    d = m.n_causes
    rng = np.random.default_rng(seed + 1)
    model = PpcaModel(
        loadings=rng.standard_normal((d, k)),
        mean=rng.standard_normal(d),
        noise_variance=0.1 + rng.random(),
        k=k,
        log_likelihood=0.0,
    )
    sur = posterior_mean_partial(model, m, mask)
    w, s2 = model.loadings, model.noise_variance
    for i, obs in enumerate(observed_of(m, mask)):
        mg = w[obs].T @ w[obs] + s2 * np.eye(k)
        zi = scipy.linalg.solve(mg, w[obs].T @ (m.values[i, obs] - model.mean[obs]))
        np.testing.assert_allclose(sur.values[i], zi, rtol=1e-9, atol=1e-12)
        cov = sur.posterior_covariance if mask is None else sur.posterior_covariance[i]
        np.testing.assert_allclose(cov, s2 * scipy.linalg.inv(mg), rtol=1e-9, atol=1e-12)


def test_patterns_match_numpy_unique_across_byte_boundaries():
    rng = np.random.default_rng(0)
    for d in range(2, 71):
        observed = rng.random((200, d)) < 0.8
        observed[::3] = observed[0]  # some patterns shared by many rows
        pats, inverse, groups = _patterns(observed)
        ref, ref_inverse, counts = np.unique(
            observed, axis=0, return_inverse=True, return_counts=True
        )
        ref_inverse = ref_inverse.reshape(-1)
        ref_groups = np.split(np.argsort(ref_inverse, kind="stable"), np.cumsum(counts)[:-1])
        assert pats.dtype == bool and np.array_equal(pats, ref), d
        assert np.array_equal(inverse, ref_inverse), d
        assert len(groups) == len(ref_groups)
        assert all(np.array_equal(a, b) for a, b in zip(groups, ref_groups)), d


def reference_check(model, m, mask, replications, mc_samples, seed):
    """The predictive check as a unit-by-unit loop: (per-unit, mean, pooled)."""
    w, s2, k = model.loadings, model.noise_variance, model.k
    sigma = math.sqrt(s2)
    xc = m.values - model.mean
    per_unit = np.empty(m.values.shape[0])
    pooled_real, pooled_rep = 0.0, np.zeros(replications)
    for i, hd in enumerate(mask.held):
        ob = ~hd
        linv = np.linalg.inv(np.linalg.cholesky(w[ob].T @ w[ob] + s2 * np.eye(k)))
        minv = linv.T @ linv
        factor = sigma * linv.T  # F F' = s2 M^-1, with M = L L'
        mean = xc[i, ob] @ w[ob] @ minv.T
        wh, h = w[hd], int(hd.sum())
        const = -0.5 * h * math.log(2.0 * math.pi * s2)
        rng = np.random.default_rng([seed, i])
        nu = (mean + rng.standard_normal((mc_samples, k)) @ factor.T) @ wh.T
        nu_bar, nu_sq = nu.mean(axis=0), (nu * nu).mean(axis=0)

        def t_stat(a):
            return const - (a * a - 2.0 * a * nu_bar + nu_sq).sum(axis=-1) / (2.0 * s2)

        t_real = t_stat(xc[i, hd])
        z_rep = mean + rng.standard_normal((replications, k)) @ factor.T
        t_rep = t_stat(z_rep @ wh.T + sigma * rng.standard_normal((replications, h)))
        per_unit[i] = np.mean(t_rep < t_real)
        pooled_real += t_real
        pooled_rep += t_rep
    return per_unit, per_unit.mean(), np.mean(pooled_rep < pooled_real)


@st.composite
def check_problems(draw):
    """A PPCA model, data drawn from it and a mask mixing held counts h.

    The first block of rows all hold out one column and outnumber a check
    chunk, so that h-group is scored in several chunks; the rest hold out
    random columns, so several h share those chunks across patterns.
    """
    d = draw(st.integers(3, 9))
    k = draw(st.integers(1, d - 1))
    seed = draw(st.integers(0, 10_000))
    ones = _CHECK_CHUNK + 1 + seed % _CHECK_CHUNK
    n = draw(st.integers(ones + 2, ones + 3 * _CHECK_CHUNK))
    rng = np.random.default_rng(seed)
    model = PpcaModel(
        loadings=rng.standard_normal((d, k)),
        mean=rng.standard_normal(d),
        noise_variance=0.1 + rng.random(),
        k=k,
        log_likelihood=0.0,
    )
    m, _ = sample_ppca(n, model.loadings, model.noise_variance, seed, mu=model.mean)
    held = rng.random((n, d)) < draw(st.sampled_from([0.2, 0.5]))
    held[:ones] = False
    held[np.arange(ones), rng.integers(0, d, ones)] = True
    held[-1, :2] = True  # at least one row with h >= 2
    empty = ~held.any(axis=1)
    held[empty, rng.integers(0, d, int(empty.sum()))] = True
    full = held.all(axis=1)
    held[full, rng.integers(0, d, int(full.sum()))] = False
    return model, m, HoldoutMask(held), seed


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(check_problems(), st.sampled_from([(10, 12), (23, 10)]))
def test_chunked_check_equals_unit_by_unit_loop(problem, sizes):
    model, m, mask, seed = problem
    replications, mc_samples = sizes
    held_counts = mask.held.sum(axis=1)
    assert np.unique(held_counts).size > 1
    assert np.bincount(held_counts).max() > _CHECK_CHUNK
    per_unit, mean_score, pooled_score = reference_check(
        model, m, mask, replications, mc_samples, seed
    )
    for method, expected in (("mean", mean_score), ("pooled", pooled_score)):
        res = predictive_check(
            model, m, mask, replications=replications, mc_samples=mc_samples,
            seed=seed, method=method,
        )
        assert np.array_equal(res.per_unit_scores, per_unit)
        assert res.score == expected


def test_check_streams_are_pinned():
    # Any change to the per-unit streams or their draw order changes this digest.
    rng = np.random.default_rng(2024)
    m, _ = sample_ppca(40, W_TRUE, 0.3, seed=23)
    held = rng.random((40, 6)) < 0.3
    held[~held.any(axis=1), 0] = True
    held[held.all(axis=1), 1] = False
    model = PpcaModel(
        loadings=W_TRUE, mean=np.zeros(6), noise_variance=0.3, k=2, log_likelihood=0.0
    )
    res = predictive_check(model, m, HoldoutMask(held), replications=20, mc_samples=20, seed=3)
    digest = hashlib.sha256(res.per_unit_scores.tobytes()).hexdigest()
    assert digest == "40f90409022893bf95efebb1f442e6c0ee2080c6c3fcfde7628c8ad27b10aebf"
