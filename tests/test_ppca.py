"""Factor model fitting and the held-out predictive check.

The EM maximum for complete data has a closed form from the sample
spectrum, which gives an exact oracle for the fit; the SQUAREM loop is
held to a plain EM reference loop kept here; posterior formulas
are checked against hand-derived special cases and scipy linear algebra,
and the fitted likelihood against scipy's multivariate normal, row by row.
The check's exact tail is held to scipy's chi-square tail, Imhof's
integral evaluated by scipy quadrature, and brute-force draws.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multicause.dataset import CauseMatrix, HoldoutMask, make_holdout
from ppca_oracles import closed_form_max_loglik
from test_dataset import splitmix64_chain
from multicause.errors import NumericError, ValidationError
import multicause.ppca as ppca
from multicause.ppca import (
    DEFAULT_K,
    PpcaModel,
    fit_ppca,
    _init_params,
    _patterns,
    posterior_mean_partial,
    predictive_check,
)

TIGHT = dict(max_iter=5000, tol=1e-15, seed=0)


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


def posterior_covariances(model, observed):
    """s2 M_g^-1 for each row's observation pattern, from the kernel the fit uses."""
    pats, inverse, _ = _patterns(observed)
    minv, _ = ppca._precisions(pats, model.loadings, model.noise_variance)
    return model.noise_variance * minv[inverse]


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
    model = fit_ppca(m, 2, **TIGHT)
    assert model.converged
    target = closed_form_max_loglik(m, 2)
    assert abs(model.log_likelihood - target) < 1e-6
    # and never exceeds it: the closed form is the global maximum
    assert model.log_likelihood <= target + 1e-9


def test_fit_trace_is_monotone():
    m, _ = sample_ppca(400, W_TRUE, 0.5, seed=2)
    model = fit_ppca(m, 2, max_iter=200, seed=3)
    trace = np.array(model.fit_trace)
    assert np.all(np.diff(trace) >= -1e-7 * np.maximum(1.0, np.abs(trace[:-1])))


def test_loadings_span_the_true_subspace():
    m, _ = sample_ppca(4000, W_TRUE, 0.1, seed=4)
    model = fit_ppca(m, 2, **TIGHT)
    angles = scipy.linalg.subspace_angles(model.loadings, W_TRUE)
    assert np.degrees(angles).max() < 5.0


def test_fitted_covariance_matches_spectral_solution():
    # the optimal marginal covariance is U_K (L_K - s2 I) U_K' + s2 I
    m, _ = sample_ppca(600, W_TRUE, 0.4, seed=5)
    model = fit_ppca(m, 2, **TIGHT)
    x = m.values
    xc = x - x.mean(axis=0)
    s = xc.T @ xc / x.shape[0]
    evals, evecs = np.linalg.eigh(s)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    s2 = evals[2:].mean()
    u = evecs[:, :2]
    cov_opt = u @ np.diag(evals[:2] - s2) @ u.T + s2 * np.eye(6)
    cov_fit = model.loadings @ model.loadings.T + model.noise_variance * np.eye(6)
    assert np.allclose(cov_fit, cov_opt, atol=1e-6)
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
    z = posterior_mean_partial(model, m)
    xc = m.values - model.mean
    expected = scipy.linalg.solve(
        W_TRUE.T @ W_TRUE + 0.2 * np.eye(2), W_TRUE.T @ xc.T
    ).T
    assert np.allclose(z, expected, atol=1e-8)
    assert np.allclose(
        posterior_covariances(model, np.ones((50, 6), dtype=bool))[0],
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
    assert np.allclose(posterior_mean_partial(tiny, m), proj, atol=1e-6)


def test_posterior_mean_single_factor_hand_formula():
    w = np.array([[2.0], [1.0], [-1.0]])
    model = PpcaModel(
        loadings=w, mean=np.ones(3), noise_variance=0.5, k=1, log_likelihood=0.0
    )
    m = matrix_from([[3.0, 2.0, 0.0], [1.0, 1.0, 1.0]])
    z = posterior_mean_partial(model, m)
    # z = w'(a - mu) / (w'w + s2), with w'w = 6
    assert z[0, 0] == pytest.approx((2 * 2 + 1 * 1 - 1 * -1) / 6.5)
    assert z[1, 0] == pytest.approx(0.0, abs=1e-12)


def test_partial_posterior_with_nothing_held_matches_full():
    m, _ = sample_ppca(80, W_TRUE, 0.3, seed=7)
    model = fit_ppca(m, 2, seed=0)
    empty = HoldoutMask(np.zeros((80, 6), dtype=bool))
    full = posterior_mean_partial(model, m)
    part = posterior_mean_partial(model, m, empty)
    assert part.shape == (80, 2)
    assert np.allclose(part, full, atol=1e-12)


def test_partial_posterior_ignores_held_coordinates():
    m, _ = sample_ppca(60, W_TRUE, 0.3, seed=8)
    model = fit_ppca(m, 2, seed=0)
    mask = make_holdout(m, rate=0.34, seed=9)
    z = posterior_mean_partial(model, m, mask)
    poisoned = m.values.copy()
    poisoned[mask.held] = 1e6
    assert np.array_equal(z, posterior_mean_partial(model, matrix_from(poisoned), mask))
    # oracle for one row: condition on the observed block only
    i = 11
    obs = ~mask.held[i]
    wg = model.loadings[obs]
    mg = wg.T @ wg + model.noise_variance * np.eye(2)
    zi = scipy.linalg.solve(mg, wg.T @ (m.values[i, obs] - model.mean[obs]))
    assert np.allclose(z[i], zi, atol=1e-10)


def test_shift_equivariance_of_the_fit():
    cfg = dict(max_iter=150, tol=0.0, seed=1)
    m, _ = sample_ppca(300, W_TRUE, 0.4, seed=10)
    shift = np.arange(6, dtype=float)
    shifted = matrix_from(m.values + shift)
    a = fit_ppca(m, 2, **cfg)
    b = fit_ppca(shifted, 2, **cfg)
    assert np.allclose(a.mean + shift, b.mean, atol=1e-10)
    assert np.allclose(a.loadings, b.loadings, atol=1e-8)
    assert a.noise_variance == pytest.approx(b.noise_variance, abs=1e-8)


def test_masked_fit_never_sees_held_cells():
    m, _ = sample_ppca(400, W_TRUE, 0.3, seed=11)
    mask = make_holdout(m, rate=0.2, seed=12)
    clean = fit_ppca(m, 2, mask=mask, seed=0)
    poisoned = m.values.copy()
    poisoned[mask.held] = -123.0
    dirty = fit_ppca(matrix_from(poisoned), 2, mask=mask, seed=0)
    assert np.array_equal(clean.loadings, dirty.loadings)
    assert clean.noise_variance == dirty.noise_variance
    assert clean.log_likelihood == dirty.log_likelihood


def test_masked_fit_recovers_the_model():
    m, _ = sample_ppca(3000, W_TRUE, 0.2, seed=13)
    mask = make_holdout(m, rate=0.2, seed=14)
    model = fit_ppca(m, 2, mask=mask, max_iter=2000, tol=1e-12, seed=0)
    angles = scipy.linalg.subspace_angles(model.loadings, W_TRUE)
    assert np.degrees(angles).max() < 5.0
    assert model.noise_variance == pytest.approx(0.2, rel=0.15)


def test_predictive_check_calibrated_and_deterministic():
    m, _ = sample_ppca(400, W_TRUE, 0.3, seed=15)
    mask = make_holdout(m, rate=0.2, seed=16)
    model = fit_ppca(m, 2, mask=mask, seed=0)
    res = predictive_check(model, m, mask)
    again = predictive_check(model, m, mask)
    assert res.score == again.score
    assert np.array_equal(res.per_unit_scores, again.per_unit_scores)
    assert 0.35 < res.score < 0.65
    assert res.passed


def test_predictive_check_flags_displaced_holdout():
    m, _ = sample_ppca(300, W_TRUE, 0.3, seed=17)
    mask = make_holdout(m, rate=0.2, seed=18)
    model = fit_ppca(m, 2, mask=mask, seed=0)
    bad = m.values.copy()
    bad[mask.held] += 10.0 * math.sqrt(model.noise_variance + 2.0)
    res = predictive_check(model, matrix_from(bad), mask)
    assert res.score < 0.05
    assert not res.passed


def test_predictive_check_input_validation():
    m, _ = sample_ppca(50, W_TRUE, 0.3, seed=19)
    mask = make_holdout(m, rate=0.2, seed=20)
    model = fit_ppca(m, 2, mask=mask, seed=0)
    bare = HoldoutMask(np.zeros((50, 6), dtype=bool))
    with pytest.raises(ValidationError) as err:
        predictive_check(model, m, bare)
    assert "held-out" in str(err.value)
    # the score is a probability: a threshold outside [0, 1) passes every
    # model or none, so it is refused
    for threshold in (-1.0, -1e-9, 1.0, 2.0, math.nan):
        with pytest.raises(ValidationError, match="threshold"):
            predictive_check(model, m, mask, threshold=threshold)
    assert predictive_check(model, m, mask, threshold=0.0).passed


def test_predictive_check_forms_one_posterior(monkeypatch):
    # the check reads its means and M_g^-1 from one pass over the patterns
    m, _ = sample_ppca(200, W_TRUE, 0.3, seed=15)
    mask = make_holdout(m, rate=0.34, seed=16)
    model = fit_ppca(m, 2, mask=mask, seed=0)
    calls = []
    for name in ("_patterns", "_precisions"):
        kernel = getattr(ppca, name)
        monkeypatch.setattr(
            ppca, name, lambda *args, name=name, kernel=kernel: calls.append(name) or kernel(*args)
        )
    predictive_check(model, m, mask)
    assert sorted(calls) == ["_patterns", "_precisions"]


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


@pytest.mark.parametrize(
    "setting", [{"max_iter": 0}, {"max_iter": math.nan}, {"tol": -1e-9}, {"tol": math.nan}]
)
def test_fit_rejects_stop_rule_settings_out_of_range(setting):
    m, _ = sample_ppca(100, W_TRUE, 0.3, seed=21)
    name, = setting
    with pytest.raises(ValidationError, match=f"^{name} must be"):
        fit_ppca(m, 2, **setting)


def test_model_serialization_round_trip():
    m, _ = sample_ppca(200, W_TRUE, 0.3, seed=22)
    model = fit_ppca(m, 2, seed=0)
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


def test_em_start_is_keyed_on_seed_column_and_factor():
    rng = np.random.default_rng(21)
    n, d, k = 150, 7, 3
    x = rng.standard_normal((n, d)) * 3.0 + 1.0
    observed = rng.random((n, d)) > 0.2
    w, s2 = _init_params(x, observed, k, seed=2**64 - 1)
    avg_var = np.mean([np.var(x[observed[:, j], j]) for j in range(d)])
    assert s2 == pytest.approx(0.5 * avg_var, rel=1e-14)
    for j in range(d):
        for f in range(k):
            # Box-Muller on the two 32-bit halves of SplitMix64(seed, column, factor)
            h = splitmix64_chain(2**64 - 1, j, f)
            u1, u2 = ((h >> 32) + 1) / 2**32, (h & 0xFFFFFFFF) / 2**32
            normal = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            assert w[j, f] == pytest.approx(normal * math.sqrt(avg_var / k), rel=1e-12)
    # the rows' order does not move the start
    perm = rng.permutation(n)
    w_perm, s2_perm = _init_params(x[perm], observed[perm], k, seed=2**64 - 1)
    assert np.allclose(w_perm, w, rtol=1e-13, atol=0) and s2_perm == pytest.approx(s2, rel=1e-13)


def test_em_start_draws_standard_normals():
    ones = np.ones((2, 100), dtype=bool)
    x = np.array([[0.0] * 100, [2.0] * 100])  # every column's variance is 1
    w, _ = _init_params(x, ones, 100, seed=3)
    draws = w.ravel() * 10.0  # undo sqrt(avg_var / K) = 0.1
    assert scipy.stats.kstest(draws, "norm").pvalue > 1e-3
    assert abs(draws.mean()) < 0.04 and abs(draws.std() - 1.0) < 0.03
    assert not np.array_equal(_init_params(x, ones, 100, seed=4)[0], w)


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
    model = fit_ppca(m, k, mask=mask, max_iter=15, seed=seed)
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
    z = posterior_mean_partial(model, m, mask)
    w, s2 = model.loadings, model.noise_variance
    observed = observed_of(m, mask)
    covs = posterior_covariances(model, observed)
    for i, obs in enumerate(observed):
        mg = w[obs].T @ w[obs] + s2 * np.eye(k)
        zi = scipy.linalg.solve(mg, w[obs].T @ (m.values[i, obs] - model.mean[obs]))
        np.testing.assert_allclose(z[i], zi, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(covs[i], s2 * scipy.linalg.inv(mg), rtol=1e-9, atol=1e-12)


def test_fitted_loglik_matches_scipy_at_one_pattern_per_row():
    # the benchmark's wide shape: nearly every row has its own pattern, so
    # no block is compressed and each pattern's moments come from one row
    rng = np.random.default_rng(7)
    m, _ = sample_ppca(400, rng.standard_normal((30, 5)), 1.0, seed=7)
    mask = make_holdout(m, rate=0.2, seed=0)
    observed = ~mask.held
    assert len(_patterns(observed)[2]) > 390
    model = fit_ppca(m, 5, mask=mask, seed=0)
    w, mu, s2 = model.loadings, model.mean, model.noise_variance
    expected = 0.0
    for i, obs in enumerate(observed):
        cov = w[obs] @ w[obs].T + s2 * np.eye(int(obs.sum()))
        expected += scipy.stats.multivariate_normal(mu[obs], cov).logpdf(m.values[i, obs])
    assert model.log_likelihood == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("k", [1, 2, 5, 10])
@pytest.mark.parametrize("p", [1, 9, 400])
def test_precisions_match_scipy_inverse_and_slogdet(k, p):
    rng = np.random.default_rng(100 * k + p)
    d = 12
    w = rng.standard_normal((d, k))
    pats = rng.random((p, d)) < 0.7
    s2 = 0.1 + rng.random()
    minv, logdet = ppca._precisions(pats, w, s2)
    assert minv.shape == (p, k, k) and logdet.shape == (p,)
    for g, obs in enumerate(pats):
        mg = w[obs].T @ w[obs] + s2 * np.eye(k)
        np.testing.assert_allclose(minv[g], scipy.linalg.inv(mg), rtol=1e-10)
        sign, ref = np.linalg.slogdet(mg)
        assert sign == 1.0 and logdet[g] == pytest.approx(ref, rel=1e-12, abs=1e-12)
    # with s2 < 0 a pattern that observes nothing has M_g = s2 I, not positive definite
    pats[p // 2] = False
    with pytest.raises(NumericError, match="^posterior precision lost positive definiteness$"):
        ppca._precisions(pats, w, -0.5)


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


def imhof_sf(lam, q):
    """P(sum_j lam_j X_j > q), the X_j iid chi-square(1), by Imhof's integral.

    Imhof (Biometrika 1961): 1/2 + (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du,
    theta(u) = sum_j arctan(lam_j u) / 2 - q u / 2 and
    rho(u) = prod_j (1 + lam_j^2 u^2)^(1/4). Past u = 1 the sine of the
    difference is split into cos- and sin-weighted Fourier integrals, which
    quad evaluates on the infinite range by QAWF.
    """
    lam = np.asarray(lam, dtype=float)

    def phi(u):
        return 0.5 * float(np.arctan(lam * u).sum())

    def rho(u):
        return float(np.prod((1.0 + (lam * u) ** 2) ** 0.25))

    tight = {"epsabs": 1e-11, "limit": 500}
    near = scipy.integrate.quad(
        lambda u: math.sin(phi(u) - 0.5 * q * u) / (u * rho(u)), 0.0, 1.0, epsrel=1e-13, **tight
    )[0]
    far = [
        scipy.integrate.quad(
            lambda u, f=f: f(phi(u)) / (u * rho(u)), 1.0, np.inf, weight=w, wvar=0.5 * q, **tight
        )[0]
        for f, w in ((math.sin, "cos"), (math.cos, "sin"))
    ]
    return 0.5 + (near + far[0] - far[1]) / math.pi


def oracle_sf(lam, q):
    """The tail by scipy: chi2.sf when h = 1, Imhof's integral otherwise."""
    if len(lam) == 1:
        return float(scipy.stats.chi2.sf(q / lam[0], 1))
    return imhof_sf(lam, q)


def reference_check(model, m, mask):
    """Per-unit check scores as a unit-by-unit loop on scipy linear algebra and oracles."""
    w, s2, k = model.loadings, model.noise_variance, model.k
    scores = []
    for i, hd in enumerate(mask.held):
        ob = ~hd
        mg = w[ob].T @ w[ob] + s2 * np.eye(k)
        mean = scipy.linalg.solve(mg, w[ob].T @ (m.values[i, ob] - model.mean[ob]))
        resid = m.values[i, hd] - model.mean[hd] - w[hd] @ mean
        cov = s2 * (w[hd] @ scipy.linalg.solve(mg, w[hd].T) + np.eye(int(hd.sum())))
        scores.append(oracle_sf(scipy.linalg.eigvalsh(cov), float(resid @ resid)))
    return np.array(scores)


def test_single_held_entry_scores_are_chi_square_tails():
    # h = 1: the score is P(lam X > q), X ~ chi-square(1), in closed form.
    m, _ = sample_ppca(300, W_TRUE, 0.3, seed=21)
    mask = make_holdout(m, rate=0.2, seed=22)
    assert np.all(mask.held.sum(axis=1) == 1)
    model = fit_ppca(m, 2, mask=mask, seed=0)
    res = predictive_check(model, m, mask)
    np.testing.assert_allclose(res.per_unit_scores, reference_check(model, m, mask), rtol=1e-12)


SPREADS = {
    "h2": np.array([0.7, 1.9]),
    "h6": np.random.default_rng(31).uniform(0.3, 2.0, 6),
    "h12": np.random.default_rng(32).uniform(0.2, 3.0, 12),
    "wide-spread": np.array([0.05, 0.4, 1.0, 6.0]),
}


@pytest.mark.parametrize("name", sorted(SPREADS))
def test_series_matches_imhof_and_brute_force(name):
    lam = SPREADS[name]
    qs = lam.sum() * np.array([0.1, 0.5, 1.0, 2.0, 3.0])
    sf = ppca._chi2_mixture_sf(np.tile(lam, (qs.size, 1)), qs)
    np.testing.assert_allclose(sf, [imhof_sf(lam, q) for q in qs], rtol=0, atol=1e-8)
    draws = 10**6
    rng = np.random.default_rng(33)
    total = np.zeros(draws)
    for lam_j in lam:
        total += lam_j * rng.standard_normal(draws) ** 2
    hits = (total[:, None] > qs).mean(axis=0)
    se = np.sqrt(sf * (1.0 - sf) / draws)
    assert np.all(np.abs(hits - sf) < 4.0 * se), (hits, sf)


def test_series_order_and_a_zero_residual():
    lam = np.array([0.3, 2.0, 0.9])
    rows = np.stack([lam, lam[::-1], np.full(3, 0.9)])
    sf = ppca._chi2_mixture_sf(rows, np.array([1.5, 1.5, 0.0]))
    assert sf[0] == pytest.approx(sf[1], abs=1e-12)
    assert sf[2] == 1.0


def test_series_past_its_term_cap_is_a_numeric_error():
    # an eigenvalue spread of 1e6 needs far more terms than the cap allows
    with pytest.raises(NumericError) as err:
        ppca._chi2_mixture_sf(np.array([[1e-6, 1.0], [1.0, 1.0]]), np.array([0.5, 0.5]))
    assert "unconverged" in str(err.value)


@st.composite
def check_problems(draw):
    """A PPCA model, data drawn from it and a mask mixing held counts h."""
    d = draw(st.integers(3, 9))
    k = draw(st.integers(1, d - 1))
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(5, 40))
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
    held[-1, :2] = True  # at least one row with h >= 2
    empty = ~held.any(axis=1)
    held[empty, rng.integers(0, d, int(empty.sum()))] = True
    full = held.all(axis=1)
    held[full, rng.integers(0, d, int(full.sum()))] = False
    return model, m, HoldoutMask(held)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(check_problems())
def test_check_equals_a_unit_by_unit_scipy_loop(problem):
    model, m, mask = problem
    res = predictive_check(model, m, mask)
    np.testing.assert_allclose(
        res.per_unit_scores, reference_check(model, m, mask), rtol=0, atol=1e-8
    )
    assert res.score == res.per_unit_scores.mean()


def rows_of(m, mask, idx):
    ids = [m.unit_ids[i] for i in idx]
    return CauseMatrix(m.values[idx], m.column_names, ids), HoldoutMask(mask.held[idx])


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(check_problems(), st.data())
def test_check_scores_follow_units_not_rows(problem, data):
    model, m, mask = problem
    n = m.n_units
    order = np.array(data.draw(st.permutations(range(n))))
    subset = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2))))

    def scores(matrix, held):
        return predictive_check(model, matrix, held).per_unit_scores

    full = scores(m, mask)
    assert np.array_equal(scores(*rows_of(m, mask, order)), full[order])
    assert np.array_equal(scores(*rows_of(m, mask, subset)), full[subset])


def plain_em(m, k, mask=None, *, seed=0, max_iter=1000, tol=1e-8):
    """Unaccelerated EM, row by row, from fit_ppca's start: the trace of every iterate.

    It stops by the rule fit_ppca uses: one EM step raises the
    log-likelihood by at most tol relative.
    """
    x = m.values
    observed = observed_of(m, mask)
    obs = observed.astype(float)
    h = obs.sum(axis=1)
    mu = np.array([x[observed[:, j], j].mean() for j in range(x.shape[1])])
    xc = np.where(observed, x - mu, 0.0)
    sum_x2 = (xc * xc).sum()

    def estep(w, s2):
        m_rows = np.einsum("nd,dk,dl->nkl", obs, w, w) + s2 * np.eye(k)
        b = xc @ w
        z = np.linalg.solve(m_rows, b[:, :, None])[:, :, 0]
        quad = (xc * xc).sum(axis=1) - (b * z).sum(axis=1)
        logdet = np.linalg.slogdet(m_rows)[1]
        ll = -0.5 * np.sum(h * math.log(2 * math.pi) + (h - k) * math.log(s2) + logdet + quad / s2)
        ezz = s2 * np.linalg.inv(m_rows) + z[:, :, None] * z[:, None, :]
        return np.einsum("nd,nkl->dkl", obs, ezz), xc.T @ z, float(ll)

    w, s2 = _init_params(x, observed, k, seed)
    a, b, ll = estep(w, s2)
    trace = [ll]
    for _ in range(max_iter):
        w = np.linalg.solve(a, b[:, :, None])[:, :, 0]
        s2 = float((sum_x2 - 2 * np.sum(b * w) + np.einsum("jk,jkl,jl->", w, a, w)) / h.sum())
        a, b, ll = estep(w, s2)
        trace.append(ll)
        if ll - trace[-2] <= tol * max(1.0, abs(trace[-2])):
            break
    return trace


@st.composite
def em_problems(draw):
    """Factor data whose likelihood has a maximum.

    K <= D - 2, and more than K rows are fully observed: with K or fewer,
    W can span them all and the noise variance shrink towards 0.
    """
    d = draw(st.integers(4, 8))
    k = draw(st.integers(1, d - 2))
    n = draw(st.integers(60, 200))
    rate = draw(st.sampled_from([0.0, 0.15, 0.3]))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    m, _ = sample_ppca(n, rng.standard_normal((d, k)), 0.2 + rng.random(), seed)
    held = rng.random((n, d)) < rate
    held[: d + k] = False
    held[held.all(axis=1), 0] = False
    return m, k, HoldoutMask(held) if rate else None, seed


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(em_problems(), st.sampled_from([1e-8, 1e-10]))
def test_squarem_trace_is_monotone_and_no_worse_than_plain_em(problem, tol):
    m, k, mask, seed = problem
    cfg = dict(max_iter=5000, tol=tol, seed=seed)
    model = fit_ppca(m, k, mask, **cfg)
    reference = plain_em(m, k, mask, **cfg)
    assert model.converged
    assert np.all(np.diff(model.fit_trace) >= 0.0)
    assert model.log_likelihood == model.fit_trace[-1]
    # Both loops stop once an EM step gains at most tol, short of the
    # maximum by a problem-dependent margin; SQUAREM's margin is never the
    # wider by as much as tol (it is the narrower on most problems).
    assert model.log_likelihood >= reference[-1] - tol * max(1.0, abs(reference[-1]))


@pytest.mark.parametrize("seed", [17, 29, 44, 59])
def test_unbounded_likelihood_never_yields_a_bogus_maximum(seed):
    # K = 6 of 7 columns with a third of the cells held: the fit drifts
    # towards s2 -> 0, and on these seeds SQUAREM extrapolates to s2 near
    # 1e-15. A quadratic term formed as a difference (sum x'x minus the
    # part the factors explain) cancels there and can report a
    # log-likelihood as high as 1e16 for parameters whose true one is far
    # below zero. The E-step forms it as a sum of squares, so the
    # likelihood stays accurate, SQUAREM rejects such a point, and the
    # model returned carries its own log-likelihood to rounding.
    rng = np.random.default_rng(seed)
    m, _ = sample_ppca(61, rng.standard_normal((7, 6)), 0.5, seed)
    held = rng.random((61, 7)) < 0.35
    held[-2:] = False
    held[held.all(axis=1), 0] = False
    model = fit_ppca(m, 6, mask=HoldoutMask(held), seed=seed)
    w, mu, s2 = model.loadings, model.mean, model.noise_variance
    expected = 0.0
    for i, obs in enumerate(~held):
        cov = w[obs] @ w[obs].T + s2 * np.eye(int(obs.sum()))
        expected += scipy.stats.multivariate_normal(mu[obs], cov).logpdf(m.values[i, obs])
    assert model.log_likelihood == pytest.approx(expected, rel=1e-9)
    assert np.all(np.diff(model.fit_trace) >= 0.0)


@pytest.mark.parametrize("seed", [147, 181])
def test_extrapolation_whose_noise_variance_underflows_is_rejected(seed):
    # K = 4 of 5 columns with two cells held on 57 of 60 rows: the fit
    # drifts towards s2 -> 0, and on these seeds a SqS3 extrapolation puts
    # log s2 below about -745, where math.exp underflows to 0.0 and the
    # E-step's log(s2) would raise. Such a point is rejected, as one that
    # overflows is, and the fit runs on to its E-step cap.
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((5, 4))
    z = rng.standard_normal((60, 4))
    x = z @ w.T + math.sqrt(0.5) * rng.standard_normal((60, 5))
    held = np.zeros((60, 5), dtype=bool)
    for i in range(57):
        held[i, rng.choice(5, 2, replace=False)] = True
    model = fit_ppca(matrix_from(x), 4, mask=HoldoutMask(held), seed=0)
    assert not model.converged
    assert np.all(np.diff(model.fit_trace) >= 0.0)


def test_squarem_needs_far_fewer_e_steps_than_plain_em():
    rng = np.random.default_rng(7)
    m, _ = sample_ppca(400, rng.standard_normal((30, 5)), 1.0, seed=7)
    mask = make_holdout(m, rate=0.2, seed=0)
    model = fit_ppca(m, 5, mask=mask, seed=0)
    reference = plain_em(m, 5, mask, seed=0)
    assert model.iterations * 2 < len(reference) - 1
    assert model.log_likelihood > reference[-1]


def test_failed_extrapolations_fall_back_to_the_em_double_step(monkeypatch):
    # Every cycle evaluates theta1, then the extrapolated point: with each
    # of those failing, the calls go start, theta1, x, theta2, theta1, x, ...
    # and SQUAREM keeps every second plain EM iterate.
    calls = []
    precisions = ppca._precisions

    def failing(*args):
        calls.append(None)
        if len(calls) % 3 == 0:
            raise NumericError("posterior precision lost positive definiteness")
        return precisions(*args)

    m, _ = sample_ppca(300, W_TRUE, 0.5, seed=8)
    mask = make_holdout(m, rate=0.2, seed=1)
    monkeypatch.setattr(ppca, "_precisions", failing)
    model = fit_ppca(m, 2, mask, seed=2)
    monkeypatch.undo()
    reference = plain_em(m, 2, mask, seed=2)
    trace = model.fit_trace
    assert model.converged and len(calls) == model.iterations + 1
    np.testing.assert_allclose(trace[:-1], reference[: 2 * len(trace) - 2 : 2], rtol=1e-10)
    assert np.all(np.diff(trace) >= 0.0)
    assert model.log_likelihood >= reference[-1] - 1e-8 * abs(reference[-1])


def test_em_double_step_scoring_below_theta1_stops_the_fit_converged(monkeypatch):
    # The calls go start, theta1, x, theta2. With x rejected and theta2's
    # log-determinants raised by 1e3 (its log-likelihood lowered), the
    # steps are taken to be inside the rounding: the fit keeps theta1 and
    # stops converged after 3 E-steps.
    calls = []
    precisions = ppca._precisions

    def patched(*args):
        calls.append(None)
        if len(calls) == 3:
            raise NumericError("posterior precision lost positive definiteness")
        minv, logdet = precisions(*args)
        return minv, logdet + 1e3 if len(calls) == 4 else logdet

    m, _ = sample_ppca(300, W_TRUE, 0.5, seed=8)
    monkeypatch.setattr(ppca, "_precisions", patched)
    model = fit_ppca(m, 2, make_holdout(m, rate=0.2, seed=1), seed=2)
    assert model.converged and model.iterations == 3 and len(calls) == 4
    assert len(model.fit_trace) == 2 and model.fit_trace[1] > model.fit_trace[0]
    assert model.log_likelihood == model.fit_trace[1]


def test_budget_of_one_e_step_is_reported_unconverged():
    m, _ = sample_ppca(200, W_TRUE, 0.5, seed=9)
    model = fit_ppca(m, 2, max_iter=1, seed=0)
    assert not model.converged
    assert model.iterations == 1
    assert len(model.fit_trace) == 2 and model.fit_trace[1] > model.fit_trace[0]


def test_e_step_budget_counts_rejected_extrapolations():
    m, _ = sample_ppca(400, W_TRUE, 0.5, seed=10)
    for budget in range(1, 12):
        model = fit_ppca(m, 2, max_iter=budget, tol=0.0, seed=0)
        assert model.iterations == budget and not model.converged
