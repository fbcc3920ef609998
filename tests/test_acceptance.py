"""Acceptance gate: one verdict line per criterion.

Each test prints "[criterion N] PASS/FAIL: detail" straight to the
terminal (bypassing capture) and then asserts the criterion at its
stated tolerance. Criterion 4 is asserted faithfully even though the
construction cannot reach it: with jointly Gaussian causes and outcome,
E[y | a] is exactly linear in a, and any surrogate built from the causes
adds nothing the regression can use, so the adjusted coefficients
reproduce the naive ones instead of halving their bias. The test states
the target and reports the measured gap honestly.
"""

import math
import pathlib
import time

import numpy as np
import pytest
import scipy.stats

from multicause.cli import main as cli_main
from multicause.dataset import CauseMatrix, make_holdout, standardize
from multicause.effects import (
    estimate_effects_causal,
    estimate_effects_noncausal,
    ols_fit,
)
from multicause.imputation import impute_mice
from multicause.mediation import mediate
from multicause.ppca import (
    fit_ppca,
    posterior_mean_partial,
    predictive_check,
)
from multicause.robustness import sweep
from ppca_oracles import closed_form_max_loglik
from multicause.synthetic import (
    config_confounded,
    config_flip,
    config_mediation,
    generate,
)
from multicause.tables import FOOTNOTE, render_regression_table
from multicause.effects import RegressionReport, RegressionRow

pytestmark = pytest.mark.acceptance

GOLDEN = pathlib.Path(__file__).parent / "golden"


def emit(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def matrix_from(vals):
    n, d = np.asarray(vals).shape
    return CauseMatrix(
        np.asarray(vals, dtype=float),
        [f"c{j}" for j in range(d)],
        [f"u{i}" for i in range(n)],
    )


def test_criterion_1_ols_oracle_equivalence(capsys):
    start = time.perf_counter()
    worst_coef = worst_std = worst_t = worst_p = worst_ci = 0.0
    for i in range(200):
        rng = np.random.default_rng(1000 + i)
        q = int(rng.integers(1, 7))
        n = int(rng.integers(q + 4, 51))
        design = np.column_stack([np.ones(n), rng.standard_normal((n, q))])
        y = design @ rng.standard_normal(q + 1) + 0.5 * rng.standard_normal(n)
        report = ols_fit(design, y)

        xtx = design.T @ design
        beta = np.linalg.solve(xtx, design.T @ y)
        resid = y - design @ beta
        dof = n - q - 1
        s2 = float(resid @ resid) / dof
        std = np.sqrt(s2 * np.diag(np.linalg.inv(xtx)))
        t_stats = beta / std
        p_vals = 2.0 * scipy.stats.t.sf(np.abs(t_stats), dof)
        t_crit = scipy.stats.t.ppf(0.975, dof)

        got = report.coefficients()
        worst_coef = max(worst_coef, float(np.max(np.abs(got - beta))))
        rows = report.rows
        worst_std = max(
            worst_std, max(abs(rows[j].std - std[j]) for j in range(q + 1))
        )
        worst_t = max(
            worst_t, max(abs(rows[j].t_stat - t_stats[j]) for j in range(q + 1))
        )
        worst_p = max(
            worst_p, max(abs(rows[j].p_value - p_vals[j]) for j in range(q + 1))
        )
        worst_ci = max(
            worst_ci,
            max(
                max(
                    abs(rows[j].ci_low - (beta[j] - t_crit * std[j])),
                    abs(rows[j].ci_high - (beta[j] + t_crit * std[j])),
                )
                for j in range(q + 1)
            ),
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst_coef < 1e-8
        and worst_std < 1e-8
        and worst_t < 1e-6
        and worst_p < 1e-6
        and worst_ci < 1e-6
        and elapsed < 10.0
    )
    emit(
        capsys,
        1,
        ok,
        f"200 instances: coef {worst_coef:.1e}, std {worst_std:.1e}, "
        f"p {worst_p:.1e}, ci {worst_ci:.1e} in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_ppca_closed_form(capsys):
    start = time.perf_counter()
    worst_gap = 0.0
    worst_dip = 0.0
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        w_true = rng.standard_normal((9, 3))
        z = rng.standard_normal((1000, 3))
        a = z @ w_true.T + math.sqrt(0.3) * rng.standard_normal((1000, 9))
        m = matrix_from(a)
        k = 2 if seed % 2 == 0 else 5
        model = fit_ppca(m, k, max_iter=5000, tol=1e-15, seed=seed)
        gap = abs(model.log_likelihood - closed_form_max_loglik(m, k))
        worst_gap = max(worst_gap, gap)
        trace = np.array(model.fit_trace)
        dips = np.diff(trace) / np.maximum(1.0, np.abs(trace[:-1]))
        worst_dip = max(worst_dip, float(-dips.min()) if dips.size else 0.0)
    elapsed = time.perf_counter() - start
    ok = worst_gap < 1e-6 and worst_dip < 1e-7 and elapsed < 60.0
    emit(
        capsys,
        2,
        ok,
        f"50 fits: worst |logL gap| {worst_gap:.1e}, "
        f"worst trace dip {worst_dip:.1e} in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_predictive_check_calibration(capsys):
    start = time.perf_counter()
    n, d, k = 2000, 9, 3
    s2_true = 0.25
    well_passed = 0
    displaced_failed = 0
    trials = 100
    for seed in range(trials):
        rng = np.random.default_rng(3000 + seed)
        w_true = rng.standard_normal((d, k))
        z = rng.standard_normal((n, k))
        a = z @ w_true.T + math.sqrt(s2_true) * rng.standard_normal((n, d))
        m = matrix_from(a)
        mask = make_holdout(m, rate=0.2, seed=seed)
        model = fit_ppca(m, k, mask=mask, seed=seed)
        res = predictive_check(model, m, mask)
        well_passed += res.passed

        sd = np.sqrt(np.einsum("jk,jk->j", w_true, w_true) + s2_true)
        displaced = a.copy()
        displaced[mask.held] += 10.0 * np.broadcast_to(sd, (n, d))[mask.held]
        res_bad = predictive_check(model, matrix_from(displaced), mask)
        displaced_failed += not res_bad.passed
    elapsed = time.perf_counter() - start
    ok = well_passed >= 95 and displaced_failed >= 95 and elapsed < 300.0
    emit(
        capsys,
        3,
        ok,
        f"well-specified passed {well_passed}/100, displaced failed "
        f"{displaced_failed}/100 in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_deconfounding_bias_reduction(capsys):
    start = time.perf_counter()
    seeds = 500
    causal_betas = np.empty((seeds, 9))
    naive_betas = np.empty((seeds, 9))
    causal_cover = np.zeros((seeds, 9), dtype=bool)
    naive_cover = np.zeros((seeds, 9), dtype=bool)
    true_beta = None
    for seed in range(seeds):
        cfg = config_confounded(n_units=5000, seed=seed)
        m, _, y, _ = generate(cfg)
        true_beta = cfg.true_beta
        mask = make_holdout(m, rate=0.2, seed=seed)
        model = fit_ppca(m, 3, mask=mask, seed=seed)
        z = posterior_mean_partial(model, m, mask)
        causal = estimate_effects_causal(m, z, y)
        naive = estimate_effects_noncausal(m, y)
        causal_betas[seed] = causal.beta
        naive_betas[seed] = naive.beta
        for j in range(9):
            row_c = causal.regression.rows[1 + j]
            row_n = naive.regression.rows[1 + j]
            causal_cover[seed, j] = row_c.ci_low <= true_beta[j] <= row_c.ci_high
            naive_cover[seed, j] = row_n.ci_low <= true_beta[j] <= row_n.ci_high
    elapsed = time.perf_counter() - start

    bias_causal = np.abs(causal_betas.mean(axis=0) - true_beta)
    bias_naive = np.abs(naive_betas.mean(axis=0) - true_beta)
    ratio = bias_causal / bias_naive
    cov_causal = causal_cover.mean(axis=0)
    cov_naive = naive_cover.mean(axis=0)
    halved = bool(np.all(ratio <= 0.5))
    causal_covered = bool(np.all(cov_causal >= 0.90))
    naive_undercovers = bool(np.any(cov_naive <= 0.70))
    ok = halved and causal_covered and naive_undercovers and elapsed < 600.0
    emit(
        capsys,
        4,
        ok,
        f"bias ratio per cause min {ratio.min():.2f} / max {ratio.max():.2f} "
        f"(target <= 0.50), causal coverage min {cov_causal.min():.2f} "
        f"(target >= 0.90), naive coverage min {cov_naive.min():.2f} in {elapsed:.0f}s",
    )
    assert ok, (
        "bias halving target not met: the posterior-mean surrogate is a "
        "(pattern-wise) linear function of the observed causes, so in this "
        "jointly Gaussian design E[y|a, z] = E[y|a] and the adjusted "
        "regression converges to the naive coefficients; measured "
        f"per-cause bias ratios {np.round(ratio, 2).tolist()} with causal "
        f"coverage {np.round(cov_causal, 2).tolist()}"
    )


def test_criterion_5_mediation_decomposition(capsys):
    start = time.perf_counter()
    active = [0, 1, 2, 4, 5]  # causes with nonzero mediator path
    worst_resid = 0.0
    pattern_ok = 0
    full_joint_ok = 0
    directs = np.empty((100, 6))
    stds = np.empty((100, 6))
    for seed in range(100):
        m, r, y, _ = generate(config_mediation(n_units=3000, seed=seed))
        mask = make_holdout(m, rate=0.2, seed=seed)
        model = fit_ppca(m, 2, mask=mask, seed=seed)
        z = posterior_mean_partial(model, m, mask)
        rep = mediate(m, z, r, y)
        worst_resid = max(worst_resid, rep.decomposition_residual)
        pattern_ok += all(
            np.sign(rep.beta_direct[j]) == np.sign(rep.beta_total[j])
            and abs(rep.beta_direct[j]) <= abs(rep.beta_total[j])
            for j in active
        )

        m2, r2, y2, _ = generate(config_mediation(n_units=3000, seed=seed, full=True))
        mask2 = make_holdout(m2, rate=0.2, seed=seed)
        model2 = fit_ppca(m2, 2, mask=mask2, seed=seed)
        z2 = posterior_mean_partial(model2, m2, mask2)
        rep2 = mediate(m2, z2, r2, y2)
        worst_resid = max(worst_resid, rep2.decomposition_residual)
        directs[seed] = rep2.beta_direct
        stds[seed] = [rep2.step4.rows[1 + j].std for j in range(6)]
        full_joint_ok += bool(
            np.all(np.abs(rep2.beta_direct) < 2.0 * stds[seed])
        )
    elapsed = time.perf_counter() - start
    # scenario level: the average direct effect vanishes against its
    # average uncertainty for every cause
    full_ok = bool(
        np.all(np.abs(directs.mean(axis=0)) < 2.0 * stds.mean(axis=0))
    )
    ok = worst_resid <= 1e-8 and pattern_ok >= 95 and full_ok
    emit(
        capsys,
        5,
        ok,
        f"identity residual {worst_resid:.1e} over 200 runs, partial pattern "
        f"{pattern_ok}/100, full scenario |mean direct| < 2 mean std: {full_ok} "
        f"(per-seed joint {full_joint_ok}/100) in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_sign_flip_contrast(capsys):
    start = time.perf_counter()
    contrast_ok = 0
    for seed in range(100):
        m, _, y, _ = generate(config_flip(n_units=2000, seed=seed))
        noncausal = sweep(m, y)
        mask = make_holdout(m, rate=0.2, seed=seed)
        model = fit_ppca(m, 1, mask=mask, seed=seed)
        z = posterior_mean_partial(model, m, mask)
        causal = sweep(m, y, z=z)
        contrast_ok += len(noncausal.flips) >= 1 and len(causal.flips) == 0
    elapsed = time.perf_counter() - start
    ok = contrast_ok >= 90
    emit(
        capsys,
        6,
        ok,
        f"non-causal flips with causal stability in {contrast_ok}/100 seeds "
        f"in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_mice_quality(capsys):
    start = time.perf_counter()
    # noiseless linear dependence comes back exactly
    rng = np.random.default_rng(7)
    c0 = rng.standard_normal(300)
    c1 = rng.standard_normal(300)
    vals = np.column_stack([c0, c1, 2.0 * c0 - c1 + 0.5])
    miss = np.zeros((300, 3), dtype=bool)
    miss[rng.choice(300, 60, replace=False), 2] = True
    target = vals[miss]
    masked = vals.copy()
    masked[miss] = np.nan
    res = impute_mice(CauseMatrix(masked, ["c0", "c1", "c2"], [f"u{i}" for i in range(300)]))
    exact_err = float(np.max(np.abs(res.matrix.values[miss] - target)))

    wins = 0
    for seed in range(100):
        cfg = config_confounded(n_units=2000, seed=seed, missing_rate=0.10)
        m, _, _, truth = generate(cfg)
        filled = impute_mice(m).matrix.values
        miss_m = m.missing
        ref = truth.causes_complete[miss_m]
        rmse = float(np.sqrt(np.mean((filled[miss_m] - ref) ** 2)))
        col_mean = np.nanmean(m.values, axis=0)
        mean_fill = np.broadcast_to(col_mean, m.values.shape)[miss_m]
        rmse_mean = float(np.sqrt(np.mean((mean_fill - ref) ** 2)))
        wins += rmse < rmse_mean
    elapsed = time.perf_counter() - start
    ok = exact_err < 1e-8 and wins >= 95
    emit(
        capsys,
        7,
        ok,
        f"noiseless recovery {exact_err:.1e}, beats mean fill in "
        f"{wins}/100 seeds in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_8_report_fidelity(capsys):
    def row(name, mean, std, p, lo, hi):
        sig = "5%" if p <= 0.05 else ("10%" if p <= 0.10 else "none")
        return RegressionRow(name=name, mean=mean, std=std, t_stat=0.0,
                             p_value=p, ci_low=lo, ci_high=hi, significance=sig)

    fixture = RegressionReport(
        rows=[
            row("Intercept", 3.81, 0.02, 0.0, 3.77, 3.85),
            row("food_pos", 0.42, 0.05, 0.001, 0.32, 0.52),
            row("service_neg", -0.18, 0.10, 0.07, -0.38, 0.02),
            row("misc_pos", 0.03, 0.06, 0.62, -0.09, 0.15),
        ],
        residual_variance=0.25,
        n=500,
        dof=496,
    )
    rendered = render_regression_table(fixture)
    golden_ok = rendered == (GOLDEN / "regression.txt").read_text()
    header = rendered.splitlines()[0]
    schema_ok = (
        header.index("Mean") < header.index("STD") < header.index("p-value")
        and "[0.025" in header
        and "0.975]" in header
        and FOOTNOTE == "* denotes 5% significance and ** 10% significance."
        and "0.07**" in rendered
        and "0.00*" in rendered
    )

    m, _, y, _ = generate(config_confounded(n_units=3000, seed=8))
    std_m, _ = standardize(m)
    naive = estimate_effects_noncausal(std_m, y)
    gap = abs(naive.regression.rows[0].mean - float(np.mean(y)))
    intercept_ok = gap < 1e-10

    ok = golden_ok and schema_ok and intercept_ok
    emit(
        capsys,
        8,
        ok,
        f"golden match {golden_ok}, header/footnote schema {schema_ok}, "
        f"|intercept - mean(y)| = {gap:.1e}",
    )
    assert ok


def test_criterion_9_determinism_and_runtime(capsys, tmp_path):
    start = time.perf_counter()
    data = tmp_path / "data"
    code = cli_main(
        ["synth", "--scenario", "confounded", "--n", "5000", "--seed", "11",
         "--out", str(data)]
    )
    assert code == 0
    outs = []
    for label in ("a", "b"):
        out = tmp_path / label
        code = cli_main(
            ["effects", "--input", str(data / "data.csv"),
             "--outcome", "popularity", "-k", "5",
             "--corr-threshold", "0.95", "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    elapsed = time.perf_counter() - start
    same = [
        name
        for name in ("report.json", "report.txt", "model.json",
                     "holdout.json", "manifest.json")
        if (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    ]
    identical = len(same) == 5
    ok = identical and elapsed < 60.0
    emit(
        capsys,
        9,
        ok,
        f"two runs bit-identical on {len(same)}/5 files, "
        f"synth + 2x pipeline in {elapsed:.1f}s",
    )
    assert ok
