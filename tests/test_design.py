"""Every outcome regression is fitted on the one design outcome_design lays out.

The causal and naive estimates, the predictive comparison, the mediation
steps and the robustness sweep are each checked against an ols_fit on a
design stacked here by hand: intercept, causes in the order asked for,
the non-constant surrogate columns named z{j+1}, then the covariates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicause.dataset import CauseMatrix, CovariateMatrix
from multicause.effects import (
    estimate_effects_causal,
    estimate_effects_noncausal,
    ols_fit,
    outcome_design,
    predictive_comparison,
)
from multicause.errors import ValidationError
from multicause.mediation import mediate
from multicause.robustness import sweep


@st.composite
def design_problems(draw):
    """Causes as a random subset of columns in a random order, surrogates
    with some constant columns, and covariates or none."""
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(80, 160))
    pool = draw(st.integers(2, 6))
    columns = draw(st.permutations(range(pool)))[: draw(st.integers(1, pool))]
    constant = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    n_cov = draw(st.integers(0, 2))
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, pool))
    a = CauseMatrix(raw[:, columns], [f"c{j}" for j in columns], [f"u{i}" for i in range(n)])
    z_vals = rng.standard_normal((n, len(constant)))
    z_vals[:, constant] = rng.standard_normal(len(constant))[constant]
    x = None
    if n_cov:
        x = CovariateMatrix(rng.standard_normal((n, n_cov)), [f"w{j}" for j in range(n_cov)])
    r_vals = raw.sum(axis=1) + z_vals.sum(axis=1) + rng.standard_normal(n)
    y_vals = raw @ rng.standard_normal(pool) + 0.5 * r_vals + rng.standard_normal(n)
    order = [a.column_names[j] for j in draw(st.permutations(range(a.n_causes)))]
    return a, z_vals, x, r_vals, y_vals, order


def by_hand(a, z, x, causes=None, with_z=True):
    causes = list(a.column_names) if causes is None else causes
    cols = [np.ones(a.n_units)] + [a.values[:, a.column_names.index(c)] for c in causes]
    names = ["Intercept", *causes]
    if with_z:
        for j in range(z.shape[1]):
            if np.ptp(z[:, j]) > 0.0:
                cols.append(z[:, j])
                names.append(f"z{j + 1}")
    if x is not None:
        cols += list(x.values.T)
        names += x.column_names
    return np.column_stack(cols), names


def assert_same_fit(report, reference):
    assert [r.name for r in report.rows] == [r.name for r in reference.rows]
    np.testing.assert_allclose(
        report.coefficients(), reference.coefficients(), rtol=1e-9, atol=1e-12
    )


def short(v, k=1):
    """The same input with its last k units dropped."""
    if isinstance(v, CovariateMatrix):
        return CovariateMatrix(v.values[:-k], v.column_names)
    return v[:-k]


DESIGNS = settings(max_examples=25, deadline=None, database=None, derandomize=True)


@DESIGNS
@given(design_problems())
def test_builder_matches_the_hand_stacked_design(problem):
    a, z, x, _, y, order = problem
    for causes in (None, order):
        design, names, kept = outcome_design(a, z, x, y, causes=causes)
        expected, expected_names = by_hand(a, z, x, causes)
        assert names == expected_names
        assert np.array_equal(design, expected)
        assert kept == [j for j in range(z.shape[1]) if np.ptp(z[:, j]) > 0]


@DESIGNS
@given(design_problems())
def test_every_entry_point_fits_the_same_design(problem):
    a, z, x, r, y, order = problem
    full, full_names = by_hand(a, z, x)
    naive, naive_names = by_hand(a, z, x, with_z=False)

    causal = estimate_effects_causal(a, z, y, x)
    assert_same_fit(causal.regression, ols_fit(full, y, full_names))
    gamma = np.zeros(z.shape[1])
    for j in range(gamma.size):
        if f"z{j + 1}" in full_names:
            gamma[j] = causal.regression.row(f"z{j + 1}").mean
    assert np.array_equal(causal.gamma, gamma)
    assert_same_fit(estimate_effects_noncausal(a, y, x).regression, ols_fit(naive, y, naive_names))

    comparison = predictive_comparison(a, z, y, x, seed=3)
    perm = np.random.default_rng(3).permutation(a.n_units)
    test, train = perm[: int(0.2 * a.n_units)], perm[int(0.2 * a.n_units) :]
    for label, design in (("causal", full), ("noncausal", naive)):
        fit = ols_fit(design[train], y[train])
        err = y[test] - design[test] @ fit.coefficients()
        assert comparison[label]["mse"] == pytest.approx(np.mean(err * err), rel=1e-9)
        assert comparison[label]["mae"] == pytest.approx(np.mean(np.abs(err)), rel=1e-9)

    med = mediate(a, z, r, y, x)
    assert_same_fit(med.step1, ols_fit(full, y, full_names))
    assert_same_fit(med.step2, ols_fit(full, r, full_names))
    with_r = np.column_stack([full, r])
    assert_same_fit(med.step4, ols_fit(with_r, y, full_names + ["mediator"]))

    table = sweep(a, y, z=z, order=order)
    for t in range(1, len(order) + 1):
        design, names = by_hand(a, z, None, order[:t])
        reference = ols_fit(design, y, names)
        assert list(table.cells[t - 1]) == order[:t]
        got = [table.cell(c, t).coefficient for c in order[:t]]
        np.testing.assert_allclose(got, reference.coefficients()[1 : 1 + t], rtol=1e-9, atol=1e-12)


@DESIGNS
@given(design_problems())
def test_every_entry_point_rejects_a_short_input(problem):
    a, z, x, r, y, order = problem
    x = x if x is not None else CovariateMatrix(np.ones((a.n_units, 1)), ["w"])
    calls = [
        lambda z, y, x: estimate_effects_causal(a, z, y, x),
        lambda z, y, x: estimate_effects_noncausal(a, y, x),
        lambda z, y, x: predictive_comparison(a, z, y, x),
        lambda z, y, x: mediate(a, z, r, y, x),
        lambda z, y, x: sweep(a, y, z=z, order=order),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call(z, short(y), x)
    for call in (calls[0], calls[2], calls[3], calls[4]):
        with pytest.raises(ValidationError):
            call(short(z), y, x)
    for call in calls[:4]:
        with pytest.raises(ValidationError):
            call(z, y, short(x))
    with pytest.raises(ValidationError):
        mediate(a, z, short(r), y, x)


def test_a_surrogate_block_must_be_two_dimensional():
    rng = np.random.default_rng(0)
    a = CauseMatrix(rng.standard_normal((20, 2)), ["c0", "c1"], [f"u{i}" for i in range(20)])
    y = rng.standard_normal(20)
    for z in (rng.standard_normal(20), rng.standard_normal((20, 2, 1))):
        with pytest.raises(ValidationError, match="N x K"):
            outcome_design(a, z, None, y)
        with pytest.raises(ValidationError, match="N x K"):
            estimate_effects_causal(a, z, y)
