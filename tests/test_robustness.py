"""Cumulative-inclusion sweep and its sign-flip detector.

The flip scenario is engineered: c1 and c5 load on the same latent
factor, c5 enters the regression last with a large positive effect, and
c1's own effect is negative. Until c5 joins, c1 proxies for it and shows
up positive; at the final step it swings negative. Adjusting for the
inferred confounder keeps c1 negative throughout.
"""

import json

import numpy as np
import pytest

from multicause.dataset import CauseMatrix, make_holdout, standardize
from multicause.errors import ValidationError
from multicause.ppca import PpcaConfig, fit_ppca, posterior_mean_partial
from multicause.robustness import SweepCell, sweep
from multicause.synthetic import config_flip, generate
from multicause.tables import canonical_json


def matrix_from(vals):
    n, d = np.asarray(vals).shape
    return CauseMatrix(
        np.asarray(vals, dtype=float),
        [f"c{j}" for j in range(d)],
        [f"u{i}" for i in range(n)],
    )


def pipeline_surrogates(m, k, seed=0):
    mask = make_holdout(m, rate=0.2, seed=seed)
    model = fit_ppca(m, k, PpcaConfig(seed=seed), mask=mask)
    return posterior_mean_partial(model, m, mask)


def test_flip_scenario_flips_without_adjustment():
    m, _, y, _ = generate(config_flip(n_units=2000, seed=0))
    std, _ = standardize(m)
    table = sweep(std, y)
    assert table.mode == "noncausal"
    assert [f.cause for f in table.flips] == ["c1"]
    flip = table.flips[0]
    assert flip.step == 5
    assert flip.from_sign == 1
    assert flip.to_sign == -1
    # both cells around the flip are significant by construction
    assert table.cell("c1", 4).significant
    assert table.cell("c1", 5).significant
    assert table.cell("c1", 4).coefficient > 0 > table.cell("c1", 5).coefficient


def test_flip_scenario_is_stable_with_adjustment():
    m, _, y, _ = generate(config_flip(n_units=2000, seed=0))
    std, _ = standardize(m)
    table = sweep(std, y, z=pipeline_surrogates(std, k=1))
    assert table.mode == "causal"
    assert table.flips == []
    # c1 keeps its true negative sign from the moment it enters
    signs = {np.sign(table.cell("c1", t).coefficient) for t in range(1, 6)}
    assert signs == {-1.0}


def test_independent_causes_never_flip():
    # orthogonal causes leave nothing to borrow, so the sweep stays flat
    rng = np.random.default_rng(1)
    m = matrix_from(rng.standard_normal((3000, 5)))
    y = m.values @ [0.4, -0.3, 0.2, 0.0, -0.2] + rng.standard_normal(3000)
    assert sweep(m, y).flips == []


def _borrowed_sign_data(seed):
    # c0's marginal coefficient borrows c2's large effect (shared factor h)
    # and sits opposite to its own conditional one
    rng = np.random.default_rng(seed)
    n = 500
    h = rng.standard_normal(n)
    c0 = 0.8 * h + 0.9 * rng.standard_normal(n)
    c1 = rng.standard_normal(n)
    c2 = h + 0.3 * rng.standard_normal(n)
    y = -0.25 * c0 + 0.4 * c1 + 0.62 * c2 + rng.standard_normal(n)
    return matrix_from(np.column_stack([c0, c1, c2])), y


def test_flip_requires_significance_on_both_sides():
    # seed 0: significant on both sides of the swing -> reported
    m, y = _borrowed_sign_data(0)
    table = sweep(m, y)
    assert [(f.cause, f.step) for f in table.flips] == [("c0", 3)]
    # seed 1: same swing but the positive side never clears alpha -> silent
    m, y = _borrowed_sign_data(1)
    table = sweep(m, y)
    assert table.flips == []
    assert table.cell("c0", 2).coefficient > 0 > table.cell("c0", 3).coefficient
    assert not table.cell("c0", 2).significant
    assert table.cell("c0", 3).significant


def test_sweep_respects_a_custom_order():
    m, _, y, _ = generate(config_flip(n_units=2000, seed=0))
    std, _ = standardize(m)
    order = ["c5", "c1", "c2", "c3", "c4"]
    table = sweep(std, y, order=order)
    assert table.order == order
    # with c5 in from the start, c1 never borrows its effect: no flips
    assert table.flips == []
    assert table.cell("c5", 1).significant
    assert table.cell("c1", 1) is None  # not yet included


def test_sweep_table_shape_and_serialization():
    m, _, y, _ = generate(config_flip(n_units=500, seed=2))
    std, _ = standardize(m)
    table = sweep(std, y)
    assert len(table.cells) == 5
    for t, step_cells in enumerate(table.cells, start=1):
        assert len(step_cells) == t
    doc = json.loads(canonical_json(table))
    assert doc["mode"] == "noncausal"
    assert doc["order"] == ["c1", "c2", "c3", "c4", "c5"]
    cell = doc["cells"][0]["c1"]
    assert set(cell) == {"coefficient", "p_value", "significant"}
    assert isinstance(table.cell("c1", 1), SweepCell)


def test_sweep_input_validation():
    m, _, y, _ = generate(config_flip(n_units=300, seed=3))
    with pytest.raises(ValidationError):
        sweep(m, y[:100])
    with pytest.raises(ValidationError):
        sweep(m, y, order=["c1", "c2"])
    with pytest.raises(ValidationError):
        sweep(m, y, order=["c1", "c2", "c3", "c4", "c4"])
    holes = m.values.copy()
    holes[0, 1] = np.nan
    with_missing = CauseMatrix(holes, m.column_names, m.unit_ids)
    with pytest.raises(ValidationError):
        sweep(with_missing, y)
    for alpha in (0.0, 1.0, 2.0, -0.5, float("nan")):
        with pytest.raises(ValidationError, match="alpha"):
            sweep(m, y, alpha=alpha)
