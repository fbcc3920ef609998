"""Ground-truth generator invariants.

These are the properties the rest of the suite leans on: bit-identical
determinism, the overlap shift, the MAR missingness budget, and the
single-ignorability guard on configs.
"""

import numpy as np
import pytest

from multicause.dataset import check_overlap
from multicause.errors import ValidationError
from multicause.effects import estimate_effects_noncausal
from multicause.synthetic import (
    SCENARIOS,
    SyntheticConfig,
    config_confounded,
    config_flip,
    config_mediation,
    config_unconfounded,
    generate,
)


def test_same_config_is_bit_identical():
    cfg_a = config_confounded(n_units=800, seed=42, missing_rate=0.1)
    cfg_b = config_confounded(n_units=800, seed=42, missing_rate=0.1)
    m1, _, y1, t1 = generate(cfg_a)
    m2, _, y2, t2 = generate(cfg_b)
    assert np.array_equal(m1.values, m2.values, equal_nan=True)
    assert np.array_equal(m1.missing, m2.missing)
    assert np.array_equal(y1, y2)
    assert np.array_equal(t1.z, t2.z)
    # a different seed moves the data
    m3, _, _, _ = generate(config_confounded(n_units=800, seed=43, missing_rate=0.1))
    assert not np.array_equal(m1.values, m3.values, equal_nan=True)


def test_overlap_holds_and_the_shift_is_recorded():
    m, _, _, truth = generate(config_confounded(n_units=2000, seed=0))
    assert check_overlap(m).passed
    if truth.overlap_shift > 0.0:
        # undoing the shift exposes at least one all-nonpositive row
        undone = truth.causes_complete - truth.overlap_shift
        assert (undone.max(axis=1) <= 0.0).any()


def test_missing_fraction_tracks_the_rate():
    m, _, _, truth = generate(
        config_confounded(n_units=5000, seed=1, missing_rate=0.10)
    )
    frac = truth.missing_mask.mean()
    assert frac == pytest.approx(0.10, abs=0.01)
    # the anchor column drives missingness and is itself never hidden
    assert not truth.missing_mask[:, 0].any()
    # no unit loses everything
    assert not truth.missing_mask.all(axis=1).any()
    assert np.isnan(m.values[truth.missing_mask]).all()


def test_missingness_is_mar_on_the_anchor():
    _, _, _, truth = generate(
        config_confounded(n_units=8000, seed=2, missing_rate=0.15)
    )
    anchor = truth.causes_complete[:, 0]
    holes = truth.missing_mask[:, 1:].mean(axis=1)
    lo = holes[anchor < np.median(anchor)].mean()
    hi = holes[anchor >= np.median(anchor)].mean()
    assert hi > lo + 0.05  # hiding probability rises with the anchor


def test_single_ignorability_guard():
    # latent dim 1 shifts the outcome but drives only one cause: rejected
    loadings = np.array([[1.0, 0.0], [0.8, 0.0], [0.6, 1.0]])
    with pytest.raises(ValidationError) as err:
        SyntheticConfig(
            n_units=100,
            n_causes=3,
            latent_dim=2,
            confounder_loadings=loadings,
            outcome_gamma=np.array([0.5, 0.7]),
            true_beta=np.zeros(3),
        )
    assert "fewer than 2 causes" in str(err.value)
    # harmless if that dimension never touches the outcome
    SyntheticConfig(
        n_units=100,
        n_causes=3,
        latent_dim=2,
        confounder_loadings=loadings,
        outcome_gamma=np.array([0.5, 0.0]),
        true_beta=np.zeros(3),
    )


def test_config_validation():
    with pytest.raises(ValidationError):
        config_confounded(n_units=1)
    with pytest.raises(ValidationError):
        SyntheticConfig(
            n_units=100,
            n_causes=3,
            latent_dim=3,  # must stay below n_causes
            confounder_loadings=np.ones((3, 3)),
            outcome_gamma=np.zeros(3),
            true_beta=np.zeros(3),
        )
    cfg = config_confounded(n_units=100)
    with pytest.raises(ValidationError):
        SyntheticConfig(
            n_units=100,
            n_causes=9,
            latent_dim=3,
            confounder_loadings=cfg.confounder_loadings,
            outcome_gamma=cfg.outcome_gamma,
            true_beta=cfg.true_beta,
            missing_rate=1.0,
        )
    with pytest.raises(ValidationError):
        SyntheticConfig(
            n_units=100,
            n_causes=9,
            latent_dim=3,
            confounder_loadings=cfg.confounder_loadings,
            outcome_gamma=cfg.outcome_gamma,
            true_beta=cfg.true_beta,
            mediator_theta=np.zeros(9),  # lambda missing
        )


def test_unconfounded_naive_regression_recovers_beta():
    cfg = config_unconfounded(n_units=5000, seed=3)
    m, _, y, truth = generate(cfg)
    est = estimate_effects_noncausal(m, y)
    err = est.beta - truth.true_beta
    std = np.array([r.std for r in est.regression.rows[1:10]])
    assert np.all(np.abs(err) < 3.0 * std)


def test_confounded_naive_regression_is_biased():
    cfg = config_confounded(n_units=5000, seed=3)
    m, _, y, truth = generate(cfg)
    est = estimate_effects_noncausal(m, y)
    assert np.max(np.abs(est.beta - truth.true_beta)) > 0.1


def test_mediator_construction():
    cfg = config_mediation(n_units=4000, seed=4)
    m, rating, y, truth = generate(cfg)
    resid = rating - truth.causes_complete @ truth.mediator_theta
    assert resid.std() == pytest.approx(cfg.noise_sd_mediator, rel=0.1)
    # outcome leans on the realized mediator
    direct = truth.causes_complete @ truth.true_beta
    resid_y = y - direct - truth.mediator_lambda * rating
    assert resid_y.std() == pytest.approx(cfg.noise_sd_outcome, rel=0.1)


def test_scenarios_registry():
    assert set(SCENARIOS) == {
        "confounded",
        "unconfounded",
        "flip",
        "mediation-partial",
        "mediation-full",
    }
    for name, factory in SCENARIOS.items():
        cfg = factory(n_units=50, seed=9)
        m, rating, y, _ = generate(cfg)
        assert m.n_units == 50
        assert (rating is not None) == name.startswith("mediation")
    assert np.all(SCENARIOS["mediation-full"](n_units=50).true_beta == 0.0)
    assert np.any(SCENARIOS["mediation-partial"](n_units=50).true_beta != 0.0)


def test_unit_ids_are_zero_padded_and_unique():
    m, _, _, _ = generate(config_flip(n_units=120, seed=5))
    assert m.unit_ids[0] == "u000"
    assert m.unit_ids[-1] == "u119"
    assert len(set(m.unit_ids)) == 120
