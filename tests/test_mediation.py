"""Four-step mediation on generated data with known path coefficients."""

import json

import numpy as np
import pytest

from multicause.dataset import CauseMatrix
from multicause.errors import ValidationError
from multicause.mediation import (
    STATUS_FULL,
    STATUS_NO_TOTAL,
    STATUS_NOT_ESTABLISHED,
    STATUS_PARTIAL,
    mediate,
)
from multicause.synthetic import config_mediation, generate
from multicause.tables import canonical_json


def dead_surrogates(n):
    # constant surrogate columns are dropped inside the fit, leaving the
    # plain cause design; the scenario has no outcome confounding anyway
    return np.zeros((n, 1))


def matrix_from(vals):
    n, d = np.asarray(vals).shape
    return CauseMatrix(
        np.asarray(vals, dtype=float),
        [f"c{j}" for j in range(d)],
        [f"u{i}" for i in range(n)],
    )


def test_decomposition_identity_holds_exactly():
    m, r, y, _ = generate(config_mediation(n_units=1500, seed=0))
    rep = mediate(m, dead_surrogates(1500), r, y)
    assert rep.decomposition_residual <= 1e-8
    assert np.allclose(
        rep.beta_total, rep.beta_direct + rep.lam * rep.theta, atol=1e-8
    )
    assert np.allclose(rep.attenuation, rep.beta_total - rep.beta_direct)


def test_partial_mediation_recovers_the_paths():
    cfg = config_mediation(n_units=3000, seed=0)
    m, r, y, truth = generate(cfg)
    rep = mediate(m, dead_surrogates(3000), r, y)
    # y = 0.6 theta'a + 0.8 r, so total = 1.4 theta and direct = 0.6 theta
    assert np.allclose(rep.theta, truth.mediator_theta, atol=0.05)
    assert rep.lam == pytest.approx(0.8, abs=0.05)
    assert np.allclose(rep.beta_total, 1.4 * truth.mediator_theta, atol=0.1)
    assert np.allclose(rep.beta_direct, 0.6 * truth.mediator_theta, atol=0.1)
    for name in ("c1", "c2", "c3", "c5", "c6"):
        assert rep.status[name] == STATUS_PARTIAL
    assert rep.status["c4"] == STATUS_NO_TOTAL


def test_full_mediation_zeroes_the_direct_path():
    m, r, y, _ = generate(config_mediation(n_units=3000, seed=0, full=True))
    rep = mediate(m, dead_surrogates(3000), r, y)
    for name in ("c1", "c2", "c3", "c5", "c6"):
        assert rep.status[name] == STATUS_FULL
    assert rep.status["c4"] == STATUS_NO_TOTAL
    assert np.max(np.abs(rep.beta_direct)) < 0.05


def test_unrelated_mediator_is_not_established():
    rng = np.random.default_rng(1)
    n = 1000
    a_vals = rng.standard_normal((n, 3))
    r = rng.standard_normal(n)
    y = a_vals @ [1.0, -1.0, 0.5] + 0.3 * rng.standard_normal(n)
    rep = mediate(matrix_from(a_vals), dead_surrogates(n), r, y)
    assert set(rep.status.values()) == {STATUS_NOT_ESTABLISHED}


def test_surrogate_block_is_part_of_every_step():
    rng = np.random.default_rng(2)
    n = 2000
    z = rng.standard_normal((n, 1))
    a_vals = 0.8 * z + 0.5 * rng.standard_normal((n, 3))
    r_vals = a_vals @ [1.0, 0.5, -0.5] + 0.3 * rng.standard_normal(n)
    y_vals = 0.7 * r_vals + 2.0 * z[:, 0] + 0.3 * rng.standard_normal(n)
    rep = mediate(
        matrix_from(a_vals),
        z,
        r_vals,
        y_vals,
    )
    # with the confounder in the design the direct path correctly dies off
    assert np.max(np.abs(rep.beta_direct)) < 0.05
    assert rep.lam == pytest.approx(0.7, abs=0.05)
    assert rep.step1.row("z1") is not None
    assert rep.step4.row("z1") is not None


def test_identical_mediator_and_outcome_rejected():
    m, r, _, _ = generate(config_mediation(n_units=200, seed=3))
    same = r.copy()
    with pytest.raises(ValidationError) as err:
        mediate(m, dead_surrogates(200), r, same)
    assert "identical" in str(err.value)


def test_length_disagreement_rejected():
    m, r, y, _ = generate(config_mediation(n_units=100, seed=4))
    with pytest.raises(ValidationError):
        mediate(m, dead_surrogates(99), r, y)
    with pytest.raises(ValidationError):
        mediate(m, dead_surrogates(100), r[:50], y)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.5, float("nan")])
def test_alpha_outside_the_unit_interval_is_rejected(alpha):
    m, r, y, _ = generate(config_mediation(n_units=100, seed=4))
    with pytest.raises(ValidationError, match="alpha"):
        mediate(m, dead_surrogates(100), r, y, alpha=alpha)


def test_report_serialization():
    m, r, y, _ = generate(config_mediation(n_units=500, seed=5))
    rep = mediate(m, dead_surrogates(500), r, y)
    doc = json.loads(canonical_json(rep.to_dict()))
    assert doc["lambda"] == rep.lam
    assert doc["beta_total"] == [float(v) for v in rep.beta_total]
    assert doc["cause_names"] == ["c1", "c2", "c3", "c4", "c5", "c6"]
    for key in ("step1", "step2", "step3", "step4"):
        assert "rows" in doc[key]
    assert doc["status"] == rep.status
    assert doc["decomposition_residual"] <= 1e-8
