"""Synthetic data with known ground truth, used as the test oracle.

Generation, per unit: z ~ N(0, I_K); causes a = L z + cause noise (plus
a recorded shift when a row would otherwise have no positive entry);
optional mediator r = theta'a + share * (z 1)/sqrt(K) + noise; outcome
y = beta'a [+ lambda r] + gamma'z + noise. Missingness, when requested,
is MAR: the probability an entry is hidden is a logistic function of the
first cause column, which itself is never hidden.

Everything is drawn from one seeded generator in a fixed order, so a
config maps to bit-identical data every time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dataset import CauseMatrix, check_seed
from .errors import ValidationError

ASPECT_NAMES = [
    "food_pos",
    "food_neg",
    "service_pos",
    "service_neg",
    "price_pos",
    "price_neg",
    "ambience_pos",
    "ambience_neg",
    "misc_pos",
]


def check_n_units(n_units: int) -> None:
    """A dataset needs at least 2 units."""
    if n_units < 2:
        raise ValidationError("need at least 2 units")


def check_missing_rate(missing_rate: float) -> None:
    """A missing rate must lie in [0, 1), NaN excluded."""
    if not 0.0 <= missing_rate < 1.0:
        raise ValidationError("missing_rate must lie in [0, 1)")


@dataclass(eq=False)
class SyntheticConfig:
    n_units: int
    n_causes: int
    latent_dim: int
    confounder_loadings: np.ndarray  # (D, K)
    outcome_gamma: np.ndarray  # (K,)
    true_beta: np.ndarray  # (D,)
    noise_sd_causes: float = 0.5
    noise_sd_outcome: float = 0.5
    mediator_theta: np.ndarray | None = None
    mediator_lambda: float | None = None
    noise_sd_mediator: float = 0.5
    missing_rate: float = 0.0
    seed: int = 0
    column_names: list[str] | None = None

    def __post_init__(self):
        self.confounder_loadings = np.array(self.confounder_loadings, dtype=float)
        self.outcome_gamma = np.array(self.outcome_gamma, dtype=float)
        self.true_beta = np.array(self.true_beta, dtype=float)
        d, k = self.n_causes, self.latent_dim
        check_n_units(self.n_units)
        if not 1 <= k < d:
            raise ValidationError("need 1 <= latent_dim < n_causes")
        if self.confounder_loadings.shape != (d, k):
            raise ValidationError("confounder_loadings must be (n_causes, latent_dim)")
        if self.outcome_gamma.shape != (k,):
            raise ValidationError("outcome_gamma must have length latent_dim")
        if self.true_beta.shape != (d,):
            raise ValidationError("true_beta must have length n_causes")
        if min(self.noise_sd_causes, self.noise_sd_outcome) <= 0:
            raise ValidationError("noise standard deviations must be positive")
        check_missing_rate(self.missing_rate)
        check_seed(self.seed)
        if (self.mediator_theta is None) != (self.mediator_lambda is None):
            raise ValidationError("mediator_theta and mediator_lambda come together")
        if self.mediator_theta is not None:
            self.mediator_theta = np.array(self.mediator_theta, dtype=float)
            if self.mediator_theta.shape != (d,):
                raise ValidationError("mediator_theta must have length n_causes")
            if self.noise_sd_mediator <= 0:
                raise ValidationError("noise_sd_mediator must be positive")
        if self.column_names is None:
            self.column_names = [f"c{j + 1}" for j in range(d)]
        if len(self.column_names) != d:
            raise ValidationError("column_names length disagrees with n_causes")
        # single ignorability: a latent dimension that shifts the outcome
        # must leave its trace on at least two causes, otherwise no factor
        # model could recover it from the causes alone
        driven = (self.confounder_loadings != 0.0).sum(axis=0)
        weak = [
            int(kk)
            for kk in range(k)
            if self.outcome_gamma[kk] != 0.0 and driven[kk] < 2
        ]
        if weak:
            raise ValidationError(
                f"latent dim(s) {weak} affect the outcome but drive fewer than 2 causes"
            )


@dataclass(eq=False)
class SyntheticTruth:
    """What `generate` drew; the parameters it drew from stay on the config."""

    z: np.ndarray  # (N, K) realized confounders
    causes_complete: np.ndarray  # (N, D) after the overlap shift, before masking
    overlap_shift: float
    missing_mask: np.ndarray  # (N, D) True where hidden


def _sigmoid(u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def generate(
    cfg: SyntheticConfig,
) -> tuple[CauseMatrix, np.ndarray | None, np.ndarray, SyntheticTruth]:
    """Draw one dataset: (causes, the mediator `rating` or None, the outcome, truth)."""
    rng = np.random.default_rng(cfg.seed)
    n, d, k = cfg.n_units, cfg.n_causes, cfg.latent_dim

    z = rng.standard_normal((n, k))
    a = z @ cfg.confounder_loadings.T + cfg.noise_sd_causes * rng.standard_normal((n, d))

    # overlap: every row needs at least one strictly positive entry
    row_max = a.max(axis=1)
    shift = 0.0
    if row_max.min() <= 0.0:
        shift = float(1e-6 - row_max.min())
        a = a + shift

    rating = None
    if cfg.mediator_theta is not None:
        rating = a @ cfg.mediator_theta + cfg.noise_sd_mediator * rng.standard_normal(n)

    y = a @ cfg.true_beta + z @ cfg.outcome_gamma
    if rating is not None:
        y = y + cfg.mediator_lambda * rating
    y = y + cfg.noise_sd_outcome * rng.standard_normal(n)

    missing = np.zeros((n, d), dtype=bool)
    if cfg.missing_rate > 0.0:
        anchor = a[:, 0]
        u = (anchor - anchor.mean()) / anchor.std()
        # E[2 sigmoid(u)] is ~1 for symmetric u, and the D/(D-1) factor
        # compensates for the always-observed anchor column, so the
        # realized missing fraction over the whole matrix tracks the rate
        p = cfg.missing_rate * (d / (d - 1.0)) * 2.0 * _sigmoid(u)
        p = np.clip(p, 0.0, 0.95)
        draws = rng.random((n, d - 1))
        missing[:, 1:] = draws < p[:, None]
        # a fully-hidden row cannot be imputed; keep its anchor-adjacent cell
        full = missing[:, 1:].all(axis=1)
        missing[full, 1] = False

    values = a.copy()
    values[missing] = np.nan
    width = len(str(n))
    matrix = CauseMatrix(
        values,
        list(cfg.column_names),
        [f"u{str(i).zfill(width)}" for i in range(n)],
    )
    truth = SyntheticTruth(z=z, causes_complete=a, overlap_shift=shift, missing_mask=missing)
    return matrix, rating, y, truth


# ---------------------------------------------------------------------------
# scenario presets; magnitudes were tuned by simulation (see tests)


def _confounded_loadings() -> np.ndarray:
    # 9 causes on 3 latent dims, every cause visibly confounded
    return np.array(
        [
            [1.2, 0.4, 0.0],
            [0.9, -0.5, 0.3],
            [1.0, 0.0, 0.6],
            [0.7, 0.8, -0.4],
            [1.1, -0.3, -0.5],
            [0.8, 0.6, 0.5],
            [1.0, -0.7, 0.2],
            [0.6, 0.5, -0.8],
            [0.9, 0.2, 0.7],
        ]
    )


def config_confounded(
    n_units: int = 5000, seed: int = 0, missing_rate: float = 0.0
) -> SyntheticConfig:
    """Strong hidden confounding: the naive regression is visibly biased."""
    return SyntheticConfig(
        n_units=n_units,
        n_causes=9,
        latent_dim=3,
        confounder_loadings=_confounded_loadings(),
        outcome_gamma=np.array([0.8, 0.5, -0.6]),
        true_beta=np.array([0.4, -0.3, 0.2, 0.0, -0.2, 0.3, 0.1, -0.4, 0.25]),
        noise_sd_causes=0.3,
        noise_sd_outcome=0.5,
        missing_rate=missing_rate,
        seed=seed,
        column_names=list(ASPECT_NAMES),
    )


def config_unconfounded(n_units: int = 5000, seed: int = 0) -> SyntheticConfig:
    """Same cause structure but the latents never touch the outcome."""
    cfg = config_confounded(n_units=n_units, seed=seed)
    cfg.outcome_gamma = np.zeros(3)
    return cfg


def config_flip(n_units: int = 2000, seed: int = 0) -> SyntheticConfig:
    """Engineered sign flip: c1 and c5 share a confounder, c5 enters last.

    Until c5 joins the regression, c1 absorbs c5's large positive effect
    and shows up significantly positive; once c5 enters, c1 falls back to
    its own significantly negative coefficient. With the surrogate
    confounder included the c1 coefficient never leaves its true sign.
    """
    loadings = np.zeros((5, 1))
    loadings[0, 0] = 1.0  # c1
    loadings[4, 0] = 1.0  # c5
    return SyntheticConfig(
        n_units=n_units,
        n_causes=5,
        latent_dim=1,
        confounder_loadings=loadings,
        outcome_gamma=np.array([-0.4]),
        true_beta=np.array([-0.3, 0.4, 0.4, 0.4, 1.3]),
        noise_sd_causes=0.6,
        noise_sd_outcome=0.7,
        seed=seed,
    )


def config_mediation(
    n_units: int = 3000, seed: int = 0, full: bool = False
) -> SyntheticConfig:
    """Causes act on the outcome through a mediator (fully when `full`)."""
    loadings = np.array(
        [
            [1.0, 0.3],
            [0.8, -0.4],
            [0.9, 0.5],
            [0.7, -0.6],
            [1.1, 0.2],
            [0.6, 0.7],
        ]
    )
    theta = np.array([0.5, -0.4, 0.35, 0.0, 0.45, -0.3])
    if full:
        beta = np.zeros(6)
    else:
        beta = 0.6 * theta  # direct effects share the indirect sign
    # outcome_gamma stays zero: the scenario isolates the mediation
    # decomposition, so the outcome is unconfounded by construction
    return SyntheticConfig(
        n_units=n_units,
        n_causes=6,
        latent_dim=2,
        confounder_loadings=loadings,
        outcome_gamma=np.zeros(2),
        true_beta=beta,
        noise_sd_causes=0.4,
        noise_sd_outcome=0.4,
        mediator_theta=theta,
        mediator_lambda=0.8,
        noise_sd_mediator=0.3,
        seed=seed,
    )


SCENARIOS = {
    "confounded": config_confounded,
    "unconfounded": config_unconfounded,
    "flip": config_flip,
    "mediation-partial": partial(config_mediation, full=False),
    "mediation-full": partial(config_mediation, full=True),
}
