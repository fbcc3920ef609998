"""The benchmark's workloads: how each one makes its inputs and which
`multicause` commands one pass runs.

Inputs come from the workload seed only; the program sees nothing but
the CSV files written here. Every command in a pass runs with the
program's own `--seed 0`, so a workload seed changes the data and
nothing else.

- wide: n=400 rows of a 30-cause, 5-factor confounded design, one
  `effects`. Nearly every row has its own holdout pattern, so masked EM's
  per-pattern loop dominates and the check is cheap.
- suite: the paper regime as an analyst runs it. impute, effects,
  robustness and compare-predictive on n=5,000 confounded rows with 10%
  missing causes, then mediate on n=3,000 rows of `mediation-partial`.
  Every EM here sees only 9 holdout patterns, so per-row work (CSV
  parsing, the predictive check's per-unit loop), process start, MICE,
  repeated EM fits, many small OLS fits with t quantiles, and report
  writing show instead: the mirror of wide.

There is no separate tall workload (one `effects` on 15,000-50,000 rows of
`confounded`). On a shared 2-vCPU VM whose speed swings by up to 1.5x
from second to second, 35-second runs of each of three workloads spread
by 25-32% of their median, past the 25% a metric may worsen; two
workloads leave room for 55-second runs. suite covers tall's layers at a
smaller n.

Each workload makes several input sets per run (`input_sets`), because
EM's iteration count depends on the data (from 73 to 112 on wide's shape;
202 to 382 on `confounded`), and so does a pass's time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Span names (module.function) a workload must exercise in a traced pass.
COMMON_LAYERS = (
    "cli.main",
    "dataset.load_csv",
    "dataset.standardize",
    "dataset.correlation_screen",
    "dataset.make_holdout",
    "ppca.fit_ppca",
    "ppca.posterior_mean_partial",
    "ppca.predictive_check",
    "effects.ols_fit",
    "tdist.t_quantile",
    "tables.canonical_json",
    "synthetic.generate",
    "dataset.write_csv",
)

# Flags shared by every fitting command: keep all columns through the
# correlation screen (the synthetic causes correlate up to ~0.93 by design)
# and fix the program's own seed.
FIT_FLAGS = ["-k", "5", "--corr-threshold", "0.95", "--seed", "0"]

WIDE_CAUSES = 30
WIDE_FACTORS = 5


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass; `cid` names it in checks and traces."""

    cid: str
    argv: list[str]

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[Path, int, bool], None]
    commands: Callable[[Path, Path], list[Command]]
    required_layers: tuple[str, ...]
    input_sets: int


def _write(path: Path, cfg, with_rating: bool = False) -> None:
    from multicause.dataset import write_csv
    from multicause.synthetic import generate

    m, rating, popularity, _ = generate(cfg)
    outcomes = {"rating": rating} if with_rating else {}
    outcomes["popularity"] = popularity
    write_csv(str(path), m, outcomes=outcomes)


def wide_config(seed: int, tiny: bool):
    """30 causes on 5 factors, with loadings drawn from the seed.

    Each cause's loading row has norm 1.5 and the cause noise sd is 0.7,
    so no pair of causes can correlate above 1.5^2 / (1.5^2 + 0.7^2) = 0.82
    in the population: the 0.95 screen keeps all 30 columns on every seed.
    """
    from multicause.synthetic import SyntheticConfig

    d, k = (12, 3) if tiny else (WIDE_CAUSES, WIDE_FACTORS)
    rng = np.random.default_rng([seed, d, k])
    directions = rng.standard_normal((d, k))
    loadings = 1.5 * directions / np.linalg.norm(directions, axis=1, keepdims=True)
    return SyntheticConfig(
        n_units=80 if tiny else 400,
        n_causes=d,
        latent_dim=k,
        confounder_loadings=loadings,
        outcome_gamma=rng.uniform(-0.8, 0.8, k),
        true_beta=rng.uniform(-0.4, 0.4, d),
        noise_sd_causes=0.7,
        noise_sd_outcome=0.5,
        seed=seed,
    )


def _wide_inputs(directory: Path, seed: int, tiny: bool) -> None:
    _write(directory / "data.csv", wide_config(seed, tiny))


def _suite_inputs(directory: Path, seed: int, tiny: bool) -> None:
    from multicause.synthetic import config_confounded, config_mediation

    _write(
        directory / "data.csv",
        config_confounded(n_units=400 if tiny else 5000, seed=seed, missing_rate=0.1),
    )
    _write(
        directory / "mediation.csv",
        config_mediation(n_units=300 if tiny else 3000, seed=seed),
        with_rating=True,
    )


def _effects(inputs: Path, out: Path) -> Command:
    return Command(
        "effects",
        ["effects", "--input", str(inputs / "data.csv"), "--outcome", "popularity",
         *FIT_FLAGS, "--out", str(out / "effects")],
    )


def _suite_commands(inputs: Path, out: Path) -> list[Command]:
    data = ["--input", str(inputs / "data.csv"), "--outcome", "popularity"]
    return [
        Command("impute", ["impute", *data, "--out", str(out / "impute")]),
        _effects(inputs, out),
        Command(
            "robustness",
            ["robustness", *data, *FIT_FLAGS, "--mode", "both", "--out", str(out / "robustness")],
        ),
        Command(
            "compare-predictive",
            ["compare-predictive", *data, *FIT_FLAGS, "--out", str(out / "compare-predictive")],
        ),
        Command(
            "mediate",
            ["mediate", "--input", str(inputs / "mediation.csv"), "--outcome", "popularity",
             "--mediator", "rating", "-k", "2", "--corr-threshold", "0.95", "--seed", "0",
             "--out", str(out / "mediate")],
        ),
    ]


WORKLOADS = {
    "wide": Workload(_wide_inputs, lambda i, o: [_effects(i, o)], COMMON_LAYERS, 10),
    "suite": Workload(
        _suite_inputs,
        _suite_commands,
        COMMON_LAYERS
        + (
            "imputation.impute_mice",
            "effects.estimate_effects_causal",
            "effects.predictive_comparison",
            "robustness.sweep",
            "mediation.mediate",
        ),
        6,
    ),
}
