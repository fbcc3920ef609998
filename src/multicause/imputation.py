"""Chained-equation imputation for the cause matrix.

Deterministic regression variant: seed missing cells with column means,
then sweep over the incomplete columns, refitting an OLS of each column
on all the others (rows where the target was originally observed) and
replacing its missing cells with predictions. No noise is injected and
no multiple imputations are pooled, so a given input always maps to the
same completed matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import CauseMatrix
from .errors import ValidationError


@dataclass
class MiceConfig:
    iterations: int = 10
    convergence_tol: float = 1e-6

    def __post_init__(self):
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")
        if self.convergence_tol < 0:
            raise ValidationError("convergence_tol must be >= 0")


@dataclass(eq=False)
class ImputationResult:
    """Completed matrix plus diagnostics for the sweep loop."""

    matrix: CauseMatrix
    sweeps: int
    converged: bool
    max_change: float
    mean_fallback_columns: list[str] = field(default_factory=list)


def impute_mice(m: CauseMatrix, cfg: MiceConfig | None = None) -> ImputationResult:
    """Fill every missing cause entry; observed entries are untouched."""
    cfg = cfg or MiceConfig()
    miss = m.missing
    n, d = m.values.shape

    observed_per_col = (~miss).sum(axis=0)
    thin = np.flatnonzero(observed_per_col < 2)
    if thin.size:
        names = [m.column_names[j] for j in thin]
        raise ValidationError(f"column(s) with fewer than 2 observed entries: {names}")
    empty_rows = np.flatnonzero(miss.all(axis=1))
    if empty_rows.size:
        ids = [m.unit_ids[i] for i in empty_rows]
        raise ValidationError(f"unit(s) with no observed causes: {ids}")

    x = m.values.copy()
    col_means = np.nanmean(m.values, axis=0)
    for j in range(d):
        x[miss[:, j], j] = col_means[j]

    targets = [j for j in range(d) if miss[:, j].any()]
    if not targets:
        return ImputationResult(
            matrix=m.with_values(x, np.zeros_like(miss)),
            sweeps=0,
            converged=True,
            max_change=0.0,
        )
    # d == 1 with missing cells cannot reach this point: each missing
    # entry is a fully unobserved unit and is rejected above.

    fallback: set[str] = set()
    sweeps = 0
    converged = False
    max_change = np.inf
    for _ in range(cfg.iterations):
        sweeps += 1
        previous = x[miss].copy()
        for j in targets:
            rows = ~miss[:, j]
            others = [k for k in range(d) if k != j]
            design = np.column_stack([np.ones(int(rows.sum())), x[rows][:, others]])
            beta, _, rank, _ = np.linalg.lstsq(design, x[rows, j], rcond=None)
            if rank < design.shape[1]:
                # singular column regression: keep the column-mean fill
                x[miss[:, j], j] = col_means[j]
                fallback.add(m.column_names[j])
                continue
            pred_design = np.column_stack(
                [np.ones(int(miss[:, j].sum())), x[miss[:, j]][:, others]]
            )
            x[miss[:, j], j] = pred_design @ beta
        max_change = float(np.max(np.abs(x[miss] - previous)))
        if max_change < cfg.convergence_tol:
            converged = True
            break

    out = m.with_values(x, np.zeros_like(miss))
    # paranoia: the observed cells must be bitwise identical to the input
    assert np.array_equal(out.values[~miss], m.values[~miss])
    return ImputationResult(
        matrix=out,
        sweeps=sweeps,
        converged=converged,
        max_change=max_change,
        mean_fallback_columns=sorted(fallback),
    )
