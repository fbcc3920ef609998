"""Chained-equation imputation for the cause matrix.

Deterministic regression variant: seed missing cells with column means,
then sweep over the incomplete columns in column order, refitting an OLS
of each column on all the others (rows where the target was originally
observed) and replacing its missing cells with predictions. No noise is
injected and no multiple imputations are pooled, so a given input always
maps to the same completed matrix.

The regressions run on standardized columns z = (x - mu) / sd (mu, sd
the observed mean and spread), where an OLS with an intercept predicts
the same as on x, and are solved from one Gram matrix G = X1'X1 of
X1 = [1, z] over all rows. Column j's normal equations take G less the
Gram of the rows where j is missing, restricted to every column but j;
after j's missing cells are rewritten, row and column j of G are
refreshed with one X1'z_j product. No n-row design is copied, and only
the missing cells of x are written back, so the observed ones stay
bitwise unchanged. The kept Gram is Jacobi-scaled (unit diagonal) and solved
through its eigendecomposition while its smallest eigenvalue exceeds
`_GRAM_RCOND` = 1e-6 of its largest, a scaled design condition number
below 1e3. Otherwise the regression falls back to lstsq on the observed
rows of [1, z], and the rule lstsq has always applied decides whether it
is singular: a singular value at most eps max(n, p) times the largest.
A singular column keeps its mean fill and is listed in
`mean_fallback_columns`.
"""

from __future__ import annotations

import numpy as np

from ._record import record
from .dataset import CauseMatrix
from .errors import ValidationError

# A column regression is solved from its Jacobi-scaled kept Gram while the
# Gram's smallest eigenvalue exceeds this share of its largest, that is
# while the scaled design's condition number is below 1e3; the normal
# equations then lose at most about 3 digits more than a QR solve.
_GRAM_RCOND = 1e-6


def check_iterations(iterations: int) -> None:
    """MICE runs at least one sweep."""
    if iterations < 1:
        raise ValidationError("iterations must be >= 1")


@record
class ImputationResult:
    """Completed matrix plus diagnostics for the sweep loop."""

    matrix: CauseMatrix
    sweeps: int
    converged: bool
    max_change: float
    mean_fallback_columns: list[str] = []


def impute_mice(
    m: CauseMatrix, iterations: int = 10, convergence_tol: float = 1e-6
) -> ImputationResult:
    """Fill every missing cause entry in at most `iterations` sweeps; observed ones stay."""
    check_iterations(iterations)
    if not convergence_tol >= 0:  # NaN excluded
        raise ValidationError("convergence_tol must be >= 0")
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

    # z is the view of the columns 1.. of x1 = [1, z]; the sweeps keep
    # G = x1'x1 current. Standardizing keeps the columns' offsets and
    # units out of the Gram. Column-major, so that x1'z_j reads one
    # contiguous column. The mean fill is z = 0.
    col_means = np.nanmean(m.values, axis=0)
    col_sd = np.nanstd(m.values, axis=0)
    col_sd[col_sd == 0] = 1.0  # a constant column: z = 0, so every fit on it is singular
    x1 = np.empty((n, d + 1), order="F")
    x1[:, 0] = 1.0
    z = x1[:, 1:]
    np.subtract(m.values, col_means, out=z)
    z /= col_sd
    z[miss] = 0.0

    targets = [j for j in range(d) if miss[:, j].any()]
    if not targets:
        return ImputationResult(
            matrix=m.with_values(m.values.copy()),
            sweeps=0,
            converged=True,
            max_change=0.0,
        )
    # d == 1 with missing cells cannot reach this point: each missing
    # entry is a fully unobserved unit and is rejected above.

    gram = x1.T @ x1
    # per target column j: its missing rows, and the other columns of x1 (j's is j + 1)
    fits = []
    for j in targets:
        kept = np.r_[0 : j + 1, j + 2 : d + 1]
        fits.append((j, np.flatnonzero(miss[:, j]), kept, np.ix_(kept, kept)))
    fallback: set[str] = set()
    sweeps = 0
    converged = False
    for _ in range(iterations):
        sweeps += 1
        max_change = max_dz = 0.0
        for j, rows, kept, kept_block in fits:
            c = j + 1
            block = x1[rows]
            # the Gram of [1, z] over the rows where column j is observed
            sub = gram - block.T @ block
            beta = _solve(sub[kept_block], sub[kept, c], x1, ~miss[:, j], kept, c)
            if beta is None:
                # singular column regression: keep the column-mean fill
                fill = 0.0
                fallback.add(m.column_names[j])
            else:
                fill = block[:, kept] @ beta
            dz = float(np.max(np.abs(fill - block[:, c])))
            max_dz = max(max_dz, dz)
            max_change = max(max_change, col_sd[j] * dz)
            x1[rows, c] = fill
            gram[:, c] = gram[c, :] = x1.T @ x1[:, c]
        # the stop rule is scale-free: it reads the change in column sds
        if max_dz < convergence_tol:
            converged = True
            break

    x = m.values.copy()
    for j, rows, _, _ in fits:
        x[rows, j] = col_means[j] + col_sd[j] * z[rows, j]
    out = m.with_values(x)
    # paranoia: the observed cells must be bitwise identical to the input
    assert np.array_equal(out.values[~miss], m.values[~miss])
    return ImputationResult(
        matrix=out,
        sweeps=sweeps,
        converged=converged,
        max_change=max_change,
        mean_fallback_columns=sorted(fallback),
    )


def _solve(
    kept_gram: np.ndarray,
    rhs: np.ndarray,
    x1: np.ndarray,
    observed: np.ndarray,
    kept: np.ndarray,
    c: int,
) -> np.ndarray | None:
    """OLS coefficients of x1[:, c] on x1[:, kept] over the `observed` rows.

    Solved from the kept Gram and `rhs`, its cross products with column c,
    when the Jacobi-scaled kept Gram is well conditioned (`_GRAM_RCOND`);
    otherwise by lstsq on the observed rows themselves, and None when
    lstsq finds them rank deficient.
    """
    diag = kept_gram.diagonal()
    if diag.min() > 0:
        inv = 1.0 / np.sqrt(diag)
        eig, vec = np.linalg.eigh(kept_gram * inv * inv[:, None])
        if eig[0] > _GRAM_RCOND * eig[-1]:
            return inv * (vec @ ((vec.T @ (inv * rhs)) / eig))
    design = x1[observed]
    beta, _, rank, _ = np.linalg.lstsq(design[:, kept], design[:, c], rcond=None)
    return beta if rank == kept.size else None
