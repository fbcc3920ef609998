"""One-by-one robustness sweep.

Causes enter the outcome regression cumulatively in a fixed order; the
table records each included cause's coefficient and significance at
every step. A sign flip is only reported when a cause is significant at
two consecutive steps with opposite signs, which is the instability the
sweep exists to surface.
"""

from __future__ import annotations

import numpy as np

from ._record import record
from .dataset import CauseMatrix
from .errors import ValidationError
from .effects import _as_vector, check_alpha, ols_fit, outcome_design


@record(eq=True)
class SweepCell:
    coefficient: float
    p_value: float
    significant: bool


@record(eq=True)
class SignFlip:
    cause: str
    step: int  # step t at which the flipped sign shows up (1-based)
    from_sign: int
    to_sign: int


@record
class SweepTable:
    order: list[str]
    cells: list[dict[str, SweepCell]]  # cells[t-1]: cause -> cell at step t
    flips: list[SignFlip] = []
    mode: str = "noncausal"

    def cell(self, cause: str, step: int) -> SweepCell | None:
        return self.cells[step - 1].get(cause)


def sweep(
    a: CauseMatrix,
    y: np.ndarray,
    z: np.ndarray | None = None,
    order: list[str] | None = None,
    alpha: float = 0.05,
) -> SweepTable:
    """Fit [intercept | first t causes | surrogates?] for t = 1..D, at level `alpha` in (0, 1)."""
    check_alpha(alpha)
    yv = _as_vector(y)
    if order is None:
        order = list(a.column_names)
    if sorted(order) != sorted(a.column_names):
        raise ValidationError("order must be a permutation of the cause columns")

    cells: list[dict[str, SweepCell]] = []
    for t in range(1, len(order) + 1):
        included = order[:t]
        design, names, _ = outcome_design(a, z, None, yv, causes=included)
        report = ols_fit(design, yv, names)
        cells.append(
            {
                c: SweepCell(
                    coefficient=report.rows[1 + i].mean,
                    p_value=report.rows[1 + i].p_value,
                    significant=report.rows[1 + i].p_value <= alpha,
                )
                for i, c in enumerate(included)
            }
        )

    flips: list[SignFlip] = []
    for rank, cause in enumerate(order):
        for t in range(rank + 2, len(order) + 1):  # the cause entered at step rank + 1
            prev, cur = cells[t - 2][cause], cells[t - 1][cause]
            if not (prev.significant and cur.significant):
                continue
            s_prev = int(np.sign(prev.coefficient))
            s_cur = int(np.sign(cur.coefficient))
            if s_prev != 0 and s_cur != 0 and s_prev != s_cur:
                flips.append(
                    SignFlip(cause=cause, step=t, from_sign=s_prev, to_sign=s_cur)
                )

    return SweepTable(
        order=list(order),
        cells=cells,
        flips=flips,
        mode="noncausal" if z is None else "causal",
    )
