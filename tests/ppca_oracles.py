"""The closed-form PPCA maximum, the oracle the EM fit is held to."""

import math

import numpy as np


def closed_form_max_loglik(m, k: int) -> float:
    """Maximum of the PPCA marginal likelihood of a complete matrix, from its spectrum.

    With eigenvalues l_1 >= ... >= l_D of the (1/N) covariance, the
    optimal noise is the mean of the D-K trailing eigenvalues and the
    maximum equals -N/2 [D ln 2pi + sum_{j<=K} ln l_j + (D-K) ln s2 + D].
    """
    x = m.values
    n, d = x.shape
    assert not m.has_missing and 1 <= k < d
    xc = x - x.mean(axis=0)
    evals = np.linalg.eigvalsh(xc.T @ xc / n)[::-1]
    s2 = float(evals[k:].mean())
    assert s2 > 0, "trailing eigenvalues are not positive"
    top = np.maximum(evals[:k], s2)
    return float(
        -0.5 * n * (d * math.log(2.0 * math.pi) + np.log(top).sum() + (d - k) * math.log(s2) + d)
    )
