"""Student-t machinery against scipy as the reference implementation."""

import math

import numpy as np
import pytest
from scipy import stats

from multicause.errors import NumericError
from multicause.tdist import (
    t_cdf,
    t_quantile,
    t_two_sided_p,
)


def test_two_sided_p_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(400):
        t = float(rng.standard_normal() * 5.0)
        dof = float(rng.uniform(1.0, 300.0))
        ours = t_two_sided_p(t, dof)
        ref = float(2.0 * stats.t.sf(abs(t), dof))
        assert abs(ours - ref) < 1e-8


# degrees of freedom 1 to 1e6, log-spaced, plus integers and the points
# where ln B(a, 1/2) switches to its Stirling form (a = 10, dof = 20)
LARGE_DOF = sorted({*np.logspace(0.0, 6.0, 49).tolist(), 3.0, 19.99, 20.0, 20.01, 5000.0, 1e6})


@pytest.mark.parametrize("dof", LARGE_DOF)
def test_p_and_quantile_hold_1e_13_up_to_a_million_dof(dof):
    for t in (0.5, 1.0, 1.96, 3.0, 6.0):
        ref = float(2.0 * stats.t.sf(t, dof))
        assert t_two_sided_p(t, dof) == pytest.approx(ref, rel=1e-13, abs=0.0), t
    ref = float(stats.t.ppf(0.975, dof))
    assert t_quantile(0.975, dof) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_p_value_symmetry_and_extremes():
    assert t_two_sided_p(0.0, 10.0) == pytest.approx(1.0)
    assert t_two_sided_p(3.2, 7.0) == t_two_sided_p(-3.2, 7.0)
    assert t_two_sided_p(math.inf, 5.0) == 0.0
    # huge statistic underflows to 0 rather than blowing up
    assert t_two_sided_p(1e9, 5.0) < 1e-40
    # t^2 overflows to inf: the tail is 0, not NaN from inf / inf
    assert t_two_sided_p(1e200, 5.0) == 0.0


def test_cdf_matches_scipy():
    rng = np.random.default_rng(2)
    for _ in range(300):
        t = float(rng.standard_normal() * 4.0)
        dof = float(rng.uniform(0.5, 200.0))
        assert abs(t_cdf(t, dof) - stats.t.cdf(t, dof)) < 1e-10


def test_quantile_matches_scipy():
    for dof in (1.0, 2.0, 5.0, 30.0, 200.0):
        for q in (0.6, 0.9, 0.975, 0.995):
            ours = t_quantile(q, dof)
            ref = float(stats.t.ppf(q, dof))
            assert abs(ours - ref) < 1e-9 * max(1.0, abs(ref))


def test_quantile_round_trips_cdf():
    for dof in (3.0, 12.0, 80.0):
        for q in (0.51, 0.8, 0.95, 0.999):
            assert t_cdf(t_quantile(q, dof), dof) == pytest.approx(q, abs=1e-10)


def test_bad_dof_rejected():
    with pytest.raises(NumericError):
        t_two_sided_p(1.0, 0.0)
    with pytest.raises(NumericError):
        t_quantile(0.9, -2.0)
    with pytest.raises(NumericError):
        t_quantile(1.0, 10.0)


def test_quantile_lower_half_by_reflection():
    assert t_quantile(0.3, 10.0) == pytest.approx(stats.t.ppf(0.3, 10.0), abs=1e-9)
    assert t_quantile(0.5, 10.0) == 0.0
