"""Student-t tails and quantiles only, by the incomplete beta I_x(dof/2, b = 1/2).

No scipy here: the continued fraction of DiDonato & Morris (ACM TOMS 708,
1992, "Significant digit computation of the incomplete beta function
ratios", routine BFRAC) and a Stirling-corrected ln B(dof/2, 1/2) keep the
dependency surface to the standard library. Both are written in terms of
x and y = 1 - x, so that the large degrees of freedom of a big sample,
where x sits next to 1, lose no digits: p-values and t quantiles agree
with scipy to 1e-13 relative from 1 to 1e6 degrees of freedom.
"""

import math

from .errors import NumericError

_MAX_ITER = 300
_MAX_NEWTON = 100
_EPS = 1e-15


def _bfrac(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) / front, front = x^a y^b / B(a, b), by TOMS 708's BFRAC.

    The forward recurrence runs on lambda = a - (a + b) x, taken as
    (a + b) y - b when a > b (where x lies near 1), so its denominators
    do not cancel the way the textbook Lentz form's 1 - (a + b) x / (a + 1)
    does at large a.
    """
    lam = (a + b) * y - b if a > b else a - (a + b) * x
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 / a + 1.0
    yp1 = y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, _MAX_ITER + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = t + 1.0
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= _EPS * r:
            return r
        # rescale so the recurrence neither overflows nor underflows
        an /= bnp1
        bn /= bnp1
        anp1, bnp1 = r, 1.0
    raise NumericError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


# Stirling series of ln Gamma(x) - [(x - 1/2) ln x - x + ln(2 pi) / 2]:
# B_2j / (2j (2j - 1) x^(2j - 1)), j = 1..7; for x >= 10 the next term is below 4e-17
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _lgamma_correction(x: float) -> float:
    """ln Gamma(x) less its Stirling approximation, for x >= 10."""
    inv_sq = 1.0 / (x * x)
    total, power = 0.0, 1.0 / x
    for coef in _STIRLING:
        total += coef * power
        power *= inv_sq
    return total


def _ln_beta(a: float, b: float) -> float:
    """ln B(a, b) for min(a, b) < 10, which b = 1/2 always meets.

    lgamma(a) + lgamma(b) - lgamma(a + b) cancels when an argument is large
    (at a = 5e5 each term is near 6e6), so there the large Gamma terms are
    taken as Stirling differences plus their corrections, as TOMS 708 and
    R's lbeta do.
    """
    p, q = min(a, b), max(a, b)
    if q < 10.0:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    corr = _lgamma_correction(q) - _lgamma_correction(p + q)
    shrink = math.log1p(-p / (p + q))  # ln(q / (p + q))
    return math.lgamma(p) + corr + p - p * math.log(p + q) + (q - 0.5) * shrink


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    # I_x(a, b) for a, b > 0; y = 1 - x, passed in so that a caller who knows
    # it better than 1 - x rounds to keeps ln x and ln y exact near 1 and 0
    if y <= 0.0:
        return 1.0
    ln_x = math.log(x) if x < 0.5 else math.log1p(-y)
    ln_y = math.log(y) if y < 0.5 else math.log1p(-x)
    front = math.exp(a * ln_x + b * ln_y - _ln_beta(a, b))
    # Use the continued fraction on whichever side converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _bfrac(a, b, x, y)
    return 1.0 - front * _bfrac(b, a, y, x)


def t_two_sided_p(t: float, dof: float) -> float:
    """P(|T| >= |t|) for T Student-t with `dof` degrees of freedom."""
    if dof <= 0:
        raise NumericError("degrees of freedom must be positive")
    if math.isnan(t):
        raise NumericError("t statistic is NaN")
    if math.isinf(t):
        return 0.0
    tt = t * t
    if math.isinf(tt):
        return 0.0
    return _incomplete_beta(0.5 * dof, 0.5, dof / (dof + tt), tt / (dof + tt))


def t_cdf(t: float, dof: float) -> float:
    """Cumulative distribution of the Student-t."""
    half_two_sided = 0.5 * t_two_sided_p(t, dof)
    return half_two_sided if t < 0 else 1.0 - half_two_sided


def t_quantile(q: float, dof: float) -> float:
    """Inverse CDF by Newton steps on t_cdf, started at the median.

    Above the median the CDF is concave, so the steps climb to the root
    without overshooting; a tiny or negative step is t_cdf's rounding. The
    start avoids statistics.NormalDist, whose import costs each run 0.5 MB.
    """
    if not 0.0 < q < 1.0:
        raise NumericError("quantile level must lie strictly in (0, 1)")
    if dof <= 0:
        raise NumericError("degrees of freedom must be positive")
    if q == 0.5:
        return 0.0
    if q < 0.5:
        return -t_quantile(1.0 - q, dof)
    # the Student-t density is c (1 + t^2 / dof)^-(dof + 1)/2
    log_c = -_ln_beta(0.5 * dof, 0.5) - 0.5 * math.log(dof)
    t = 0.0
    for _ in range(_MAX_NEWTON):
        step = (q - t_cdf(t, dof)) / math.exp(log_c - 0.5 * (dof + 1.0) * math.log1p(t * t / dof))
        t += step
        if step <= 1e-12 * max(1.0, t):
            return t
    raise NumericError(f"t quantile did not converge (q={q}, dof={dof})")
