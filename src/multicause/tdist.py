"""Student-t tail probabilities built on the regularized incomplete beta.

No scipy here: the continued-fraction evaluation (Lentz's method) keeps
the dependency surface to the standard library while matching reference
tables to better than 1e-8 across the degrees of freedom this package
ever produces.
"""

import math

from .errors import NumericError

_MAX_ITER = 300
_MAX_NEWTON = 100
_EPS = 3e-16
_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for I_x(a, b), modified Lentz iteration.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise NumericError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and 0 <= x <= 1."""
    if a <= 0.0 or b <= 0.0:
        raise NumericError("incomplete beta requires a, b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the continued fraction on whichever side converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


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
    return regularized_incomplete_beta(0.5 * dof, 0.5, dof / (dof + tt))


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
    log_c = math.lgamma(0.5 * (dof + 1.0)) - math.lgamma(0.5 * dof) - 0.5 * math.log(dof * math.pi)
    t = 0.0
    for _ in range(_MAX_NEWTON):
        step = (q - t_cdf(t, dof)) / math.exp(log_c - 0.5 * (dof + 1.0) * math.log1p(t * t / dof))
        t += step
        if step <= 1e-12 * max(1.0, t):
            return t
    raise NumericError(f"t quantile did not converge (q={q}, dof={dof})")
