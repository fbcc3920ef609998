"""Probabilistic PCA over the causes, and the held-out predictive check.

The generative model per unit: z ~ N(0, I_K), a | z ~ N(mu + W z, s2 I_D),
so marginally a ~ N(mu, W W' + s2 I). Fitting is EM with a seeded
Gaussian start, one loop for complete and masked data alike: each row is
conditioned on its observed coordinates only (all of them when no mask is
given), so a model can be fitted without ever seeing the held-out cells.
With complete data its maximum has a closed form from the sample
spectrum, which the tests hold the fit to.

The EM loop is accelerated by SQUAREM (Varadhan & Roland, Scand. J. Stat.
2008), scheme SqS3, over theta = (W, log s2). A cycle takes two EM steps
theta0 -> theta1 -> theta2 and extrapolates along them; the extrapolated
point is kept only if its log-likelihood is at least theta1's, and
otherwise theta2 is (theta1, if the EM step to theta2 lowered it). The fit
stops when one plain EM step from the current point raises the
log-likelihood by at most `tol` relative (or lowers it, which only
rounding can do), the rule plain EM stops by. `max_iter` caps the E-steps
evaluated after the start's, rejected extrapolations included, and
`iterations` counts them; `fit_trace` holds the log-likelihoods of the
accepted points only, so it is non-decreasing.

Everything here rests on the posterior of z given a row's observed block,
which depends on the row only through its observation pattern g:
precision M_g = W_g'W_g + s2 I, mean M_g^-1 W_g'(a_g - mu_g), covariance
s2 M_g^-1. `_precisions` factorizes all patterns' M_g in one stacked
Cholesky call and inverts the factors by one forward substitution over
all patterns at once; it serves the EM, and `_posterior` forms the means
from it once per call, for the surrogates and the check alike. The
E-step builds its moments from the per-row posterior means m: a
pattern's sum of E[z z'] is s2 n_g M_g^-1 + sum of m m' over its rows,
and its quadratic term is the sum of squares ||x - W m||^2 + s2 ||m||^2.

The held-out predictive check is exact: under PPCA the posterior-averaged
held-out log-likelihood and its predictive distribution have closed forms,
so a unit's score is the upper tail of a weighted sum of chi-square(1)
variables at the unit's held-out residual, summed by Ruben's series (see
`predictive_check`). It draws nothing, so a unit's score depends only on
its causes and its mask row.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import record
from .dataset import CauseMatrix, HoldoutMask, _hash64, check_complete, check_seed
from .errors import NumericError, ValidationError

_LN_2PI = math.log(2.0 * math.pi)

# the default latent dimension by outcome column name; any other outcome, or
# none, takes the "custom" entry
DEFAULT_K = {"rating": 10, "popularity": 5, "custom": 5}

# Ruben's series in the predictive check stops, unit by unit, once the
# unit's unsummed weight, which bounds its truncation error, is at most
# _SERIES_TOL. Its
# length grows with the spread of the held-out covariance's eigenvalues (at
# most 1 + |W_H|^2 / s2): 10,000 terms reach a spread of about 300 at h = 2.
_SERIES_TOL = 1e-12
_SERIES_TERMS = 10_000


@record
class PpcaModel:
    loadings: np.ndarray  # (D, K)
    mean: np.ndarray  # (D,)
    noise_variance: float
    k: int
    log_likelihood: float
    fit_trace: list[float] = []
    converged: bool = True
    iterations: int = 0  # E-steps the fit evaluated after its start

    def __post_init__(self):
        self.loadings = np.array(self.loadings, dtype=float)
        self.mean = np.array(self.mean, dtype=float)
        if self.loadings.ndim != 2:
            raise ValidationError("loadings must be a D x K matrix")
        d, k = self.loadings.shape
        if k != self.k:
            raise ValidationError("loadings width disagrees with K")
        if not 1 <= k < d:
            raise ValidationError("need 1 <= K < D")
        if self.mean.shape != (d,):
            raise ValidationError("mean length disagrees with loadings")
        if not self.noise_variance > 0:
            raise ValidationError("noise variance must be strictly positive")
        if not (
            np.isfinite(self.loadings).all()
            and np.isfinite(self.mean).all()
            and math.isfinite(self.noise_variance)
        ):
            raise ValidationError("loadings, mean and noise variance must be finite")

    @property
    def n_causes(self) -> int:
        return self.loadings.shape[0]

    def to_dict(self) -> dict:
        return {
            "loadings": self.loadings,
            "mean": self.mean,
            "noise_variance": self.noise_variance,
            "K": self.k,
            "log_likelihood": self.log_likelihood,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PpcaModel":
        try:
            return cls(
                loadings=np.array(payload["loadings"], dtype=float),
                mean=np.array(payload["mean"], dtype=float),
                noise_variance=float(payload["noise_variance"]),
                k=int(payload["K"]),
                log_likelihood=float(payload["log_likelihood"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad model payload: {exc}") from None


@record
class PredictiveCheckResult:
    score: float
    per_unit_scores: np.ndarray
    threshold: float
    passed: bool
    method: str = "mean"  # the score is the mean of the per-unit scores


def _init_params(
    x: np.ndarray, observed: np.ndarray, k: int, seed: int
) -> tuple[np.ndarray, float]:
    # Gaussian loadings scaled to the data; noise starts at half the average
    # column variance so EM can shrink or grow it freely. Loading (j, f) is a
    # Box-Muller normal from the 32-bit halves of `_hash64(seed, j, f)`.
    d = x.shape[1]
    col_var = np.array(
        [np.var(x[observed[:, j], j]) for j in range(d)], dtype=float
    )
    avg_var = float(col_var.mean())
    if avg_var <= 0:
        raise NumericError("cause matrix has no variance to model")
    high, low = np.divmod(_hash64(seed, np.arange(d)[:, None], np.arange(k)), np.uint64(2**32))
    u1, u2 = (high + 1.0) / 2**32, low / 2**32  # u1 in (0, 1], u2 in [0, 1)
    normal = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    return normal * math.sqrt(avg_var / k), 0.5 * avg_var


def _observed(mask: HoldoutMask | None, n: int, d: int) -> np.ndarray:
    if mask is None:
        return np.ones((n, d), dtype=bool)
    if mask.held.shape != (n, d):
        raise ValidationError("holdout mask shape disagrees with the matrix")
    return ~mask.held


def _patterns(observed: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Distinct observation patterns (P, D), each row's pattern index, each pattern's rows.

    Rows are sorted as packed-bit keys; memcmp order on MSB-first bytes is
    the lexicographic row order `np.unique(observed, axis=0)` gives.
    """
    packed = np.packbits(observed, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
    return observed[first], inverse, groups


def _precisions(pats: np.ndarray, w: np.ndarray, s2: float) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (M_g^-1, log det M_g) over patterns, from one batched Cholesky of M_g.

    M_g^-1 = L_g^-T L_g^-1, and L_g^-1 comes by forward substitution over
    all patterns at once, in a (K, K, P) layout: row i of L^-1 is
    (e_i - sum_{j<i} L_ij row_j) / L_ii, a few elementwise operations on
    P-vectors per row instead of one LAPACK inversion per pattern.
    """
    d, k = w.shape
    outer = (w[:, :, None] * w[:, None, :]).reshape(d, k * k)
    m_mat = (pats @ outer).reshape(-1, k, k) + s2 * np.eye(k)
    try:
        chol = np.linalg.cholesky(m_mat)
    except np.linalg.LinAlgError:
        raise NumericError("posterior precision lost positive definiteness") from None
    low = chol.transpose(1, 2, 0).copy()  # low[i, j] holds L_ij of every pattern
    inv = np.zeros_like(low)
    for i in range(k):
        row = inv[i]
        row[i] = 1.0
        row -= (low[i, :i, None] * inv[:i]).sum(axis=0)
        row /= low[i, i]
    # contiguous, so the product runs in BLAS as before; numpy's loop for
    # strided stacks is faster here, but with it a `wide` benchmark process
    # peaked about 0.1 MB higher
    linv = np.ascontiguousarray(inv.transpose(2, 0, 1))
    minv = linv.transpose(0, 2, 1) @ linv
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return minv, logdet


def check_latent_dim(k: int) -> None:
    """A latent dimension must be at least 1; `fit_ppca` also checks K < D."""
    if k < 1:
        raise ValidationError(f"need 1 <= K < D, got K={k}")


def fit_ppca(
    m: CauseMatrix,
    k: int,
    mask: HoldoutMask | None = None,
    *,
    seed: int = 0,
    max_iter: int = 1000,
    tol: float = 1e-8,
) -> PpcaModel:
    """Fit the factor model by SQUAREM-accelerated EM (see the module notes).

    The model returned is the last accepted point, and its
    `log_likelihood` is that of exactly its (W, s2). With `mask` given,
    the held cells are excluded from fitting (each row contributes only
    its observed coordinates), which is what the held-out predictive
    check requires of its model. The column means are taken over the
    entries actually used. `seed` keys the start; `max_iter` >= 1 and
    `tol` >= 0 set the stop rule of the module notes.
    """
    if not max_iter >= 1:  # NaN excluded
        raise ValidationError("max_iter must be >= 1")
    if not tol >= 0:
        raise ValidationError("tol must be >= 0")
    check_seed(seed)
    check_complete(m, "fit_ppca")
    x = m.values
    n, d = x.shape
    if not 1 <= k < d:
        raise ValidationError(f"need 1 <= K < D, got K={k} with D={d}")
    if n <= k:
        raise ValidationError("need more units than latent dimensions")
    observed = _observed(mask, n, d)
    col_counts = observed.sum(axis=0)
    if np.any(col_counts < 2):
        bad = [m.column_names[j] for j in np.flatnonzero(col_counts < 2)]
        raise ValidationError(f"column(s) almost fully held out: {bad}")

    mu = np.array([x[observed[:, j], j].mean() for j in range(d)])
    xc = np.where(observed, x - mu, 0.0)
    if mask is None:
        evals = np.linalg.eigvalsh(xc.T @ xc / n)
        rank = int(np.sum(evals > max(evals.max(), 0.0) * 1e-12))
        if rank < k:
            raise NumericError(
                f"sample covariance has rank {rank} < K={k}; choose a smaller K"
            )

    # EM reads a pattern's rows X_g only through X_g'X_g, so a block taller
    # than D is replaced by its D x D triangular factor R_g (R_g'R_g = X_g'X_g).
    pats, _, groups = _patterns(observed)
    blocks = [xc[rows] for rows in groups]
    xs = np.concatenate([np.linalg.qr(xg, mode="r") if len(xg) > d else xg for xg in blocks])
    counts = np.array([rows.size for rows in groups])
    sizes = np.minimum(counts, d)
    pats = pats.astype(float)
    rows_obs = np.repeat(pats, sizes, axis=0)  # the observed cells of each row of xs
    h = pats.sum(axis=1)
    n_obs = float(observed.sum())
    sum_x2 = float((xc * xc).sum())
    del xc, blocks  # EM needs only xs

    def estep(w: np.ndarray, s2: float) -> tuple[np.ndarray, np.ndarray, float]:
        # A_j = sum over rows observing j of E[z z'], B = sum_i x_i E[z_i]'.
        # Over a pattern's rows, sum E[z z'] = s2 n_g M_g^-1 + sum_r m_r m_r',
        # m_r = M_g^-1 W'x_r for each row r of xs (a data row or a row of
        # R_g); and x'C_g^-1 x, C_g = W_g W_g' + s2 I, is
        # (||x - W_g m||^2 + s2 ||m||^2) / s2, a sum of squares that does not
        # cancel as s2 shrinks.
        minv, logdet = _precisions(pats, w, s2)
        means = np.einsum("rkl,rl->rk", np.repeat(minv, sizes, axis=0), xs @ w)
        a_stats = (
            rows_obs.T @ (means[:, :, None] * means[:, None, :]).reshape(-1, k * k)
            + pats.T @ ((s2 * counts)[:, None, None] * minv).reshape(-1, k * k)
        ).reshape(d, k, k)
        resid = means @ w.T  # W m - x on the observed cells, formed in place
        resid *= rows_obs
        resid -= xs
        quad = np.einsum("rd,rd->", resid, resid) + s2 * np.einsum("rk,rk->", means, means)
        ll = -0.5 * (
            counts @ (h * _LN_2PI + (h - k) * math.log(s2) + logdet) + quad / s2
        )
        return a_stats, xs.T @ means, float(ll)

    def em_point(w: np.ndarray, s2: float):
        # (W, s2), its log-likelihood, and the M-step image of its E-step
        a_stats, b_stats, ll = estep(w, s2)
        w_next = np.linalg.solve(a_stats, b_stats[:, :, None])[:, :, 0]
        s2_next = float(
            (
                sum_x2
                - 2.0 * np.sum(b_stats * w_next)
                + np.einsum("jk,jkl,jl->", w_next, a_stats, w_next)
            )
            / n_obs
        )
        if not s2_next > 0:
            raise NumericError("noise variance collapsed during EM")
        return w, s2, ll, w_next, s2_next

    def theta(w: np.ndarray, s2: float) -> np.ndarray:
        return np.append(w, math.log(s2))

    cur = em_point(*_init_params(x, observed, k, seed))
    trace = [cur[2]]
    evals = 0
    converged = False
    while evals < max_iter:
        w0, nv0, ll0, w1, nv1 = cur
        step = em_point(w1, nv1)  # theta1, carrying theta2 as its M-step image
        evals += 1
        _, _, ll1, w2, nv2 = step
        # a drop is rounding: exact EM never lowers the log-likelihood
        converged = ll1 - ll0 <= tol * max(1.0, abs(ll0))
        if converged or evals == max_iter:
            if ll1 >= ll0:
                cur = step
                trace.append(ll1)
            break
        # SqS3 extrapolation along the two EM steps
        t0, t1 = theta(w0, nv0), theta(w1, nv1)
        r = t1 - t0
        v = theta(w2, nv2) - t1 - r
        v_norm = float(np.linalg.norm(v))
        alpha = min(-float(np.linalg.norm(r)) / v_norm, -1.0) if v_norm > 0 else -1.0
        t = t0 - 2.0 * alpha * r + alpha * alpha * v
        evals += 1
        try:  # a point thrown far off the data's scale over- or underflows: reject it
            if not (nv := math.exp(t[-1])) > 0:  # log s2 below about -745
                raise NumericError("extrapolated noise variance underflowed to 0")
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                new = em_point(t[:-1].reshape(d, k), nv)
        except (NumericError, ArithmeticError):
            new = None
        if new is None or not new[2] >= ll1:
            # fall back to theta2, or to theta1 when no E-step is left
            if evals == max_iter:
                new = step
            else:
                new = em_point(w2, nv2)
                evals += 1
                if new[2] < ll1:  # as above: the steps are inside the rounding
                    new, converged = step, True
        cur = new
        trace.append(cur[2])
        if converged:
            break
    w, s2, ll = cur[:3]
    return PpcaModel(
        loadings=w,
        mean=mu,
        noise_variance=s2,
        k=k,
        log_likelihood=ll,
        fit_trace=trace,
        converged=converged,
        iterations=evals,
    )


def _posterior(
    model: PpcaModel, m: CauseMatrix, mask: HoldoutMask | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(observed, patterns, pattern index per row, stacked M_g^-1, E[z | a_obs])."""
    check_complete(m, "the posterior over z")
    n, d = m.values.shape
    if d != model.n_causes:
        raise ValidationError("matrix width disagrees with the model")
    observed = _observed(mask, n, d)
    pats, inverse, _ = _patterns(observed)
    minv, _ = _precisions(pats, model.loadings, model.noise_variance)
    xc = np.where(observed, m.values - model.mean, 0.0)
    means = np.einsum("nkl,nl->nk", minv[inverse], xc @ model.loadings)
    return observed, pats, inverse, minv, means


def posterior_mean_partial(
    model: PpcaModel, m: CauseMatrix, mask: HoldoutMask | None = None
) -> np.ndarray:
    """E[z | a_obs] per unit (N, K), conditioning only on unmasked coordinates.

    Without a mask every coordinate is conditioned on: E[z | a] =
    M^-1 W'(a - mu) with M = W'W + s2 I. Rows with different holdout
    patterns get genuinely different linear maps, so these surrogates are
    not a single linear function of the causes (the full-posterior ones
    are, which would make a joint regression on causes plus surrogates
    rank deficient). Only the means are formed: the outcome regression
    reads nothing else of the posterior.
    """
    return _posterior(model, m, mask)[-1]


def _chi2_mixture_sf(lam: np.ndarray, q: np.ndarray) -> np.ndarray:
    """P(sum_j lam_j X_j > q) per row of lam (c, h), the X_j iid chi-square(1).

    Ruben's series (Ann. Math. Statist. 1962) with beta = min_j lam_j:
    the tail is sum_k c_k Q(h/2 + k, q / 2 beta), Q the regularized upper
    incomplete gamma. The weights follow the recursion of Kotz, Johnson &
    Boyd (Ann. Math. Statist. 1967): c_0 = prod_j sqrt(beta / lam_j) and
    c_k = (1/2k) sum_{r<k} d_{k-r} c_r, with d_i = sum_j g_j^i and
    g_j = 1 - beta / lam_j; the sum over r is carried per j, so a term
    costs O(h). The weights are positive and sum to 1, so the mass not yet
    summed bounds the truncation error; a row stops adding terms once it is
    at most `_SERIES_TOL`, so its sum does not depend on the other rows.
    Q starts from Q(1/2, y) = erfc(sqrt y) or Q(1, y) = e^-y and climbs
    by Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1). With
    h = 1 (or equal lam) c_0 = 1, and the series is its first term.
    """
    h = lam.shape[1]
    beta = lam.min(axis=1, keepdims=True)
    gamma = 1.0 - beta / lam
    y = q / (2.0 * beta[:, 0])
    with np.errstate(divide="ignore"):  # y = 0 climbs by 0
        log_y = np.log(y)
    if h % 2:
        a, tail = 0.5, np.array([math.erfc(math.sqrt(v)) for v in y.tolist()])
    else:
        a, tail = 1.0, np.exp(-y)

    def climb(a, tail):
        return a + 1.0, tail + np.exp(a * log_y - y - math.lgamma(a + 1.0))

    while a < 0.5 * h:
        a, tail = climb(a, tail)
    c = np.sqrt(beta / lam).prod(axis=1)
    sf, mass, acc, k = c * tail, c, np.zeros_like(lam), 0
    while np.any(live := mass < 1.0 - _SERIES_TOL):
        k += 1
        if k > _SERIES_TERMS:
            raise NumericError(
                f"predictive check series unconverged after {_SERIES_TERMS} terms:"
                " the held-out covariance is too ill-conditioned (collapsed noise variance?)"
            )
        acc = gamma * (acc + c[:, None])  # acc_j = sum_{r<k} g_j^(k-r) c_r
        c = acc.sum(axis=1) / (2 * k)
        a, tail = climb(a, tail)
        sf = sf + np.where(live, c * tail, 0.0)
        mass = mass + np.where(live, c, 0.0)
    return sf


def check_threshold(threshold: float) -> None:
    """The check's pass threshold must lie in [0, 1), NaN excluded."""
    if not 0.0 <= threshold < 1.0:
        raise ValidationError(f"check threshold must lie in [0, 1), got {threshold}")


def predictive_check(
    model: PpcaModel, m: CauseMatrix, mask: HoldoutMask, threshold: float = 0.1
) -> PredictiveCheckResult:
    """Held-out predictive check of the fitted factor model, in closed form.

    Per unit, the statistic is the posterior-averaged held-out
    log-likelihood t(a_H) = E[log p(a_H | z)], z from the posterior given
    the observed coordinates. The unit's score is the probability that a
    held-out replicate drawn from the model's predictive has a statistic
    below the real one, and the overall score is the mean over units.
    Well-calibrated models score near 0.5, broken ones near 0.

    With posterior mean m and covariance s2 M^-1, t(a) = const -
    ||a - W_H m||^2 / (2 s2), and a replicate is N(W_H m, C) with
    C = s2 (W_H M^-1 W_H' + I). A unit's score is therefore
    P(sum_j lam_j X_j > q), the X_j iid chi-square(1), lam the eigenvalues
    of C and q = ||a_H - W_H m||^2, summed by `_chi2_mixture_sf` to
    within 1e-12. C depends on a row only through its pattern, so its
    eigenvalues come from one stacked `eigvalsh` over the patterns of each
    held count h. The check draws nothing: a unit's score depends only on
    its causes and its mask row, up to BLAS rounding in the posterior means.
    The model passes when the score exceeds `threshold`, which must lie in
    [0, 1).
    """
    check_threshold(threshold)
    observed, pats, inverse, minv, means = _posterior(model, m, mask)
    if np.any(observed.all(axis=1)):
        raise ValidationError("every row needs at least one held-out entry")

    w, s2 = model.loadings, model.noise_variance
    resid = np.where(observed, 0.0, m.values - model.mean - means @ w.T)
    q = np.einsum("nd,nd->n", resid, resid)
    held = ~pats
    held_count = held.sum(axis=1)
    per_unit = np.empty(len(q))
    # bincount, not np.unique: unique on a numeric array imports numpy.ma,
    # which costs about 1 MB of peak RSS in a run that needs nothing else of it
    for h in np.flatnonzero(np.bincount(held_count)).tolist():
        group = np.flatnonzero(held_count == h)
        wh = w[np.nonzero(held[group])[1].reshape(-1, h)]  # (patterns, h, K)
        lam = np.linalg.eigvalsh(s2 * (wh @ minv[group] @ wh.transpose(0, 2, 1) + np.eye(h)))
        rows = np.flatnonzero(held_count[inverse] == h)
        per_unit[rows] = _chi2_mixture_sf(lam[np.searchsorted(group, inverse[rows])], q[rows])
    score = float(per_unit.mean())
    return PredictiveCheckResult(score, per_unit, threshold, passed=bool(score > threshold))
