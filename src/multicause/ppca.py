"""Probabilistic PCA over the causes, and the held-out predictive check.

The generative model per unit: z ~ N(0, I_K), a | z ~ N(mu + W z, s2 I_D),
so marginally a ~ N(mu, W W' + s2 I). Fitting is plain EM with a seeded
Gaussian start, one iteration for complete and masked data alike: each
row is conditioned on its observed coordinates only (all of them when no
mask is given), so a model can be fitted without ever seeing the held-out
cells. With complete data its maximum is cross-checkable against the
closed-form eigendecomposition solution.

Everything here rests on the posterior of z given a row's observed block,
which depends on the row only through its observation pattern g:
precision M_g = W_g'W_g + s2 I, mean M_g^-1 W_g'(a_g - mu_g), covariance
s2 M_g^-1. `_precisions` factorizes all patterns' M_g in one stacked call
and serves the EM, the surrogates and the check.

The check scores units array-at-a-time: rows with the same held count h
are taken in fixed-size chunks across patterns, each row gathers its
pattern's posterior factor and its held loadings, and the draws and t
statistics of a chunk come from stacked matmuls. Every unit still draws
from its own stream in the same order as a unit-by-unit loop would, so
the per-unit scores do not depend on the chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import CauseMatrix, HoldoutMask
from .errors import NumericError, ValidationError

_LN_2PI = math.log(2.0 * math.pi)

# fit_ppca latent dimension defaults by outcome kind
DEFAULT_K = {"rating": 10, "popularity": 5, "custom": 5}

# Units the predictive check scores per stacked batch. Larger batches cut
# numpy's per-call overhead further but grow the (rows, S, ...) work arrays,
# and with them peak RSS; 16 keeps those arrays to a few hundred KB.
_CHECK_CHUNK = 16


@dataclass
class PpcaConfig:
    max_iter: int = 1000
    tol: float = 1e-8  # relative log-likelihood change
    seed: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")
        if self.tol < 0:
            raise ValidationError("tol must be >= 0")


@dataclass(eq=False)
class PpcaModel:
    loadings: np.ndarray  # (D, K)
    mean: np.ndarray  # (D,)
    noise_variance: float
    k: int
    log_likelihood: float
    fit_trace: list[float] = field(default_factory=list)
    converged: bool = True

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

    def marginal_covariance(self) -> np.ndarray:
        w = self.loadings
        return w @ w.T + self.noise_variance * np.eye(w.shape[0])

    def to_dict(self) -> dict:
        return {
            "loadings": [[float(v) for v in row] for row in self.loadings],
            "mean": [float(v) for v in self.mean],
            "noise_variance": float(self.noise_variance),
            "K": int(self.k),
            "log_likelihood": float(self.log_likelihood),
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


@dataclass(eq=False)
class SurrogateConfounders:
    """Posterior mean of z per unit.

    posterior_covariance is K x K (shared across units) when no holdout
    mask was given, or N x K x K when rows condition on the observed
    subsets of a mask.
    """

    values: np.ndarray
    posterior_covariance: np.ndarray

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValidationError("surrogate confounders must be N x K")

    @property
    def k(self) -> int:
        return self.values.shape[1]


@dataclass(eq=False)
class PredictiveCheckResult:
    score: float
    per_unit_scores: np.ndarray
    threshold: float
    passed: bool
    replications: int
    mc_samples: int
    method: str = "mean"

    def to_dict(self) -> dict:
        return {
            "score": float(self.score),
            "per_unit_scores": [float(v) for v in self.per_unit_scores],
            "threshold": float(self.threshold),
            "passed": bool(self.passed),
            "replications": int(self.replications),
            "mc_samples": int(self.mc_samples),
            "method": self.method,
        }


def _require_complete(m: CauseMatrix, what: str) -> None:
    if m.has_missing:
        raise ValidationError(f"{what} requires a complete matrix; impute first")


def _init_params(
    x: np.ndarray, observed: np.ndarray, k: int, seed: int
) -> tuple[np.ndarray, float]:
    # Seeded Gaussian loadings scaled to the data; noise starts at half
    # the average column variance so EM can shrink or grow it freely.
    d = x.shape[1]
    col_var = np.array(
        [np.var(x[observed[:, j], j]) for j in range(d)], dtype=float
    )
    avg_var = float(col_var.mean())
    if avg_var <= 0:
        raise NumericError("cause matrix has no variance to model")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((d, k)) * math.sqrt(avg_var / k)
    return w, 0.5 * avg_var


def closed_form_max_loglik(m: CauseMatrix, k: int) -> float:
    """Maximum of the PPCA marginal likelihood from the sample spectrum.

    With eigenvalues l_1 >= ... >= l_D of the (1/N) covariance, the
    optimal noise is the mean of the D-K trailing eigenvalues and the
    maximum equals -N/2 [D ln 2pi + sum_{j<=K} ln l_j + (D-K) ln s2 + D].
    """
    _require_complete(m, "closed-form evaluation")
    x = m.values
    n, d = x.shape
    if not 1 <= k < d:
        raise ValidationError("need 1 <= K < D")
    xc = x - x.mean(axis=0)
    s = xc.T @ xc / n
    evals = np.linalg.eigvalsh(s)[::-1]
    s2 = float(evals[k:].mean())
    if s2 <= 0:
        raise NumericError("trailing eigenvalues are not positive; reduce K")
    top = np.maximum(evals[:k], s2)
    return float(-0.5 * n * (d * _LN_2PI + np.log(top).sum() + (d - k) * math.log(s2) + d))


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


def _precisions(
    pats: np.ndarray, w: np.ndarray, s2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked (M_g^-1, L_g^-1, log det M_g) over patterns, with L_g L_g' = M_g."""
    d, k = w.shape
    outer = (w[:, :, None] * w[:, None, :]).reshape(d, k * k)
    m_mat = (pats @ outer).reshape(-1, k, k) + s2 * np.eye(k)
    try:
        chol = np.linalg.cholesky(m_mat)
    except np.linalg.LinAlgError:
        raise NumericError("posterior precision lost positive definiteness") from None
    linv = np.linalg.inv(chol)
    minv = linv.transpose(0, 2, 1) @ linv
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return minv, linv, logdet


def fit_ppca(
    m: CauseMatrix,
    k: int,
    cfg: PpcaConfig | None = None,
    mask: HoldoutMask | None = None,
) -> PpcaModel:
    """Fit the factor model by EM.

    With `mask` given, the held cells are excluded from fitting (each row
    contributes only its observed coordinates), which is what the
    held-out predictive check requires of its model. The column means
    are taken over the entries actually used.
    """
    cfg = cfg or PpcaConfig()
    _require_complete(m, "fit_ppca")
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
    starts = np.cumsum(sizes) - sizes
    h = pats.sum(axis=1)
    n_obs = float(observed.sum())
    sum_x2 = float((xc * xc).sum())
    del xc, blocks  # EM needs only xs

    def estep(w: np.ndarray, s2: float) -> tuple[np.ndarray, np.ndarray, float]:
        # A_j = sum over rows observing j of E[z z'], B = sum_i x_i E[z_i]'
        minv, _, logdet = _precisions(pats, w, s2)
        b = xs @ w
        c = np.add.reduceat(b[:, :, None] * b[:, None, :], starts)  # W_g' S_g W_g
        means = np.einsum("rkl,rl->rk", np.repeat(minv, sizes, axis=0), b)
        second = minv @ c @ minv
        second += (s2 * counts)[:, None, None] * minv
        a_stats = (pats.T @ second.reshape(-1, k * k)).reshape(d, k, k)
        quad = sum_x2 - np.einsum("gkl,glk->", minv, c)
        ll = -0.5 * (
            counts @ (h * _LN_2PI + (h - k) * math.log(s2) + logdet) + quad / s2
        )
        return a_stats, xs.T @ means, float(ll)

    w, s2 = _init_params(x, observed, k, cfg.seed)
    a_stats, b_stats, ll = estep(w, s2)
    trace = [ll]
    converged = False
    for _ in range(cfg.max_iter):
        w = np.linalg.solve(a_stats, b_stats[:, :, None])[:, :, 0]
        s2 = float(
            (
                sum_x2
                - 2.0 * np.sum(b_stats * w)
                + np.einsum("jk,jkl,jl->", w, a_stats, w)
            )
            / n_obs
        )
        if s2 <= 0:
            raise NumericError("noise variance collapsed during EM")
        a_stats, b_stats, ll = estep(w, s2)
        trace.append(ll)
        if abs(ll - trace[-2]) <= cfg.tol * max(1.0, abs(trace[-2])):
            converged = True
            break
    return PpcaModel(
        loadings=w,
        mean=mu,
        noise_variance=s2,
        k=k,
        log_likelihood=trace[-1],
        fit_trace=trace,
        converged=converged,
    )


def posterior_mean_partial(
    model: PpcaModel, m: CauseMatrix, mask: HoldoutMask | None = None
) -> SurrogateConfounders:
    """E[z | a_obs] per unit, conditioning only on unmasked coordinates.

    Without a mask every coordinate is conditioned on: E[z | a] =
    M^-1 W'(a - mu) with M = W'W + s2 I, and the posterior covariance is
    one K x K matrix shared by all units. With a mask it is N x K x K.
    Rows with different holdout patterns get genuinely different linear
    maps, so these surrogates are not a single linear function of the
    causes (the full-posterior ones are, which would make a joint
    regression on causes plus surrogates rank deficient).
    """
    _require_complete(m, "posterior_mean_partial")
    n, d = m.values.shape
    if d != model.n_causes:
        raise ValidationError("matrix width disagrees with the model")
    observed = _observed(mask, n, d)
    pats, inverse, _ = _patterns(observed)
    minv, _, _ = _precisions(pats, model.loadings, model.noise_variance)
    rows = minv[inverse]
    xc = np.where(observed, m.values - model.mean, 0.0)
    values = np.einsum("nkl,nl->nk", rows, xc @ model.loadings)
    cov = model.noise_variance * (minv[0] if mask is None else rows)
    return SurrogateConfounders(values=values, posterior_covariance=cov)


def predictive_check(
    model: PpcaModel,
    m: CauseMatrix,
    mask: HoldoutMask,
    replications: int = 100,
    mc_samples: int = 100,
    seed: int = 0,
    threshold: float = 0.1,
    method: str = "mean",
) -> PredictiveCheckResult:
    """Held-out predictive check of the fitted factor model.

    Per unit, the statistic is the posterior-averaged held-out
    log-likelihood t(a_held) = (1/S) sum_s log p(a_held | z_s), with z_s
    drawn from the posterior given the observed coordinates. The unit's
    score is the fraction of `replications` model-generated held-out
    replicates whose statistic falls below the real one; the overall
    score averages units ("mean") or compares pooled sums ("pooled").
    Well-calibrated models score near 0.5, broken ones near 0.

    Each unit draws from its own RNG stream keyed by (seed, i), where i
    is the unit's row position in `m`, not its unit id: one call draws
    S*K posterior normals for the statistic, then R*K for the replicates'
    z, then R*h replicate noises. A split over units reproduces the serial
    per-unit scores bit for bit only if every part keeps the global row
    indices; scoring a row subset as its own matrix renumbers the rows and
    so changes their streams.

    Units are scored in chunks of `_CHECK_CHUNK` rows sharing a held count
    h, taken across patterns in row order, so the loop runs over chunks
    rather than units; only the per-unit stream set-up stays in Python.
    """
    _require_complete(m, "predictive_check")
    n, d = m.values.shape
    if d != model.n_causes:
        raise ValidationError("matrix width disagrees with the model")
    observed = _observed(mask, n, d)
    if replications < 10 or mc_samples < 10:
        raise ValidationError("need replications >= 10 and mc_samples >= 10")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    if method not in ("mean", "pooled"):
        raise ValidationError("method must be 'mean' or 'pooled'")
    if np.any(observed.all(axis=1)):
        raise ValidationError("every row needs at least one held-out entry")

    w = model.loadings
    s2 = model.noise_variance
    sigma = math.sqrt(s2)
    k = model.k
    xc = m.values - model.mean
    pats, inverse, _ = _patterns(observed)
    minv, linv, _ = _precisions(pats, w, s2)
    stat_end, rep_end = mc_samples * k, (mc_samples + replications) * k

    per_unit = np.empty(n)
    pooled_real = 0.0
    pooled_rep = np.zeros(replications)
    held_count = d - observed.sum(axis=1)
    by_count = np.argsort(held_count, kind="stable")
    # bincount, not np.unique: unique on a numeric array imports numpy.ma,
    # which costs about 1 MB of peak RSS in a run that needs nothing else of it
    for h in np.flatnonzero(np.bincount(held_count)).tolist():
        same_h = by_count[held_count[by_count] == h]
        const = -0.5 * h * math.log(2.0 * math.pi * s2)
        draws = np.empty((_CHECK_CHUNK, rep_end + replications * h))
        for start in range(0, same_h.size, _CHECK_CHUNK):
            rows = same_h[start : start + _CHECK_CHUNK]
            c = rows.size
            for j, i in enumerate(rows):
                np.random.default_rng([seed, int(i)]).standard_normal(out=draws[j])
            obs = observed[rows]
            g = inverse[rows]
            cols = np.nonzero(~obs)[1].reshape(c, h)
            wh_t = w[cols].transpose(0, 2, 1)  # (c, K, h)
            # factor F' per row, with F F' = posterior covariance s2 * M^-1
            factor_t = sigma * linv[g]
            # posterior means, as posterior_mean_partial computes them
            means = np.einsum(
                "ckl,cl->ck", minv[g], np.where(obs, xc[rows], 0.0) @ w
            )[:, None, :]
            eps = draws[:c, :stat_end].reshape(c, mc_samples, k)
            nu = (means + eps @ factor_t) @ wh_t  # (c, S, h) predicted centered means
            nu_bar = nu.mean(axis=1, keepdims=True)
            nu_sq = (nu * nu).mean(axis=1, keepdims=True)

            def t_stat(a_held):
                # (1/S) sum_s log N(a | nu_s, s2) via the quadratic expansion
                quad = (a_held * a_held - 2.0 * a_held * nu_bar + nu_sq).sum(axis=-1)
                return const - quad / (2.0 * s2)

            t_real = t_stat(xc[rows[:, None], cols][:, None, :])  # (c, 1)
            eps = draws[:c, stat_end:rep_end].reshape(c, replications, k)
            noise = draws[:c, rep_end:].reshape(c, replications, h)
            t_rep = t_stat((means + eps @ factor_t) @ wh_t + sigma * noise)  # (c, R)
            per_unit[rows] = np.mean(t_rep < t_real, axis=1)
            pooled_real += float(t_real.sum())
            pooled_rep += t_rep.sum(axis=0)

    if method == "mean":
        score = float(per_unit.mean())
    else:
        score = float(np.mean(pooled_rep < pooled_real))
    return PredictiveCheckResult(
        score=score,
        per_unit_scores=per_unit,
        threshold=threshold,
        passed=bool(score > threshold),
        replications=replications,
        mc_samples=mc_samples,
        method=method,
    )
