"""Output checks for every command a pass runs, independent of the package.

Nothing here imports `multicause`. Each check reads the CSV inputs and the
files a command wrote, recomputes what it can with plain numpy, and
returns {"ok": bool, "errors": [...], plus measured details}.

- effects: the naive betas against `numpy.linalg.lstsq` on the
  standardized kept columns; the adjusted betas against a per-row posterior
  mean rebuilt from model.json and holdout.json, then lstsq. It records
  whether the predictive check passed and whether EM had converged (one
  more EM step from the saved model must not move the log-likelihood by
  more than the program's tolerance). It never compares to the generating
  betas: on `confounded` both estimators sit about 0.35 from them.
- impute: observed cells and the outcome unchanged, every missing cell
  filled, and one more chained-regression sweep moving the fill by no
  more than the program's last sweep did (the sweeps contract).
- robustness, compare-predictive: every sweep step and both held-out fits
  refitted by lstsq, with the surrogates from the effects command's model
  (same data and flags, so the same fit).
- mediate: the mediator-only regression refitted, the decomposition
  total = direct + lambda * theta, and the status rules.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-9  # relative agreement required of refitted coefficients
EM_TOL = 1e-8  # the program's relative log-likelihood stopping rule
HOLDOUT_RATE = 0.2
SPLIT = 0.2  # compare-predictive's test fraction
MICE_TOL = 1e-6
ALPHA = 0.05


class CheckFailed(Exception):
    pass


class Result:
    def __init__(self):
        self.errors: list[str] = []
        self.details: dict = {}

    def close(self, label: str, got, want, tol: float = TOL) -> None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.errors.append(f"{label}: shape {got.shape} != {want.shape}")
            return
        diff = float(np.max(np.abs(got - want))) if got.size else 0.0
        self.details[f"{label}_max_diff"] = diff
        if not diff <= tol * (1.0 + float(np.max(np.abs(want), initial=0.0))):
            self.errors.append(f"{label}: max difference {diff:.3e}")

    def require(self, label: str, condition: bool) -> None:
        if not condition:
            self.errors.append(label)

    def as_dict(self) -> dict:
        return {"ok": not self.errors, "errors": self.errors, **self.details}


def read_table(path: Path) -> tuple[list[str], dict[str, np.ndarray]]:
    """CSV with an `id` column; empty cells become NaN."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    table: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        cells = [r[j] for r in body]
        if name == "id":
            table[name] = np.array(cells)
        else:
            table[name] = np.array([float(c) if c != "" else math.nan for c in cells])
    return header, table


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _standardized(table: dict, causes: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.column_stack([table[c] for c in causes])
    mean = x.mean(axis=0)
    scale = x.std(axis=0, ddof=1)
    return (x - mean) / scale, mean, scale


def _lstsq(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(design, y, rcond=None)[0]


def _with_intercept(*blocks: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(blocks[0].shape[0]), *blocks])


def _check_prep(res: Result, report: dict, table: dict, causes: list[str]) -> np.ndarray:
    """Every column kept by the screen, and the program's standardization."""
    res.require(
        f"screen kept {report['screen']['kept']} not all of {causes}",
        report["screen"]["kept"] == causes,
    )
    res.details["kept_columns"] = len(report["screen"]["kept"])
    xs, mean, scale = _standardized(table, causes)
    res.close("standardization_mean", report["standardization"]["mean"], mean, 1e-12)
    res.close("standardization_scale", report["standardization"]["scale"], scale, 1e-12)
    return xs


def load_held(holdout: dict, n: int, d: int) -> np.ndarray:
    held = np.zeros((n, d), dtype=bool)
    rows = holdout["held"]
    if len(rows) != n:
        raise CheckFailed(f"holdout.json has {len(rows)} rows for {n} units")
    for i, cols in enumerate(rows):
        held[i, cols] = True
    return held


class Posterior:
    """Per-row PPCA posterior given each row's observed coordinates.

    M_i = sum over observed j of w_j w_j' + s2 I, E[z_i] = M_i^-1 W' x_i,
    solved as one stacked (n, K, K) system per call; no grouping by pattern.
    """

    def __init__(self, loadings, noise_variance, xc: np.ndarray, observed: np.ndarray):
        self.w = np.asarray(loadings, dtype=float)
        self.s2 = float(noise_variance)
        self.xc = xc
        self.obs = observed.astype(float)
        k = self.w.shape[1]
        self.m = np.einsum("nd,dk,dl->nkl", self.obs, self.w, self.w) + self.s2 * np.eye(k)
        self.b = xc @ self.w
        self.z = np.linalg.solve(self.m, self.b[:, :, None])[:, :, 0]

    def loglik(self) -> float:
        k = self.w.shape[1]
        h = self.obs.sum(axis=1)
        sign, logdet = np.linalg.slogdet(self.m)
        if np.any(sign <= 0):
            raise CheckFailed("posterior precision not positive definite")
        quad = (self.xc * self.xc).sum(axis=1) - (self.b * self.z).sum(axis=1)
        terms = h * math.log(2.0 * math.pi) + (h - k) * math.log(self.s2) + logdet + quad / self.s2
        return float(-0.5 * terms.sum())

    def em_step(self) -> "Posterior":
        ezz = self.s2 * np.linalg.inv(self.m) + self.z[:, :, None] * self.z[:, None, :]
        a = np.einsum("nd,nkl->dkl", self.obs, ezz)
        b = self.xc.T @ self.z
        w = np.linalg.solve(a, b[:, :, None])[:, :, 0]
        s2 = (
            float((self.xc * self.xc).sum())
            - 2.0 * float(np.sum(b * w))
            + float(np.einsum("jk,jkl,jl->", w, a, w))
        ) / float(self.obs.sum())
        return Posterior(w, s2, self.xc, self.obs > 0)


def surrogates(fit_dir: Path, xs: np.ndarray, causes: list[str], res: Result) -> np.ndarray:
    """Rebuild the effects command's surrogates and check its saved model."""
    model = _json(fit_dir / "model.json")
    holdout = _json(fit_dir / "holdout.json")
    n, d = xs.shape
    res.require("model columns differ from the kept causes", model.get("columns") == causes)
    held = load_held(holdout, n, d)
    per_row = min(max(int(HOLDOUT_RATE * d), 1), d - 1)
    res.require(f"holdout does not hide {per_row} cells per row", bool(np.all(held.sum(axis=1) == per_row)))
    observed = ~held
    res.details["holdout_patterns"] = int(np.unique(held, axis=0).shape[0])
    mean = np.array([xs[observed[:, j], j].mean() for j in range(d)])
    res.close("model_mean", model["mean"], mean, 1e-12)
    xc = np.where(observed, xs - np.asarray(model["mean"]), 0.0)
    post = Posterior(model["loadings"], model["noise_variance"], xc, observed)
    ll = post.loglik()
    res.close("log_likelihood", model["log_likelihood"], ll, 1e-10)
    step = post.em_step().loglik() - ll
    res.details["em_next_step_rel_change"] = step / max(1.0, abs(ll))
    res.details["em_converged"] = bool(abs(step) <= EM_TOL * max(1.0, abs(ll)))
    return post.z


def check_effects(data_csv: Path, out: Path) -> dict:
    res = Result()
    report = _json(out / "report.json")
    header, table = read_table(data_csv)
    causes = [c for c in header if c not in ("id", "popularity")]
    xs = _check_prep(res, report, table, causes)
    y = table["popularity"]
    naive = _lstsq(_with_intercept(xs), y)
    res.close("naive_beta", report["noncausal"]["beta"], naive[1:])
    z = surrogates(out, xs, causes, res)
    adjusted = _lstsq(_with_intercept(xs, z), y)
    d = len(causes)
    res.close("adjusted_beta", report["causal"]["beta"], adjusted[1 : 1 + d])
    res.close("adjusted_gamma", report["causal"]["gamma"], adjusted[1 + d :])
    check = report["predictive_check"]
    scores = np.asarray(check["per_unit_scores"])
    res.require("per-unit check scores do not cover every unit", scores.shape == (len(y),))
    if check["method"] == "mean":
        res.close("check_score", check["score"], scores.mean(), 1e-12)
    res.details["check_passed"] = bool(check["passed"])
    res.details["check_score"] = check["score"]
    return res.as_dict()


def check_impute(data_csv: Path, out: Path) -> dict:
    res = Result()
    header, raw = read_table(data_csv)
    header_i, imputed = read_table(out / "imputed.csv")
    res.require("imputed.csv header differs from the input", header_i == header)
    if res.errors:
        return res.as_dict()
    causes = [c for c in header if c not in ("id", "popularity")]
    res.require("unit ids changed", bool(np.array_equal(raw["id"], imputed["id"])))
    res.require("outcome changed", bool(np.array_equal(raw["popularity"], imputed["popularity"])))
    x_raw = np.column_stack([raw[c] for c in causes])
    x = np.column_stack([imputed[c] for c in causes])
    miss = np.isnan(x_raw)
    res.require("observed cells changed", bool(np.array_equal(x[~miss], x_raw[~miss])))
    res.require("cells left missing or non-finite", bool(np.all(np.isfinite(x))))
    diag = _json(out / "report.json")["imputation"]
    res.require("report says imputation did not run", diag["ran"] is True)
    res.details["missing_cells"] = int(miss.sum())
    res.details["sweeps"] = diag["sweeps"]
    res.details["mice_converged"] = diag["converged"]
    # one more chained-regression sweep, in column order, from the fill
    nxt = x.copy()
    d = len(causes)
    for j in range(d):
        if not miss[:, j].any():
            continue
        others = [k for k in range(d) if k != j]
        rows = ~miss[:, j]
        beta = _lstsq(_with_intercept(nxt[rows][:, others]), nxt[rows, j])
        nxt[miss[:, j], j] = _with_intercept(nxt[miss[:, j]][:, others]) @ beta
    change = float(np.max(np.abs(nxt[miss] - x[miss])))
    res.details["next_sweep_change"] = change
    bound = max(float(diag["max_change"]), MICE_TOL)
    res.require(f"fill is not a sweep fixed point: next change {change:.3e} > {bound:.3e}",
                change <= bound)
    return res.as_dict()


def _complete_inputs(data_csv: Path, effects_out: Path, res: Result):
    report = _json(effects_out / "report.json")
    header, table = read_table(data_csv)
    causes = [c for c in header if c not in ("id", "popularity")]
    xs, _, _ = _standardized(table, causes)
    res.require("effects screen dropped columns", report["screen"]["kept"] == causes)
    z = surrogates(effects_out, xs, causes, res)
    return causes, xs, table["popularity"], z


def _flips(order: list[str], cells: list[dict]) -> list[dict]:
    flips = []
    for rank, cause in enumerate(order):
        for t in range(rank + 2, len(order) + 1):
            prev, cur = cells[t - 2].get(cause), cells[t - 1].get(cause)
            if not (prev and cur and prev["significant"] and cur["significant"]):
                continue
            a, b = int(np.sign(prev["coefficient"])), int(np.sign(cur["coefficient"]))
            if a and b and a != b:
                flips.append({"cause": cause, "step": t, "from_sign": a, "to_sign": b})
    return flips


def check_robustness(data_csv: Path, effects_out: Path, out: Path) -> dict:
    res = Result()
    causes, xs, y, z = _complete_inputs(data_csv, effects_out, res)
    report = _json(out / "report.json")
    col = {c: j for j, c in enumerate(causes)}
    for label, extra in (("noncausal", ()), ("causal", (z,))):
        table = report[label]
        order = table["order"]
        got, want = [], []
        for t, cells in enumerate(table["cells"], start=1):
            included = order[:t]
            beta = _lstsq(_with_intercept(xs[:, [col[c] for c in included]], *extra), y)
            for i, c in enumerate(included):
                got.append(cells[c]["coefficient"])
                want.append(beta[1 + i])
                res.require(f"{label} step {t} {c}: significance disagrees with p",
                            cells[c]["significant"] == (cells[c]["p_value"] <= ALPHA))
        res.require(f"{label} sweep has {len(table['cells'])} steps", len(table["cells"]) == len(causes))
        res.close(f"{label}_coefficients", got, want)
        res.require(f"{label} flips disagree with the cells", table["flips"] == _flips(order, table["cells"]))
    return res.as_dict()


def check_compare(data_csv: Path, effects_out: Path, out: Path) -> dict:
    res = Result()
    causes, xs, y, z = _complete_inputs(data_csv, effects_out, res)
    comparison = _json(out / "report.json")["comparison"]
    n = len(y)
    perm = np.random.default_rng(0).permutation(n)
    n_test = max(1, int(SPLIT * n))
    test, train = perm[:n_test], perm[n_test:]
    for label, design in (("causal", _with_intercept(xs, z)), ("noncausal", _with_intercept(xs))):
        err = y[test] - design[test] @ _lstsq(design[train], y[train])
        res.close(f"{label}_mse", comparison[label]["mse"], np.mean(err * err))
        res.close(f"{label}_mae", comparison[label]["mae"], np.mean(np.abs(err)))
    return res.as_dict()


def check_mediate(data_csv: Path, out: Path) -> dict:
    res = Result()
    report = _json(out / "report.json")
    header, table = read_table(data_csv)
    causes = [c for c in header if c not in ("id", "popularity", "rating")]
    _check_prep(res, report, table, causes)
    y, r = table["popularity"], table["rating"]
    step3 = _lstsq(_with_intercept(r), y)
    res.close("step3", [row["mean"] for row in report["step3"]["rows"]], step3)
    total, direct, theta = (np.asarray(report[k]) for k in ("beta_total", "beta_direct", "theta"))
    lam = report["lambda"]
    res.close("lambda", lam, report["step4"]["rows"][-1]["mean"], 0.0)
    res.close("decomposition", total, direct + lam * theta, 1e-8)
    p3 = report["step3"]["rows"][-1]["p_value"]
    for j, name in enumerate(causes):
        p1, p2, p4 = (report[s]["rows"][1 + j]["p_value"] for s in ("step1", "step2", "step4"))
        if p1 > ALPHA:
            want = "no_total_effect"
        elif p2 > ALPHA or p3 > ALPHA:
            want = "not_established"
        elif p4 > ALPHA:
            want = "fully_mediated"
        else:
            want = "partially_mediated"
        res.require(f"status of {name} is not {want}", report["status"][name] == want)
    for step in ("step1", "step2", "step3", "step4"):
        res.require(f"{step} n is not {len(y)}", report[step]["n"] == len(y))
    return res.as_dict()


def run_checks(workload: str, inputs: Path, out: Path) -> dict[str, dict]:
    """Check the outputs of one pass; keys are command ids."""
    if workload == "wide":
        plan = {"effects": lambda: check_effects(inputs / "data.csv", out / "effects")}
    else:
        complete = out / "impute" / "imputed.csv"
        plan = {
            "impute": lambda: check_impute(inputs / "data.csv", out / "impute"),
            "effects": lambda: check_effects(complete, out / "effects"),
            "robustness": lambda: check_robustness(complete, out / "effects", out / "robustness"),
            "compare-predictive": lambda: check_compare(
                complete, out / "effects", out / "compare-predictive"
            ),
            "mediate": lambda: check_mediate(inputs / "mediation.csv", out / "mediate"),
        }
    results = {}
    for cid, fn in plan.items():
        try:
            results[cid] = fn()
        except (OSError, KeyError, IndexError, TypeError, ValueError, CheckFailed,
                np.linalg.LinAlgError) as exc:
            results[cid] = {"ok": False, "errors": [f"{type(exc).__name__}: {exc}"]}
    return results
