"""Per-layer metrics from the spans of a traced pass.

A layer is a module of the package. Its self time is the time inside its
spans minus the part their child spans cover. Counts are read at the
same boundaries (see tracer.py) and must repeat exactly between runs of
the same code on the same inputs.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

LAYERS = (
    "cli", "dataset", "imputation", "ppca", "effects",
    "tdist", "tables", "robustness", "mediation", "synthetic",
)
COMMANDS = ("impute", "effects", "robustness", "compare-predictive", "mediate")

# (name, unit, better); BENCHMARK.json's per_layer list is exactly this.
PER_LAYER = (
    [
        ("proc.import_s", "s", "lower"),
        *[(f"cli.{c}.wall_s", "s", "lower") for c in COMMANDS],
        ("tables.canonical_json_s", "s", "lower"),
        ("tables.json_bytes", "bytes", "lower"),
        ("dataset.load_csv_s", "s", "lower"),
        ("dataset.load_csv_calls", "count", "lower"),
        ("dataset.load_csv_rows", "count", "lower"),
        ("dataset.load_csv_rows_per_s", "rows/s", "higher"),
        ("dataset.make_holdout_s", "s", "lower"),
        ("dataset.prep_s", "s", "lower"),
        ("dataset.write_csv_s", "s", "lower"),
        ("imputation.impute_mice_s", "s", "lower"),
        ("imputation.sweeps", "count", "lower"),
        ("ppca.fit_s", "s", "lower"),
        ("ppca.fit_calls", "count", "lower"),
        ("ppca.em_iters", "count", "lower"),
        ("ppca.em_iter_ms", "ms", "lower"),
        ("ppca.patterns", "count", "lower"),
        ("ppca.posterior_mean_partial_s", "s", "lower"),
        ("ppca.predictive_check_s", "s", "lower"),
        ("ppca.check_units", "count", "lower"),
        ("ppca.check_units_per_s", "units/s", "higher"),
        ("effects.ols_fit_calls", "count", "lower"),
        ("effects.ols_fit_s", "s", "lower"),
        ("effects.estimate_s", "s", "lower"),
        ("tdist.t_quantile_calls", "count", "lower"),
        ("tdist.t_quantile_s", "s", "lower"),
        ("robustness.sweep_s", "s", "lower"),
        ("mediation.mediate_s", "s", "lower"),
        ("synthetic.generate_s", "s", "lower"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    + [
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("failed_ops", "ratio", "lower"),
    ]
)


def accumulate(records: list[dict]) -> dict[str, float]:
    """Sum spans of one traced pass (or one set-up) into raw totals.

    Keys: "time:<span>" (outermost calls only), "calls:<span>",
    "count:<span>:<counter>", "self:<layer>", "errors:<layer>",
    "cmd:<command>" (its cli.main time) and "proc.import_s" (process
    start to package imported, summed over commands).
    """
    acc: dict[str, float] = defaultdict(float)
    for rec in records:
        spans = rec["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, error, counters) in enumerate(spans):
            layer = name.split(".", 1)[0]
            acc[f"self:{layer}"] += end - start - covered[i]
            acc[f"errors:{layer}"] += error
            acc[f"calls:{name}"] += 1
            for key, value in counters.items():
                acc[f"count:{name}:{key}"] += value
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                acc[f"time:{name}"] += end - start
            if name == "cli.main":
                acc[f"cmd:{rec['command']}"] += end - start
        if "spawned" in rec and "imported" in rec:
            acc["proc.import_s"] += rec["imported"] - rec["spawned"]
    return acc


def exact_counts(acc: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in acc.items() if k.startswith(("calls:", "count:"))}


def median_totals(accs: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*accs) if accs else set()
    return {k: statistics.median(a.get(k, 0.0) for a in accs) for k in keys}


def named_metrics(acc: dict[str, float]) -> dict[str, float]:
    """The PER_LAYER metrics (except trace.* and failed_ops) from raw totals."""

    def t(span):
        return acc.get(f"time:{span}", 0.0)

    def calls(span):
        return acc.get(f"calls:{span}", 0.0)

    def count(span, key):
        return acc.get(f"count:{span}:{key}", 0.0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m = {"proc.import_s": acc.get("proc.import_s", 0.0)}
    for c in COMMANDS:
        m[f"cli.{c}.wall_s"] = acc.get(f"cmd:{c}", 0.0)
    m["tables.canonical_json_s"] = t("tables.canonical_json")
    m["tables.json_bytes"] = count("tables.canonical_json", "bytes")
    m["dataset.load_csv_s"] = t("dataset.load_csv")
    m["dataset.load_csv_calls"] = calls("dataset.load_csv")
    m["dataset.load_csv_rows"] = count("dataset.load_csv", "rows")
    m["dataset.load_csv_rows_per_s"] = rate(m["dataset.load_csv_rows"], m["dataset.load_csv_s"])
    m["dataset.make_holdout_s"] = t("dataset.make_holdout")
    m["dataset.prep_s"] = sum(
        t(f"dataset.{f}") for f in ("standardize", "correlation_screen", "check_overlap")
    )
    m["dataset.write_csv_s"] = t("dataset.write_csv")
    m["imputation.impute_mice_s"] = t("imputation.impute_mice")
    m["imputation.sweeps"] = count("imputation.impute_mice", "sweeps")
    m["ppca.fit_s"] = t("ppca.fit_ppca")
    m["ppca.fit_calls"] = calls("ppca.fit_ppca")
    m["ppca.em_iters"] = count("ppca.fit_ppca", "em_iters")
    m["ppca.em_iter_ms"] = 1000.0 * rate(m["ppca.fit_s"], m["ppca.em_iters"])
    m["ppca.patterns"] = count("ppca.fit_ppca", "patterns")
    m["ppca.posterior_mean_partial_s"] = t("ppca.posterior_mean_partial")
    m["ppca.predictive_check_s"] = t("ppca.predictive_check")
    m["ppca.check_units"] = count("ppca.predictive_check", "units")
    m["ppca.check_units_per_s"] = rate(m["ppca.check_units"], m["ppca.predictive_check_s"])
    m["effects.ols_fit_calls"] = calls("effects.ols_fit")
    m["effects.ols_fit_s"] = t("effects.ols_fit")
    m["effects.estimate_s"] = sum(
        t(f"effects.{f}")
        for f in ("estimate_effects_causal", "estimate_effects_noncausal", "predictive_comparison")
    )
    m["tdist.t_quantile_calls"] = calls("tdist.t_quantile")
    m["tdist.t_quantile_s"] = t("tdist.t_quantile")
    m["robustness.sweep_s"] = t("robustness.sweep")
    m["mediation.mediate_s"] = t("mediation.mediate")
    m["synthetic.generate_s"] = t("synthetic.generate")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = acc.get(f"self:{layer}", 0.0)
        m[f"{layer}.errors"] = acc.get(f"errors:{layer}", 0.0)
    return m
