"""Command line pipeline around the library stages.

Subcommands:
  synth               draw a synthetic benchmark dataset with known truth
  impute              fill missing cause entries by chained equations
  fit-ppca            fit the factor model on holdout-masked causes
  check               score a saved model against held-out entries
  effects             full pipeline: impute -> standardize -> screen ->
                      fit -> predictive check gate -> effect estimates
  mediate             total/direct decomposition through a mediator column
  robustness          cause-addition sweep with sign-flip detection
  compare-predictive  held-out MSE/MAE of causal vs non-causal regression

Single-flag range checks run as the flags are parsed, before the input is
read; checks across flags or against the data run in the command. --out is
made by the first file written, so a run that fails before writing makes none.

Every run writes manifest.json recording every parsed flag but --out
(-k as `k_requested`), the resolved K, and a sha256 hash; reports embed
the hash so tables are traceable to exact configs.
Outputs are deterministic given the manifest (no timestamps). Errors are
labelled with the innermost package module that raised them.

Exit codes: 0 success; 1 I/O or validation failure; 2 predictive-check
gate failure; 3 numeric failure (rank deficiency, non-convergence).
`main(argv)` returns the code; `run()`, the console script, exits with it
right after the exit handlers and output flushes, skipping interpreter
teardown. Every file written is UTF-8.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys

try:  # the interpreter's own SHA-256: hashlib would load OpenSSL's libcrypto
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .dataset import (
    CauseMatrix,
    CovariateMatrix,
    HoldoutMask,
    check_corr_threshold,
    check_holdout_rate,
    check_overlap,
    check_seed,
    correlation_screen,
    load_csv,
    make_holdout,
    standardize,
    write_csv,
)
from .effects import (
    check_alpha,
    check_split,
    estimate_effects_causal,
    estimate_effects_noncausal,
    predictive_comparison,
)
from .errors import MulticauseError, PredictiveCheckFailed, ValidationError
from .imputation import check_iterations, impute_mice
from .mediation import mediate
from .ppca import (
    DEFAULT_K,
    PpcaModel,
    check_latent_dim,
    check_threshold,
    fit_ppca,
    posterior_mean_partial,
    predictive_check,
)
from .robustness import sweep
from .synthetic import SCENARIOS, check_missing_rate, check_n_units, generate
from .tables import (
    canonical_json,
    render_comparison_table,
    render_mediation_table,
    render_regression_table,
    render_sweep_table,
)

OUTPUT_DIR_ENV = "MULTICAUSE_OUTPUT_DIR"


def _split(names: str | None) -> list[str]:
    return [c for c in (names or "").split(",") if c]


def _path(directory: str, name: str) -> str:
    """The path of output file `name`, making its directory on first use."""
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, name)


def _write_text(directory: str, name: str, text: str) -> None:
    with open(_path(directory, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(directory: str, name: str, payload) -> None:
    _write_text(directory, name, canonical_json(payload))


def _finish(args, out: str, report: dict | None, *text: str) -> None:
    """Write manifest.json from the parsed flags, then the reports.

    report.json (unless `report` is None) and report.txt (given `text`: a
    title, then paragraphs; also printed) carry the manifest hash. Every
    unconverged fit the report records (`_health_warnings`) stamps
    report.txt.
    """
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    body = {
        "command": args.command,
        "package_version": __version__,
        "parameters": parameters,
    }
    body["hash"] = sha256(canonical_json(body).encode()).hexdigest()
    _write_json(out, "manifest.json", body)
    if report is not None:
        _write_json(out, "report.json", {"manifest_hash": body["hash"], **report})
    if text:
        title, *paragraphs = text
        paragraphs[:0] = _health_warnings(report or {})
        blocks = [f"{title}\nmanifest {body['hash']}"] + [p.rstrip("\n") for p in paragraphs]
        doc = "\n\n".join(blocks) + "\n"
        _write_text(out, "report.txt", doc)
        print(doc, end="")


def _load(args):
    """The input CSV, read once: columns no flag names are causes, a --mediator a covariate."""
    mediator = getattr(args, "mediator", None)
    covariates = _split(args.covariates) + ([mediator] if mediator else [])
    return load_csv(args.input, args.outcome, covariates, args.id_column, _split(args.ignore))


def _impute(args, m: CauseMatrix) -> tuple[CauseMatrix, dict]:
    if not m.has_missing:
        return m, {"ran": False}
    res = impute_mice(m, args.mice_iterations)
    imputation = {"ran": True, **vars(res)}
    m = imputation.pop("matrix")
    _warn({"imputation": imputation})
    return m, imputation


def _prepare(args):
    """Load -> impute -> standardize -> screen; returns the report with each stage's block."""
    m, y, x = _load(args)
    overlap = check_overlap(m)
    m, imputation = _impute(args, m)
    m, transform = standardize(m)
    m, dropped = correlation_screen(m, threshold=args.corr_threshold)
    report = {
        "overlap": overlap,
        "imputation": imputation,
        "screen": {"kept": list(m.column_names), "dropped": dropped},
        "standardization": transform,
    }
    return m, y, x, report


def _surrogates(args, m: CauseMatrix, report: dict):
    """Resolve K, hold out entries, fit the factor model, infer the latents.

    The resolved K is stored as `args.k` for the manifest, and how EM went
    as `report["em"]`, warned on stderr if it did not converge.
    """
    args.k = args.k_requested
    if args.k is None:
        # default by outcome column name, clamped below the cause count
        args.k = min(DEFAULT_K.get(args.outcome, DEFAULT_K["custom"]), m.n_causes - 1)
    mask = make_holdout(m, rate=args.holdout_rate, seed=args.seed)
    model = fit_ppca(m, args.k, mask, seed=args.seed)
    report["em"] = {f: getattr(model, f) for f in ("iterations", "converged", "log_likelihood")}
    _warn({"em": report["em"]})
    return mask, model, posterior_mean_partial(model, m, mask)


def _health_warnings(report: dict) -> list[str]:
    """One line per unconverged fit in a report: its "imputation", then its "em"."""
    lines = []
    mice = report.get("imputation")
    if mice and mice["ran"] and not mice["converged"]:
        lines.append(
            f"WARNING: MICE stopped at its cap of {mice['sweeps']} sweeps before converging"
            f" (its last sweep moved a cell by {mice['max_change']:.3g});"
            " the imputed causes are unconverged"
        )
    em = report.get("em")
    if em and not em["converged"]:
        lines.append(
            f"WARNING: EM stopped at its cap of {em['iterations']} E-steps before converging;"
            " the surrogates come from an unconverged factor model"
        )
    return lines


def _warn(report: dict) -> None:
    for line in _health_warnings(report):
        print(line, file=sys.stderr)


def _save_fit(args, out: str, m: CauseMatrix, mask: HoldoutMask, model: PpcaModel) -> None:
    model_doc = model.to_dict()
    model_doc["columns"] = list(m.column_names)
    _write_json(out, "model.json", model_doc)
    holdout = {"rate": args.holdout_rate, "seed": args.seed, **mask.to_dict()}
    _write_json(out, "holdout.json", holdout)


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read '{path}': {exc.strerror}") from None
    except ValueError as exc:
        raise ValidationError(f"bad {what} file: {exc}") from None


def _load_model(path: str, m: CauseMatrix) -> PpcaModel:
    payload = _read_json(path, "model")
    model = PpcaModel.from_dict(payload)
    columns = payload.get("columns")
    if columns is not None and list(columns) != list(m.column_names):
        raise ValidationError(
            "model was fitted on different columns; rerun fit-ppca on this input"
        )
    return model


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args, out: str) -> int:
    kwargs = {"n_units": args.n, "seed": args.seed}
    if args.missing_rate:
        if args.scenario != "confounded":
            raise ValidationError("--missing-rate is only supported for 'confounded'")
        kwargs["missing_rate"] = args.missing_rate
    cfg = SCENARIOS[args.scenario](**kwargs)
    m, rating, popularity, truth = generate(cfg)
    outcomes = {"rating": rating, "popularity": popularity}
    if rating is None:
        del outcomes["rating"]
    write_csv(_path(out, "data.csv"), m, outcomes=outcomes)
    mediator = None
    if cfg.mediator_theta is not None:
        mediator = {"theta": cfg.mediator_theta, "lambda": cfg.mediator_lambda}
    truth_doc = {
        "scenario": args.scenario,
        "seed": args.seed,
        "n_units": args.n,
        "column_names": m.column_names,
        "true_beta": cfg.true_beta,
        "outcome_gamma": cfg.outcome_gamma,
        "confounder_loadings": cfg.confounder_loadings,
        "overlap_shift": truth.overlap_shift,
        "missing_cells": truth.missing_mask.sum(),
        "mediator": mediator,
    }
    _write_json(out, "truth.json", truth_doc)
    _finish(args, out, None)
    print(f"wrote {m.n_units} units x {m.n_causes} causes to {out}/data.csv")
    return 0


def cmd_impute(args, out: str) -> int:
    m, y, x = _load(args)
    m, diagnostics = _impute(args, m)
    outcomes = {args.outcome: y} if args.outcome else {}
    path = _path(out, "imputed.csv")
    write_csv(path, m, outcomes=outcomes, covariates=x, id_column=args.id_column)
    summary = "no missing causes"
    if diagnostics["ran"]:
        summary = (
            f"{diagnostics['sweeps']} sweeps;"
            f" the last moved a cell by at most {diagnostics['max_change']:.3g}"
        )
    title = f"chained-equation imputation of {m.n_units} units x {m.n_causes} causes"
    _finish(args, out, {"imputation": diagnostics}, title, summary)
    note = "imputed" if diagnostics["ran"] else "already complete"
    print(f"{note}; wrote {out}/imputed.csv")
    return 0


def cmd_fit_ppca(args, out: str) -> int:
    m, _, _, report = _prepare(args)
    mask, model, _ = _surrogates(args, m, report)
    _save_fit(args, out, m, mask, model)
    report["noise_variance"] = model.noise_variance
    _finish(
        args,
        out,
        report,
        f"factor model fit of K={args.k} on {m.n_units} units x {m.n_causes} causes",
        f"holdout rate {args.holdout_rate:g}; log-likelihood {model.log_likelihood:.2f}"
        f" after {model.iterations} E-steps",
    )
    return 0


def cmd_check(args, out: str) -> int:
    m, _, _, prep = _prepare(args)
    model = _load_model(args.model, m)
    mask = HoldoutMask.from_dict(_read_json(args.mask, "mask"), m.values.shape)
    result = predictive_check(model, m, mask, threshold=args.check_threshold)
    verdict = "PASSED" if result.passed else "FAILED"
    _finish(
        args,
        out,
        {**vars(result), "imputation": prep["imputation"]},
        f"predictive check of a saved K={model.k} model on {m.n_units} units",
        f"predictive check score {result.score:.4f} (threshold {result.threshold:g}): {verdict}",
    )
    if not result.passed:
        raise PredictiveCheckFailed(result.score, result.threshold)
    return 0


def cmd_effects(args, out: str) -> int:
    m, y, x, report = _prepare(args)
    mask, model, z = _surrogates(args, m, report)
    result = predictive_check(model, m, mask, threshold=args.check_threshold)
    if not result.passed:
        if not args.force:
            raise PredictiveCheckFailed(result.score, result.threshold)
        print(
            f"WARNING: predictive check failed (score {result.score:.4f}"
            f" <= {result.threshold:g}); continuing under --force",
            file=sys.stderr,
        )
    causal = estimate_effects_causal(m, z, y, x)
    noncausal = estimate_effects_noncausal(m, y, x)
    _save_fit(args, out, m, mask, model)
    report.update(predictive_check=result, causal=causal, noncausal=noncausal)
    shown = ["Intercept"] + list(m.column_names)
    verdict = "passed" if result.passed else "FAILED (forced)"
    _finish(
        args,
        out,
        report,
        f"causal effect estimates on '{args.outcome}'",
        f"predictive check: score {result.score:.4f}"
        f" (threshold {result.threshold:g}) {verdict}",
        render_regression_table(causal.regression, include=shown),
        "non-causal comparison",
        render_regression_table(noncausal.regression, include=shown),
    )
    return 0


def cmd_mediate(args, out: str) -> int:
    if args.mediator == args.outcome:
        raise ValidationError("mediator and outcome must be different columns")
    if args.mediator in _split(args.covariates):
        raise ValidationError("the mediator cannot also be a covariate")
    m, y, x, report = _prepare(args)
    # the mediator was loaded as one more covariate; split it off
    j = x.column_names.index(args.mediator)
    r = x.values[:, j]
    rest = [i for i in range(len(x.column_names)) if i != j]
    x = CovariateMatrix(x.values[:, rest], [x.column_names[i] for i in rest]) if rest else None
    _, _, z = _surrogates(args, m, report)
    result = mediate(m, z, r, y, x, alpha=args.alpha)
    _finish(
        args,
        out,
        {**result.to_dict(), **report},
        f"mediation of '{args.outcome}' through '{args.mediator}'",
        render_mediation_table(result, alpha=args.alpha),
    )
    return 0


def cmd_robustness(args, out: str) -> int:
    if _split(args.covariates):  # the sweep regresses on causes and surrogates only
        raise ValidationError("robustness takes no --covariates; drop those columns with --ignore")
    m, y, _, report = _prepare(args)
    order = _split(args.order) or None
    paragraphs = []
    for label in ("noncausal", "causal"):
        if args.mode in (label, "both"):
            z = None
            if label == "causal":
                _, _, z = _surrogates(args, m, report)
            table = sweep(m, y, z=z, order=order, alpha=args.alpha)
            report[label] = table
            paragraphs += [f"{label} sweep", render_sweep_table(table)]
    _finish(args, out, report, f"cause-addition sweep on '{args.outcome}'", *paragraphs)
    return 0


def cmd_compare_predictive(args, out: str) -> int:
    m, y, x, report = _prepare(args)
    _, _, z = _surrogates(args, m, report)
    comparison = predictive_comparison(m, z, y, x, split=args.split, seed=args.seed)
    _finish(
        args,
        out,
        {"comparison": comparison, **report},
        f"held-out prediction of '{args.outcome}' (test fraction {args.split:g})",
        render_comparison_table(comparison),
    )
    return 0


# ---------------------------------------------------------------------------
# command table


def _flag(*names: str, **kwargs):
    return names, kwargs


def _checked(kind, check):
    """`kind(text)`, then a stage's range `check`; named as `kind` for argparse's errors."""

    def parse(text: str):
        check(value := kind(text))
        return value

    parse.__name__ = kind.__name__
    return parse


_SEED = _flag("--seed", type=_checked(int, check_seed), required=True)
_OUT = _flag("--out", default=None, help=f"output directory (or ${OUTPUT_DIR_ENV})")
_SYNTH = [
    _flag("--scenario", choices=sorted(SCENARIOS), required=True),
    _flag("--n", type=_checked(int, check_n_units), default=5000, help="number of units"),
    _flag("--missing-rate", type=_checked(float, check_missing_rate), default=0.0),
    _SEED,
    _OUT,
]
_INPUT = [
    _flag("--input", required=True, help="input CSV path"),
    _flag("--id-column", default="id", help="unit id column (default: id)"),
    _flag("--covariates", default="", help="comma-separated covariate columns"),
    _flag("--ignore", default="", help="comma-separated columns to drop"),
    _flag("--mice-iterations", type=_checked(int, check_iterations), default=10),
]
_OPTIONAL_OUTCOME = _flag("--outcome", default=None, help="outcome column name (optional)")
_IMPUTE = [*_INPUT, _OPTIONAL_OUTCOME, _OUT]
_CORR = _flag("--corr-threshold", type=_checked(float, check_corr_threshold), default=0.7)
_PREPARE = [*_INPUT, _CORR, _OUT]
_FIT = [
    _flag("-k", "--latent-dim", dest="k_requested", type=_checked(int, check_latent_dim)),
    _flag("--holdout-rate", type=_checked(float, check_holdout_rate), default=0.2),
]
_CHECK = _flag("--check-threshold", type=_checked(float, check_threshold), default=0.1)
_SAVED = [
    _flag("--model", required=True, help="model.json from fit-ppca"),
    _flag("--mask", required=True, help="holdout.json from fit-ppca"),
]
# the analyses: a required outcome and a fresh fit
_ANALYSIS = [
    *_PREPARE, _SEED, _flag("--outcome", required=True, help="outcome column name"), *_FIT
]
_FORCE = _flag("--force", action="store_true", help="proceed past a failed check")
_MEDIATOR = _flag("--mediator", required=True, help="mediator column name")
_ALPHA = _flag("--alpha", type=_checked(float, check_alpha), default=0.05)
_MODE = _flag("--mode", choices=("causal", "noncausal", "both"), default="both")
_ORDER = _flag("--order", default="", help="comma-separated cause addition order")
_SPLIT = _flag("--split", type=_checked(float, check_split), default=0.2)


# name -> (function, help text, flags)
COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic benchmark dataset", _SYNTH),
    "impute": (cmd_impute, "fill missing cause entries", _IMPUTE),
    "fit-ppca": (
        cmd_fit_ppca,
        "fit the factor model over the causes",
        [*_PREPARE, _SEED, _OPTIONAL_OUTCOME, *_FIT],
    ),
    "check": (
        cmd_check,
        "score a saved model on held-out entries",
        [*_PREPARE, _OPTIONAL_OUTCOME, *_SAVED, _CHECK],
    ),
    "effects": (cmd_effects, "full causal effect pipeline", [*_ANALYSIS, _CHECK, _FORCE]),
    "mediate": (
        cmd_mediate, "total/direct effects through a mediator", [*_ANALYSIS, _MEDIATOR, _ALPHA]
    ),
    "robustness": (
        cmd_robustness, "cause-addition sign-flip sweep", [*_ANALYSIS, _MODE, _ORDER, _ALPHA]
    ),
    "compare-predictive": (
        cmd_compare_predictive, "held-out MSE/MAE comparison", [*_ANALYSIS, _SPLIT]
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multicause",
        description="causal effect estimation for multiple correlated causes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for names, kwargs in flags:
            p.add_argument(*names, **kwargs)
    return parser


def _origin(exc: BaseException) -> str:
    """Short name of the innermost package module the exception passed through."""
    label = "cli"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("multicause."):
            label = module.rsplit(".", 1)[1]
        tb = tb.tb_next
    return label


def main(argv=None) -> int:
    try:  # inside: a flag's range check raises a stage's ValidationError
        args = build_parser().parse_args(argv)
        command, _, _ = COMMANDS[args.command]
        return command(args, args.out or os.environ.get(OUTPUT_DIR_ENV) or ".")
    except MulticauseError as exc:
        # a failed gate is the factor model's verdict
        label = "ppca" if isinstance(exc, PredictiveCheckFailed) else _origin(exc)
        print(f"error [{label}] {exc}", file=sys.stderr)
        print(f"hint: {exc.hint}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error [cli] {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Entry point of the `multicause` script and `python -m multicause.cli`.

    Runs `main()`, then the exit handlers, flushes stdout and stderr, and
    leaves by `os._exit`. Interpreter teardown (module clearing, garbage
    collection, deallocation) only frees memory the kernel reclaims
    anyway, and costs about 20-25 ms a process once numpy is loaded.
    Nothing depends on it: the package starts no threads and opens every
    file in a `with` block. Only a normal return takes this exit.
    argparse's `SystemExit`, an uncaught exception, and a failed flush (a
    closed stdout pipe) take the interpreter's own, which reports them as
    usual.
    """
    code = main()
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
