"""End-to-end runs of the command line pipeline, in process.

Every test invokes main(argv) directly and inspects the files it wrote;
nothing here shells out. Outputs carry no timestamps, so reruns with the
same flags must be byte-identical, which several tests pin down.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import pathlib
import re

import numpy as np
import pytest

from multicause import cli
from multicause.cli import COMMANDS, OUTPUT_DIR_ENV, build_parser, main
from multicause.dataset import correlation_screen, load_csv, make_holdout, standardize
from multicause.ppca import fit_ppca, posterior_mean_partial
from multicause.tables import canonical_json


def run(*argv):
    return main([str(a) for a in argv])


def read_json(directory, name):
    return json.loads((pathlib.Path(directory) / name).read_text())


@pytest.fixture(scope="module")
def flip_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("flip")
    assert run("synth", "--scenario", "flip", "--n", 2000, "--seed", 0, "--out", d) == 0
    return d


@pytest.fixture(scope="module")
def mediation_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("med")
    code = run(
        "synth", "--scenario", "mediation-partial", "--n", 1200, "--seed", 2, "--out", d
    )
    assert code == 0
    return d


@pytest.fixture(scope="module")
def sparse_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("sparse")
    code = run(
        "synth",
        "--scenario",
        "confounded",
        "--n",
        600,
        "--seed",
        3,
        "--missing-rate",
        0.1,
        "--out",
        d,
    )
    assert code == 0
    return d


def test_synth_outputs(flip_data):
    assert (flip_data / "data.csv").exists()
    truth = read_json(flip_data, "truth.json")
    assert truth["scenario"] == "flip"
    assert truth["column_names"] == ["c1", "c2", "c3", "c4", "c5"]
    assert len(truth["true_beta"]) == 5
    assert truth["mediator"] is None
    header = (flip_data / "data.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "id"
    assert "popularity" in header


def test_manifest_hash_is_self_consistent(flip_data):
    manifest = read_json(flip_data, "manifest.json")
    body = {k: manifest[k] for k in ("command", "package_version", "parameters")}
    digest = hashlib.sha256(canonical_json(body).encode()).hexdigest()
    assert manifest["hash"] == digest
    assert manifest["command"] == "synth"
    assert manifest["parameters"]["seed"] == 0


def test_missing_rate_only_for_confounded(tmp_path):
    code = run(
        "synth",
        "--scenario",
        "flip",
        "--n",
        100,
        "--seed",
        0,
        "--missing-rate",
        0.1,
        "--out",
        tmp_path / "out",
    )
    assert code == 1
    # --out is made by the first file written, so a refused run makes none
    assert list(tmp_path.iterdir()) == []


def test_out_naming_a_regular_file_is_an_io_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert run("synth", "--scenario", "flip", "--n", 100, "--seed", 0, "--out", taken) == 1
    assert capsys.readouterr().err.startswith("error [cli] [Errno 17] File exists")
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--missing-rate", 1.5, "missing_rate must lie in [0, 1)"),
        ("--missing-rate", "nan", "missing_rate must lie in [0, 1)"),
        ("--n", 1, "need at least 2 units"),
    ],
)
def test_synth_flags_are_range_checked_before_out_is_made(
    flag, value, message, tmp_path, capsys
):
    argv = ["synth", "--scenario", "confounded", "--seed", 0, flag, value]
    assert run(*argv, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err.splitlines()[0] == f"error [synthetic] {message}"
    assert list(tmp_path.iterdir()) == []


def effects_args(data_dir, out_dir, *extra):
    return (
        "effects",
        "--input",
        data_dir / "data.csv",
        "--outcome",
        "popularity",
        "--corr-threshold",
        0.95,
        "--seed",
        0,
        "--out",
        out_dir,
        *extra,
    )


def test_effects_pipeline_and_rerun_bytes(flip_data, tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run(*effects_args(flip_data, out1)) == 0
    for name in ("report.txt", "report.json", "model.json", "holdout.json", "manifest.json"):
        assert (out1 / name).exists(), name
    assert run(*effects_args(flip_data, out2)) == 0
    for name in ("report.txt", "report.json", "model.json", "holdout.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    report = read_json(out1, "report.json")
    assert report["predictive_check"]["passed"] is True
    assert len(report["causal"]["beta"]) == 5
    assert len(report["noncausal"]["beta"]) == 5
    assert report["screen"]["dropped"] == []
    assert report["manifest_hash"] == read_json(out1, "manifest.json")["hash"]
    text = (out1 / "report.txt").read_text()
    assert "predictive check: score" in text
    assert "non-causal comparison" in text
    # the rendered tables show only intercept and causes, the JSON has all rows
    assert "z1" not in text
    names = [r["name"] for r in report["causal"]["regression"]["rows"]]
    assert "z1" in names


def test_default_k_clamps_below_cause_count(flip_data, tmp_path):
    assert run(*effects_args(flip_data, tmp_path)) == 0
    manifest = read_json(tmp_path, "manifest.json")
    # 'popularity' asks for K=5, but only 4 fits under the 5 causes
    assert manifest["parameters"]["k_requested"] is None
    assert manifest["parameters"]["k"] == 4
    assert read_json(tmp_path, "model.json")["K"] == 4


def test_fit_ppca_then_check_reproduces_the_pipeline_score(flip_data, tmp_path):
    fit_dir = tmp_path / "fit"
    eff_dir = tmp_path / "eff"
    chk_dir = tmp_path / "chk"
    assert run(*effects_args(flip_data, eff_dir)) == 0
    code = run(
        "fit-ppca",
        "--input",
        flip_data / "data.csv",
        "--outcome",
        "popularity",
        "--corr-threshold",
        0.95,
        "--seed",
        0,
        "--out",
        fit_dir,
    )
    assert code == 0
    code = run(
        "check",
        "--input",
        flip_data / "data.csv",
        "--outcome",
        "popularity",
        "--corr-threshold",
        0.95,
        "--model",
        fit_dir / "model.json",
        "--mask",
        fit_dir / "holdout.json",
        "--out",
        chk_dir,
    )
    assert code == 0
    check_report = read_json(chk_dir, "report.json")
    pipeline_score = read_json(eff_dir, "report.json")["predictive_check"]["score"]
    assert check_report["score"] == pipeline_score
    assert check_report["passed"] is True


def test_gate_failure_exits_2_and_force_continues(flip_data, tmp_path, capsys):
    blocked = tmp_path / "blocked"
    code = run(*effects_args(flip_data, blocked, "--check-threshold", 0.99))
    assert code == 2
    err = capsys.readouterr().err
    assert "error [ppca]" in err
    assert "hint:" in err
    assert not (blocked / "report.json").exists()

    forced = tmp_path / "forced"
    code = run(*effects_args(flip_data, forced, "--check-threshold", 0.99, "--force"))
    assert code == 0
    err = capsys.readouterr().err
    assert "WARNING: predictive check failed" in err
    assert "FAILED (forced)" in (forced / "report.txt").read_text()
    assert read_json(forced, "report.json")["predictive_check"]["passed"] is False


def test_failed_check_exits_2_and_still_writes_its_report(
    flip_data, mediation_data, fit_dir, tmp_path, capsys
):
    # unlike effects, check has no later stage to stop: its report is the verdict
    argv = ["check", *contract_argv("check", flip_data, mediation_data, fit_dir)]
    assert run(*argv, "--check-threshold", 0.99, "--out", tmp_path) == 2
    assert capsys.readouterr().err.startswith("error [ppca] ")
    report = read_json(tmp_path, "report.json")
    assert report["passed"] is False and report["threshold"] == 0.99
    assert ": FAILED" in (tmp_path / "report.txt").read_text()


def test_failed_gate_hint_names_only_flags_of_the_commands_it_names(
    flip_data, mediation_data, fit_dir, tmp_path, capsys
):
    # check and effects both stop at a failed gate and print one hint, so
    # each flag it names must belong to a command it names
    checked = ["check", *contract_argv("check", flip_data, mediation_data, fit_dir)]
    hints = set()
    for argv in (checked, effects_args(flip_data, tmp_path / "effects")):
        assert run(*argv, "--check-threshold", 0.99, "--out", tmp_path / argv[0]) == 2
        hints.add(capsys.readouterr().err.split("\nhint: ", 1)[1])
    (hint,) = hints
    named = [c for c in COMMANDS if re.search(rf"(?<![\w-]){c}(?![\w-])", hint)]
    flags = re.findall(r"(?<![\w-])--?[a-z][\w-]*", hint)
    assert named and flags
    for flag in flags:
        assert any(flag in names for c in named for names, _ in COMMANDS[c][2]), flag


def test_missing_input_fails_with_stage_and_hint(tmp_path, capsys):
    code = run(
        "effects",
        "--input",
        tmp_path / "nowhere.csv",
        "--outcome",
        "popularity",
        "--seed",
        0,
        "--out",
        tmp_path / "out",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error [dataset]" in err
    assert "hint:" in err
    assert list(tmp_path.iterdir()) == []


def test_malformed_csv_fails_with_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,c1,c2,y\nu1,1.0,2.0,3.0\nu2,oops,2.0,1.0\n")
    code = run(
        "effects",
        "--input",
        bad,
        "--outcome",
        "y",
        "--seed",
        0,
        "--out",
        tmp_path,
    )
    assert code == 1
    assert "line 3" in capsys.readouterr().err



def test_non_finite_outcome_is_rejected_at_load(tmp_path, capsys):
    # an inf outcome once ran through and wrote NaN tokens into report.json
    rng = np.random.default_rng(0)
    lines = ["id,c1,c2,c3,y"]
    for i in range(50):
        c = rng.standard_normal(3) + 2.0
        lines.append(f"u{i},{c[0]},{c[1]},{c[2]},{'inf' if i == 7 else c.sum()}")
    data = tmp_path / "inf.csv"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = run("effects", "--input", data, "--outcome", "y", "--seed", 0, "--out", out)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error [dataset] line 9: 'inf' in column 'y' is not a finite number")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["effects", "fit-ppca"])
def test_a_single_cause_cannot_be_held_out(command, tmp_path, capsys):
    rng = np.random.default_rng(0)
    data = tmp_path / "one.csv"
    rows = (f"u{i},{c},{y}" for i, (c, y) in enumerate(rng.standard_normal((50, 2))))
    data.write_text("\n".join(["id,c1,y", *rows]) + "\n")
    out = tmp_path / "out"
    assert run(command, "--input", data, "--outcome", "y", "--seed", 0, "--out", out) == 1
    assert capsys.readouterr().err.startswith(
        "error [dataset] holdout requires at least 2 cause columns\n"
    )
    assert not out.exists()


def test_header_cell_over_the_csv_field_limit_is_a_parse_error(tmp_path, capsys):
    # csv raises on the header itself; a NUL byte no longer does on Python 3.11+
    data = tmp_path / "long.csv"
    data.write_text(f"id,{'c' * 131_073},y\nu0,1,2\nu1,2,3\n")
    out = tmp_path / "out"
    assert run("effects", "--input", data, "--outcome", "y", "--seed", 0, "--out", out) == 1
    assert capsys.readouterr().err.startswith(
        "error [dataset] line 1: field larger than field limit (131072)\n"
    )
    assert not out.exists()


def test_impute_takes_no_seed(sparse_data, tmp_path, capsys):
    # MICE is deterministic, so impute has no seed to set
    with pytest.raises(SystemExit) as exc:
        run("impute", "--input", sparse_data / "data.csv", "--seed", 0, "--out", tmp_path)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--seed", "--replications", "--mc-samples", "--check-method"])
def test_check_draws_nothing_so_takes_no_sampler_flags(
    flag, flip_data, mediation_data, fit_dir, tmp_path, capsys
):
    argv = contract_argv("check", flip_data, mediation_data, fit_dir)
    with pytest.raises(SystemExit) as exc:
        run("check", *argv, flag, "mean" if flag == "--check-method" else 10, "--out", tmp_path)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

def seeded_effects_args(data_dir, out_dir, seed):
    args = list(effects_args(data_dir, out_dir))
    args[args.index("--seed") + 1] = seed
    return args


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_rejected_before_any_stage(seed, flip_data, tmp_path, capsys):
    # a range error like any other flag's: exit 1, labelled with its check
    out = tmp_path / "out"
    assert run(*seeded_effects_args(flip_data, out, seed)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [dataset] seed must be in [0, 2**64), got {seed}\n")
    assert not out.exists()


def test_largest_seed_runs_end_to_end(flip_data, tmp_path):
    assert run(*seeded_effects_args(flip_data, tmp_path, 2**64 - 1)) == 0
    assert read_json(tmp_path, "holdout.json")["seed"] == 2**64 - 1


def test_compare_predictive_splits_by_both_words_of_the_largest_seed(flip_data, tmp_path):
    # effects never draws a split; this seed reaches the replay with both
    # 32-bit words set, and the split must be numpy's own for that seed
    seed = 2**64 - 1
    scored = ["--input", flip_data / "data.csv", "--outcome", "popularity", "--corr-threshold", 0.95]
    assert run("compare-predictive", *scored, "--seed", seed, "--out", tmp_path) == 0
    comparison = read_json(tmp_path, "report.json")["comparison"]
    k = read_json(tmp_path, "manifest.json")["parameters"]["k"]
    m, y, _ = load_csv(str(flip_data / "data.csv"), "popularity")
    m, _ = correlation_screen(standardize(m)[0], 0.95)
    mask = make_holdout(m, seed=seed)
    z = posterior_mean_partial(fit_ppca(m, k, mask, seed=seed), m, mask)
    perm = np.random.default_rng(seed).permutation(len(y))
    n_test = int(0.2 * len(y))  # the default --split
    test, train = perm[:n_test], perm[n_test:]
    causes = np.column_stack([np.ones(len(y)), m.values])
    for label, design in (("causal", np.column_stack([causes, z])), ("noncausal", causes)):
        err = y[test] - design[test] @ np.linalg.lstsq(design[train], y[train], rcond=None)[0]
        assert comparison[label]["mse"] == pytest.approx(np.mean(err * err), rel=1e-10)
        assert comparison[label]["mae"] == pytest.approx(np.mean(np.abs(err)), rel=1e-10)


def test_unknown_column_is_rejected(flip_data, tmp_path, capsys):
    code = run(
        "effects",
        "--input",
        flip_data / "data.csv",
        "--outcome",
        "no_such_column",
        "--seed",
        0,
        "--out",
        tmp_path,
    )
    assert code == 1
    assert "not present" in capsys.readouterr().err


def test_cause_named_like_a_surrogate_is_rejected(flip_data, tmp_path, capsys):
    lines = (flip_data / "data.csv").read_text().splitlines(keepends=True)
    header = lines[0].split(",")
    header[1] = "z1"  # the first cause column
    data = tmp_path / "data.csv"
    data.write_text(",".join(header) + "".join(lines[1:]))
    argv = ["effects", "--input", data, "--outcome", "popularity", "--corr-threshold", 0.95]
    assert run(*argv, "--seed", 0, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error [effects] cause or covariate name(s) ['z1'] clash")


def test_check_refuses_model_from_other_columns(flip_data, sparse_data, tmp_path, capsys):
    fit_dir = tmp_path / "fit"
    code = run(
        "fit-ppca",
        "--input",
        flip_data / "data.csv",
        "--outcome",
        "popularity",
        "--corr-threshold",
        0.95,
        "--seed",
        0,
        "--out",
        fit_dir,
    )
    assert code == 0
    code = run(
        "check",
        "--input",
        sparse_data / "data.csv",
        "--outcome",
        "popularity",
        "--corr-threshold",
        0.95,
        "--model",
        fit_dir / "model.json",
        "--mask",
        fit_dir / "holdout.json",
        "--out",
        tmp_path / "chk",
    )
    assert code == 1
    assert "different columns" in capsys.readouterr().err


def test_check_rejects_model_with_nan_loading(flip_data, tmp_path, capsys):
    fit_dir = tmp_path / "fit"
    data = ("--input", flip_data / "data.csv", "--outcome", "popularity",
            "--corr-threshold", 0.95)
    assert run("fit-ppca", *data, "--seed", 0, "--out", fit_dir) == 0
    model = read_json(fit_dir, "model.json")
    model["loadings"][0][0] = float("nan")
    (fit_dir / "model.json").write_text(json.dumps(model))
    code = run("check", *data, "--model", fit_dir / "model.json",
               "--mask", fit_dir / "holdout.json", "--out", tmp_path / "chk")
    assert code == 1
    err = capsys.readouterr().err
    assert "error [ppca]" in err
    assert "must be finite" in err


def test_impute_cli_round_trip(sparse_data, tmp_path):
    out1 = tmp_path / "first"
    code = run(
        "impute",
        "--input",
        sparse_data / "data.csv",
        "--outcome",
        "popularity",
        "--out",
        out1,
    )
    assert code == 0
    report = read_json(out1, "report.json")
    assert report["imputation"]["ran"] is True
    assert report["imputation"]["sweeps"] >= 1
    text = (out1 / "imputed.csv").read_text()
    assert "NA" not in text and ",," not in text

    out2 = tmp_path / "second"
    code = run(
        "impute",
        "--input",
        out1 / "imputed.csv",
        "--outcome",
        "popularity",
        "--out",
        out2,
    )
    assert code == 0
    assert read_json(out2, "report.json")["imputation"]["ran"] is False


def test_impute_keeps_the_id_column_name(sparse_data, tmp_path):
    # the imputed file must be readable with the flags that wrote it
    lines = (sparse_data / "data.csv").read_text().splitlines(keepends=True)
    assert lines[0].startswith("id,")
    renamed = tmp_path / "uid.csv"
    renamed.write_text("uid" + lines[0][2:] + "".join(lines[1:]))
    flags = ["--outcome", "popularity", "--id-column", "uid"]
    assert run("impute", "--input", renamed, *flags, "--out", tmp_path / "first") == 0
    first = tmp_path / "first" / "imputed.csv"
    assert first.read_text().startswith("uid,")
    assert run("impute", "--input", first, *flags, "--out", tmp_path / "second") == 0
    second = (tmp_path / "second" / "imputed.csv").read_text()
    assert second == first.read_text()


def test_unconverged_mice_warns_and_stamps_the_report(sparse_data, flip_data, tmp_path, capsys):
    capped = tmp_path / "capped"
    data = ["--outcome", "popularity", "--mice-iterations", 1]
    assert run("impute", "--input", sparse_data / "data.csv", *data, "--out", capped) == 0
    assert "WARNING: MICE stopped at its cap of 1 sweeps" in capsys.readouterr().err
    assert read_json(capped, "report.json")["imputation"]["converged"] is False
    assert "WARNING: MICE stopped" in (capped / "report.txt").read_text()

    complete = tmp_path / "complete"
    assert run("impute", "--input", flip_data / "data.csv", *data, "--out", complete) == 0
    assert "WARNING" not in capsys.readouterr().err
    assert read_json(complete, "report.json")["imputation"]["ran"] is False
    assert "WARNING" not in (complete / "report.txt").read_text()


def test_effects_on_sparse_data_records_imputation(sparse_data, tmp_path):
    assert run(*effects_args(sparse_data, tmp_path)) == 0
    report = read_json(tmp_path, "report.json")
    assert report["imputation"]["ran"] is True
    assert report["overlap"]["passed"] is True
    assert len(report["causal"]["beta"]) == len(report["screen"]["kept"])


def test_mediate_cli(mediation_data, tmp_path):
    code = run(
        "mediate",
        "--input",
        mediation_data / "data.csv",
        "--outcome",
        "popularity",
        "--mediator",
        "rating",
        "--corr-threshold",
        0.95,
        "--seed",
        0,
        "--out",
        tmp_path,
    )
    assert code == 0
    report = read_json(tmp_path, "report.json")
    assert "lambda" in report
    assert report["lambda"] == pytest.approx(0.8, abs=0.1)
    assert report["decomposition_residual"] <= 1e-8
    assert set(report["status"]) == {"c1", "c2", "c3", "c4", "c5", "c6"}
    text = (tmp_path / "report.txt").read_text()
    assert "mediation status:" in text
    assert "lambda in the joint fit" in text


def test_mediator_must_differ_from_outcome(mediation_data, tmp_path, capsys):
    code = run(
        "mediate",
        "--input",
        mediation_data / "data.csv",
        "--outcome",
        "rating",
        "--mediator",
        "rating",
        "--seed",
        0,
        "--out",
        tmp_path / "out",
    )
    assert code == 1
    assert "different columns" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_robustness_cli_flags_the_flip(flip_data, tmp_path):
    code = run(
        "robustness",
        "--input",
        flip_data / "data.csv",
        "--outcome",
        "popularity",
        "--mode",
        "both",
        "--corr-threshold",
        0.95,
        "--seed",
        0,
        "--out",
        tmp_path,
    )
    assert code == 0
    report = read_json(tmp_path, "report.json")
    noncausal_flips = report["noncausal"]["flips"]
    assert [(f["cause"], f["step"]) for f in noncausal_flips] == [("c1", 5)]
    assert noncausal_flips[0]["from_sign"] == 1
    assert noncausal_flips[0]["to_sign"] == -1
    assert report["causal"]["flips"] == []
    text = (tmp_path / "report.txt").read_text()
    assert "c1: + to - at step 5" in text
    assert text.count("sign flips") == 2


def test_robustness_custom_order(flip_data, tmp_path):
    code = run(
        "robustness",
        "--input",
        flip_data / "data.csv",
        "--outcome",
        "popularity",
        "--mode",
        "noncausal",
        "--order",
        "c5,c4,c3,c2,c1",
        "--corr-threshold",
        0.95,
        "--seed",
        0,
        "--out",
        tmp_path,
    )
    assert code == 0
    report = read_json(tmp_path, "report.json")
    assert report["noncausal"]["order"] == ["c5", "c4", "c3", "c2", "c1"]
    assert report["noncausal"]["flips"] == []
    assert "causal" not in report


def test_compare_predictive_cli(flip_data, tmp_path):
    code = run(
        "compare-predictive",
        "--input",
        flip_data / "data.csv",
        "--outcome",
        "popularity",
        "--corr-threshold",
        0.95,
        "--seed",
        0,
        "--out",
        tmp_path,
    )
    assert code == 0
    report = read_json(tmp_path, "report.json")
    for label in ("causal", "noncausal"):
        assert report["comparison"][label]["mse"] > 0.0
        assert report["comparison"][label]["mae"] > 0.0
    assert "Model" in (tmp_path / "report.txt").read_text()


def test_output_dir_env_var(flip_data, tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
    code = run(
        "synth", "--scenario", "unconfounded", "--n", 100, "--seed", 7
    )
    assert code == 0
    assert (env_dir / "data.csv").exists()
    # an explicit --out wins over the environment
    flag_dir = tmp_path / "from_flag"
    code = run(
        "synth", "--scenario", "unconfounded", "--n", 100, "--seed", 7, "--out", flag_dir
    )
    assert code == 0
    assert (flag_dir / "data.csv").exists()
    assert (env_dir / "data.csv").read_bytes() == (flag_dir / "data.csv").read_bytes()


def test_ignored_columns_are_dropped(flip_data, tmp_path):
    out = tmp_path / "dropped"
    code = run(
        *effects_args(flip_data, out, "--ignore", "c4")
    )
    assert code == 0
    report = read_json(out, "report.json")
    assert "c4" not in report["screen"]["kept"]
    assert len(report["causal"]["beta"]) == 4


def test_ignore_changes_the_manifest_hash(flip_data, tmp_path):
    assert run(*effects_args(flip_data, tmp_path / "all")) == 0
    assert run(*effects_args(flip_data, tmp_path / "some", "--ignore", "c5")) == 0
    some = read_json(tmp_path / "some", "manifest.json")
    assert some["hash"] != read_json(tmp_path / "all", "manifest.json")["hash"]
    assert some["parameters"]["ignore"] == "c5"


def test_error_label_does_not_leak_from_an_earlier_call(
    flip_data, mediation_data, tmp_path, capsys
):
    assert run(*effects_args(flip_data, tmp_path / "eff")) == 0
    capsys.readouterr()
    code = run(
        "mediate",
        "--input",
        mediation_data / "data.csv",
        "--outcome",
        "popularity",
        "--mediator",
        "popularity",
        "--seed",
        0,
        "--out",
        tmp_path / "med",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error [cli] mediator and outcome must be different columns")


def test_mediator_cannot_be_a_covariate(mediation_data, tmp_path, capsys):
    code = run(
        "mediate",
        "--input",
        mediation_data / "data.csv",
        "--outcome",
        "popularity",
        "--mediator",
        "rating",
        "--covariates",
        "rating",
        "--seed",
        0,
        "--out",
        tmp_path,
    )
    assert code == 1
    assert "cannot also be a covariate" in capsys.readouterr().err


def test_mediator_cannot_be_the_id_column(mediation_data, tmp_path, capsys):
    code = run(
        "mediate",
        "--input",
        mediation_data / "data.csv",
        "--outcome",
        "popularity",
        "--mediator",
        "id",
        "--seed",
        0,
        "--out",
        tmp_path,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error [dataset] the id column 'id' cannot take another role")


def test_robustness_rejects_covariates(mediation_data, tmp_path, capsys):
    code = run(
        "robustness",
        "--input",
        mediation_data / "data.csv",
        "--outcome",
        "popularity",
        "--covariates",
        "rating",
        "--seed",
        0,
        "--out",
        tmp_path,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error [cli] robustness takes no --covariates")
    assert "--ignore" in err
    assert not (tmp_path / "manifest.json").exists()


@pytest.fixture(scope="module")
def fit_dir(flip_data, tmp_path_factory):
    d = tmp_path_factory.mktemp("fit")
    code = run(
        "fit-ppca",
        "--input",
        flip_data / "data.csv",
        "--outcome",
        "popularity",
        "--corr-threshold",
        0.95,
        "--seed",
        0,
        "--out",
        d,
    )
    assert code == 0
    return d


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {"held": [0] * 2000},
        {"held": [["c1"]] * 2000},
        {"held": [[5]] * 2000},
    ],
    ids=["not-an-object", "rows-not-lists", "column-not-an-integer", "column-out-of-range"],
)
def test_malformed_mask_is_a_validation_error(payload, flip_data, fit_dir, tmp_path, capsys):
    mask = tmp_path / "holdout.json"
    mask.write_text(json.dumps(payload))
    code = run(
        "check",
        "--input",
        flip_data / "data.csv",
        "--outcome",
        "popularity",
        "--corr-threshold",
        0.95,
        "--model",
        fit_dir / "model.json",
        "--mask",
        mask,
        "--out",
        tmp_path / "chk",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error [dataset] mask")
    assert "hint: check the input schema and flag values" in err


NARROW_MODEL = {  # a valid K=1 model on 4 causes, with no "columns" to compare by name
    "loadings": [[1.0]] * 4, "mean": [0.0] * 4, "noise_variance": 1.0, "K": 1,
    "log_likelihood": 0.0,
}


@pytest.mark.parametrize(
    "model, message",
    [
        (None, "error [cli] cannot read '"),
        ("{not json", "error [cli] bad model file: "),
        # the model's own width check, made where the model is applied
        (NARROW_MODEL, "error [ppca] matrix width disagrees with the model\n"),
        # the model's own guards, made as the model is built from the file
        ({**NARROW_MODEL, "loadings": [1.0] * 4}, "error [ppca] loadings must be a D x K matrix\n"),
        ({**NARROW_MODEL, "K": 2}, "error [ppca] loadings width disagrees with K\n"),
        ({**NARROW_MODEL, "loadings": [[1.0]], "mean": [0.0]}, "error [ppca] need 1 <= K < D\n"),
        ({**NARROW_MODEL, "mean": [0.0] * 3}, "error [ppca] mean length disagrees with loadings\n"),
        ({**NARROW_MODEL, "noise_variance": 0.0},
         "error [ppca] noise variance must be strictly positive\n"),
    ],
    ids=[
        "absent", "not-json", "width-differs-without-columns", "loadings-not-2d",
        "k-differs-from-width", "k-not-below-d", "mean-length-differs", "noise-not-positive",
    ],
)
def test_check_refuses_a_bad_model_file(model, message, flip_data, fit_dir, tmp_path, capsys):
    path = tmp_path / "model.json"
    if model is not None:
        path.write_text(model if isinstance(model, str) else json.dumps(model))
    scored = ["--input", flip_data / "data.csv", "--outcome", "popularity", "--corr-threshold", 0.95]
    saved = ["--model", path, "--mask", fit_dir / "holdout.json"]
    assert run("check", *scored, *saved, "--out", tmp_path / "chk") == 1
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "chk").exists()


def contract_argv(command, flip, med, fit):
    scored = ["--input", flip / "data.csv", "--outcome", "popularity", "--corr-threshold", 0.95]
    fitting = [*scored, "--seed", 0]
    return {
        "synth": ["--scenario", "flip", "--n", 100, "--seed", 0],
        "impute": ["--input", flip / "data.csv", "--outcome", "popularity"],
        "fit-ppca": fitting,
        "check": [*scored, "--model", fit / "model.json", "--mask", fit / "holdout.json"],
        "effects": fitting,
        "mediate": [
            "--input",
            med / "data.csv",
            "--outcome",
            "popularity",
            "--mediator",
            "rating",
            "--corr-threshold",
            0.95,
            "--seed",
            0,
        ],
        "robustness": fitting,
        "compare-predictive": fitting,
    }[command]


# (command, extra flags, whether the run resolves K)
CONTRACT_RUNS = [
    ("synth", [], False),
    ("impute", [], False),
    ("fit-ppca", [], True),
    ("check", [], False),
    ("effects", [], True),
    ("mediate", [], True),
    ("robustness", ["--mode", "both"], True),
    ("robustness", ["--mode", "noncausal"], False),
    ("compare-predictive", [], True),
]


@pytest.mark.parametrize(
    "command, flag, value, label",
    [
        ("mediate", "--alpha", 2, "effects"),
        ("mediate", "--alpha", 0, "effects"),
        ("mediate", "--alpha", -0.5, "effects"),
        ("robustness", "--alpha", 1, "effects"),
        ("robustness", "--alpha", "nan", "effects"),
        ("effects", "--check-threshold", -1, "ppca"),
        ("effects", "--check-threshold", "nan", "ppca"),
        ("check", "--check-threshold", 1, "ppca"),
    ],
)
def test_probability_flags_outside_their_range_are_rejected(
    command, flag, value, label, flip_data, mediation_data, fit_dir, tmp_path, capsys
):
    # an alpha outside (0, 1) or a check threshold outside [0, 1) would
    # report every cause alike or turn the gate off; both are input errors
    argv = [command, *contract_argv(command, flip_data, mediation_data, fit_dir), flag, value]
    assert run(*argv, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{label}] ") and "must lie" in err
    # the range is checked before anything is read
    argv[argv.index("--input") + 1] = tmp_path / "absent.csv"
    assert run(*argv, "--out", tmp_path) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("value", [2, 0, "nan"])
def test_mediate_and_robustness_reject_an_alpha_alike(
    value, flip_data, mediation_data, fit_dir, tmp_path, capsys
):
    # both analyses test at one level through one check, so a bad --alpha
    # reads the same on either command and makes no --out
    errors = []
    for command in ("mediate", "robustness"):
        argv = [command, *contract_argv(command, flip_data, mediation_data, fit_dir)]
        assert run(*argv, "--alpha", value, "--out", tmp_path / command) == 1
        assert not (tmp_path / command).exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    first_line = errors[0].splitlines()[0]
    assert first_line == f"error [effects] alpha must lie strictly in (0, 1), got {float(value)}"


@pytest.mark.parametrize(
    "command, flag, value, label",
    [
        ("compare-predictive", "--split", 1.5, "effects"),
        ("compare-predictive", "--split", 0, "effects"),
        ("effects", "--holdout-rate", 2, "dataset"),
        ("fit-ppca", "--holdout-rate", 0, "dataset"),
        ("robustness", "--holdout-rate", "nan", "dataset"),
        ("effects", "--corr-threshold", 0, "dataset"),
        ("fit-ppca", "--corr-threshold", 1.5, "dataset"),
        ("compare-predictive", "--corr-threshold", "nan", "dataset"),
    ],
)
def test_stage_flags_are_range_checked_before_the_load(
    command, flag, value, label, sparse_data, tmp_path, capsys
):
    # the input has missing causes, so a check made after the load would
    # follow MICE's unconverged warning
    argv = [command, "--input", sparse_data / "data.csv", "--outcome", "popularity"]
    argv += ["--seed", 0, flag, value]
    assert run(*argv, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{label}] ") and "must lie" in err
    argv[2] = tmp_path / "absent.csv"
    assert run(*argv, "--out", tmp_path) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("command, value", [("impute", -3), ("effects", 0), ("check", 0)])
def test_mice_iterations_are_range_checked_before_the_load(
    command, value, flip_data, mediation_data, fit_dir, tmp_path, capsys
):
    # the input is complete, so MICE never runs: a check made there would
    # let the bad value through into manifest.json
    argv = [command, *contract_argv(command, flip_data, mediation_data, fit_dir)]
    argv += ["--mice-iterations", value]
    assert run(*argv, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [imputation] iterations must be >= 1\n")
    assert not (tmp_path / "manifest.json").exists()
    argv[argv.index("--input") + 1] = tmp_path / "absent.csv"
    assert run(*argv, "--out", tmp_path) == 1
    assert capsys.readouterr().err == err


def test_latent_dim_below_one_is_rejected_before_the_load(sparse_data, tmp_path, capsys):
    # the input has missing causes, so a check made by fit_ppca, after the
    # load, would follow MICE's unconverged warning; no --out is created
    argv = ["effects", "--input", sparse_data / "data.csv", "--outcome", "popularity"]
    argv += ["--seed", 0, "-k", 0, "--out", tmp_path / "out"]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [ppca] need 1 <= K < D, got K=0\n") and "MICE" not in err
    assert not (tmp_path / "out").exists()
    argv[2] = tmp_path / "absent.csv"
    assert run(*argv) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "command, flag, kind",
    [
        ("mediate", "--alpha", "float"),
        ("robustness", "--alpha", "float"),
        ("effects", "-k", "int"),
        ("effects", "--seed", "int"),
        ("impute", "--mice-iterations", "int"),
        ("compare-predictive", "--split", "float"),
    ],
)
def test_range_checked_flags_keep_argparse_errors_for_bad_text(
    command, flag, kind, flip_data, mediation_data, fit_dir, tmp_path, capsys
):
    argv = [command, *contract_argv(command, flip_data, mediation_data, fit_dir), flag, "abc"]
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out", tmp_path / "out")
    assert exc.value.code == 2
    assert f": invalid {kind} value: 'abc'\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("outcome, k", [("popularity", 5), ("rating", 8), (None, 5)])
def test_default_k_follows_the_outcome_column_name(outcome, k, sparse_data, tmp_path):
    data = tmp_path / "data.csv"
    text = (sparse_data / "data.csv").read_text()
    data.write_text(text.replace(",popularity\n", ",rating\n", 1) if outcome == "rating" else text)
    flags = ["--outcome", outcome] if outcome else ["--ignore", "popularity"]
    argv = ["fit-ppca", "--input", data, *flags, "--corr-threshold", 1.0, "--seed", 0]
    assert run(*argv, "--out", tmp_path) == 0
    parameters = read_json(tmp_path, "manifest.json")["parameters"]
    assert parameters["k_requested"] is None and parameters["k"] == k


def test_contract_runs_cover_every_command():
    assert {command for command, _, _ in CONTRACT_RUNS} == set(COMMANDS)


@pytest.mark.parametrize("command, extra, resolves_k", CONTRACT_RUNS)
def test_manifest_records_every_flag(
    command, extra, resolves_k, flip_data, mediation_data, fit_dir, tmp_path
):
    argv = [command, *contract_argv(command, flip_data, mediation_data, fit_dir), *extra]
    assert run(*argv, "--out", tmp_path) == 0
    parameters = read_json(tmp_path, "manifest.json")["parameters"]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices[command]._actions} - {"help", "out"}
    assert set(parameters) == dests | ({"k"} if resolves_k else set())


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_for_every_command(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"usage: multicause {command}" in capsys.readouterr().out


FITTING = ["fit-ppca", "effects", "mediate", "robustness", "compare-predictive"]


@pytest.mark.parametrize("command", FITTING)
def test_every_fit_reports_em_health(command, flip_data, mediation_data, fit_dir, tmp_path):
    argv = [command, *contract_argv(command, flip_data, mediation_data, fit_dir)]
    assert run(*argv, "--out", tmp_path) == 0
    em = read_json(tmp_path, "report.json")["em"]
    assert em["converged"] is True
    assert 1 <= em["iterations"] < fit_ppca.__kwdefaults__["max_iter"]
    assert math.isfinite(em["log_likelihood"])
    assert "WARNING" not in (tmp_path / "report.txt").read_text()


@pytest.mark.parametrize("command", FITTING)
def test_unconverged_em_warns_and_stamps_the_report(
    command, flip_data, mediation_data, fit_dir, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "fit_ppca", functools.partial(fit_ppca, max_iter=1))
    argv = [command, *contract_argv(command, flip_data, mediation_data, fit_dir)]
    if command == "effects":
        argv.append("--force")  # a one-step fit may fail the check
    assert run(*argv, "--out", tmp_path) == 0
    assert "WARNING: EM stopped at its cap of 1 E-steps" in capsys.readouterr().err
    em = read_json(tmp_path, "report.json")["em"]
    assert em["converged"] is False and em["iterations"] == 1
    assert "WARNING: EM stopped" in (tmp_path / "report.txt").read_text()


def test_unconverged_mice_in_check_is_recorded_and_stamped(sparse_data, tmp_path, capsys):
    data = ["--input", sparse_data / "data.csv", "--outcome", "popularity"]
    data += ["--corr-threshold", 0.95, "--mice-iterations", 1]
    assert run("fit-ppca", *data, "--seed", 0, "--out", tmp_path / "fit") == 0
    saved = ["--model", tmp_path / "fit" / "model.json", "--mask", tmp_path / "fit" / "holdout.json"]
    assert run("check", *data, *saved, "--out", tmp_path / "chk") == 0
    assert "WARNING: MICE stopped at its cap of 1 sweeps" in capsys.readouterr().err
    report = read_json(tmp_path / "chk", "report.json")
    assert report["imputation"]["converged"] is False
    assert shape(report["imputation"]) == IMPUTED
    assert "WARNING: MICE stopped" in (tmp_path / "chk" / "report.txt").read_text()


def shape(value):
    """The key tree of a JSON document: nested key names and leaf types, not values.

    A list becomes the list of its elements' distinct shapes, in order.
    """
    if isinstance(value, dict):
        return {key: shape(v) for key, v in value.items()}
    if isinstance(value, list):
        shapes = []
        for v in value:
            if (s := shape(v)) not in shapes:
                shapes.append(s)
        return shapes
    return type(value).__name__


ROW = dict.fromkeys(["mean", "std", "t_stat", "p_value", "ci_low", "ci_high"], "float")
ROW.update(name="str", significance="str")
REGRESSION = {"rows": [ROW], "residual_variance": "float", "n": "int", "dof": "int"}
ESTIMATE = {"beta": ["float"], "gamma": ["float"], "cause_names": ["str"], "regression": REGRESSION}
EM = {"em": {"iterations": "int", "converged": "bool", "log_likelihood": "float"}}
IMPUTED = {
    "ran": "bool",
    "sweeps": "int",
    "converged": "bool",
    "max_change": "float",
    "mean_fallback_columns": [],
}
PREP = {  # complete data: MICE does not run
    "overlap": {"passed": "bool", "failing_rows": []},
    "imputation": {"ran": "bool"},
    "screen": {"kept": ["str"], "dropped": []},
    "standardization": {"mean": ["float"], "scale": ["float"]},
}
CHECK = {
    "score": "float",
    "per_unit_scores": ["float"],
    "threshold": "float",
    "passed": "bool",
    "method": "str",
}
CELL = {"coefficient": "float", "p_value": "float", "significant": "bool"}
FLIP = {"cause": "str", "step": "int", "from_sign": "int", "to_sign": "int"}
CAUSES = ["c1", "c2", "c3", "c4", "c5"]


def sweep_shape(flips):
    cells = [dict.fromkeys(CAUSES[:t], CELL) for t in range(1, 6)]
    return {"mode": "str", "order": ["str"], "cells": cells, "flips": flips}


REPORT_SHAPES = {
    "impute": {"imputation": {"ran": "bool"}},
    "fit-ppca": {**EM, "noise_variance": "float", **PREP},
    "check": {**CHECK, "imputation": {"ran": "bool"}},
    "effects": {
        "predictive_check": CHECK,
        "causal": ESTIMATE,
        "noncausal": {**ESTIMATE, "gamma": []},
        **EM,
        **PREP,
    },
    "mediate": {
        **{f"step{i}": REGRESSION for i in range(1, 5)},
        **dict.fromkeys(["beta_total", "beta_direct", "theta", "attenuation"], ["float"]),
        "lambda": "float",
        "cause_names": ["str"],
        "status": dict.fromkeys(["c1", "c2", "c3", "c4", "c5", "c6"], "str"),
        "decomposition_residual": "float",
        **EM,
        **PREP,
    },
    "robustness": {**PREP, **EM, "noncausal": sweep_shape([FLIP]), "causal": sweep_shape([])},
    "compare-predictive": {
        "comparison": dict.fromkeys(["causal", "noncausal"], {"mse": "float", "mae": "float"}),
        **EM,
        **PREP,
    },
}


@pytest.mark.parametrize("command", sorted(REPORT_SHAPES))
def test_report_key_tree_is_pinned(command, flip_data, mediation_data, fit_dir, tmp_path):
    argv = [command, *contract_argv(command, flip_data, mediation_data, fit_dir)]
    if command == "robustness":
        argv += ["--mode", "both"]
    assert run(*argv, "--out", tmp_path) == 0
    report = read_json(tmp_path, "report.json")
    assert shape(report) == {"manifest_hash": "str", **REPORT_SHAPES[command]}
