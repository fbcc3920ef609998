"""The `multicause` process as a shell runs it: `python -m multicause.cli`.

`cli.run()` leaves through `os._exit` once `main()` has returned, the exit
handlers have run and stdout and stderr are flushed, so these tests check
from outside the process what the other CLI tests check in process: exit
codes and messages equal `main()`'s, stdout is complete, exit handlers
run, and argparse's own exits and a closed stdout pipe or descriptor
behave as under the interpreter's normal exit. Skipping teardown is safe
only while no file waits for it to be closed, so every command is also
run under `-X dev`, which reports such a file as a ResourceWarning. Every
file is written as UTF-8 whatever the locale.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import multicause
from multicause.cli import main

SRC = pathlib.Path(multicause.__file__).resolve().parents[1]


def python(*argv, env=None, drop=(), **kwargs):
    """Run the interpreter on `argv` with the package importable."""
    environ = {k: v for k, v in os.environ.items() if k not in drop}
    environ.update(PYTHONPATH=str(SRC), **(env or {}))
    kwargs = {"capture_output": True, **kwargs}
    return subprocess.run([sys.executable, *map(str, argv)], env=environ, **kwargs)


def cli(*argv, **kwargs):
    return python("-m", "multicause.cli", *argv, **kwargs)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    d = tmp_path_factory.mktemp("flip")
    argv = ["synth", "--scenario", "flip", "--n", "300", "--seed", "0", "--out", str(d)]
    assert main(argv) == 0
    # a copy of cause c1 makes every design rank deficient once the screen keeps it
    lines = (d / "data.csv").read_text().splitlines()
    rows = [lines[0].replace(",popularity", ",twin,popularity")]
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(",".join([*cells[:-1], cells[1], cells[-1]]))
    (d / "twin.csv").write_text("\n".join(rows) + "\n")
    return d


def effects(data, out, *extra):
    argv = ["effects", "--input", data / "data.csv", "--outcome", "popularity", "--seed", 0]
    return [*argv, "--corr-threshold", 0.95, *extra, "--out", out]


@pytest.mark.parametrize(
    "case, code",
    [("success", 0), ("absent-input", 1), ("failed-check", 2), ("rank-deficient", 3)],
)
def test_exit_code_and_messages_match_main(case, code, data, tmp_path, capsys):
    argv = {
        "success": effects(data, tmp_path),
        "absent-input": effects(data, tmp_path, "--input", tmp_path / "absent.csv"),
        "failed-check": effects(data, tmp_path, "--check-threshold", 0.99),
        "rank-deficient": [
            "robustness", "--input", data / "twin.csv", "--outcome", "popularity",
            "--seed", 0, "--corr-threshold", 1.0, "--mode", "noncausal", "--out", tmp_path,
        ],
    }[case]
    assert main([str(a) for a in argv]) == code
    expected = capsys.readouterr()
    proc = cli(*argv, text=True)
    assert proc.returncode == code
    assert (proc.stdout, proc.stderr) == (expected.out, expected.err)


def test_effects_prints_its_report(data, tmp_path):
    proc = cli(*effects(data, tmp_path))
    assert proc.returncode == 0
    assert proc.stdout == (tmp_path / "report.txt").read_bytes()


def test_piped_input_gives_the_file_report(data, tmp_path):
    # a padded token and an empty cell, so that MICE runs and one row is
    # parsed cell by cell; stdin is a real pipe, which cannot seek, where
    # a `<` redirect would hand over the file itself
    lines = (data / "data.csv").read_text().splitlines()
    for row, token in ((1, " NA "), (2, "")):
        cells = lines[row].split(",")
        lines[row] = ",".join([cells[0], token, *cells[2:]])
    text = "\n".join(lines) + "\n"
    (tmp_path / "data.csv").write_text(text)
    reports = []
    for out, extra, stdin in (("file", [], None), ("piped", ["--input", "/dev/stdin"], text)):
        proc = cli(*effects(tmp_path, tmp_path / out, *extra), input=stdin, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / out / "report.json").read_text())
        reports.append({k: v for k, v in report.items() if k != "manifest_hash"})
    assert reports[0] == reports[1]
    assert reports[0]["imputation"]["ran"]


def test_exit_handlers_run_after_the_command(tmp_path):
    probe = (
        "import atexit, sys\n"
        "from multicause.cli import run\n"
        "atexit.register(print, 'exit handler ran')\n"
        f"sys.argv[1:] = ['synth', '--scenario', 'flip', '--n', '50', '--seed', '0',"
        f" '--out', {str(tmp_path)!r}]\n"
        "run()\n"
    )
    proc = python("-c", probe, text=True)
    assert proc.returncode == 0
    assert proc.stdout == f"wrote 50 units x 5 causes to {tmp_path}/data.csv\nexit handler ran\n"


@pytest.mark.parametrize(
    "argv, code, stream, start",
    [
        (["--help"], 0, "stdout", "usage: multicause"),
        (["--version"], 0, "stdout", f"{multicause.__version__}\n"),
        (["effects", "--bogus"], 2, "stderr", "usage: multicause effects"),
    ],
    ids=["help", "version", "bad-flag"],
)
def test_argparse_exits_keep_their_codes(argv, code, stream, start):
    proc = cli(*argv, text=True)
    assert proc.returncode == code
    assert getattr(proc, stream).startswith(start)


@pytest.mark.parametrize(
    "unbuffered, code, message",
    [
        # the report waits in stdout's buffer; the interpreter's last flush fails
        (False, 120, "Exception ignored in: <_io.TextIOWrapper name='<stdout>'"),
        # print itself fails, inside main()
        (True, 1, "error [cli] [Errno 32] Broken pipe\n"),
    ],
    ids=["buffered", "unbuffered"],
)
def test_closed_stdout_pipe(unbuffered, code, message, data, tmp_path):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = cli(
            *effects(data, tmp_path),
            stdout=write,
            stderr=subprocess.PIPE,
            capture_output=False,
            text=True,
            env={"PYTHONUNBUFFERED": "1"} if unbuffered else None,
            drop=("PYTHONUNBUFFERED",),
        )
    finally:
        os.close(write)
    assert proc.returncode == code
    assert proc.stderr.startswith(message)
    assert "Traceback" not in proc.stderr


def test_closed_stdout_descriptor(tmp_path):
    # with descriptor 1 closed at start, sys.stdout is None and print() is a no-op
    argv = ["synth", "--scenario", "flip", "--n", "50", "--seed", "0", "--out", tmp_path]
    proc = cli(*argv, stdout=None, capture_output=False, stderr=subprocess.PIPE,
               preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (tmp_path / "data.csv").exists()


def test_no_command_leaves_a_file_for_teardown_to_close(tmp_path):
    d1, d2, fit = tmp_path / "confounded", tmp_path / "mediation", tmp_path / "fit"
    scored = ["--input", d1 / "data.csv", "--outcome", "popularity", "--corr-threshold", 0.95]
    fitting = [*scored, "--seed", 0]
    runs = [
        ["synth", "--scenario", "confounded", "--n", 300, "--seed", 1, "--missing-rate", 0.1,
         "--out", d1],
        ["synth", "--scenario", "mediation-partial", "--n", 300, "--seed", 1, "--out", d2],
        ["impute", "--input", d1 / "data.csv", "--outcome", "popularity",
         "--out", tmp_path / "impute"],
        ["fit-ppca", *fitting, "--out", fit],
        ["check", *scored, "--model", fit / "model.json", "--mask", fit / "holdout.json",
         "--check-threshold", 0, "--out", tmp_path / "check"],
        ["effects", *fitting, "--force", "--out", tmp_path / "effects"],
        ["robustness", *fitting, "--out", tmp_path / "robustness"],
        ["compare-predictive", *fitting, "--out", tmp_path / "compare"],
        ["mediate", "--input", d2 / "data.csv", "--outcome", "popularity", "--mediator", "rating",
         "--corr-threshold", 0.95, "--seed", 0, "--out", tmp_path / "mediate"],
    ]
    runs = [[str(a) for a in argv] for argv in runs]
    probe = (
        "import contextlib, gc, io, json\n"
        "from multicause.cli import main\n"
        "codes = []\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "gc.collect()\n"
        "print(json.dumps(codes))\n"
    )
    proc = python("-X", "dev", "-c", probe, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(runs)
    assert "ResourceWarning" not in proc.stderr


def test_files_are_utf8_whatever_the_locale(data, tmp_path):
    text = (data / "data.csv").read_text(encoding="utf-8")
    (tmp_path / "data.csv").write_text(text.replace(",c1,", ",café,", 1), encoding="utf-8")
    # the C locale's encoding is ASCII once its coercion and UTF-8 mode are off
    ascii_locale = {"PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONIOENCODING": "utf-8"}
    out = tmp_path / "out"
    proc = python(
        "-X", "utf8=0", "-m", "multicause.cli", *effects(tmp_path, out),
        env=ascii_locale, drop=("PYTHONUTF8",),
    )
    assert proc.returncode == 0, proc.stderr
    report = (out / "report.txt").read_bytes()
    assert "café".encode() in report and proc.stdout == report
    # a saved model edited by hand may hold the name unescaped
    model = json.loads((out / "model.json").read_text())
    (out / "model.json").write_text(json.dumps(model, ensure_ascii=False), encoding="utf-8")
    proc = python(
        "-X", "utf8=0", "-m", "multicause.cli", "check", "--input", tmp_path / "data.csv",
        "--outcome", "popularity", "--corr-threshold", 0.95, "--model", out / "model.json",
        "--mask", out / "holdout.json", "--check-threshold", 0, "--out", tmp_path / "check",
        env=ascii_locale, drop=("PYTHONUTF8",),
    )
    assert proc.returncode == 0, proc.stderr
