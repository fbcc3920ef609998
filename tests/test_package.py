"""The package surface: what `import multicause` loads, and the README's example.

The benchmark harness wraps the functions of the submodules that are loaded
once `import multicause` returns, so the package import must load them all.
The README's library example is run as written, so the documented API
cannot drift from the code. The fitting commands, `compare-predictive`
included, must not load `numpy.random`, OpenSSL's hashlib or `dataclasses`:
each costs every run memory and start time that a mask, an EM start, a
shuffle split, one digest and the package's records do not need. Only
`synth` draws from `numpy.random`.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import multicause
from multicause.cli import main
from multicause.synthetic import config_confounded, generate

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _python(code: str) -> str:
    package = pathlib.Path(multicause.__file__).parent
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(package.parent)},
    ).stdout


def test_import_loads_every_submodule_but_cli():
    package = pathlib.Path(multicause.__file__).parent
    expected = sorted(p.stem for p in package.glob("*.py") if p.stem not in ("__init__", "cli"))
    probe = (
        "import sys, multicause; "
        "print(' '.join(sorted(n.split('.')[1] for n in sys.modules"
        " if n.startswith('multicause.'))))"
    )
    assert _python(probe).split() == expected


HEAVY = ("numpy.random", "hashlib", "_hashlib", "dataclasses")


def test_fitting_commands_load_neither_numpy_random_nor_hashlib(tmp_path):
    if _python("import sys, numpy; print('numpy.random' in sys.modules)").strip() == "True":
        pytest.skip("this numpy loads numpy.random on import")
    for scenario, extra in (("confounded", ["--missing-rate", "0.1"]), ("mediation-partial", [])):
        argv = ["synth", "--scenario", scenario, "--n", "300", "--seed", "1", *extra]
        assert main([*argv, "--out", str(tmp_path / scenario)]) == 0
    data = str(tmp_path / "confounded" / "data.csv")
    fit = ["--input", data, "--outcome", "popularity", "--seed", "0", "--corr-threshold", "0.95"]
    runs = {
        "impute": ["--input", data, "--outcome", "popularity"],
        "effects": [*fit, "--force"],
        "robustness": fit,
        "mediate": ["--input", str(tmp_path / "mediation-partial" / "data.csv"),
                    "--outcome", "popularity", "--mediator", "rating", *fit[4:]],
        "fit-ppca": fit,
        "compare-predictive": fit,
    }
    probe = (
        "import contextlib, io, json, sys\n"
        "from multicause.cli import main\n"
        "loaded = {}\n"
        f"for command, argv in {runs!r}.items():\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        code = main([command, *argv, '--out', {str(tmp_path / 'out')!r} + command])\n"
        f"    loaded[command] = [code, *(m for m in {HEAVY!r} if m in sys.modules)]\n"
        "print(json.dumps(loaded))\n"
    )
    assert json.loads(_python(probe)) == {command: [0] for command in runs}


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    m, _, y, _ = generate(config_confounded(n_units=2000, seed=0))
    scope = {"raw": m.values, "cols": m.column_names, "ids": m.unit_ids, "y": y}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["z"].shape == (2000, 5)
    assert scope["est"].beta.shape == (9,)
    assert f"RegressionRow(name='{m.column_names[0]}'" in capsys.readouterr().out
