"""The package surface: what `import multicause` loads, and the README's example.

The benchmark harness wraps the functions of the submodules that are loaded
once `import multicause` returns, so the package import must load them all.
The README's library example is run as written, so the documented API
cannot drift from the code.
"""

import os
import pathlib
import re
import subprocess
import sys

import multicause
from multicause.synthetic import config_confounded, generate

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_import_loads_every_submodule_but_cli():
    package = pathlib.Path(multicause.__file__).parent
    expected = sorted(p.stem for p in package.glob("*.py") if p.stem not in ("__init__", "cli"))
    probe = (
        "import sys, multicause; "
        "print(' '.join(sorted(n.split('.')[1] for n in sys.modules"
        " if n.startswith('multicause.'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(package.parent)},
    )
    assert out.stdout.split() == expected


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    m, _, y, _ = generate(config_confounded(n_units=2000, seed=0))
    scope = {"raw": m.values, "cols": m.column_names, "ids": m.unit_ids, "y": y}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["z"].shape == (2000, 5)
    assert scope["est"].beta.shape == (9,)
    assert f"RegressionRow(name='{m.column_names[0]}'" in capsys.readouterr().out
