"""Smoke self-test of the benchmark on tiny inputs (about a minute).

    python3 perfbench/selftest.py

1. Runs every workload at tiny size with --trace 0 and --trace 1 and
   requires a correct result naming exactly the metrics, units and
   directions that BENCHMARK.json lists.
2. Makes one tiny pass of every workload, requires its outputs to pass
   the checks, then tampers with one output at a time and requires the
   check of that command to reject it.

Exits 0 when every step holds, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        == [tuple(m) for m in layers.PER_LAYER],
        "BENCHMARK.json per_layer is layers.PER_LAYER",
    )
    expect(
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
        "BENCHMARK.json workloads are the benchmark's workloads",
    )
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=180,
            )
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0 (stderr: {proc.stderr[-300:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label} prints the four result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label} is correct with no failed command")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(emitted == declared[trace], f"{label} emits every declared metric with its unit")


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _bump(seq: list, index: int, by: float) -> None:
    seq[index] = seq[index] + by


def _shift_held_cell(doc: dict) -> None:
    row = doc["held"][0]
    row[0] = next(j for j in range(64) if j not in row)


def _first_status(doc: dict) -> None:
    name = next(iter(doc["status"]))
    doc["status"][name] = "partially_mediated" if doc["status"][name] != "partially_mediated" \
        else "no_total_effect"


def _edit_imputed_cell(out: Path, inputs: Path) -> None:
    with open(inputs / "data.csv", newline="") as fh:
        raw = list(csv.reader(fh))
    path = out / "impute" / "imputed.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    i, j = next((i, j) for i, r in enumerate(raw) for j, c in enumerate(r) if c == "")
    rows[i][j] = repr(float(rows[i][j]) + 0.5)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def json_tamper(cid: str, name: str, edit):
    return cid, lambda out, inputs: _edit_json(out / cid / name, edit)


TAMPERS = {
    "wide": [
        json_tamper("effects", "report.json", lambda d: _bump(d["noncausal"]["beta"], 0, 1e-6)),
        json_tamper("effects", "report.json", lambda d: _bump(d["causal"]["beta"], -1, 1e-6)),
        json_tamper("effects", "model.json", lambda d: _bump(d["loadings"][0], 0, 1e-4)),
        json_tamper("effects", "holdout.json", _shift_held_cell),
    ],
    "suite": [
        ("impute", _edit_imputed_cell),
        json_tamper("robustness", "report.json",
                    lambda d: d["causal"]["cells"][-1][d["causal"]["order"][0]].update(
                        coefficient=d["causal"]["cells"][-1][d["causal"]["order"][0]]
                        ["coefficient"] + 1e-6)),
        json_tamper("compare-predictive", "report.json",
                    lambda d: d["comparison"]["causal"].update(
                        mse=d["comparison"]["causal"]["mse"] * (1 + 1e-6))),
        json_tamper("mediate", "report.json", _first_status),
        json_tamper("mediate", "report.json", lambda d: d.update({"lambda": d["lambda"] + 1e-6})),
    ],
}


def check_tamper_rejection() -> None:
    for workload, tampers in TAMPERS.items():
        runner = run.Runner(workload, 7, tiny=True)
        try:
            runner.setup()
            ds = runner.datasets[0]
            first = runner.run_pass(ds, traced=False)
            expect(all(i.exit_code == 0 for i in first.invocations), f"{workload} tiny pass exits 0")
            clean = verify.run_checks(workload, ds.inputs, ds.out)
            expect(all(c["ok"] for c in clean.values()), f"{workload} untouched outputs pass")
            for n, (cid, tamper) in enumerate(tampers):
                copy = runner.work / f"tampered{n}"
                shutil.copytree(ds.out, copy)
                tamper(copy, ds.inputs)
                checks = verify.run_checks(workload, ds.inputs, copy)
                expect(not checks[cid]["ok"], f"{workload} check rejects tampered {cid} #{n}")
        finally:
            runner.close()
            shutil.rmtree(runner.work, ignore_errors=True)


if __name__ == "__main__":
    check_metric_names()
    check_tamper_rejection()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
