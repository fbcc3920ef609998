"""Benchmark of the `multicause` command line, end to end and per layer.

    python3 perfbench/run.py --workload {wide,suite} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports and runs the package from
`src/` there and exits non-zero, printing no result, if `src/multicause`
is missing. It reads and writes only inside the checkout:
`.perfbench_work/` while it runs, `.perfbench_out/` for the summary of
each run, the span dump of each traced run, and the exact counts that
later runs of the same code must repeat.

A run makes the workload's `input_sets` input sets, each from its own
sub-seed of --seed, and makes them again until SETUP_MIN_S is spent; the
median time to make one is `setup_s`. After one untimed start of the
program (it compiles and caches the package's bytecode), it runs passes
of the workload's command sequence, cycling through the input sets, for
--seconds: every set gets a pass and the first set a second one, and a
further pass starts only while the median pass still fits in --seconds.
Each command runs as its own child process, one at a time, as a user
runs it, with BLAS held to one thread unless the caller's environment
sets it; launcher.py starts them, so that their peak RSS is their own.
Several input sets per run, rather than one, keep the number of EM
iterations (which varies from data set to data set) from deciding a
run's figures alone. After the passes, every command's outputs are
checked (verify.py) and must be byte-identical across the passes on the
same input set.

--trace 0 reports the end-to-end metrics:
  wall_s       mean wall seconds of one pass, at the reference speed:
               mean pass x REFERENCE_S / mean reference() time
  peak_rss_mb  median over passes of the largest child peak RSS
  setup_s      median seconds to make one input set, at the reference
               speed of the set-up (reference() before each round of it)
On a shared 2-vCPU cloud VM the speed of a vCPU swings by up to 1.5x from
second to second and drifts by as much for minutes at a time, on each
vCPU on its own. So the run keeps itself and every child on one CPU, and
times reference() on that CPU before every pass; dividing by it takes
out the drift. Over six suite runs there the raw mean pass spread by
12.6% of its median, wall_s by 6.0%; a probe on the other vCPU did not
track the drift. The raw mean pass is in the summary and is the
per-layer trace.untraced_wall_s.
--trace 1 alternates traced and untraced cycles through the input sets
(at least one of each) and reports the per-layer metrics of
layers.PER_LAYER, from spans recorded by tracer.py.

The last stdout line is one JSON object: correct, attempted, failed
(command invocations that exited non-zero, changed output between passes
or failed their check) and metrics. The lines before it give the pass
count, per-pass times and the machine (nproc, Python, numpy, BLAS).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
import verify
from workloads import WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
# setup_s is the median over makings of an input set; cheap workloads make
# theirs several times so that the median rests on enough samples.
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 10
# Every run ends within this many seconds: a child still running then is
# killed and counted as failed.
RUN_DEADLINE_S = 170.0
# reference() takes about this long on a 2-vCPU cloud VM; wall_s is
# scaled to it.
REFERENCE_S = 0.5
# Several BLAS threads on a few shared cores measure the scheduler.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


@dataclass
class Dataset:
    index: int
    seed: int
    inputs: Path
    out: Path
    commands: list[Command]


@dataclass
class Invocation:
    cid: str
    exit_code: int
    wall_s: float
    maxrss_kb: int
    record: dict | None = None  # span dump of a traced invocation
    log_tail: str = ""  # end of the output of a failed invocation


@dataclass
class Pass:
    dataset: int
    traced: bool
    wall_s: float
    invocations: list[Invocation]
    hashes: dict[str, str] = field(default_factory=dict)

    @property
    def peak_rss_mb(self) -> float:
        return max(i.maxrss_kb for i in self.invocations) / 1024.0


def environment(child_env: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "child_blas_env": {k: child_env[k] for k in BLAS_THREAD_VARS},
    }


def blas_threads() -> int | None:
    """Thread count of the BLAS numpy loaded here (not in the children)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line and ".so" in line}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads", "mkl_get_max_threads")
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def fingerprint() -> str:
    """Hash of the package and benchmark sources: 'the same code'."""
    digest = hashlib.sha256()
    for base in (SRC, ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def hash_tree(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def reference() -> float:
    """Seconds for a fixed piece of work shaped like the program's.

    Small numpy solves in a Python loop, then text formatted and parsed
    back: the mix of a masked EM step and a CSV load. It depends on no
    input and on no code of the package, so a change to the package
    leaves it alone while a change in the machine's speed moves it.
    """
    t0 = time.perf_counter()
    x = np.random.default_rng(20211004).standard_normal((6000, 30))
    eye = np.eye(30)
    total = 0.0
    for row in x:
        total += float(np.linalg.solve(np.outer(row, row) + eye, row)[0])
    text = ",".join(repr(v) for v in x.ravel().tolist())
    total += sum(float(t) for t in text.split(","))
    if not np.isfinite(total):
        raise BenchmarkError("the reference work gave a non-finite total")
    return time.perf_counter() - t0


def subseed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed % 2**63, index]).generate_state(1)[0])


class Runner:
    def __init__(self, workload: str, seed: int, tiny: bool):
        self.workload = WORKLOADS[workload]
        self.tiny = tiny
        self.started = time.monotonic()
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.logs = self.work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.datasets = []
        self.reference_s: list[float] = []
        self.setup_reference_s: list[float] = []
        for i in range(self.workload.input_sets):
            inputs, out = self.work / f"inputs{i}", self.work / f"out{i}"
            inputs.mkdir()
            self.datasets.append(
                Dataset(i, subseed(seed, i), inputs, out, self.workload.commands(inputs, out))
            )
        self.launcher = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=self.work,
        )
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        for name in BLAS_THREAD_VARS:
            self.env.setdefault(name, "1")

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def setup(self, tracer=None) -> tuple[list[float], list[dict]]:
        """Make every input set, again and again until SETUP_MIN_S is spent.

        Returns the time of each making and, traced, its spans. Making an
        input set again must give the same bytes.
        """
        times, records, digests = [], [], {}
        while not times or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS * len(self.datasets)):
            self.setup_reference_s.append(reference())
            for ds in self.datasets:
                first = len(tracer.spans) if tracer else 0
                t0 = time.perf_counter()
                self.workload.make_inputs(ds.inputs, ds.seed, self.tiny)
                times.append(time.perf_counter() - t0)
                if tracer:
                    spans = tracer.records()[first:]
                    records.append({"input_set": ds.index, "command": "setup", "spans": [
                        [n, s, e, p - first if p >= 0 else -1, err, c]
                        for n, s, e, p, err, c in spans
                    ]})
                digest = hash_tree(ds.inputs)
                if digests.setdefault(ds.index, digest) != digest:
                    raise BenchmarkError(f"input set {ds.index} differs when made again")
        return times, records

    def launch(self, argv: list[str], log: Path) -> dict:
        """Run one child to its end through launcher.py; returns its reply."""
        request = {"argv": argv, "log": str(log), "cwd": str(self.work), "env": self.env,
                   "timeout": max(self.remaining(), 0.0)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise BenchmarkError("the launcher process ended early")
        return json.loads(reply)

    def close(self) -> None:
        """Stop the launcher and wait for it."""
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()

    def warm_up(self) -> None:
        """Start the program once, untimed, so no pass pays for compiling it."""
        reply = self.launch([sys.executable, "-m", "multicause.cli", "--help"],
                            self.logs / "warm-up.log")
        if reply["exit"] != 0:
            raise BenchmarkError(f"the program failed to start (exit {reply['exit']})")

    def invoke(self, ds: Dataset, command: Command, traced: bool) -> Invocation:
        stem = self.logs / f"{ds.index}-{command.cid}"
        if traced:
            spans_path = stem.with_suffix(".spans.json")
            argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_path),
                    *command.argv]
        else:
            argv = [sys.executable, "-m", "multicause.cli", *command.argv]
        reply = self.launch(argv, stem.with_suffix(".log"))
        spawned, reaped = reply["spawned"], reply["reaped"]
        log_tail = ""
        if reply["exit"] != 0:
            log_tail = stem.with_suffix(".log").read_text(errors="replace")[-400:]
        record = None
        if traced:
            try:
                with open(spans_path) as fh:
                    record = json.load(fh)
            except (OSError, ValueError):
                record = {"spans": []}
            record.update(command=command.name, spawned=spawned, reaped=reaped)
        return Invocation(command.cid, reply["exit"], reaped - spawned, reply["maxrss_kb"], record,
                          log_tail)

    def run_pass(self, ds: Dataset, traced: bool) -> Pass:
        shutil.rmtree(ds.out, ignore_errors=True)
        invocations = [self.invoke(ds, c, traced) for c in ds.commands]
        result = Pass(ds.index, traced, sum(i.wall_s for i in invocations), invocations)
        for c in ds.commands:
            target = ds.out / c.cid
            result.hashes[c.cid] = hash_tree(target) if target.is_dir() else ""
        return result

    def run_passes(self, seconds: float, trace: bool) -> list[Pass]:
        """Cycle through the input sets, one pass at a time, for `seconds`.

        Untraced, every set gets a pass and the first set a second one;
        traced, whole cycles alternate between traced and untraced, at
        least one of each. Beyond that minimum a pass starts only while
        the median pass so far still fits in `seconds`.
        """
        passes: list[Pass] = []
        reference()
        sets = len(self.datasets)
        minimum = 2 * sets if trace else sets + 1
        t0 = time.monotonic()
        while self.remaining() > 0:
            if len(passes) >= minimum:
                typical = statistics.median(p.wall_s for p in passes)
                if time.monotonic() - t0 + typical > seconds:
                    break
            cycle, index = divmod(len(passes), sets)
            self.reference_s.append(reference())
            passes.append(self.run_pass(self.datasets[index], trace and cycle % 2 == 0))
        return passes


def count_failures(passes: list[Pass], checks: dict) -> tuple[int, int, list[str]]:
    attempted, failed, reasons = 0, 0, []
    first: dict[int, dict] = {}
    for n, p in enumerate(passes):
        reference = first.setdefault(p.dataset, p.hashes)
        for inv in p.invocations:
            attempted += 1
            check = checks[p.dataset][inv.cid]
            why = None
            if inv.exit_code != 0:
                why = f"exit {inv.exit_code}: {inv.log_tail}"
            elif p.hashes[inv.cid] != reference[inv.cid]:
                why = "outputs differ from the first pass on this input set"
            elif not check["ok"]:
                why = "; ".join(check["errors"])
            if why:
                failed += 1
                reasons.append(f"pass {n} (input set {p.dataset}) {inv.cid}: {why}")
    return attempted, failed, reasons


def same_counts(name: str, totals: list[dict]) -> dict:
    """Exact counts must agree between traced passes on the same inputs."""
    counts = [layers.exact_counts(t) for t in totals]
    for other in counts[1:]:
        if other != counts[0]:
            diff = sorted(k for k in set(other) | set(counts[0])
                          if other.get(k) != counts[0].get(k))
            raise BenchmarkError(f"exact counts differ between {name}: {diff}")
    return counts[0]


def check_counts_across_runs(key: str, counts: dict) -> None:
    """...and between runs of the same code on the same seed."""
    path = OUT / "counts" / f"{key}.json"
    code = fingerprint()
    if path.is_file():
        saved = json.loads(path.read_text())
        if saved["fingerprint"] == code and saved["counts"] != counts:
            diff = sorted(k for k in set(saved["counts"]) | set(counts)
                          if saved["counts"].get(k) != counts.get(k))
            raise BenchmarkError(
                f"exact counts differ from an earlier run of this code on input sets {diff}"
            )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"fingerprint": code, "counts": counts}, sort_keys=True))


def per_layer(runner: Runner, setup_records: list[dict], passes: list[Pass], key: str) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    setup_totals = [layers.accumulate([r]) for r in setup_records]
    pass_totals = [layers.accumulate([i.record for i in p.invocations]) for p in traced]
    counts = {}
    for ds in runner.datasets:
        made = [t for r, t in zip(setup_records, setup_totals) if r["input_set"] == ds.index]
        mine = [t for p, t in zip(traced, pass_totals) if p.dataset == ds.index]
        counts[str(ds.index)] = {
            "setup": same_counts(f"makings of input set {ds.index}", made),
            "pass": same_counts(f"traced passes on input set {ds.index}", mine),
        }
    check_counts_across_runs(key, counts)
    combined = layers.median_totals(pass_totals)
    for k, v in layers.median_totals(setup_totals).items():
        combined[k] = combined.get(k, 0.0) + v
    missing = [s for s in runner.workload.required_layers if not combined.get(f"calls:{s}")]
    if missing:
        raise BenchmarkError(f"layers the workload must exercise recorded no calls: {missing}")
    metrics = layers.named_metrics(combined)
    traced_wall = statistics.fmean(p.wall_s for p in traced)
    untraced_wall = statistics.fmean(p.wall_s for p in untraced)
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, summary)."""
    # One CPU for this process, the launcher and every child; see above.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(workload, seed, tiny)
    try:
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        setup_times, setup_records = runner.setup(tracer)
        runner.warm_up()
        passes = runner.run_passes(seconds, trace)
        checks = {ds.index: verify.run_checks(workload, ds.inputs, ds.out)
                  for ds in runner.datasets}
        attempted, failed, reasons = count_failures(passes, checks)
        key = f"{workload}-seed{seed}{'-tiny' if tiny else ''}"
        if trace:
            values = per_layer(runner, setup_records, passes, key)
            values["failed_ops"] = failed / attempted
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            values = {
                "wall_s": statistics.fmean(p.wall_s for p in passes)
                * REFERENCE_S / statistics.fmean(runner.reference_s),
                "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
                "setup_s": statistics.median(setup_times)
                * REFERENCE_S / statistics.fmean(runner.setup_reference_s),
            }
            units = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        }
        summary = {
            "workload": workload,
            "seed": seed,
            "trace": trace,
            "tiny": tiny,
            "environment": environment(runner.env),
            "input_seeds": [ds.seed for ds in runner.datasets],
            "passes": len(passes),
            "pass_dataset": [p.dataset for p in passes],
            "pass_traced": [p.traced for p in passes],
            "pass_wall_s": [p.wall_s for p in passes],
            "pass_peak_rss_mb": [p.peak_rss_mb for p in passes],
            "command_wall_s": [{i.cid: i.wall_s for i in p.invocations} for p in passes],
            "setup_s": setup_times,
            "reference_s": runner.reference_s,
            "setup_reference_s": runner.setup_reference_s,
            "checks": checks,
            "failures": reasons,
            "result": result,
        }
        OUT.mkdir(exist_ok=True)
        stem = f"{key}-trace{int(trace)}"
        if trace:
            spans = {"setup": setup_records,
                     "passes": [{"input_set": p.dataset, "records": [i.record for i in p.invocations]}
                                for p in passes if p.traced]}
            (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
        (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
        return result, summary
    finally:
        runner.close()
        shutil.rmtree(runner.work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test only")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "multicause" / "__init__.py").is_file():
            raise BenchmarkError(f"no package source at {SRC / 'multicause'}")
        sys.path.insert(0, str(SRC))
        import multicause

        if Path(multicause.__file__).resolve().parent != (SRC / "multicause").resolve():
            raise BenchmarkError(f"imported multicause from {multicause.__file__}, not {SRC}")
        result, summary = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.tiny)
    except BenchmarkError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    print("perfbench environment " + json.dumps(summary["environment"], sort_keys=True))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{summary['passes']} passes over {len(summary['input_seeds'])} input sets, "
          f"pass wall_s {[round(w, 4) for w in summary['pass_wall_s']]}, "
          f"reference s {[round(t, 4) for t in summary['reference_s']]}, "
          f"set-up s {[round(t, 4) for t in summary['setup_s']]}")
    for index, checks in summary["checks"].items():
        for cid, check in checks.items():
            print(f"perfbench check {index}/{cid}: " + json.dumps(check, sort_keys=True))
    for reason in summary["failures"]:
        print(f"perfbench failure: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
