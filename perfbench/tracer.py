"""Span recorder for the benchmark's traced run.

The tracer wraps, from outside the package, every public function that a
loaded `multicause.*` module defines, in every module that holds a
reference to it (so `cli`'s `from .dataset import load_csv` is wrapped
too). Which functions count as layers is read from the modules at run
time, so the wrappers follow a refactor of `cli.py` without edits here.

A span is [name, start, end, parent, error, counters]: `name` is
"<module>.<function>", times are `time.perf_counter()` seconds, `parent`
is the index of the enclosing span or -1, and `error` is 1 when an
exception started in that span. Spans stay in memory and are written out
once, when the process ends.

Run as a script it is the traced form of `python -m multicause.cli`:

    python3 perfbench/tracer.py SPANS_JSON CLI_ARGS...
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np


def _fit_counters(bound, result) -> dict:
    mask = bound.arguments.get("mask")
    # the pattern count is taken at dump time, outside every span
    return {"em_iters": len(result.fit_trace), "mask": None if mask is None else mask.held}


# Work counts at a layer boundary, read from arguments and results.
COUNTERS = {
    "dataset.load_csv": lambda bound, result: {"rows": result[0].n_units},
    "ppca.fit_ppca": _fit_counters,
    "ppca.predictive_check": lambda bound, result: {"units": len(result.per_unit_scores)},
    "imputation.impute_mice": lambda bound, result: {"sweeps": result.sweeps},
    "tables.canonical_json": lambda bound, result: {"bytes": len(result.encode())},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrappers: dict = {}
        self._raised: list[BaseException] = []

    def install(self) -> None:
        """Wrap the public functions of every loaded multicause module."""
        wrappers = set(self._wrappers.values())
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "multicause" or name.startswith("multicause."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value) or value in wrappers:
                    continue
                origin = value.__module__ or ""
                if origin != "multicause" and not origin.startswith("multicause."):
                    continue
                wrapper = self._wrappers.get(value)
                if wrapper is None:
                    layer = origin.rsplit(".", 1)[-1]
                    wrapper = self._wrap(f"{layer}.{value.__name__}", value)
                    self._wrappers[value] = wrapper
                    wrappers.add(wrapper)
                setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, raised = self.spans, self._stack, self._raised
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                if not any(exc is seen for seen in raised):
                    raised.append(exc)
                    span[4] = 1
                raise
            else:
                span[2] = clock()
            finally:
                stack.pop()
            if counter:
                span[5] = counter(signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def records(self) -> list[list]:
        """Spans with deferred counters resolved, ready for JSON."""
        out = []
        for name, start, end, parent, error, counters in self.spans:
            if counters and "mask" in counters:
                counters = dict(counters)
                held = counters.pop("mask")
                counters["patterns"] = 1 if held is None else int(np.unique(held, axis=0).shape[0])
            out.append([name, start, end, parent, error, counters or {}])
        return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import multicause.cli as cli

    imported = time.monotonic()
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        raise
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"imported": imported, "exit_code": code, "spans": tracer.records()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
