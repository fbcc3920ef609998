"""Plain-text report tables, and the one JSON encoder for every file.

canonical_json writes every JSON file the package produces: reports,
manifests, models, masks and synthetic truth. Result dataclasses go in
as they are, field by field, and numpy arrays and scalars as their
Python values, so no result spells out its JSON shape a second time.

The effect table mirrors the classic regression summary layout: Mean,
STD, p-value, then the 95% interval bounds under "[0.025" / "0.975]"
headers. Significance marks follow the p-value: "*" at the 5% level,
"**" between 5% and 10%. Rendering is deterministic so reports can be
compared byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass

import numpy as np

from .effects import RegressionReport, SIGNIFICANCE_STARS
from .mediation import MediationReport
from .robustness import SweepTable

FOOTNOTE = "* denotes 5% significance and ** 10% significance."


def render_regression_table(
    report: RegressionReport, include: list[str] | None = None
) -> str:
    """Rows in report order; `include` filters by coefficient name."""
    rows = report.rows
    if include is not None:
        wanted = set(include)
        rows = [r for r in rows if r.name in wanted]
    name_w = max([8] + [len(r.name) for r in rows]) + 2
    header = (
        f"{'Variable':<{name_w}}{'Mean':>8}{'STD':>8}{'p-value':>9}"
        f"{'[0.025':>8}{'0.975]':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        p_text = f"{r.p_value:.2f}{SIGNIFICANCE_STARS[r.significance]}"
        lines.append(
            f"{r.name:<{name_w}}{r.mean:>8.2f}{r.std:>8.2f}{p_text:>9}"
            f"{r.ci_low:>8.2f}{r.ci_high:>8.2f}"
        )
    lines.append(FOOTNOTE)
    return "\n".join(lines) + "\n"


def render_sweep_table(table: SweepTable) -> str:
    steps = len(table.order)
    name_w = max([5] + [len(c) for c in table.order]) + 2
    header = f"{'Cause':<{name_w}}" + "".join(f"{f't={t}':>9}" for t in range(1, steps + 1))
    lines = [header, "-" * len(header)]
    for cause in table.order:
        cells = []
        for t in range(1, steps + 1):
            cell = table.cell(cause, t)
            if cell is None:
                cells.append(f"{'-':>9}")
            else:
                mark = "*" if cell.significant else ""
                cells.append(f"{cell.coefficient:.2f}{mark}".rjust(9))
        lines.append(f"{cause:<{name_w}}" + "".join(cells))
    if table.flips:
        lines.append("")
        lines.append("sign flips (significant at both steps):")
        for f in table.flips:
            fr = "+" if f.from_sign > 0 else "-"
            to = "+" if f.to_sign > 0 else "-"
            lines.append(f"  {f.cause}: {fr} to {to} at step {f.step}")
    else:
        lines.append("")
        lines.append("sign flips (significant at both steps): none")
    return "\n".join(lines) + "\n"


def render_mediation_table(report: MediationReport, alpha: float = 0.05) -> str:
    """Total versus direct coefficients for causes with a significant total."""
    selected = [
        (j, name)
        for j, name in enumerate(report.cause_names)
        if report.step1.rows[1 + j].p_value <= alpha
    ]
    lines = []
    if not selected:
        lines.append(f"no cause has a significant total effect at the {100 * alpha:g}% level")
    else:
        widths = [max(len(name), 7) + 2 for _, name in selected]
        header = f"{'':<8}" + "".join(
            f"{name:>{w}}" for (_, name), w in zip(selected, widths)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for label, source in (("total", report.step1), ("direct", report.step4)):
            cells = []
            for (j, _), w in zip(selected, widths):
                row = source.rows[1 + j]
                cells.append(f"{row.mean:.2f}{SIGNIFICANCE_STARS[row.significance]}".rjust(w))
            lines.append(f"{label:<8}" + "".join(cells))
    med = report.step3.rows[-1]
    lines.append("")
    lines.append(
        f"mediator effect (step 3): {med.mean:.2f}{SIGNIFICANCE_STARS[med.significance]}"
        f" (p={med.p_value:.2f}); lambda in the joint fit: {report.lam:.2f}"
    )
    lines.append("mediation status:")
    for name in report.cause_names:
        lines.append(f"  {name}: {report.status[name].replace('_', ' ')}")
    lines.append(FOOTNOTE)
    return "\n".join(lines) + "\n"


def render_comparison_table(comparison: dict) -> str:
    header = f"{'Model':<12}{'MSE':>8}{'MAE':>8}"
    lines = [header, "-" * len(header)]
    for label in ("causal", "noncausal"):
        entry = comparison[label]
        lines.append(f"{label:<12}{entry['mse']:>8.2f}{entry['mae']:>8.2f}")
    return "\n".join(lines) + "\n"


def _plain(obj):
    """One level of a value json cannot write: a dataclass or a numpy value."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def canonical_json(payload) -> str:
    """Stable JSON used for hashing and for every file this package writes."""
    return json.dumps(payload, sort_keys=True, indent=2, default=_plain) + "\n"
