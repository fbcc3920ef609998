"""Byte-frozen renders of the plain-text report tables.

The fixtures are hand-built reports, so the goldens pin the layout
without depending on any fitted numbers.
"""

import dataclasses
import json
import pathlib
from decimal import Decimal

import numpy as np
import pytest

from multicause.effects import RegressionReport, RegressionRow
from multicause.mediation import MediationReport
from multicause.robustness import SignFlip, SweepCell, SweepTable
from multicause.tables import (
    FOOTNOTE,
    canonical_json,
    render_comparison_table,
    render_mediation_table,
    render_regression_table,
    render_sweep_table,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden(name):
    return (GOLDEN / name).read_text()


def row(name, mean, std, p, lo, hi):
    sig = "5%" if p <= 0.05 else ("10%" if p <= 0.10 else "none")
    return RegressionRow(
        name=name,
        mean=mean,
        std=std,
        t_stat=0.0,
        p_value=p,
        ci_low=lo,
        ci_high=hi,
        significance=sig,
    )


def regression_fixture():
    return RegressionReport(
        rows=[
            row("Intercept", 3.81, 0.02, 0.0, 3.77, 3.85),
            row("food_pos", 0.42, 0.05, 0.001, 0.32, 0.52),
            row("service_neg", -0.18, 0.10, 0.07, -0.38, 0.02),
            row("misc_pos", 0.03, 0.06, 0.62, -0.09, 0.15),
        ],
        residual_variance=0.25,
        n=500,
        dof=496,
    )


def mediation_fixture():
    step1 = RegressionReport(
        rows=[
            row("Intercept", 0.01, 0.01, 0.3, -0.01, 0.03),
            row("c1", 0.70, 0.03, 0.0, 0.64, 0.76),
            row("c2", -0.56, 0.03, 0.0, -0.62, -0.50),
            row("c3", 0.02, 0.03, 0.5, -0.04, 0.08),
        ],
        residual_variance=0.3,
        n=400,
        dof=396,
    )
    step2 = RegressionReport(
        rows=[
            row("Intercept", 0.00, 0.01, 0.9, -0.02, 0.02),
            row("c1", 0.50, 0.02, 0.0, 0.46, 0.54),
            row("c2", -0.40, 0.02, 0.0, -0.44, -0.36),
            row("c3", 0.01, 0.02, 0.6, -0.03, 0.05),
        ],
        residual_variance=0.09,
        n=400,
        dof=396,
    )
    step3 = RegressionReport(
        rows=[
            row("Intercept", 0.02, 0.02, 0.4, -0.02, 0.06),
            row("mediator", 1.05, 0.04, 0.0, 0.97, 1.13),
        ],
        residual_variance=0.5,
        n=400,
        dof=398,
    )
    step4 = RegressionReport(
        rows=[
            row("Intercept", 0.01, 0.01, 0.4, -0.01, 0.03),
            row("c1", 0.30, 0.03, 0.0, 0.24, 0.36),
            row("c2", -0.24, 0.03, 0.0, -0.30, -0.18),
            row("c3", 0.01, 0.02, 0.7, -0.03, 0.05),
            row("mediator", 0.80, 0.03, 0.0, 0.74, 0.86),
        ],
        residual_variance=0.16,
        n=400,
        dof=395,
    )
    return MediationReport(
        step1=step1,
        step2=step2,
        step3=step3,
        step4=step4,
        beta_total=np.array([0.70, -0.56, 0.02]),
        beta_direct=np.array([0.30, -0.24, 0.01]),
        theta=np.array([0.50, -0.40, 0.01]),
        lam=0.80,
        attenuation=np.array([0.40, -0.32, 0.01]),
        cause_names=["c1", "c2", "c3"],
        status={
            "c1": "partially_mediated",
            "c2": "partially_mediated",
            "c3": "no_total_effect",
        },
        decomposition_residual=1e-12,
    )


def test_regression_table_golden():
    assert render_regression_table(regression_fixture()) == golden("regression.txt")


def test_regression_table_include_filter_golden():
    rendered = render_regression_table(
        regression_fixture(), include=["food_pos", "misc_pos"]
    )
    assert rendered == golden("regression_included.txt")
    assert "Intercept" not in rendered
    assert "service_neg" not in rendered


def test_sweep_table_golden():
    table = SweepTable(
        order=["c1", "c2", "c3"],
        cells=[
            {"c1": SweepCell(0.51, 0.001, True)},
            {
                "c1": SweepCell(0.48, 0.002, True),
                "c2": SweepCell(-0.21, 0.03, True),
            },
            {
                "c1": SweepCell(-0.33, 0.01, True),
                "c2": SweepCell(-0.20, 0.04, True),
                "c3": SweepCell(1.25, 0.0, True),
            },
        ],
        flips=[SignFlip(cause="c1", step=3, from_sign=1, to_sign=-1)],
        mode="noncausal",
    )
    assert render_sweep_table(table) == golden("sweep.txt")


def test_sweep_table_without_flips_says_none():
    table = SweepTable(
        order=["c1", "c2"],
        cells=[
            {"c1": SweepCell(0.10, 0.30, False)},
            {"c1": SweepCell(0.11, 0.28, False), "c2": SweepCell(0.05, 0.5, False)},
        ],
        flips=[],
        mode="causal",
    )
    rendered = render_sweep_table(table)
    assert rendered.endswith("sign flips (significant at both steps): none\n")
    assert "*" not in rendered


def test_mediation_table_golden():
    assert render_mediation_table(mediation_fixture()) == golden("mediation.txt")


def test_mediation_table_with_no_significant_totals():
    rep = mediation_fixture()
    for r in rep.step1.rows[1:]:
        r.p_value = 0.5
        r.significance = "none"
    rendered = render_mediation_table(rep)
    assert "no cause has a significant total effect" in rendered



def test_mediation_table_names_the_alpha_it_selected_with():
    # p = 0.03 passes the default 5% level but not alpha = 0.01
    rep = mediation_fixture()
    for r in rep.step1.rows[1:]:
        r.p_value = 0.03
    assert "at the 5% level" not in render_mediation_table(rep)
    rendered = render_mediation_table(rep, alpha=0.01)
    assert "no cause has a significant total effect at the 1% level\n" in rendered

def test_comparison_table_golden():
    rendered = render_comparison_table(
        {
            "causal": {"mse": 0.26, "mae": 0.41},
            "noncausal": {"mse": 1.83, "mae": 1.07},
        }
    )
    assert rendered == golden("comparison.txt")


def test_footnote_wording():
    assert FOOTNOTE == "* denotes 5% significance and ** 10% significance."
    assert render_regression_table(regression_fixture()).rstrip().endswith(FOOTNOTE)


def test_significance_stars_in_rows():
    rendered = render_regression_table(regression_fixture())
    lines = rendered.splitlines()
    assert any("0.00*" in line and "food_pos" in line for line in lines)
    assert any("0.07**" in line and "service_neg" in line for line in lines)
    misc = next(line for line in lines if line.startswith("misc_pos"))
    assert "*" not in misc


def test_canonical_json_is_stable_and_sorted():
    text = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0.5, "x": None}})
    assert text == canonical_json({"c": {"x": None, "y": 0.5}, "a": [1, 2], "b": 1})
    assert text.endswith("\n")
    keys = [line.split('"')[1] for line in text.splitlines() if '":' in line]
    assert keys == sorted(keys)
    assert json.loads(text) == {"a": [1, 2], "b": 1, "c": {"x": None, "y": 0.5}}


def test_canonical_json_writes_dataclasses_and_numpy_values():
    @dataclasses.dataclass
    class Inner:
        flag: np.bool_
        count: np.int64

    @dataclasses.dataclass
    class Outer:
        values: np.ndarray
        inner: list

    doc = Outer(np.array([[0.1, 2.0]]), [Inner(np.bool_(True), np.int64(3))])
    text = canonical_json({"doc": doc, "x": np.float64(0.1)})
    assert json.loads(text) == {
        "doc": {"values": [[0.1, 2.0]], "inner": [{"flag": True, "count": 3}]},
        "x": 0.1,
    }


def test_canonical_json_rejects_unknown_objects():
    for value in (object(), {1, 2}, Decimal("1.5"), RegressionReport):
        with pytest.raises(TypeError):
            canonical_json({"value": value})
