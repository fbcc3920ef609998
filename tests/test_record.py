"""The record decorator that declares the package's result and input classes."""

import dataclasses
import inspect
import re

import pytest

import multicause
from multicause._record import record
from multicause.effects import RegressionRow
from multicause.imputation import ImputationResult
from multicause.ppca import PpcaModel
from multicause.robustness import SignFlip, SweepCell, SweepTable

VALUE_RECORDS = {"RegressionRow", "SweepCell", "SignFlip"}


def package_records():
    """Every record class the package defines, by name."""
    return {
        name: cls
        for module in vars(multicause).values()
        if inspect.ismodule(module)
        for name, cls in vars(module).items()
        if inspect.isclass(cls) and "_record_fields" in vars(cls)
    }


def test_seventeen_records_of_which_three_compare_by_value():
    records = package_records()
    assert len(records) == 17
    assert {n for n, cls in records.items() if cls.__eq__ is not object.__eq__} == VALUE_RECORDS
    for name in VALUE_RECORDS:
        assert records[name].__hash__ is None  # as for a dataclass with eq


def test_value_records_compare_by_value_and_class():
    row = RegressionRow("a", 1.0, 0.5, 2.0, 0.04, 0.1, 1.9, "5%")
    assert row == RegressionRow(**vars(row))
    assert row != RegressionRow(**{**vars(row), "p_value": 0.06})
    assert SweepCell(0.5, 0.01, True) == SweepCell(0.5, 0.01, True)
    assert SignFlip("c1", 3, 1, -1) == SignFlip("c1", 3, 1, -1)
    assert SignFlip("c1", 3, 1, -1) != SignFlip("c1", 3, -1, 1)
    assert SweepCell(1.0, 0.5, False) != (1.0, 0.5, False)


def test_other_records_compare_by_identity():
    table = SweepTable(["c1"], [{}])
    assert table == table
    assert table != SweepTable(["c1"], [{}])


def test_repr_is_the_dataclass_form():
    fields = [(name, object) for name in RegressionRow._record_fields]
    twin = dataclasses.make_dataclass("RegressionRow", fields)
    values = ("food_pos", 0.25, 0.1, 2.5, 0.0125, 0.05, 0.45, "5%")
    assert repr(RegressionRow(*values)) == repr(twin(*values))
    assert repr(SweepTable(["c1"], [{}])) == (
        "SweepTable(order=['c1'], cells=[{}], flips=[], mode='noncausal')"
    )


def test_arguments_by_position_or_keyword_with_defaults():
    result = ImputationResult(None, 3, converged=True, max_change=0.0)
    assert (result.sweeps, result.converged, result.mean_fallback_columns) == (3, True, [])
    assert SweepTable(order=["c1"], cells=[{}], mode="causal").mode == "causal"


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((["c1"],), {}, "missing required argument: 'cells'"),
        ((["c1"], [{}]), {"order": ["c2"]}, "got unknown or repeated arguments ['order']"),
        ((["c1"], [{}]), {"colour": "red"}, "got unknown or repeated arguments ['colour']"),
        ((["c1"], [{}], [], "causal", None), {}, "takes 4 arguments, got 5"),
    ],
    ids=["missing", "repeated", "unknown", "too-many"],
)
def test_a_missing_or_unknown_argument_is_a_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match="^" + re.escape(f"SweepTable() {message}") + "$"):
        SweepTable(*args, **kwargs)


def test_post_init_runs_after_the_fields_are_set():
    @record
    class Scaled:
        value: float
        factor: float = 2.0

        def __post_init__(self):
            self.value *= self.factor

    assert Scaled(3.0).value == 6.0
    assert Scaled(3.0, factor=0.5).value == 1.5
    model = PpcaModel([[1.0], [0.0]], [0.0, 0.0], 1.0, 1, 0.0)
    assert model.loadings.dtype == float  # PpcaModel's own __post_init__ ran


def test_a_list_default_is_fresh_for_each_instance():
    first, second = SweepTable(["c1"], [{}]), SweepTable(["c1"], [{}])
    first.flips.append(SignFlip("c1", 2, 1, -1))
    assert second.flips == [] and SweepTable(["c1"], [{}]).flips == []
    models = [PpcaModel([[1.0], [0.0]], [0.0, 0.0], 1.0, 1, 0.0) for _ in range(2)]
    assert models[0].fit_trace is not models[1].fit_trace
    results = [ImputationResult(None, 1, True, 0.0) for _ in range(2)]
    assert results[0].mean_fallback_columns is not results[1].mean_fallback_columns
