"""Ingestion, standardization, screening, holdout, and overlap checks."""

import numpy as np
import pytest

from multicause.dataset import (
    CauseMatrix,
    CovariateMatrix,
    HoldoutMask,
    check_overlap,
    correlation_screen,
    load_csv,
    make_holdout,
    standardize,
    write_csv,
)
from multicause.errors import ParseError, ValidationError


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_basic(tmp_path):
    path = write(tmp_path, "id,a,b,y\nu1,1.5,2.0,3.0\nu2,0.5,NA,4.0\nu3,,1.0,5.0\n")
    m, y, x = load_csv(path, outcome="y")
    assert m.n_units == 3 and m.n_causes == 2
    assert m.unit_ids == ["u1", "u2", "u3"]
    assert np.isnan(m.values[1, 1]) and np.isnan(m.values[2, 0])
    assert m.missing[1, 1] and m.missing[2, 0] and m.missing.sum() == 2
    assert y.tolist() == [3.0, 4.0, 5.0]
    assert x is None


def test_load_reports_offending_line(tmp_path):
    path = write(tmp_path, "id,a,b,y\nu1,1.0,2.0,3.0\nu2,oops,2.0,3.0\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, outcome="y")
    assert "line 3" in str(err.value)



@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity", " -Infinity "])
@pytest.mark.parametrize("column", ["a", "y", "w"])
def test_load_rejects_non_finite_cells(tmp_path, token, column):
    # only "" and "NA" mean missing; a non-finite number is a malformed cell
    # in every column, cause, outcome or covariate alike
    row = {"id": "u2", "a": "1.0", "b": "2.0", "y": "3.0", "w": "0.5"}
    row[column] = token
    text = "id,a,b,y,w\nu1,1.0,2.0,3.0,0.5\n" + ",".join(row.values()) + "\n"
    with pytest.raises(ParseError) as err:
        load_csv(write(tmp_path, text), outcome="y", covariates=["w"])
    assert err.value.line == 3
    assert "line 3" in str(err.value) and f"'{column}'" in str(err.value)
    assert "is not a finite number" in str(err.value)

def test_load_rejects_missing_outcome(tmp_path):
    path = write(tmp_path, "id,a,b,y\nu1,1.0,2.0,\nu2,1.0,2.0,3.0\n")
    with pytest.raises(ValidationError) as err:
        load_csv(path, outcome="y")
    assert "line 2" in str(err.value) and "'y'" in str(err.value)


def test_load_rejects_duplicate_ids(tmp_path):
    path = write(tmp_path, "id,a,b,y\nu1,1,2,3\nu1,4,5,6\n")
    with pytest.raises(ValidationError) as err:
        load_csv(path, outcome="y")
    assert "duplicate unit id" in str(err.value)


def test_load_rejects_ragged_row(tmp_path):
    path = write(tmp_path, "id,a,b,y\nu1,1,2,3\nu2,4,5\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, outcome="y")
    assert "expected 4 fields" in str(err.value)


def test_load_schema_mismatches(tmp_path):
    path = write(tmp_path, "id,a,b,y\nu1,1,2,3\nu2,4,5,6\n")
    # every named column must be in the file
    for named in ({"outcome": "extra"}, {"covariates": ["extra"]}, {"ignore": ["extra"]}):
        with pytest.raises(ValidationError, match="not present"):
            load_csv(path, **named)
    # no named column may be the id column
    for named in ({"outcome": "id"}, {"covariates": ["id"]}, {"ignore": ["id"]}):
        with pytest.raises(ValidationError, match="id column"):
            load_csv(path, **named)
    # at least one cause must remain
    with pytest.raises(ValidationError, match="no cause columns"):
        load_csv(path, outcome="y", ignore=["a", "b"])


def test_load_roles_follow_the_flags(tmp_path):
    path = write(tmp_path, "id,a,b,y\nu1,1,2,3\nu2,4,5,6\n")
    # unnamed columns are causes; the id column is none of them
    m, y, x = load_csv(path)
    assert m.column_names == ["a", "b", "y"] and y is None and x is None
    # a column named twice takes the later role: ignore, covariates, outcome
    m, y, x = load_csv(path, outcome="y", covariates=["y", "b"], ignore=["b"])
    assert m.column_names == ["a"] and x.column_names == ["b"]
    assert y.tolist() == [3.0, 6.0]
    # a file without the id column numbers its rows
    m, _, _ = load_csv(path, id_column="uid", ignore=["id"])
    assert m.unit_ids == ["0", "1"] and m.column_names == ["a", "b", "y"]


def test_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((20, 3)) * 1e3
    miss = rng.random((20, 3)) < 0.2
    miss[:, 0] = False  # keep one column complete
    m = CauseMatrix(np.where(miss, np.nan, vals), ["a", "b", "c"], [f"u{i}" for i in range(20)])
    y = rng.standard_normal(20)
    x = CovariateMatrix(rng.standard_normal((20, 2)) / 3, ["w", "v"])
    path = str(tmp_path / "out.csv")
    write_csv(path, m, outcomes={"popularity": y}, covariates=x)
    m2, y2, x2 = load_csv(path, "popularity", ["w", "v"])
    assert np.array_equal(m.missing, m2.missing) and m.missing.sum() == miss.sum()
    keep = ~m.missing
    assert np.array_equal(m.values[keep], m2.values[keep])  # repr round-trip
    assert np.array_equal(y, y2)
    assert np.array_equal(x.values, x2.values)
    # every block must have one row per unit
    short = y[:19]
    with pytest.raises(ValidationError, match="outcome 'popularity'"):
        write_csv(path, m, outcomes={"popularity": short})
    tall = CovariateMatrix(np.vstack([x.values, x.values[:1]]), ["w", "v"])
    with pytest.raises(ValidationError, match="covariate"):
        write_csv(path, m, covariates=tall)


def test_cause_matrix_validation():
    with pytest.raises(ValidationError):
        CauseMatrix(np.zeros((1, 2)), ["a", "b"], ["u1"])  # one unit
    with pytest.raises(ValidationError):
        CauseMatrix(np.zeros((3, 2)), ["a", "a"], list("xyz"))  # dup names
    with pytest.raises(ValidationError) as err:
        CauseMatrix(
            np.array([[1.0, np.nan], [1.0, np.nan]]),
            ["a", "b"],
            ["u1", "u2"],
        )
    assert "entirely missing" in str(err.value)


def test_standardize_unit_variance():
    rng = np.random.default_rng(0)
    m = CauseMatrix(rng.normal(3.0, 2.5, (50, 4)), list("abcd"), [str(i) for i in range(50)])
    out, tf = standardize(m)
    assert np.allclose(out.values.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.values.std(axis=0, ddof=1), 1.0, atol=1e-12)
    # the recorded mean and scale undo the transform
    assert np.allclose(out.values * tf.scale + tf.mean, m.values, atol=1e-12)


def test_standardize_and_screen_return_c_ordered_values():
    # the design's memory layout moves the OLS solution in its last bits
    # (see effects.outcome_design), so both steps hand on row-major values
    rng = np.random.default_rng(6)
    base = rng.standard_normal(200)
    vals = np.column_stack([base, base + 0.01 * rng.standard_normal(200), rng.standard_normal(200)])
    m = CauseMatrix(vals, ["a", "b", "c"], [str(i) for i in range(200)])
    out, _ = standardize(m)
    kept, dropped = correlation_screen(out, threshold=0.7)
    assert len(dropped) == 1 and kept.n_causes == 2
    assert out.values.flags.c_contiguous and kept.values.flags.c_contiguous


def test_standardize_rejects_constant_column():
    vals = np.column_stack([np.ones(10), np.arange(10.0)])
    m = CauseMatrix(vals, ["const", "b"], [str(i) for i in range(10)])
    with pytest.raises(ValidationError) as err:
        standardize(m)
    assert "const" in str(err.value)


def test_screen_drops_the_more_connected_member():
    rng = np.random.default_rng(1)
    base = rng.standard_normal(500)
    # b is near-duplicate of a and additionally tracks c, so b must go
    a = base
    b = base + 0.05 * rng.standard_normal(500)
    c = 0.6 * base + rng.standard_normal(500)
    m = CauseMatrix(np.column_stack([a, b, c]), ["a", "b", "c"], [str(i) for i in range(500)])
    kept, dropped = correlation_screen(m, threshold=0.7)
    assert dropped == ["b"] or dropped == ["a"]
    corr = np.corrcoef(m.values, rowvar=False)
    mean_a = (abs(corr[0, 1]) + abs(corr[0, 2])) / 2
    mean_b = (abs(corr[1, 0]) + abs(corr[1, 2])) / 2
    expected = "a" if mean_a > mean_b else "b"
    assert dropped == [expected]
    assert kept.n_causes == 2


def test_screen_tie_drops_later_column():
    # two perfectly correlated columns and nothing else: a tie by symmetry
    x = np.arange(40.0)
    m = CauseMatrix(np.column_stack([x, 2.0 * x + 1.0]), ["first", "second"],
                    [str(i) for i in range(40)])
    kept, dropped = correlation_screen(m, threshold=0.9)
    assert dropped == ["second"]
    assert kept.column_names == ["first"]


def test_screen_keeps_everything_below_threshold():
    rng = np.random.default_rng(2)
    m = CauseMatrix(rng.standard_normal((300, 5)), list("abcde"),
                    [str(i) for i in range(300)])
    kept, dropped = correlation_screen(m, threshold=0.7)
    assert dropped == [] and kept.n_causes == 5


def test_holdout_counts_and_bounds():
    rng = np.random.default_rng(3)
    m = CauseMatrix(rng.standard_normal((100, 9)), [f"c{i}" for i in range(9)],
                    [str(i) for i in range(100)])
    mask = make_holdout(m, rate=0.2, seed=0)
    per_row = mask.held.sum(axis=1)
    assert (per_row == 1).all()  # floor(0.2 * 9) = 1
    mask = make_holdout(m, rate=0.5, seed=0)
    assert (mask.held.sum(axis=1) == 4).all()
    # deterministic given seed, different across seeds
    again = make_holdout(m, rate=0.5, seed=0)
    assert np.array_equal(mask.held, again.held)
    other = make_holdout(m, rate=0.5, seed=1)
    assert not np.array_equal(mask.held, other.held)


def test_holdout_never_hides_a_full_row():
    rng = np.random.default_rng(4)
    m = CauseMatrix(rng.standard_normal((50, 2)), ["a", "b"], [str(i) for i in range(50)])
    mask = make_holdout(m, rate=0.9, seed=0)  # clamped to d - 1
    assert (mask.held.sum(axis=1) == 1).all()
    with pytest.raises(ValidationError):
        make_holdout(m, rate=1.0, seed=0)
    with pytest.raises(ValidationError):
        HoldoutMask(np.ones((3, 2), dtype=bool))


def test_overlap_report():
    m = CauseMatrix(
        np.array([[1.0, -2.0], [-1.0, -0.5], [0.0, 0.1]]),
        ["a", "b"],
        ["u1", "u2", "u3"],
    )
    rep = check_overlap(m)
    assert not rep.passed
    assert rep.failing_rows == ["u2"]
    shifted = CauseMatrix(m.values + 10.0, ["a", "b"], ["u1", "u2", "u3"])
    assert check_overlap(shifted).passed
