"""Tabular data model used by the whole pipeline.

Causes live in an N x D matrix with an explicit missingness mask
(NaN in `values` at exactly the masked cells). Outcomes are per-unit
vectors and never missing. All CSV input is RFC-4180, UTF-8, header
required; empty string and "NA" denote missing cause entries, and every
other cell must parse as a finite number (nan and inf are rejected).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError

MISSING_TOKENS = ("", "NA")
ROLES = ("cause", "outcome", "covariate", "id", "ignore")
OUTCOME_KINDS = ("rating", "popularity", "custom")


@dataclass(eq=False)
class CauseMatrix:
    """Per-unit cause scores; `missing` is True where the entry is unobserved."""

    values: np.ndarray
    column_names: list[str]
    unit_ids: list[str]
    missing: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValidationError("cause matrix must be two-dimensional")
        n, d = self.values.shape
        if n < 2:
            raise ValidationError(f"need at least 2 units, got {n}")
        if d < 1:
            raise ValidationError("need at least 1 cause column")
        if len(self.column_names) != d:
            raise ValidationError(
                f"{len(self.column_names)} column names for {d} columns"
            )
        if len(set(self.column_names)) != d:
            raise ValidationError("cause column names must be unique")
        if len(self.unit_ids) != n:
            raise ValidationError(f"{len(self.unit_ids)} unit ids for {n} rows")
        if self.missing is None:
            self.missing = np.isnan(self.values)
        else:
            self.missing = np.array(self.missing, dtype=bool)
            if self.missing.shape != (n, d):
                raise ValidationError("missingness mask shape mismatch")
            if np.any(np.isnan(self.values) & ~self.missing):
                raise ValidationError("NaN present outside the missingness mask")
            self.values[self.missing] = np.nan
        fully_missing = np.flatnonzero(self.missing.all(axis=0))
        if fully_missing.size:
            names = [self.column_names[j] for j in fully_missing]
            raise ValidationError(f"column(s) entirely missing: {names}")

    @property
    def n_units(self) -> int:
        return self.values.shape[0]

    @property
    def n_causes(self) -> int:
        return self.values.shape[1]

    @property
    def has_missing(self) -> bool:
        return bool(self.missing.any())

    def take_columns(self, indices: list[int]) -> "CauseMatrix":
        return CauseMatrix(
            self.values[:, indices].copy(),
            [self.column_names[j] for j in indices],
            list(self.unit_ids),
            self.missing[:, indices].copy(),
        )

    def with_values(self, values: np.ndarray, missing: np.ndarray | None = None) -> "CauseMatrix":
        return CauseMatrix(values, list(self.column_names), list(self.unit_ids), missing)


@dataclass(eq=False)
class OutcomeVector:
    """One outcome per unit; missing outcomes are rejected at load time."""

    values: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValidationError("outcome must be one-dimensional")
        if np.isnan(self.values).any():
            raise ValidationError("outcome contains missing values")
        if self.kind not in OUTCOME_KINDS:
            raise ValidationError(f"outcome kind must be one of {OUTCOME_KINDS}")

    def __len__(self) -> int:
        return int(self.values.shape[0])


@dataclass(eq=False)
class CovariateMatrix:
    """Optional per-unit covariates appended to outcome regressions."""

    values: np.ndarray
    column_names: list[str]

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValidationError("covariate matrix must be two-dimensional")
        if len(self.column_names) != self.values.shape[1]:
            raise ValidationError("covariate name count mismatch")
        if np.isnan(self.values).any():
            raise ValidationError("covariates contain missing values")


@dataclass(eq=False)
class Standardization:
    """Column means and sample standard deviations (n-1 convention)."""

    mean: np.ndarray
    scale: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.scale

    def invert(self, values: np.ndarray) -> np.ndarray:
        return values * self.scale + self.mean


@dataclass(eq=False)
class HoldoutMask:
    """True marks a held-out (hidden) cause entry."""

    held: np.ndarray

    def __post_init__(self):
        self.held = np.array(self.held, dtype=bool)
        if self.held.ndim != 2:
            raise ValidationError("holdout mask must be two-dimensional")
        if np.any(self.held.all(axis=1)):
            raise ValidationError("every row must retain at least one observed entry")

    def to_dict(self) -> dict:
        cols = np.nonzero(self.held)[1].tolist()
        ends = np.cumsum(self.held.sum(axis=1)).tolist()
        return {"held": [cols[a:b] for a, b in zip([0, *ends], ends)]}

    @classmethod
    def from_dict(cls, payload, shape: tuple[int, int]) -> "HoldoutMask":
        """Rebuild an (n, d) mask whose `held` lists each row's hidden columns."""
        n, d = shape
        rows = payload.get("held") if isinstance(payload, dict) else None
        if not isinstance(rows, list) or len(rows) != n:
            raise ValidationError(f"mask 'held' must list one row per unit ({n})")
        held = np.zeros((n, d), dtype=bool)
        for i, cols in enumerate(rows):
            if not isinstance(cols, list) or any(type(j) is not int for j in cols):
                raise ValidationError(f"mask row {i} must be a list of column indices")
            if any(not 0 <= j < d for j in cols):
                raise ValidationError(f"mask row {i} names a column outside 0..{d - 1}")
            held[i, cols] = True
        return cls(held)


@dataclass(eq=False)
class OverlapReport:
    row_pass: np.ndarray
    failing_rows: list[str]
    passed: bool


def _parse_cell(text: str, row_line: int, column: str, allow_missing: bool) -> float:
    stripped = text.strip()
    if stripped in MISSING_TOKENS:
        if allow_missing:
            return np.nan
        raise ValidationError(
            f"line {row_line}: missing value in non-cause column '{column}'"
        )
    try:
        value = float(stripped)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):  # nan and inf parse, but are not data
        raise ParseError(f"'{stripped}' in column '{column}' is not a finite number", row_line)
    return value


def read_header(path: str) -> list[str]:
    """Column names from the first line of a CSV file."""
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
    except OSError as exc:
        raise ValidationError(f"cannot read '{path}': {exc.strerror}") from None
    if not header:
        raise ParseError("empty file", line=1)
    return header


def load_csv(
    path: str,
    schema: dict[str, str],
    outcome_kind: str = "custom",
) -> tuple[CauseMatrix, OutcomeVector | None, CovariateMatrix | None]:
    """Load a dataset; `schema` maps every CSV column to exactly one role.

    Roles: cause, outcome, covariate, id, ignore. At most one id and one
    outcome column; at least one cause column. Missing entries ("" or
    "NA") are only legal in cause columns.
    """
    for col, role in schema.items():
        if role not in ROLES:
            raise ValidationError(f"unknown role '{role}' for column '{col}'")
    for role in ("id", "outcome"):
        n = sum(1 for r in schema.values() if r == role)
        if n > 1:
            raise ValidationError(f"more than one column assigned role '{role}'")
    cause_cols = [c for c, r in schema.items() if r == "cause"]
    if not cause_cols:
        raise ValidationError("schema assigns no cause columns")

    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot open '{path}': {exc}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file, header required", line=1) from None
        except csv.Error as exc:
            raise ParseError(str(exc), line=1) from None
        if len(set(header)) != len(header):
            raise ParseError("duplicate column names in header", line=1)
        missing_from_schema = [c for c in header if c not in schema]
        if missing_from_schema:
            raise ValidationError(f"columns not covered by schema: {missing_from_schema}")
        missing_from_file = [c for c in schema if c not in header]
        if missing_from_file:
            raise ValidationError(f"schema columns absent from file: {missing_from_file}")

        # Column order in the result follows the file, not the schema dict.
        cause_idx = [i for i, c in enumerate(header) if schema[c] == "cause"]
        cov_idx = [i for i, c in enumerate(header) if schema[c] == "covariate"]
        outcome_idx = next((i for i, c in enumerate(header) if schema[c] == "outcome"), None)
        id_idx = next((i for i, c in enumerate(header) if schema[c] == "id"), None)

        causes: list[list[float]] = []
        outcomes: list[float] = []
        covariates: list[list[float]] = []
        unit_ids: list[str] = []
        seen_ids: set[str] = set()
        try:
            for row in reader:
                line = reader.line_num
                if len(row) != len(header):
                    raise ParseError(
                        f"expected {len(header)} fields, got {len(row)}", line=line
                    )
                causes.append(
                    [_parse_cell(row[i], line, header[i], True) for i in cause_idx]
                )
                if outcome_idx is not None:
                    outcomes.append(
                        _parse_cell(row[outcome_idx], line, header[outcome_idx], False)
                    )
                if cov_idx:
                    covariates.append(
                        [_parse_cell(row[i], line, header[i], False) for i in cov_idx]
                    )
                uid = row[id_idx].strip() if id_idx is not None else str(len(unit_ids))
                if uid in seen_ids:
                    raise ValidationError(f"line {line}: duplicate unit id '{uid}'")
                seen_ids.add(uid)
                unit_ids.append(uid)
        except csv.Error as exc:
            raise ParseError(str(exc), line=reader.line_num) from None

    if len(causes) < 2:
        raise ValidationError(f"need at least 2 data rows, got {len(causes)}")
    matrix = CauseMatrix(
        np.array(causes, dtype=float),
        [header[i] for i in cause_idx],
        unit_ids,
    )
    outcome = (
        OutcomeVector(np.array(outcomes), kind=outcome_kind)
        if outcome_idx is not None
        else None
    )
    covars = (
        CovariateMatrix(np.array(covariates), [header[i] for i in cov_idx])
        if cov_idx
        else None
    )
    return matrix, outcome, covars


def write_csv(
    path: str,
    m: CauseMatrix,
    outcomes: dict[str, OutcomeVector] | None = None,
    covariates: CovariateMatrix | None = None,
    id_column: str = "id",
) -> None:
    """Write a dataset in the same schema load_csv reads (missing -> ""), ids under `id_column`."""
    outcomes = outcomes or {}
    for name, vec in outcomes.items():
        if len(vec) != m.n_units:
            raise ValidationError(f"outcome '{name}' length mismatch")
    if covariates is not None and len(covariates.values) != m.n_units:
        raise ValidationError("covariate row count mismatch")
    header = [id_column] + list(m.column_names)
    header += list(outcomes.keys())
    if covariates is not None:
        header += list(covariates.column_names)
    if len(set(header)) != len(header):
        raise ValidationError("column name collision in output schema")
    columns = [m.values, *(vec.values for vec in outcomes.values())]
    if covariates is not None:
        columns.append(covariates.values)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        # a NaN marks exactly the missing cause cells; repr round-trips
        # float64 exactly, which load_csv relies on
        for uid, row in zip(m.unit_ids, np.column_stack(columns).tolist()):
            writer.writerow([uid, *("" if v != v else repr(v) for v in row)])


def standardize(m: CauseMatrix) -> tuple[CauseMatrix, Standardization]:
    """Center and scale each column to mean 0, sample sd 1 (ddof=1)."""
    if m.has_missing:
        raise ValidationError("standardize requires a complete matrix; impute first")
    mean = m.values.mean(axis=0)
    scale = m.values.std(axis=0, ddof=1)
    zero = np.flatnonzero(scale == 0.0)
    if zero.size:
        names = [m.column_names[j] for j in zero]
        raise ValidationError(f"zero-variance column(s): {names}")
    tf = Standardization(mean=mean, scale=scale)
    return m.with_values(tf.apply(m.values)), tf


def correlation_screen(
    m: CauseMatrix, threshold: float = 0.7
) -> tuple[CauseMatrix, list[str]]:
    """Greedily drop columns until no |pairwise correlation| exceeds threshold.

    At each step the most correlated pair is found; the member with the
    higher mean absolute correlation to the remaining columns is dropped,
    ties going to the later column in input order.
    """
    if m.has_missing:
        raise ValidationError("correlation screen requires a complete matrix")
    if not 0.0 < threshold <= 1.0:
        raise ValidationError("correlation threshold must lie in (0, 1]")
    if m.n_causes == 1:
        return m, []
    corr = np.corrcoef(m.values, rowvar=False)
    corr = np.nan_to_num(corr, nan=0.0)
    abs_corr = np.abs(corr)
    np.fill_diagonal(abs_corr, 0.0)

    remaining = list(range(m.n_causes))
    dropped: list[str] = []
    while len(remaining) > 1:
        sub = abs_corr[np.ix_(remaining, remaining)]
        flat = np.argmax(sub)
        i_loc, j_loc = divmod(flat, len(remaining))
        if sub[i_loc, j_loc] <= threshold:
            break
        # mean |corr| of each member against all other remaining columns
        mean_i = sub[i_loc].sum() / (len(remaining) - 1)
        mean_j = sub[j_loc].sum() / (len(remaining) - 1)
        if mean_i > mean_j:
            drop_loc = i_loc
        elif mean_j > mean_i:
            drop_loc = j_loc
        else:
            drop_loc = max(i_loc, j_loc)  # tie: later column in input order
        dropped.append(m.column_names[remaining[drop_loc]])
        del remaining[drop_loc]
    return m.take_columns(remaining), dropped


def make_holdout(m: CauseMatrix, rate: float = 0.2, seed: int = 0) -> HoldoutMask:
    """Hide floor(rate * D) entries per row, at least 1 and at most D - 1."""
    if m.n_causes < 2:
        raise ValidationError("holdout requires at least 2 cause columns")
    if not 0.0 < rate < 1.0:
        raise ValidationError("holdout rate must lie strictly in (0, 1)")
    n, d = m.values.shape
    per_row = min(max(int(rate * d), 1), d - 1)
    rng = np.random.default_rng(seed)
    # rank random draws per row; the smallest `per_row` become held
    order = np.argsort(rng.random((n, d)), axis=1)
    held = np.zeros((n, d), dtype=bool)
    np.put_along_axis(held, order[:, :per_row], True, axis=1)
    return HoldoutMask(held)


def check_overlap(m: CauseMatrix) -> OverlapReport:
    """Each unit must have at least one strictly positive cause entry."""
    with np.errstate(invalid="ignore"):
        row_pass = np.any(m.values > 0.0, axis=1)
    failing = [m.unit_ids[i] for i in np.flatnonzero(~row_pass)]
    return OverlapReport(row_pass=row_pass, failing_rows=failing, passed=not failing)
