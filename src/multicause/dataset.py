"""Tabular data model used by the whole pipeline.

Causes live in an N x D matrix in which NaN marks exactly the unobserved
cells; there is no separate mask, `missing` is read off the NaNs.
Outcomes are plain 1-D float arrays, one entry per unit and never
missing. All CSV input is RFC-4180, UTF-8, header required; empty string
and "NA" denote missing cause entries, and every other cell must parse as
a finite number (nan and inf are rejected).
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import ParseError, ValidationError

MISSING_TOKENS = ("", "NA")
_MISSING_AS_NAN = dict.fromkeys(MISSING_TOKENS, "nan")
# characters for which csv.writer's default dialect quotes a field
_CSV_SPECIAL = frozenset(',"\r\n')


@dataclass(eq=False)
class CauseMatrix:
    """Per-unit cause scores; NaN marks an unobserved entry."""

    values: np.ndarray
    column_names: list[str]
    unit_ids: list[str]

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
        fully_missing = np.flatnonzero(self.missing.all(axis=0))
        if fully_missing.size:
            names = [self.column_names[j] for j in fully_missing]
            raise ValidationError(f"column(s) entirely missing: {names}")

    @property
    def missing(self) -> np.ndarray:
        """True where the entry is unobserved."""
        return np.isnan(self.values)

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
        )

    def with_values(self, values: np.ndarray) -> "CauseMatrix":
        return CauseMatrix(values, list(self.column_names), list(self.unit_ids))


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


def _convert_rows(reader, width: int, numeric: list[int], n_causes: int, id_idx: int | None):
    """Every row's numeric cells as one (rows, len(numeric)) block, plus the ids.

    Whole rows are converted at C speed: the exact missing tokens become
    "nan" and every cell goes through `float`. Returns None when any row
    needs `_parse_cell`'s verdict: a ragged or malformed row, a cell that
    does not convert, a NaN or inf that no exact token accounts for, a
    missing outcome or covariate, or a repeated id.
    """
    if len(numeric) > 1:
        take = itemgetter(*numeric)
    else:  # a one-index itemgetter returns the cell, not a 1-tuple
        take = itemgetter(slice(numeric[0], numeric[0] + 1))
    values = array("d")
    unit_ids: list[str] = []
    tokens = 0  # cells that are exactly "" or "NA"
    try:
        for row in reader:
            if len(row) != width:
                return None
            cells = take(row)
            values.extend(map(float, map(_MISSING_AS_NAN.get, cells, cells)))
            tokens += cells.count("") + cells.count("NA")
            if id_idx is not None:
                unit_ids.append(row[id_idx].strip())
    except (ValueError, csv.Error):
        return None
    block = np.frombuffer(values).reshape(-1, len(numeric))
    nan = np.isnan(block)
    if np.isinf(block).any() or nan.sum() != tokens or nan[:, n_causes:].any():
        return None
    if id_idx is None:
        unit_ids = [str(i) for i in range(len(block))]
    elif len(set(unit_ids)) != len(unit_ids):
        return None
    return block, unit_ids


def _parse_rows(reader, header: list[str], numeric: list[int], n_causes: int, id_idx: int | None):
    """Cell by cell, as `_convert_rows`, but raising the first error in row order.

    Padded missing tokens (" NA "), which `_convert_rows` refuses, read as missing.
    """
    rows: list[list[float]] = []
    unit_ids: list[str] = []
    seen_ids: set[str] = set()
    try:
        for row in reader:
            line = reader.line_num
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=line)
            # causes first, then the outcome, then the covariates
            rows.append(
                [_parse_cell(row[i], line, header[i], j < n_causes) for j, i in enumerate(numeric)]
            )
            uid = row[id_idx].strip() if id_idx is not None else str(len(unit_ids))
            if uid in seen_ids:
                raise ValidationError(f"line {line}: duplicate unit id '{uid}'")
            seen_ids.add(uid)
            unit_ids.append(uid)
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    return np.array(rows, dtype=float).reshape(-1, len(numeric)), unit_ids


def load_csv(
    path: str,
    outcome: str | None = None,
    covariates: Sequence[str] = (),
    id_column: str = "id",
    ignore: Sequence[str] = (),
) -> tuple[CauseMatrix, np.ndarray | None, CovariateMatrix | None]:
    """Load a dataset; every column not named here is a cause.

    `id_column` holds the unit ids; a file without it gets row numbers.
    Every other named column must be in the file, none may be the id
    column, and at least one cause must remain. A column named twice takes
    the later role in the order ignore, covariates, outcome. Missing
    entries ("" or "NA") are only legal in cause columns.
    """
    roles = dict.fromkeys(ignore, "ignore")
    roles.update(dict.fromkeys(covariates, "covariate"))
    if outcome is not None:
        roles[outcome] = "outcome"
    if id_column in roles:
        raise ValidationError(f"the id column '{id_column}' cannot take another role")

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
        absent = [c for c in roles if c not in header]
        if absent:
            raise ValidationError(f"column(s) {absent} not present in the input header")
        # column order in the result follows the file
        cause_idx = [i for i, c in enumerate(header) if c != id_column and c not in roles]
        if not cause_idx:
            raise ValidationError("no cause columns remain once the named columns are set aside")
        cov_idx = [i for i, c in enumerate(header) if roles.get(c) == "covariate"]
        outcome_idx = [] if outcome is None else [header.index(outcome)]
        id_idx = header.index(id_column) if id_column in header else None
        numeric = cause_idx + outcome_idx + cov_idx
        n_causes = len(cause_idx)

        parsed = None
        if handle.seekable():  # a pipe cannot be read twice: parse it cell by cell
            parsed = _convert_rows(reader, len(header), numeric, n_causes, id_idx)
            if parsed is None:
                # some row needs a closer look: read it again, cell by cell
                handle.seek(0)
                reader = csv.reader(handle)
                next(reader)
        if parsed is None:
            parsed = _parse_rows(reader, header, numeric, n_causes, id_idx)
    block, unit_ids = parsed

    if len(block) < 2:
        raise ValidationError(f"need at least 2 data rows, got {len(block)}")
    matrix = CauseMatrix(block[:, :n_causes], [header[i] for i in cause_idx], unit_ids)
    y = block[:, n_causes].copy() if outcome_idx else None
    x = None
    if cov_idx:
        x = CovariateMatrix(block[:, n_causes + len(outcome_idx):], [header[i] for i in cov_idx])
    return matrix, y, x


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it in a row of several fields."""
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[: -len(",\r\n")]


def write_csv(
    path: str,
    m: CauseMatrix,
    outcomes: dict[str, np.ndarray] | None = None,
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
    columns = [m.values, *outcomes.values()]
    if covariates is not None:
        columns.append(covariates.values)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerow(header)
        # repr round-trips float64 exactly, which load_csv relies on; no
        # finite or infinite repr contains "nan", so blanking it empties
        # exactly the missing cells, which are NaN. A generator, not a
        # list, so the file's text is never held whole.
        handle.writelines(
            f"{_csv_field(uid)},{','.join(map(repr, row)).replace('nan', '')}\r\n"
            for uid, row in zip(m.unit_ids, np.column_stack(columns).tolist())
        )


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
    return m.with_values((m.values - mean) / scale), Standardization(mean=mean, scale=scale)


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
    return OverlapReport(failing_rows=failing, passed=not failing)
