"""Tabular data model used by the whole pipeline.

Causes live in an N x D matrix in which NaN marks exactly the unobserved
cells; there is no separate mask, `missing` is read off the NaNs.
Outcomes are plain 1-D float arrays, one entry per unit and never
missing. All CSV input is RFC-4180, UTF-8 (a leading byte-order mark is
skipped), header required. Cells are stripped: "" and "NA" (" NA " too)
mark missing cause entries; every other cell must parse as a finite number
(" 2.5 " reads as 2.5; nan and inf are rejected). A bad input raises its
first error in row order, with its line.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from array import array
from collections.abc import Sequence
from operator import itemgetter

import numpy as np

from ._record import record
from .errors import ParseError, ValidationError

MISSING_TOKENS = ("", "NA")
_MISSING_AS_NAN = dict.fromkeys(MISSING_TOKENS, "nan")
# characters for which csv.writer's default dialect quotes a field
_CSV_SPECIAL = frozenset(',"\r\n')


@record
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


@record
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


@record
class Standardization:
    """Column means and sample standard deviations (n-1 convention)."""

    mean: np.ndarray
    scale: np.ndarray


@record
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


@record
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


def _convert_row(cells: Sequence[str], n_causes: int) -> list[float] | None:
    """A row's numeric cells (causes first) at C speed, exact missing tokens as NaN.

    None when `_parse_cell` must judge the row: a cell `float` refuses, or a
    NaN or inf that no exact token in a cause column accounts for.
    """
    try:
        floats = list(map(float, map(_MISSING_AS_NAN.get, cells, cells)))
    except ValueError:
        return None
    if math.isfinite(sum(floats)):  # no token, no NaN, no inf
        return floats
    causes = cells[:n_causes]
    tokens = causes.count("") + causes.count("NA")
    # each cause token reads as NaN, so equal counts leave no other non-finite cell
    return floats if list(map(math.isfinite, floats)).count(False) == tokens else None


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
    entries ("" or "NA", stripped, so " NA " too) are only legal in cause
    columns; " 2.5 " reads as 2.5. One loop reads files and pipes alike,
    and raises the first error in row order with its line.
    """
    roles = dict.fromkeys(ignore, "ignore")
    roles.update(dict.fromkeys(covariates, "covariate"))
    if outcome is not None:
        roles[outcome] = "outcome"
    if id_column in roles:
        raise ValidationError(f"the id column '{id_column}' cannot take another role")

    try:
        handle = open(path, "r", encoding="utf-8-sig", newline="")
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

        if len(numeric) > 1:
            take = itemgetter(*numeric)
        else:  # a one-index itemgetter returns the cell, not a 1-tuple
            take = itemgetter(slice(numeric[0], numeric[0] + 1))
        columns = [(i, header[i], j < n_causes) for j, i in enumerate(numeric)]  # for _parse_cell
        values = array("d")
        unit_ids: list[str] = []
        seen: set[str] = set()
        try:
            for row in reader:
                floats = _convert_row(take(row), n_causes) if len(row) == len(header) else None
                if floats is None:  # raise the row's first error, or read what `float` refused
                    line = reader.line_num
                    if len(row) != len(header):
                        raise ParseError(f"expected {len(header)} fields, got {len(row)}", line)
                    floats = [_parse_cell(row[i], line, name, cause) for i, name, cause in columns]
                values.extend(floats)
                uid = row[id_idx].strip() if id_idx is not None else str(len(unit_ids))
                if uid in seen:
                    raise ValidationError(f"line {reader.line_num}: duplicate unit id '{uid}'")
                seen.add(uid)
                unit_ids.append(uid)
        except csv.Error as exc:
            raise ParseError(str(exc), line=reader.line_num) from None
    # free the id set (a 0.5 MB table at n=5k) before the copies below: held,
    # it moved glibc's mmap threshold, which raised peak RSS 0.35 MB at n=5k
    del seen
    block = np.frombuffer(values).reshape(-1, len(numeric))

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


def check_complete(m: CauseMatrix, what: str) -> None:
    """A stage that reads every cell, `what`, refuses a matrix with a missing one."""
    if m.has_missing:
        raise ValidationError(f"{what} requires a complete matrix; impute first")


def standardize(m: CauseMatrix) -> tuple[CauseMatrix, Standardization]:
    """Center and scale each column to mean 0, sample sd 1 (ddof=1)."""
    check_complete(m, "standardize")
    mean = m.values.mean(axis=0)
    scale = m.values.std(axis=0, ddof=1)
    zero = np.flatnonzero(scale == 0.0)
    if zero.size:
        names = [m.column_names[j] for j in zero]
        raise ValidationError(f"zero-variance column(s): {names}")
    return m.with_values((m.values - mean) / scale), Standardization(mean=mean, scale=scale)


def check_corr_threshold(threshold: float) -> None:
    """A correlation screen's threshold must lie in (0, 1], NaN excluded."""
    if not 0.0 < threshold <= 1.0:
        raise ValidationError("correlation threshold must lie in (0, 1]")


def correlation_screen(
    m: CauseMatrix, threshold: float = 0.7
) -> tuple[CauseMatrix, list[str]]:
    """Greedily drop columns until no |pairwise correlation| exceeds threshold.

    At each step the most correlated pair is found; the member with the
    higher mean absolute correlation to the remaining columns is dropped,
    ties going to the later column in input order.
    """
    check_complete(m, "correlation_screen")
    check_corr_threshold(threshold)
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


def _hash64(*words):
    """64 random bits keyed on uint64 words (arrays broadcast), with no generator.

    From h = 0, each word w sets h = mix(h ^ w), with mix SplitMix64's output
    step (Steele, Lea & Flood, OOPSLA 2014), a bijection. So a draw depends on
    its words only, and draws that differ only in the last word never tie.
    """
    h = np.uint64(0)
    with np.errstate(over="ignore"):  # uint64 arithmetic wraps mod 2**64
        for w in words:
            x = (h ^ np.asarray(w, dtype=np.uint64)) + np.uint64(0x9E3779B97F4A7C15)
            x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            h = x ^ (x >> np.uint64(31))
    return h


def check_seed(seed: int) -> None:
    """Every seeded stage's seed rule: [0, 2**64), one uint64 word as `_hash64` keys on it."""
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be in [0, 2**64), got {seed}")


def _rng_permutation(n: int, seed: int) -> np.ndarray:
    """numpy's `default_rng(seed).permutation(n)`, replayed in Python ints.

    So numpy.random, and the OpenSSL it loads through `secrets`, stay unloaded.
    SeedSequence hashes the seed's two 32-bit words, low first and zero-padded,
    into 4 uint64 that seed PCG64 (O'Neill 2014); each XSL-RR output gives two
    32-bit draws, low half first; `random_interval(i)` masks one to i's bit
    length and rejects it above i; the shuffle swaps element i with it for
    i = n-1 down to 1; a test fails if a numpy release changes that stream.
    """
    check_seed(seed)
    m32, m64, m128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
    mixing, output = [0x43B0D7E5, 0x931E8875], [0x8B51F9DD, 0x58F38DED]

    def hashmix(v, h):  # h = [hash constant, its multiplier]; the constant advances
        v, h[0] = v ^ h[0], h[0] * h[1] & m32
        v = v * h[0] & m32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & m32
        return r ^ r >> 16

    pool = [hashmix(w, mixing) for w in (seed & m32, seed >> 32, 0, 0)]
    for s, d in itertools.permutations(range(4), 2):
        pool[d] = mix(pool[d], hashmix(pool[s], mixing))
    # generate_state(4, uint64): 8 uint32 words, each pair little-endian
    out = [hashmix(pool[i % 4], output) for i in range(8)]
    s0, s1, i0, i1 = (out[2 * k] | out[2 * k + 1] << 32 for k in range(4))
    # PCG64 seeding: inc = 2 * sequence + 1; from state 0, step, add the seed, step
    mult, inc = 0x2360ED051FC65DA44385DF649FCCF645, (i0 << 65 | i1 << 1 | 1) & m128
    state = ((inc + (s0 << 64 | s1)) * mult + inc) & m128
    perm, spare, mask = list(range(n)), None, m64
    for i in range(n - 1, 0, -1):
        while mask >> 1 >= i:  # keep mask the least 2**b - 1 >= i
            mask >>= 1
        j = n  # draw until j <= i
        while j > i:
            if spare is None:  # step the LCG; use the output's low half, keep its high
                state = (state * mult + inc) & m128
                x, r = ((state >> 64) ^ state) & m64, state >> 122
                x = (x >> r | x << (64 - r)) & m64
                j, spare = x & mask, x >> 32
            else:
                j, spare = spare & mask, None
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.intp)


def _unit_keys(unit_ids: list[str]) -> np.ndarray:
    """A uint64 key per unit id: `_hash64` of the id's UTF-8 byte count, then of
    its bytes as zero-padded little-endian 8-byte words."""
    raw = [uid.encode() for uid in unit_ids]
    words = np.array(raw, dtype=f"S{8 * max(1, -(-max(map(len, raw)) // 8))}").view("<u8")
    return _hash64([len(b) for b in raw], *words.reshape(len(raw), -1).T)


def check_holdout_rate(rate: float) -> None:
    """A holdout rate must lie strictly in (0, 1), NaN excluded."""
    if not 0.0 < rate < 1.0:
        raise ValidationError("holdout rate must lie strictly in (0, 1)")


def make_holdout(m: CauseMatrix, rate: float = 0.2, seed: int = 0) -> HoldoutMask:
    """Hide floor(rate * D) entries per row, at least 1 and at most D - 1.

    A row hides its columns j with the smallest `_hash64(seed, unit key, j)`,
    the key hashed from the unit's id. So a unit's mask row follows its id:
    a reordered matrix or a row subset gives every unit the same mask row.
    """
    if m.n_causes < 2:
        raise ValidationError("holdout requires at least 2 cause columns")
    check_holdout_rate(rate)
    check_seed(seed)
    d = m.n_causes
    per_row = min(max(int(rate * d), 1), d - 1)
    draws = _hash64(seed, _unit_keys(m.unit_ids)[:, None], np.arange(d))
    # a row's draws never tie, so exactly `per_row` are at most its per_row-th smallest
    return HoldoutMask(draws <= np.partition(draws, per_row - 1, axis=1)[:, [per_row - 1]])


def check_overlap(m: CauseMatrix) -> OverlapReport:
    """Each unit must have at least one strictly positive cause entry."""
    with np.errstate(invalid="ignore"):
        row_pass = np.any(m.values > 0.0, axis=1)
    failing = [m.unit_ids[i] for i in np.flatnonzero(~row_pass)]
    return OverlapReport(failing_rows=failing, passed=not failing)
