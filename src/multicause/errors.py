"""Exception types shared across the package.

Each class carries the CLI's exit code and a hint shown under the error:
ValidationError (and its subclasses) exit 1, PredictiveCheckFailed exits
2, NumericError exits 3.
"""


class MulticauseError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1
    hint = "see the documentation for this subcommand"


class ValidationError(MulticauseError):
    """Bad input: malformed files, inconsistent shapes, violated preconditions."""

    hint = "check the input schema and flag values"


class ParseError(ValidationError):
    """CSV text could not be parsed; carries the offending line number."""

    hint = "fix the malformed row or pass the correct schema flags"

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericError(MulticauseError):
    """Numerical failure: singular systems, non-convergence, degenerate spectra."""

    exit_code = 3
    hint = "inspect the diagnostics; a different seed or smaller K may help"


class RankDeficiencyError(NumericError):
    """Design matrix is rank deficient; lists the columns implicated."""

    hint = "drop or screen collinear cause columns before fitting"

    def __init__(self, message: str, columns: list[str] | None = None):
        super().__init__(message)
        self.columns = list(columns or [])


class PredictiveCheckFailed(MulticauseError):
    """Pipeline gate: the fitted factor model failed the held-out check."""

    exit_code = 2
    hint = (
        "the factor model cannot reproduce held-out causes; inspect the data,"
        " refit with another -k by fit-ppca or effects, or pass --force to effects"
    )

    def __init__(self, score: float, threshold: float):
        super().__init__(
            f"predictive check score {score:.4f} <= threshold {threshold:g}"
        )
        self.score = score
        self.threshold = threshold
