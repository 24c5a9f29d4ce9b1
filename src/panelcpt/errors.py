"""Exception hierarchy for panelcpt; every input error is also a ValueError."""

from __future__ import annotations

__all__ = [
    "PanelCptError",
    "EmptyInputError",
    "NonRectangularError",
    "NonNumericCellError",
    "DegenerateSeriesError",
    "InvalidBlockLengthError",
    "MonteCarloError",
]


class PanelCptError(Exception):
    """Base class for all panelcpt errors."""


class EmptyInputError(PanelCptError, ValueError):
    """Raised when an input file or array contains no data."""


class NonRectangularError(PanelCptError, ValueError):
    """Raised when CSV rows have differing lengths."""

    def __init__(self, row: int, expected: int, got: int):
        self.row = row
        self.expected = expected
        self.got = got
        super().__init__(
            f"row {row} has {got} cells, expected {expected} (ragged input)"
        )


class NonNumericCellError(PanelCptError, ValueError):
    """Raised when a CSV cell cannot be parsed as a finite number."""

    def __init__(self, row: int, col: int, cell: str):
        self.row = row
        self.col = col
        self.cell = cell
        super().__init__(f"cell at row {row}, column {col} is not finite: {cell!r}")


class DegenerateSeriesError(PanelCptError):
    """Raised when a series has a non-positive long-run variance estimate.

    ``replicate`` is the bootstrap replicate (from a batch kernel, the
    position in the evaluated stack) of the failing panel, or None for a
    single panel.
    """

    def __init__(self, series: int, detail: str = "non-positive variance estimate",
                 replicate: int | None = None):
        self.series = series
        self.detail = detail
        self.replicate = replicate
        where = "" if replicate is None else f"bootstrap replicate {replicate}, "
        super().__init__(f"{where}series {series}: {detail}")


class InvalidBlockLengthError(PanelCptError, ValueError):
    """Raised when a bootstrap block length is outside [1, T]."""

    def __init__(self, block_length: int, n_time: int | None = None):
        self.block_length = block_length
        self.n_time = n_time
        detail = f" for series length {n_time}" if n_time is not None else ""
        super().__init__(f"block length {block_length} invalid{detail}")


class MonteCarloError(PanelCptError):
    """Raised when too many Monte Carlo replications fail."""

    def __init__(self, label: str, n_failed: int, n_total: int, examples: list[str]):
        self.label = label
        self.n_failed = n_failed
        self.n_total = n_total
        self.examples = examples
        shown = "; ".join(examples[:3])
        super().__init__(
            f"scenario {label!r}: {n_failed}/{n_total} replications failed ({shown})"
        )
