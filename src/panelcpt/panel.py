"""Panel data model, validation, and CSV ingestion.

A panel is an N x T matrix of observations: N series observed on a common
time grid of length T. Storage is row-major by series so per-series passes
over time are cache-contiguous. Panels are immutable after construction and
safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._random import check_choice
from .errors import EmptyInputError, NonNumericCellError, NonRectangularError

__all__ = ["Panel", "load_csv", "write_csv"]


@dataclass(frozen=True)
class Panel:
    """Immutable N x T panel of finite observations.

    Parameters
    ----------
    values : ndarray
        Matrix of shape (n_series, n_time). Copied and frozen on
        construction. Every entry must be finite; T must be at least 2.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True, order="C")
        if arr.ndim != 2:
            raise ValueError(f"panel values must be 2-dimensional, got {arr.ndim}")
        n, t = arr.shape
        if n < 1:
            raise ValueError("panel needs at least one series")
        if t < 2:
            raise ValueError(f"panel needs at least two time points, got T={t}")
        if not np.all(np.isfinite(arr)):
            i, j = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"panel contains a non-finite entry at ({i}, {j})")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def n_time(self) -> int:
        return self.values.shape[1]


def demean(values: np.ndarray) -> np.ndarray:
    """Subtract from each row of a (..., T) array its mean over time.

    Every row demeaning in the package goes through here, so the observed
    statistic and its bootstrap replicates round the same way. If a row sum
    overflows, rows are averaged about their first entry in a power-of-two
    scale, so a constant row has mean exactly its value at any finite scale.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        means = values.mean(axis=-1, keepdims=True)
        if not np.isfinite(means).all():
            scale = 0.5 ** (values.shape[-1].bit_length() + 1)  # below 1/(2T)
            ref = values[..., :1] * scale
            means = (ref + (values * scale - ref).mean(axis=-1, keepdims=True)) / scale
        return values - means


def _parse_cell(cell: str, row: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise NonNumericCellError(row, col, cell) from None
    if not math.isfinite(value):
        raise NonNumericCellError(row, col, cell)
    return value


def _parses_as_float(cell: str) -> bool:
    # header detection cares about parseability only; a non-finite token like
    # "nan" is a data cell (and a reportable error), not a column name
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_csv(path: str | Path, layout: str = "columns") -> Panel:
    """Read a panel from a comma-delimited UTF-8 file, with or without a BOM.

    Parameters
    ----------
    path : str or Path
        File to read. Cells must parse as finite numbers with a dot decimal
        separator; parsing does not consult the locale.
    layout : {"columns", "rows"}
        "columns" means each CSV column is one series (one time point per
        line); "rows" means each CSV line is one series.

    An optional single header line is auto-detected: if the first cell of the
    first line does not parse as a number, that line is skipped.

    Raises
    ------
    EmptyInputError, NonRectangularError, NonNumericCellError
    """
    check_choice("layout", layout, ("columns", "rows"))
    text = Path(path).read_text(encoding="utf-8-sig")
    lines = [line for line in text.splitlines() if line.strip() != ""]
    if lines and not _parses_as_float(lines[0].split(",")[0].strip()):
        lines = lines[1:]  # header line
    if not lines:
        raise EmptyInputError(f"no data rows in {path}")

    try:
        arr = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        arr = None
    if arr is None or not np.isfinite(arr).all():
        arr = _parse_cells(lines)  # raises the error of the first bad line or cell
    if layout == "columns":
        arr = arr.T
    return Panel(arr)


def _parse_cells(lines: list[str]) -> np.ndarray:
    """Parse data lines cell by cell with `float`, reporting the first ragged
    line or bad cell; the reference that `load_csv`'s one-call parse must match."""
    rows: list[list[float]] = []
    width = None
    for r, line in enumerate(lines, start=1):
        cells = [c.strip() for c in line.split(",")]
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise NonRectangularError(r, width, len(cells))
        rows.append([_parse_cell(c, r, j + 1) for j, c in enumerate(cells)])
    return np.array(rows, dtype=np.float64)


def csv_text(panel: Panel) -> str:
    """Render a panel as CSV text, one series per column, with 17 significant
    digits per cell, after a header line series_1.. that `load_csv` skips."""
    header = ",".join(f"series_{k + 1}" for k in range(panel.n_series))
    fmt = ",".join(["%.17g"] * panel.n_series)
    return "\n".join([header, *(fmt % tuple(row) for row in panel.values.T.tolist())]) + "\n"


def write_csv(panel: Panel, path: str | Path) -> None:
    """Write a panel as CSV, one series per column (17 significant digits,
    bit-exact round trip through `load_csv`)."""
    Path(path).write_text(csv_text(panel), encoding="utf-8")
