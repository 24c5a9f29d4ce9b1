import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from panelcpt import (
    EmptyInputError,
    NonNumericCellError,
    NonRectangularError,
    Panel,
    load_csv,
    write_csv,
)
from panelcpt import panel as panel_module
from panelcpt.panel import _parse_cells, csv_text, demean


def test_load_csv_columns_layout(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("1,2,3\n4,5,6\n7,8,9\n10,11,12\n13,14,15\n")
    panel = load_csv(path, layout="columns")
    assert panel.n_series == 3
    assert panel.n_time == 5
    assert_array_equal(panel.values[0], [1, 4, 7, 10, 13])


def test_load_csv_rows_layout_identity(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("1,2\n3,4\n")
    panel = load_csv(path, layout="rows")
    assert panel.values[0, 0] == 1.0
    assert panel.values[0, 1] == 2.0
    assert panel.values[1, 0] == 3.0
    with pytest.raises(ValueError, match="layout"):
        load_csv(path, layout="diag")


def test_load_csv_detects_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("alpha,beta\n1,2\n3,4\n")
    panel = load_csv(path, layout="columns")
    assert panel.n_series == 2
    assert panel.n_time == 2


def test_load_csv_ignores_byte_order_mark(tmp_path):
    rows = "0.5,1\n1.5,2\n2.5,3\n3.5,4\n4.5,5\n"
    bare, bom, headed = (tmp_path / f"{name}.csv" for name in ("bare", "bom", "headed"))
    bare.write_text(rows, encoding="utf-8")
    bom.write_text(rows, encoding="utf-8-sig")
    headed.write_text("a,b\n" + rows, encoding="utf-8-sig")
    want = load_csv(bare).values
    assert want.shape == (2, 5)
    assert_array_equal(load_csv(bom).values, want)
    assert_array_equal(load_csv(headed).values, want)


def test_load_csv_nan_cell_rejected(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("1,2\n3,nan\n")
    with pytest.raises(NonNumericCellError) as err:
        load_csv(path, layout="rows")
    assert err.value.row == 2
    assert err.value.col == 2


def test_load_csv_text_cell_rejected(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(NonNumericCellError):
        load_csv(path, layout="rows")


def test_load_csv_leading_nan_is_an_error_not_a_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("nan,2\n3,4\n")
    with pytest.raises(NonNumericCellError) as err:
        load_csv(path, layout="rows")
    assert err.value.row == 1
    assert err.value.col == 1


def test_load_csv_ragged_rejected(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(NonRectangularError):
        load_csv(path)


def test_load_csv_empty_rejected(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("\n")
    with pytest.raises(EmptyInputError):
        load_csv(path)


@pytest.mark.parametrize("layout", ["columns", "rows"])
def test_csv_round_trip_bit_exact(tmp_path, layout):
    rng = np.random.default_rng(7)
    panel = Panel(rng.standard_normal((4, 11)) * 1e3)
    path = tmp_path / "rt.csv"
    _write(panel, path, layout)
    back = load_csv(path, layout=layout)
    assert_array_equal(back.values, panel.values)


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1.7e308, -1.7e308, 5e-324, -5e-324, 2.2e-308, -0.0]),
)


@pytest.mark.parametrize("layout", ["columns", "rows"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_csv_round_trip_property(layout, data):
    n, t = data.draw(st.integers(1, 5)), data.draw(st.integers(2, 8))
    cells = data.draw(st.lists(_FINITE, min_size=n * t, max_size=n * t))
    panel = Panel(np.array(cells).reshape(n, t))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rt.csv"
        _write(panel, path, layout)
        back = load_csv(path, layout=layout)
    assert back.values.tobytes() == panel.values.tobytes()
    assert csv_text(panel) == _csv_text_per_cell(panel, "columns")


def _write(panel, path, layout):
    # write_csv writes one series per column; rows text comes from the reference
    if layout == "columns":
        write_csv(panel, path)
    else:
        path.write_text(_csv_text_per_cell(panel, "rows"), encoding="utf-8")


def _csv_text_per_cell(panel, layout):
    """One f-string per cell: the reference `csv_text` must match byte for byte."""
    arr = panel.values.T if layout == "columns" else panel.values
    prefix = "series" if layout == "columns" else "t"
    lines = [",".join(f"{prefix}_{k + 1}" for k in range(arr.shape[1]))]
    for row in arr:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def test_load_csv_parses_a_clean_file_in_one_call(tmp_path, monkeypatch):
    panel = Panel(np.random.default_rng(12).standard_normal((7, 30)))
    path = tmp_path / "p.csv"
    write_csv(panel, path)

    def per_cell(lines):
        raise AssertionError("clean file fell back to the per-cell parser")

    monkeypatch.setattr(panel_module, "_parse_cells", per_cell)
    assert load_csv(path).values.tobytes() == panel.values.tobytes()


_PADS = st.sampled_from(["", " ", "\t", " \t ", "\xa0", "\u2003"])
_SPELLINGS = st.sampled_from(["%r", "%.17g", "%+.17g", "%.17e", "%.3E", "%.1f"])
_GOOD_TOKENS = st.one_of(
    st.builds(lambda spelling, x: spelling % x, _SPELLINGS, _FINITE),
    st.sampled_from(["+.5", "-0", "1.", "00012", "1E+05", "-1e-400"]),
)
# spellings that float() accepts and numpy's parser rejects
_PYTHON_ONLY_TOKENS = st.sampled_from(["1_0", "-2_5.5e-1_0", "\u0661\u0662",
                                       "\uff11.\uff15"])
_BAD_TOKENS = st.sampled_from(["nan", "-NaN", "inf", "-Infinity", "1e400", "-1e400",
                               "", '"1"', "'2'", "#", "1#2", "#3", "4 # x", "abc",
                               "0x10", "1e", "1,5"])


@pytest.mark.parametrize("fault", ["none", "python_only", "bad", "longer", "shorter"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_call_parse_matches_per_cell_parse(fault, data):
    # a header line, then data lines with at most one unusual cell or ragged
    # line: load_csv must give the per-cell parser's array bit for bit, or its
    # exception and message
    width, height = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 5))
    cell = st.tuples(_PADS, _GOOD_TOKENS, _PADS).map("".join)
    rows = data.draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                              min_size=height, max_size=height))
    i = data.draw(st.sampled_from(range(height)))
    j = data.draw(st.sampled_from(range(width)))
    if fault in ("python_only", "bad"):
        tokens = _PYTHON_ONLY_TOKENS if fault == "python_only" else _BAD_TOKENS
        rows[i][j] = data.draw(st.tuples(_PADS, tokens, _PADS).map("".join))
    elif fault == "longer":
        rows[i].append(data.draw(cell))
    elif fault == "shorter":
        del rows[i][j]
    lines = [",".join(row) for row in rows]

    def outcome(parse):
        try:
            values = parse()
        except (ValueError, NonNumericCellError, NonRectangularError) as exc:
            return type(exc), str(exc)
        return values.shape, values.tobytes()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cells.csv"
        path.write_text("\n".join(["head,er", *lines]) + "\n", encoding="utf-8")
        got = outcome(lambda: load_csv(path, layout="rows").values)
    assert got == outcome(lambda: Panel(_parse_cells(lines)).values)


def test_panel_validation():
    with pytest.raises(ValueError):
        Panel(np.array([[1.0]]))  # T = 1
    with pytest.raises(ValueError):
        Panel(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        Panel(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        Panel(np.zeros((0, 5)))
    with pytest.raises(ValueError, match="2-dimensional"):
        Panel(np.zeros((2, 3, 4)))


def test_panel_is_immutable():
    panel = Panel(np.ones((2, 3)))
    with pytest.raises(ValueError):
        panel.values[0, 0] = 5.0


def test_demean_constant_row():
    assert_array_equal(demean(np.array([[1.0, 1.0, 1.0, 1.0]])), np.zeros((1, 4)))
    # near the float maximum the row sum overflows; the mean must not
    for value in (1e307, -np.finfo(float).max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_array_equal(demean(np.full((2, 40), value)), np.zeros((2, 40)))


def test_demean_hand_example():
    demeaned = demean(np.array([[0.0, 0.0, 0.0, 1.0]]))
    assert_allclose(demeaned[0], [-0.25, -0.25, -0.25, 0.75], rtol=0, atol=0)


def test_demean_idempotent():
    rng = np.random.default_rng(3)
    panel = Panel(rng.standard_normal((5, 40)) + 7.0)
    once = demean(panel.values)
    assert_allclose(demean(once), once, rtol=0, atol=1e-12)


def test_demean_row_sums_vanish_on_random_panels():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 21))
        t = int(rng.integers(2, 201))
        scale = 10.0 ** rng.integers(-3, 4)
        panel = Panel(rng.standard_normal((n, t)) * scale + rng.normal() * scale)
        demeaned = demean(panel.values)
        tol = 1e-9 * t * max(np.abs(panel.values).max(), 1e-300)
        assert np.abs(demeaned.sum(axis=1)).max() <= tol
