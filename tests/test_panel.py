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
from panelcpt.panel import demean


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
    write_csv(panel, path, layout=layout)
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
        write_csv(panel, path, layout=layout)
        back = load_csv(path, layout=layout)
    assert back.values.tobytes() == panel.values.tobytes()


def test_panel_validation():
    with pytest.raises(ValueError):
        Panel(np.array([[1.0]]))  # T = 1
    with pytest.raises(ValueError):
        Panel(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        Panel(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        Panel(np.zeros((0, 5)))


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
