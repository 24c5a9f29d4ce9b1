import numpy as np
import pytest
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
