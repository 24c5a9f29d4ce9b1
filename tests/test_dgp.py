import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose, assert_array_equal

from panelcpt import DgpConfig, draw_deltas, resolve_break_time, simulate_panel
from panelcpt._random import (
    generator,
    normal_quantile,
    standard_normal,
    student_t5_standardized,
    uniform_open,
)
from panelcpt.dgp import _inject_break


# --- sampling primitives ------------------------------------------------------

def test_normal_quantile_against_scipy():
    u = np.concatenate([
        np.array([1e-12, 1e-6, 0.025, 0.2, 0.42501, 0.5, 0.57499, 0.8, 0.975,
                  1 - 1e-6, 1 - 1e-12]),
        np.random.default_rng(0).uniform(1e-9, 1 - 1e-9, size=2000),
    ])
    assert_allclose(normal_quantile(u), scipy.stats.norm.ppf(u), rtol=1e-12,
                    atol=1e-12)


def test_normal_quantile_rejects_boundary():
    with pytest.raises(ValueError):
        normal_quantile(np.array([0.0]))
    with pytest.raises(ValueError):
        normal_quantile(np.array([1.0]))


def test_uniform_open_is_strictly_inside():
    u = uniform_open(generator(5), 100000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_standard_normal_moments():
    z = standard_normal(generator(6), 10**6)
    assert abs(z.mean()) < 0.005
    assert abs(z.var() - 1.0) < 0.005


def test_t5_standardized_unit_variance():
    draws = student_t5_standardized(generator(7), 10**6)
    assert abs(draws.var() - 1.0) < 0.01
    assert abs(draws.mean()) < 0.005


# --- break sizes ----------------------------------------------------------------

def test_cancelling_deltas():
    deltas = draw_deltas("cancelling", 10**6, generator(8))
    assert deltas.min() >= -0.5 and deltas.max() <= 0.5
    assert abs(deltas.mean()) < 0.002


def test_noncancelling_deltas():
    deltas = draw_deltas("noncancelling", 10**6, generator(9))
    assert deltas.min() >= 0.1 and deltas.max() <= 0.5
    assert abs(deltas.mean() - 0.3) < 0.002


def test_draw_deltas_rejects_none():
    with pytest.raises(ValueError):
        draw_deltas("none", 5, generator(0))


# --- config validation ------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        DgpConfig(n=0, t=10)
    with pytest.raises(ValueError):
        DgpConfig(n=1, t=1)
    with pytest.raises(ValueError):
        DgpConfig(n=1, t=10, rho=1.0)
    with pytest.raises(ValueError):
        DgpConfig(n=1, t=10, rho=-1.0)
    with pytest.raises(ValueError):
        DgpConfig(n=1, t=10, error_law="cauchy")
    with pytest.raises(ValueError):
        DgpConfig(n=1, t=10, break_spec="jump")
    with pytest.raises(ValueError):
        DgpConfig(n=1, t=10, break_spec="cancelling", t0_fraction=0.01)
    with pytest.raises(ValueError):
        simulate_panel(DgpConfig(n=1, t=10))  # seed unset
    with pytest.raises(TypeError):
        DgpConfig(n=1, t=10, seed=1.7)
    with pytest.raises(ValueError):
        DgpConfig(n=1, t=10, seed=-1)


def test_resolve_break_time_floors():
    assert resolve_break_time(0.5, 101) == 50
    assert resolve_break_time(0.3, 50) == 15
    assert resolve_break_time(0.5, 100) == 50


# --- simulate_panel -----------------------------------------------------------------

def test_same_seed_same_panel():
    cfg = DgpConfig(n=4, t=60, rho=0.4, beta=1.0, error_law="t5",
                    break_spec="noncancelling", seed=11)
    assert_array_equal(simulate_panel(cfg).values, simulate_panel(cfg).values)
    other = DgpConfig(n=4, t=60, rho=0.4, beta=1.0, error_law="t5",
                      break_spec="noncancelling", seed=12)
    assert not np.array_equal(simulate_panel(cfg).values, simulate_panel(other).values)


def test_iid_moments():
    panel = simulate_panel(DgpConfig(n=100, t=10000, rho=0.0, beta=0.0, seed=21))
    pooled = panel.values.ravel()
    assert abs(pooled.mean()) < 0.05
    assert abs(pooled.var() - 1.0) < 0.05


def test_ar1_lag_one_autocorrelation():
    panel = simulate_panel(DgpConfig(n=8, t=10000, rho=0.5, beta=0.0, seed=22))
    for row in panel.values:
        d = row - row.mean()
        rho_hat = (d[:-1] * d[1:]).sum() / (d * d).sum()
        assert abs(rho_hat - 0.5) < 0.05


def test_common_factor_cross_correlation():
    panel = simulate_panel(DgpConfig(n=2, t=10000, rho=0.0, beta=2.0, seed=23))
    corr = np.corrcoef(panel.values)[0, 1]
    assert abs(corr - 0.8) < 0.05  # beta^2 / (1 + beta^2)


def test_t5_innovations_unit_variance_panel():
    panel = simulate_panel(DgpConfig(n=50, t=10000, rho=0.0, beta=0.0,
                                     error_law="t5", seed=24))
    assert abs(panel.values.var() - 1.0) < 0.05


def test_ar1_burn_in_reaches_stationarity_at_first_observation():
    panel = simulate_panel(DgpConfig(n=4000, t=2, rho=0.8, beta=0.0, seed=25))
    first = panel.values[:, 0]
    assert abs(first.var() - 1.0 / (1.0 - 0.64)) < 0.15


def test_inject_break_exact_segment_shift():
    values = np.zeros((3, 10))
    out = _inject_break(values, np.array([1.0, 2.0, -1.0]), t0=4)
    assert_array_equal(out[:, :4], np.zeros((3, 4)))
    assert_array_equal(out[0, 4:], np.ones(6))
    assert_array_equal(out[1, 4:], np.full(6, 2.0))
    assert_array_equal(out[2, 4:], np.full(6, -1.0))


def test_break_shifts_segment_means():
    diffs = []
    for r in range(200):
        cfg = DgpConfig(n=1, t=400, rho=0.0, beta=0.0,
                        break_spec="noncancelling", t0_fraction=0.5, seed=3000 + r)
        row = simulate_panel(cfg).values[0]
        diffs.append(row[200:].mean() - row[:200].mean())
    assert abs(np.mean(diffs) - 0.3) < 0.03


def test_no_break_when_spec_none():
    cfg = DgpConfig(n=2, t=2000, rho=0.0, beta=0.0, break_spec="none", seed=26)
    row = simulate_panel(cfg).values[0]
    assert abs(row[1000:].mean() - row[:1000].mean()) < 0.2


def test_per_series_rho_vector():
    cfg = DgpConfig(n=2, t=10000, rho=(0.0, 0.8), beta=0.0, seed=27)
    panel = simulate_panel(cfg)
    for row, target in zip(panel.values, (0.0, 0.8)):
        d = row - row.mean()
        rho_hat = (d[:-1] * d[1:]).sum() / (d * d).sum()
        assert abs(rho_hat - target) < 0.05


def test_per_series_coefficients_validated():
    with pytest.raises(ValueError):
        DgpConfig(n=3, t=10, rho=(0.1, 0.2))  # wrong length
    with pytest.raises(ValueError):
        DgpConfig(n=2, t=10, rho=(0.1, 1.0))  # unit root entry


def test_scalar_rho_matches_equal_vector():
    scalar = simulate_panel(DgpConfig(n=3, t=50, rho=0.4, beta=0.7, seed=28))
    vector = simulate_panel(DgpConfig(n=3, t=50, rho=(0.4, 0.4, 0.4),
                                      beta=(0.7, 0.7, 0.7), seed=28))
    assert_array_equal(scalar.values, vector.values)
