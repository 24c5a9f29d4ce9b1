import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from panelcpt import (
    DgpConfig,
    Panel,
    adaptive_block_length,
    autocovariances,
    bartlett_lrv,
    lag_cov,
    simulate_panel,
)


def ar1_panel(rng, n, t, rho):
    eps = rng.standard_normal((n, t + 100))
    e = np.zeros((n, t + 100))
    acc = np.zeros(n)
    for s in range(t + 100):
        acc = rho * acc + eps[:, s]
        e[:, s] = acc
    return Panel(e[:, 100:])


# --- lag_cov ---------------------------------------------------------------

def test_lag_cov_hand_example():
    mats = lag_cov(Panel(np.array([[1.0, -1.0, 1.0, -1.0]])), l0=2)
    assert len(mats) == 2
    assert_allclose(mats[0], [[1.0]], rtol=0, atol=0)
    assert_allclose(mats[1], [[-0.75]], rtol=0, atol=0)


def test_lag_cov_lag0_equals_covariance_matrix():
    rng = np.random.default_rng(21)
    values = rng.standard_normal((4, 50)) + rng.standard_normal((4, 1))
    mats = lag_cov(Panel(values), l0=3)
    d = values - values.mean(axis=1, keepdims=True)
    assert_allclose(mats[0], np.cov(d, bias=True), rtol=1e-12)
    assert_allclose(mats[0], mats[0].T, rtol=0, atol=1e-9)


def test_lag_cov_iid_higher_lags_vanish():
    rng = np.random.default_rng(22)
    panel = Panel(rng.standard_normal((2, 10000)))
    mats = lag_cov(panel, l0=2)
    assert np.abs(mats[1]).max() < 0.05


def test_lag_cov_l0_one_returns_single_matrix():
    panel = Panel(np.random.default_rng(1).standard_normal((2, 12)))
    mats = lag_cov(panel, l0=1)
    assert len(mats) == 1


def test_lag_cov_rejects_bad_l0():
    panel = Panel(np.ones((1, 4)) * np.arange(4))
    with pytest.raises(ValueError):
        lag_cov(panel, l0=0)
    with pytest.raises(ValueError):
        lag_cov(panel, l0=5)


# --- autocovariances ----------------------------------------------------------

def _demeaned_stack(shape, seed):
    d = np.random.default_rng(seed).standard_normal(shape)
    return d - d.mean(axis=-1, keepdims=True)


@pytest.mark.parametrize("shape", [(1, 1, 4), (2, 3, 7), (3, 2, 64), (4, 3, 1000)])
def test_autocovariances_match_per_row_dot(shape):
    d = _demeaned_stack(shape, sum(shape))
    t = shape[-1]
    got = autocovariances(d, t - 1)
    assert got.shape == shape[:-1] + (t,)
    for r, i in np.ndindex(shape[:-1]):
        x = d[r, i]
        want = np.array([np.dot(x[: t - k], x[k:]) / t for k in range(t)])
        # rounding error is relative to the sum of absolute products, which
        # bounds it even where a high lag cancels to near zero
        mag = np.array([np.dot(abs(x[: t - k]), abs(x[k:])) / t for k in range(t)])
        assert np.all(abs(got[r, i] - want) <= 1e-13 * mag)
    for max_lag in sorted({0, 1, math.ceil(math.sqrt(t)) - 1, t // 2, t - 1}):
        assert_array_equal(autocovariances(d, max_lag), got[..., : max_lag + 1])


@pytest.mark.parametrize("shape", [(2, 3, 7), (3, 2, 64), (4, 3, 1000)])
def test_autocovariances_do_not_depend_on_stack_position(shape):
    # the bootstrap evaluates a stack, the observed statistic a stack of one;
    # run_test's L = T replicate equals the observed value bit for bit only
    # because a row's result does not depend on the rows around it
    d = _demeaned_stack(shape, 7 * sum(shape))
    t = shape[-1]
    stacked = autocovariances(d, t - 1)
    for r, i in np.ndindex(shape[:-1]):
        alone = autocovariances(d[r, i].copy()[None, None], t - 1)
        assert_array_equal(alone[0, 0], stacked[r, i])


def test_autocovariances_reject_bad_max_lag():
    d = _demeaned_stack((2, 5), 3)
    with pytest.raises(ValueError):
        autocovariances(d, 5)
    with pytest.raises(ValueError):
        autocovariances(d, -1)
    with pytest.raises(TypeError):
        autocovariances(d, 2.0)


# --- adaptive selection ------------------------------------------------------

def test_adaptive_hand_fixture():
    sel = adaptive_block_length(Panel(np.array([[1.0, 1.0, -1.0, -1.0]])))
    assert sel.l0 == 2
    assert sel.cp0[0, 0] == 1.25
    assert sel.cp1[0, 0] == 0.25
    # raw = (3*4*0.25 / (1.25 + 1.25^2)) ** (1/5)
    assert_allclose(sel.raw, (3.0 / 2.8125) ** 0.2, rtol=1e-12)
    assert sel.l_adpt == 2
    assert not sel.fallback


def test_adaptive_zero_cp1_clamps_to_one():
    # mean-zero panel whose lag-1 products cancel exactly: V_2 = 0, CP1 = 0
    sel = adaptive_block_length(Panel(np.array([[1.0, 0.0, -1.0, 0.0]])))
    assert sel.cp1[0, 0] == 0.0
    assert sel.raw == 0.0
    assert sel.l_adpt == 1


def test_adaptive_pilot_is_ceil_sqrt():
    rng = np.random.default_rng(24)
    for t in (4, 10, 50, 101):
        sel = adaptive_block_length(Panel(rng.standard_normal((2, t))))
        assert sel.l0 == math.ceil(math.sqrt(t))


def test_adaptive_clamp_invariant():
    rng = np.random.default_rng(25)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(4, 120))
        rho = float(rng.uniform(-0.9, 0.9))
        sel = adaptive_block_length(ar1_panel(rng, n, t, rho))
        assert 1 <= sel.l_adpt <= t // 2


def test_adaptive_requires_t_at_least_4():
    with pytest.raises(ValueError):
        adaptive_block_length(Panel(np.array([[1.0, 2.0, 3.0]])))


def test_adaptive_deterministic():
    rng = np.random.default_rng(26)
    panel = Panel(rng.standard_normal((4, 60)))
    a = adaptive_block_length(panel)
    b = adaptive_block_length(panel)
    assert a.l_adpt == b.l_adpt and a.raw == b.raw
    assert_array_equal(a.cp0, b.cp0)
    assert_array_equal(a.cp1, b.cp1)


def test_adaptive_fallback_on_constant_panel():
    sel = adaptive_block_length(Panel(np.full((2, 27), 3.0)))
    assert sel.fallback
    assert sel.l_adpt == math.ceil(27 ** (1 / 3))


def test_adaptive_scaling_consistency():
    # scaling the panel by c scales CP matrices by c^2; l_adpt then follows
    # the formula applied to the scaled matrices
    rng = np.random.default_rng(27)
    panel = Panel(rng.standard_normal((3, 40)))
    base = adaptive_block_length(panel)
    for c in (2.0, 0.3, 10.0):
        sel = adaptive_block_length(Panel(panel.values * c))
        assert_allclose(sel.cp0, base.cp0 * c * c, rtol=1e-10)
        assert_allclose(sel.cp1, base.cp1 * c * c, rtol=1e-10)
        num = 3.0 * 40 * abs(sel.cp1.sum())
        den = sel.cp0.sum() + (np.diag(sel.cp0) ** 2).sum()
        want = max(1, min(math.ceil((num / den) ** 0.2), 20))
        assert sel.l_adpt == want


def test_curvature_term_monotone_in_persistence():
    # the numerator mass |sum CP1| grows with serial dependence; the selected
    # length itself need not, because the denominator carries squared CP0
    # diagonals that grow even faster for persistent data
    rng = np.random.default_rng(28)
    reps = 200
    mass = {0.0: [], 0.5: []}
    for rho in mass:
        for _ in range(reps):
            panel = ar1_panel(rng, 1, 1000, rho)
            mass[rho].append(abs(adaptive_block_length(panel).cp1.sum()))
    assert np.median(mass[0.5]) > np.median(mass[0.0])


def _formula_on_matrices(sel, t):
    """The published rule evaluated directly on the N x N CP0 and CP1."""
    num = 3.0 * t * abs(sel.cp1.sum())
    den = sel.cp0.sum() + (np.diag(sel.cp0) ** 2).sum()
    if den <= 0.0:
        return None, math.ceil(t ** (1 / 3))
    raw = (num / den) ** 0.2
    return raw, max(1, min(math.ceil(raw), t // 2))


def test_adaptive_matches_formula_on_lag_cov_matrices():
    flips, worst = [], 0.0
    for seed in range(300):
        rng = np.random.default_rng([30, seed])
        n, t = int(rng.integers(1, 121)), int(rng.integers(4, 401))
        rho = float(rng.uniform(-0.9, 0.95))
        values = simulate_panel(DgpConfig(n=n, t=t, rho=rho, seed=seed)).values
        if seed % 3 == 0:
            values = values * 10.0 ** rng.uniform(-3.0, 3.0)
        sel = adaptive_block_length(Panel(values))
        raw, want = _formula_on_matrices(sel, t)
        if sel.l_adpt != want or sel.fallback != (raw is None):
            flips.append(seed)
        elif raw is not None and raw > 0.0:
            worst = max(worst, abs(sel.raw - raw) / raw)
    assert not flips, f"block length differs from the matrix formula at seeds {flips}"
    assert worst < 1e-12


def test_adaptive_builds_no_n_by_n_array():
    n = 2000
    panel = Panel(np.random.default_rng(31).standard_normal((n, 60)))
    tracemalloc.start()
    try:
        sel = adaptive_block_length(panel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "_cp" not in vars(sel)
    assert peak < n * n * 8


# --- per-series selection -----------------------------------------------------

def test_per_series_matches_single_series_runs():
    rng = np.random.default_rng(29)
    panel = Panel(rng.standard_normal((6, 55)))
    lengths = bartlett_lrv(panel).bandwidth_used
    for i in range(panel.n_series):
        single = adaptive_block_length(Panel(panel.values[i : i + 1]))
        assert lengths[i] == single.l_adpt
