import tracemalloc

import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose, assert_array_equal

from panelcpt import DgpConfig, draw_deltas, resolve_break_time, simulate_panel
from panelcpt._random import (
    _BLOCK,
    _A,
    _B,
    _C,
    _D,
    _E,
    _F,
    _quantile_into,
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


def _masked_quantile(p):
    """AS 241 with one boolean-mask pass per branch over the whole array: the
    reference the blocked `normal_quantile` must match bit for bit."""
    def polyval(coeffs, x):
        out = np.full_like(x, coeffs[-1])
        for c in reversed(coeffs[:-1]):
            out = out * x + c
        return out

    p = np.asarray(p, dtype=np.float64)
    q = p - 0.5
    out = np.empty_like(p)
    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] ** 2
        out[central] = q[central] * polyval(_A, r) / polyval(_B, r)
    tail = ~central
    if np.any(tail):
        qt = q[tail]
        r = np.where(qt < 0.0, p[tail], 1.0 - p[tail])
        r = np.sqrt(-np.log(r))
        near = r <= 5.0
        val = np.empty_like(r)
        if np.any(near):
            rn = r[near] - 1.6
            val[near] = polyval(_C, rn) / polyval(_D, rn)
        if np.any(~near):
            rf = r[~near] - 5.0
            val[~near] = polyval(_E, rf) / polyval(_F, rf)
        out[tail] = np.where(qt < 0.0, -val, val)
    return out


def _around(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)]


# both sides of the |q| = 0.425 switch, of the r = 5 switch in either tail
# (p = e**-25), and the extreme uniforms 2**-54 and 1 - 2**-53 (the largest
# double below 1; 1 - 2**-54 rounds to 1.0)
_EDGES = np.array([*_around(0.075), *_around(0.925), *_around(np.exp(-25.0)),
                   *_around(1.0 - np.exp(-25.0)), 2.0**-54, 1.0 - 2.0**-53, 0.5])


def test_normal_quantile_matches_masked_reference_bit_for_bit():
    p = np.concatenate([_EDGES, uniform_open(generator(41), 10**6)])
    assert normal_quantile(p).tobytes() == _masked_quantile(p).tobytes()
    # standard_normal overwrites its uniforms with their quantiles
    want = _masked_quantile(uniform_open(generator(41), 10**6)).tobytes()
    assert standard_normal(generator(41), 10**6).tobytes() == want


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_normal_quantile_blocks_do_not_change_bits(size, ndim):
    shape = {1: (size,), 2: (3, size), 3: (2, size, 2)}[ndim]
    p = uniform_open(generator(42, size, ndim), shape)
    flat = p.reshape(-1)
    k = min(len(_EDGES), flat.size // 2)
    flat[:k] = _EDGES[:k]  # edges at both ends, so in the first and last block
    flat[flat.size - k:] = _EDGES[:k]
    want = _masked_quantile(p).tobytes()
    got = normal_quantile(p)
    assert got.shape == shape
    assert got.tobytes() == want
    _quantile_into(p, p)
    assert p.tobytes() == want


def test_uniform_open_is_strictly_inside():
    u = uniform_open(generator(5), 100000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_uniform_open_caps_the_largest_draw_below_one():
    # k + 0.5 rounds to an even neighbour for k >= 2**52; for the largest k
    # that neighbour is 2**53, which would make the draw exactly 1.0
    class Stub:
        def integers(self, low, high, size, dtype):
            return np.array([0, 2**52, 2**53 - 1], dtype=dtype)

    u = uniform_open(Stub(), 3)
    assert np.all((u > 0.0) & (u < 1.0))
    assert u[-1] == np.nextafter(1.0, 0.0)
    assert np.all(np.isfinite(standard_normal(Stub(), 3)))


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


@pytest.mark.parametrize("fraction, t, t0", [
    (0.29, 100, 29), (0.58, 50, 29), (0.57, 100, 57),  # products just below an integer
    (0.3, 50, 15), (0.3, 100, 30), (0.3, 1000, 300),
    (0.5, 50, 25), (0.5, 100, 50), (0.5, 1000, 500),
])
def test_resolve_break_time_guards_rounding(fraction, t, t0):
    assert resolve_break_time(fraction, t) == t0


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


def test_per_series_coefficients_validated():
    # rho and beta are shared by all series; a sequence is rejected, not broadcast
    with pytest.raises(TypeError):
        DgpConfig(n=2, t=10, rho=(0.1, 0.2))
    with pytest.raises(TypeError):
        DgpConfig(n=2, t=10, beta=(0.1, 0.2))


def test_simulate_peak_memory():
    # a 2000 x 60 t5 panel draws (2000, 160, 6) normals; the uniforms become
    # their quantiles in place, block by block, so the peak stays near the
    # two arrays of that size that uniform_open holds
    cfg = DgpConfig(n=2000, t=60, rho=0.3, beta=0.5, error_law="t5", seed=43)
    draws = 2000 * (60 + 100) * 6 * 8
    tracemalloc.start()
    try:
        simulate_panel(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * draws
