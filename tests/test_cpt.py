import warnings

import numpy as np
import pytest

from panelcpt import (
    BootstrapScheme,
    DegenerateSeriesError,
    DgpConfig,
    HStatistic,
    InvalidBlockLengthError,
    JStatistic,
    Panel,
    RngSpec,
    Scenario,
    TestConfig,
    default_fixed_block_length,
    effective_level,
    j_statistic,
    run_test,
    simulate_panel,
)


def noise_panel(seed, n, t):
    return Panel(np.random.default_rng(seed).standard_normal((n, t)))


def test_config_validation():
    with pytest.raises(ValueError):
        TestConfig(statistic="K")
    with pytest.raises(ValueError):
        TestConfig(scheme="moving")
    with pytest.raises(ValueError):
        TestConfig(alpha=0.0)
    with pytest.raises(ValueError):
        TestConfig(alpha=1.0)
    with pytest.raises(ValueError):
        TestConfig(b=0)
    with pytest.raises(ValueError):
        TestConfig(block_rule="auto")
    with pytest.raises(ValueError):
        run_test(noise_panel(0, 2, 10), TestConfig())  # seed unset
    with pytest.raises(TypeError):
        TestConfig(seed=1.7)  # was run as seed 1
    with pytest.raises(ValueError):
        TestConfig(seed=-1)
    for alpha in ("0.05", True):  # "0.05" was stored and failed in run_test
        with pytest.raises(TypeError):
            TestConfig(alpha=alpha, seed=1)
    cfg = TestConfig(block_rule=np.int32(4), b=np.int64(20), alpha=np.float32(0.25),
                     seed=np.uint64(7))
    assert (cfg.block_rule, cfg.b, cfg.alpha, cfg.seed) == (4, 20, 0.25, 7)
    assert {type(v) for v in (cfg.block_rule, cfg.b, cfg.seed)} == {int}
    assert type(cfg.alpha) is float


_SCENARIO_PARTS = {"label": "x", "dgp": DgpConfig(n=2, t=10), "test": TestConfig()}


@pytest.mark.parametrize("make", [
    lambda: TestConfig(block_rule=4.7),
    lambda: TestConfig(b=20.9),
    lambda: TestConfig(b=True),
    lambda: TestConfig(seed=False),
    lambda: DgpConfig(n=2.5, t=10),
    lambda: DgpConfig(n=2, t=10.9),
    lambda: DgpConfig(n=True, t=10),
    lambda: Scenario(**_SCENARIO_PARTS, s=3.7),
    lambda: Scenario(**_SCENARIO_PARTS, s=True),
    lambda: BootstrapScheme("circular", 2.9),
    lambda: BootstrapScheme("circular", True),
    lambda: RngSpec(np.float64(3.0)),
], ids=["block_rule", "b", "b-bool", "seed-bool", "n", "t", "n-bool", "s", "s-bool",
        "block_length", "block_length-bool", "rng-seed"])
def test_non_integer_sizes_raise_type_error(make):
    # each was truncated by int() or accepted as 0/1
    with pytest.raises(TypeError):
        make()


def test_workers_below_one_is_an_error():
    with pytest.raises(ValueError, match="workers"):
        run_test(noise_panel(0, 2, 10), TestConfig(block_rule=2, b=9, seed=1), workers=0)


@pytest.mark.parametrize("value, n", [(1e307, 1), (-1e307, 3)])
def test_constant_panel_near_float_max_takes_constant_path(value, n):
    # the row sum overflowed in demean: a RuntimeWarning, then "data scale inf"
    cfg = TestConfig(block_rule=2, b=9, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_test(Panel(np.full((n, 40), value)), cfg)
    assert got == run_test(Panel(np.ones((n, 40))), cfg)


def test_single_block_degeneracy():
    # for J with N > T the observed value is taken on the same T x T factor
    # the bootstrap resamples, so the L = T replicate still equals it exactly
    for statistic, n in [("J", 4), ("J", 30), ("H", 30)]:
        panel = noise_panel(1, n, 24)
        for b in (1, 19, 100):
            result = run_test(panel, TestConfig(statistic=statistic, block_rule=24, b=b, seed=9))
            assert result.p_value == 1.0
            assert result.reject is False
            assert result.critical_value == result.statistic_value


def test_b_equal_one_p_value_values():
    panel = noise_panel(2, 3, 16)
    seen = set()
    for seed in range(12):
        result = run_test(panel, TestConfig(block_rule=4, b=1, seed=seed))
        seen.add(result.p_value)
    assert seen <= {0.5, 1.0}


def test_deterministic_results():
    panel = noise_panel(3, 5, 40)
    cfg = TestConfig(statistic="J", scheme="stationary", block_rule="adaptive",
                     b=150, alpha=0.1, seed=77)
    assert run_test(panel, cfg) == run_test(panel, cfg)


def test_reject_iff_exceeds_critical_and_dual_p_rule():
    rng = np.random.default_rng(4)
    for trial in range(30):
        n, t = int(rng.integers(2, 6)), int(rng.integers(12, 40))
        panel = Panel(rng.standard_normal((n, t)))
        b = int(rng.integers(19, 200))
        alpha = float(rng.uniform(0.02, 0.2))
        cfg = TestConfig(block_rule=int(rng.integers(1, t // 2 + 1)), b=b,
                         alpha=alpha, seed=trial)
        res = run_test(panel, cfg)
        assert res.reject == (res.statistic_value > res.critical_value)
        assert res.reject == (res.p_value <= effective_level(alpha, b))
    # (1 - alpha) * B rounds to 0: the critical value is the smallest draw
    res = run_test(noise_panel(4, 3, 30), TestConfig(block_rule=3, b=19, alpha=1 - 1e-12, seed=1))
    assert res.diagnostics["alpha_effective"] == 19 / 20
    assert res.reject == (res.statistic_value > res.critical_value)
    assert res.reject == (res.p_value <= res.diagnostics["alpha_effective"])


def test_scale_invariance_exact_power_of_two():
    panel = noise_panel(5, 4, 36)
    cfg = TestConfig(block_rule=4, b=120, seed=13)
    base = run_test(panel, cfg)
    for c in (2.0, 0.5, 2.0**230, 2.0**-230):
        scaled = run_test(Panel(panel.values * c), cfg)
        assert scaled.reject == base.reject
        assert scaled.p_value == base.p_value
        assert scaled.statistic_value == base.statistic_value * c * c
    # non-dyadic factors keep the decision: observed and draws scale together
    for c in (3.0, 0.7):
        scaled = run_test(Panel(panel.values * c), cfg)
        assert scaled.reject == base.reject
        assert scaled.p_value == base.p_value


def test_scale_invariance_h_decision():
    # the H statistic value itself is only scale-stable while the per-series
    # bandwidth selection does not cross an integer boundary (the selector's
    # denominator mixes c^2 and c^4 terms); the decision and p-value are
    # stable because observed and draws move together
    panel = noise_panel(6, 4, 36)
    cfg = TestConfig(statistic="H", block_rule=4, b=120, seed=13)
    base = run_test(panel, cfg)
    for c in (2.0, 3.0, 0.25):
        scaled = run_test(Panel(panel.values * c), cfg)
        assert scaled.reject == base.reject
        assert abs(scaled.p_value - base.p_value) <= 6 / (cfg.b + 1)


@pytest.mark.parametrize("statistic", ["J", "H"])
@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_badly_scaled_data_is_an_error(statistic, scale):
    # J underflowed to 0 (p = 1) or overflowed to non-finite draws; H misjudged
    # a non-constant series as degenerate
    panel = Panel(np.random.default_rng(0).standard_normal((3, 40)) * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="rescale"):
            run_test(panel, TestConfig(statistic=statistic, b=19, seed=1))


def test_detects_large_level_shift():
    rng = np.random.default_rng(7)
    values = rng.standard_normal((1, 50))
    values[0, 25:] += 10.0
    result = run_test(Panel(values), TestConfig(block_rule="adaptive", b=199, seed=3))
    assert result.reject is True
    assert abs(result.changepoint_estimate - 25) <= 3


def test_block_rule_validation():
    panel = noise_panel(8, 2, 20)
    with pytest.raises(InvalidBlockLengthError):
        run_test(panel, TestConfig(block_rule=0, b=9, seed=1))
    with pytest.raises(InvalidBlockLengthError):
        run_test(panel, TestConfig(block_rule=21, b=9, seed=1))


def test_adaptive_rule_needs_t_at_least_four():
    panel = noise_panel(9, 3, 3)
    with pytest.raises(ValueError):
        run_test(panel, TestConfig(block_rule="adaptive", b=9, seed=1))


def test_h_auto_bandwidth_on_short_resamples_is_an_error():
    # every non-overlapping resample has T' = 3, too short for "auto"
    # bandwidths, although the observed panel (T = 4) is long enough
    panel = Panel(np.random.default_rng(0).standard_normal((3, 4)))
    cfg = TestConfig(statistic="H", scheme="nonoverlapping", block_rule=3, b=99, seed=1)
    with pytest.raises(ValueError, match="T >= 4, got T=3"):
        run_test(panel, cfg)


def test_h_on_constant_series_is_degenerate():
    values = np.vstack([np.random.default_rng(0).standard_normal(20),
                        np.full(20, 1.0)])
    with pytest.raises(DegenerateSeriesError):
        run_test(Panel(values), TestConfig(statistic="H", block_rule=4, b=9, seed=1))


def test_workers_do_not_change_result():
    panel = noise_panel(10, 4, 48)
    cfg = TestConfig(block_rule="adaptive", b=256, seed=21)
    assert run_test(panel, cfg, workers=1) == run_test(panel, cfg, workers=8)


def test_diagnostics_contents():
    panel = noise_panel(11, 3, 32)
    res = run_test(panel, TestConfig(block_rule="adaptive", b=99, seed=5))
    d = res.diagnostics
    # what the test found, not the configuration the caller already holds
    assert set(d) == {"alpha_effective", "block_selection_fallback", "block_selection_raw",
                      "l0", "t_prime", "bootstrap_rows"}
    assert d["alpha_effective"] == effective_level(0.05, 99)
    assert d["block_selection_fallback"] is False
    assert res.block_length_used >= 1
    assert d["l0"] == 6  # ceil(sqrt(32))
    assert d["t_prime"] == 32 - 32 % res.block_length_used
    assert d["bootstrap_rows"] == 3
    wide = noise_panel(11, 40, 30)
    for statistic, scheme, rows in [("J", "circular", 30), ("H", "nonoverlapping", 40)]:
        d = run_test(wide, TestConfig(statistic=statistic, scheme=scheme, block_rule=4,
                                      b=19, seed=5)).diagnostics
        assert d["l0"] is None
        assert d["t_prime"] == (30 if scheme == "circular" else 28)
        assert d["bootstrap_rows"] == rows


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("block_rule", ["adaptive", 3])
@pytest.mark.parametrize("scheme", ["nonoverlapping", "circular", "stationary"])
@pytest.mark.parametrize("shape", [(61, 60), (100, 50), (200, 100), (2000, 60)],
                         ids=["61x60", "100x50", "200x100", "2000x60"])
def test_j_on_the_factor_decides_as_on_the_panel(shape, scheme, block_rule, workers,
                                                 monkeypatch):
    # the same test with J's bootstrap basis switched back to the panel itself
    n, t = shape
    panel = simulate_panel(DgpConfig(n=n, t=t, rho=0.3, beta=0.5, error_law="t5",
                                     break_spec="cancelling", seed=n + t))
    cfg = TestConfig(statistic="J", scheme=scheme, block_rule=block_rule, b=99, seed=17)
    got = run_test(panel, cfg, workers=workers)
    monkeypatch.setattr(JStatistic, "basis", lambda self, panel: panel)
    want = run_test(panel, cfg, workers=workers)
    assert got.diagnostics["bootstrap_rows"] == t and want.diagnostics["bootstrap_rows"] == n
    assert (got.p_value, got.reject, got.changepoint_estimate, got.block_length_used) == \
        (want.p_value, want.reject, want.changepoint_estimate, want.block_length_used)
    assert abs(got.critical_value - want.critical_value) <= 1e-12 * want.critical_value
    assert abs(got.statistic_value - want.statistic_value) <= 1e-12 * want.statistic_value


# --- change-point estimation -------------------------------------------------

def test_estimate_changepoint_hand_example():
    res = run_test(Panel(np.array([[0.0, 0.0, 0.0, 1.0]])),
                   TestConfig(block_rule=1, b=9, seed=1))
    assert res.changepoint_estimate == 3


def test_estimate_changepoint_time_reversal():
    rng = np.random.default_rng(12)
    values = rng.standard_normal((2, 40))
    values[:, 12:] += 2.0
    t = 40
    est = j_statistic(Panel(values)).argmax_t
    est_rev = j_statistic(Panel(values[:, ::-1].copy())).argmax_t
    assert abs(est_rev - (t - est)) <= 1  # tie-breaking slack


def test_estimate_changepoint_range_on_noise():
    panel = noise_panel(13, 3, 25)
    for stat in (j_statistic, HStatistic()):
        est = stat(panel).argmax_t
        assert 1 <= est <= 24


# --- defaults -----------------------------------------------------------------

def test_default_fixed_block_length():
    assert default_fixed_block_length(50) == 2
    assert default_fixed_block_length(100) == 2
    assert default_fixed_block_length(1000) == 3
    assert default_fixed_block_length(2) == 1


def test_iid_size_not_materially_above_nominal():
    # sanity envelope on a small run: iid panels should not reject much more
    # often than the nominal 5% level
    rejects = 0
    s = 120
    for r in range(s):
        cfg = DgpConfig(n=50, t=50, rho=0.0, beta=0.0, seed=1000 + r)
        panel = simulate_panel(cfg)
        res = run_test(panel, TestConfig(block_rule="adaptive", b=199, seed=2000 + r))
        rejects += int(res.reject)
    assert rejects / s <= 0.09
