import warnings

import numpy as np
import pytest

from panelcpt import (
    DegenerateSeriesError,
    DgpConfig,
    HStatistic,
    InvalidBlockLengthError,
    Panel,
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


def test_single_block_degeneracy():
    panel = noise_panel(1, 4, 24)
    for b in (1, 19, 100):
        result = run_test(panel, TestConfig(block_rule=24, b=b, seed=9))
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
    assert d["b"] == 99 and d["statistic"] == "J"
    assert d["alpha_effective"] == effective_level(0.05, 99)
    assert d["block_selection_fallback"] is False
    assert res.block_length_used >= 1


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
