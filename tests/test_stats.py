import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from panelcpt import (
    DegenerateSeriesError,
    HStatistic,
    JStatistic,
    Panel,
    adaptive_block_length,
    bartlett_lrv,
    h_statistic,
    j_statistic,
)
from panelcpt.stats import _j_objective


# --- independent slow reference implementations -------------------------

def naive_cusum(values):
    n, t = values.shape
    means = [sum(values[i]) / t for i in range(n)]
    s = np.zeros((n, t - 1))
    for i in range(n):
        for tt in range(1, t):
            s[i, tt - 1] = sum(values[i, r] - means[i] for r in range(tt))
    return s


def naive_j(values):
    n, t = values.shape
    s = naive_cusum(values)
    best, arg = -np.inf, None
    for tt in range(1, t):
        total = sum(s[i, tt - 1] ** 2 for i in range(n)) / t
        if total > best:
            best, arg = total, tt
    return best, arg


def naive_bartlett(values, length):
    n, t = values.shape
    out = np.zeros(n)
    for i in range(n):
        mean = sum(values[i]) / t
        gamma = [
            sum((values[i, r] - mean) * (values[i, r + k] - mean) for r in range(t - k)) / t
            for k in range(length)
        ]
        out[i] = gamma[0] + 2 * sum((1 - k / length) * gamma[k] for k in range(1, length))
    return out


def naive_h(values, sigma2):
    n, t = values.shape
    s = naive_cusum(values)
    best, arg = -np.inf, None
    for tt in range(1, t):
        total = sum(
            s[i, tt - 1] ** 2 / (sigma2[i] * t) - tt * (t - tt) / t**2 for i in range(n)
        ) / np.sqrt(n)
        if total > best:
            best, arg = total, tt
    return best, arg


# --- cusum (through the J objective, sum_i s[i, t]^2 / T) ----------------

def test_cusum_hand_example():
    obj = _j_objective(np.array([[[0.0, 0.0, 0.0, 1.0]]]))
    assert_allclose(obj[0], np.array([0.25, 0.5, 0.75]) ** 2 / 4, rtol=0, atol=0)


def test_cusum_constant_series_is_zero():
    obj = _j_objective(np.full((1, 2, 6), 3.5))
    assert_allclose(obj, np.zeros((1, 5)), rtol=0, atol=0)


def test_cusum_matches_naive():
    rng = np.random.default_rng(42)
    values = rng.standard_normal((5, 30))
    obj = _j_objective(values[None])[0]
    assert_allclose(obj, (naive_cusum(values) ** 2).sum(axis=0) / 30, rtol=1e-10)


# --- j statistic ---------------------------------------------------------

def test_j_hand_example():
    result = j_statistic(Panel(np.array([[0.0, 0.0, 0.0, 1.0]])))
    assert result.value == 0.140625
    assert result.argmax_t == 3


def test_j_zero_on_constant_panel():
    result = j_statistic(Panel(np.full((3, 8), 2.0)))
    assert result.value == 0.0


def test_j_invariant_under_series_permutation():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((6, 25))
    a = j_statistic(Panel(values))
    b = j_statistic(Panel(values[::-1]))
    assert a.value == b.value
    assert a.argmax_t == b.argmax_t


def test_j_invariant_under_per_series_constant_shift():
    rng = np.random.default_rng(6)
    values = rng.standard_normal((4, 30))
    shifted = values.copy()
    shifted[2] += 17.0
    assert_allclose(
        j_statistic(Panel(shifted)).value, j_statistic(Panel(values)).value, rtol=1e-12
    )


def test_j_matches_naive_on_random_panels():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 11))
        t = int(rng.integers(4, 101))
        values = rng.standard_normal((n, t))
        got = j_statistic(Panel(values))
        want_value, want_arg = naive_j(values)
        assert_allclose(got.value, want_value, rtol=1e-10)
        assert got.argmax_t == want_arg


def test_argmax_tie_breaks_to_smallest_t():
    # partial sums are (1, 3, 3, 1): the maximum is attained at t=2 and t=3
    result = j_statistic(Panel(np.array([[1.0, 2.0, 0.0, -2.0, -1.0]])))
    assert result.argmax_t == 2


# --- bartlett lrv --------------------------------------------------------

def test_bartlett_bandwidth_one_is_sample_variance():
    values = np.array([[0.0, 0.0, 0.0, 1.0]])
    lrv = bartlett_lrv(Panel(values), bandwidth=1)
    assert_allclose(lrv.sigma2, [0.1875], rtol=0, atol=0)


def test_bartlett_hand_example():
    lrv = bartlett_lrv(Panel(np.array([[1.0, -1.0, 1.0, -1.0]])), bandwidth=2)
    assert_allclose(lrv.sigma2, [0.25], rtol=0, atol=1e-15)


def test_bartlett_constant_series_raises():
    panel = Panel(np.vstack([np.random.default_rng(0).standard_normal(10),
                             np.full(10, 4.0)]))
    with pytest.raises(DegenerateSeriesError) as err:
        bartlett_lrv(panel, bandwidth=2)
    assert err.value.series == 1


def test_bartlett_matches_naive():
    rng = np.random.default_rng(8)
    values = rng.standard_normal((4, 60))
    for length in (1, 2, 5, 12):
        got = bartlett_lrv(Panel(values), bandwidth=length)
        assert_allclose(got.sigma2, naive_bartlett(values, length), rtol=1e-10)


def test_bartlett_auto_matches_per_series_selection():
    rng = np.random.default_rng(9)
    panel = Panel(rng.standard_normal((5, 80)))
    lrv = bartlett_lrv(panel, bandwidth="auto")
    lengths = [adaptive_block_length(Panel(panel.values[i : i + 1])).l_adpt for i in range(5)]
    np.testing.assert_array_equal(lrv.bandwidth_used, lengths)
    expected = [
        naive_bartlett(panel.values[i : i + 1], int(lengths[i]))[0] for i in range(5)
    ]
    assert_allclose(lrv.sigma2, expected, rtol=1e-10)


def test_bartlett_rejects_bad_bandwidth():
    panel = Panel(np.random.default_rng(1).standard_normal((2, 10)))
    for bad in (0, 10, "fixed"):
        with pytest.raises(ValueError, match="bandwidth"):
            bartlett_lrv(panel, bandwidth=bad)
    # a float or bool is rejected, never truncated; one bandwidth serves all series
    for bad in (2.5, 2.0, np.float64(3.0), True, [2, 3]):
        with pytest.raises(TypeError, match="bandwidth"):
            bartlett_lrv(panel, bandwidth=bad)


def test_bartlett_bandwidths_of_any_integer_type():
    panel = Panel(np.random.default_rng(1).standard_normal((2, 30)))
    want = bartlett_lrv(panel, bandwidth=3)
    for bandwidth in (np.int64(3), np.int32(3), 3):
        got = bartlett_lrv(panel, bandwidth=bandwidth)
        np.testing.assert_array_equal(got.bandwidth_used, [3, 3])
        np.testing.assert_array_equal(got.sigma2, want.sigma2)


# --- h statistic ----------------------------------------------------------

def test_h_hand_example():
    panel = Panel(np.array([[0.0, 0.0, 0.0, 1.0]]))
    lrv = bartlett_lrv(panel, bandwidth=1)
    result = h_statistic(panel, lrv)
    assert_allclose(result.value, 0.5625, rtol=0, atol=1e-15)
    assert result.argmax_t == 3


def test_h_matches_naive_on_random_panels():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(1, 11))
        t = int(rng.integers(6, 101))
        values = rng.standard_normal((n, t))
        panel = Panel(values)
        lrv = bartlett_lrv(panel, bandwidth=3)
        got = h_statistic(panel, lrv)
        want_value, want_arg = naive_h(values, lrv.sigma2)
        assert_allclose(got.value, want_value, rtol=1e-10)
        assert got.argmax_t == want_arg


def test_h_summand_centered_under_null():
    # iid noise with known unit variance: the per-series term
    # s_t^2/(sigma^2 T) - t(T-t)/T^2 averages to ~0 at fixed t
    rng = np.random.default_rng(11)
    n, t, reps = 100, 100, 1000
    tt = t // 2
    total = 0.0
    for _ in range(reps):
        values = rng.standard_normal((n, t))
        d = values - values.mean(axis=1, keepdims=True)
        s = d[:, :tt].sum(axis=1)
        total += np.mean(s**2 / t - tt * (t - tt) / t**2)
    assert abs(total / reps) < 0.1


def test_h_scale_invariant_when_lrv_recomputed():
    rng = np.random.default_rng(12)
    values = rng.standard_normal((4, 50))
    base = h_statistic(Panel(values), bartlett_lrv(Panel(values), bandwidth=4))
    for c in (2.0, 3.0, 0.125):
        scaled = values * c
        got = h_statistic(Panel(scaled), bartlett_lrv(Panel(scaled), bandwidth=4))
        assert_allclose(got.value, base.value, rtol=1e-9)
        assert got.argmax_t == base.argmax_t


def test_h_affine_invariant_per_series():
    rng = np.random.default_rng(13)
    values = rng.standard_normal((5, 40))
    a = rng.uniform(0.5, 2.0, size=5) * np.sign(rng.standard_normal(5))
    b = rng.standard_normal(5)
    mapped = a[:, None] * values + b[:, None]
    base = h_statistic(Panel(values), bartlett_lrv(Panel(values), bandwidth=3))
    got = h_statistic(Panel(mapped), bartlett_lrv(Panel(mapped), bandwidth=3))
    assert_allclose(got.value, base.value, rtol=1e-9)


def test_h_doubling_sigma_changes_h():
    rng = np.random.default_rng(14)
    panel = Panel(rng.standard_normal((4, 30)))
    lrv = bartlett_lrv(panel, bandwidth=2)
    doubled = type(lrv)(sigma2=lrv.sigma2 * 2.0, bandwidth_used=lrv.bandwidth_used)
    assert h_statistic(panel, lrv).value != h_statistic(panel, doubled).value


def test_h_rejects_sigma2_of_wrong_length_or_sign():
    panel = Panel(np.random.default_rng(14).standard_normal((4, 30)))
    lrv = bartlett_lrv(panel, bandwidth=2)
    short = type(lrv)(sigma2=lrv.sigma2[:3], bandwidth_used=lrv.bandwidth_used[:3])
    with pytest.raises(ValueError, match="one entry per series"):
        h_statistic(panel, short)
    sigma2 = lrv.sigma2.copy()
    sigma2[2] = 0.0
    with pytest.raises(DegenerateSeriesError) as err:
        h_statistic(panel, type(lrv)(sigma2=sigma2, bandwidth_used=lrv.bandwidth_used))
    assert err.value.series == 2


# --- statistic objects ----------------------------------------------------

def test_statistic_objects_match_functions():
    rng = np.random.default_rng(15)
    panel = Panel(rng.standard_normal((4, 36)))
    assert JStatistic()(panel) == j_statistic(panel)
    assert HStatistic()(panel) == h_statistic(panel, bartlett_lrv(panel))


def test_batch_matches_scalar_path():
    rng = np.random.default_rng(16)
    stack = rng.standard_normal((7, 4, 36))
    j = JStatistic()
    batch = j.batch(np.ascontiguousarray(stack))
    for r in range(7):
        assert batch[r] == j(Panel(stack[r])).value
    h = HStatistic()
    hbatch = h.batch(np.ascontiguousarray(stack))
    for r in range(7):
        assert hbatch[r] == h(Panel(stack[r])).value


@pytest.mark.parametrize("stat", [HStatistic(), JStatistic()], ids=["H", "J"])
def test_batch_peak_memory_stays_within_bound(stat):
    # each kernel keeps one working array, the demeaned stack, and takes its
    # partial sums in it; a per-lag product array or an out-of-place step in
    # the objective adds a second
    x = np.random.default_rng(17).standard_normal((16, 100, 1000))
    stat.batch(x)
    tracemalloc.start()
    try:
        stat.batch(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * x.nbytes


def test_h_auto_bandwidth_needs_t_at_least_four_on_both_paths():
    values = np.random.default_rng(0).standard_normal((3, 3))
    h = HStatistic()
    with pytest.raises(ValueError, match="T >= 4"):
        h.batch(values[None])
    with pytest.raises(ValueError, match="T >= 4"):
        h(Panel(values))


def test_h_call_on_constant_series_names_only_the_series():
    panel = Panel(np.vstack([np.random.default_rng(0).standard_normal(10),
                             np.full(10, 4.0)]))
    with pytest.raises(DegenerateSeriesError) as err:
        HStatistic()(panel)
    assert err.value.replicate is None
    assert str(err.value) == "series 1: constant series (zero variance)"


# --- properties over generated panels -----------------------------------------

@st.composite
def panels(draw):
    """Seeded normal panels, N 1-12 and T 4-120, scaled by 10^U(-3, 3)."""
    n = draw(st.integers(1, 12))
    t = draw(st.integers(4, 120))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return np.random.default_rng(seed).standard_normal((n, t)) * scale


_PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                              database=None)
_EACH_STATISTIC = pytest.mark.parametrize(
    "stat", [JStatistic(), HStatistic()], ids=["J", "H-auto"])


def _atol(stat, n):
    # J scales with the data and is a sum of squares; H is scale-free and
    # centred, so it can sit near zero
    return 1e-9 * n if stat.name == "H" else 0.0


@_EACH_STATISTIC
@_PROPERTY_SETTINGS
@given(values=panels())
def test_call_equals_batch_bit_for_bit(stat, values):
    assert stat(Panel(values)).value == stat.batch(values[None])[0]


@_EACH_STATISTIC
@_PROPERTY_SETTINGS
@given(values=panels(), data=st.data())
def test_invariant_under_series_permutation(stat, values, data):
    order = data.draw(st.permutations(range(values.shape[0])))
    base = stat(Panel(values)).value
    got = stat(Panel(values[list(order)])).value
    assert_allclose(got, base, rtol=1e-9, atol=_atol(stat, values.shape[0]))


@_EACH_STATISTIC
@_PROPERTY_SETTINGS
@given(values=panels(), data=st.data())
def test_invariant_under_per_series_shift(stat, values, data):
    n = values.shape[0]
    shifts = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    spread = values.std(axis=1, keepdims=True)
    base = stat(Panel(values)).value
    got = stat(Panel(values + np.array(shifts)[:, None] * spread)).value
    assert_allclose(got, base, rtol=1e-9, atol=_atol(stat, n))


@_PROPERTY_SETTINGS
@given(values=panels(), seed=st.integers(0, 2**32 - 1))
def test_j_invariant_under_cross_section_rotation(values, seed):
    # demeaning and partial sums commute with Q, and |Q s_t| = |s_t|
    n = values.shape[0]
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    base = j_statistic(Panel(values)).value
    assert_allclose(j_statistic(Panel(q @ values)).value, base, rtol=1e-9)


# --- J's bootstrap basis: the triangular factor of a wide panel --------------

def _factor_of(values):
    r = JStatistic().basis(Panel(values)).values
    t = values.shape[1]
    assert r.shape == (t, t)
    assert np.all(np.tril(r, -1) == 0.0)
    return r


def _gram_error(r, x):
    # relative to ||X||^2, the scale of X'X's entries
    return np.max(np.abs(r.T @ r - x.T @ x)) / np.linalg.norm(x, 2) ** 2


@pytest.mark.parametrize("shape", [(31, 30), (61, 60), (100, 50), (2000, 60)],
                         ids=["N=T+1", "61x60", "100x50", "2000x60"])
def test_j_basis_is_triangular_factor_of_demeaned_panel(shape):
    values = np.random.default_rng(41).standard_normal(shape) + 5.0
    x = values - values.mean(axis=1, keepdims=True)
    assert _gram_error(_factor_of(values), x) <= 1e-12


def test_j_basis_keeps_panels_with_n_at_most_t():
    for shape in [(30, 30), (3, 40)]:
        panel = Panel(np.random.default_rng(42).standard_normal(shape))
        assert JStatistic().basis(panel) is panel
        assert HStatistic().basis(panel) is panel
    wide = Panel(np.random.default_rng(42).standard_normal((80, 30)))
    assert HStatistic().basis(wide) is wide


def test_j_basis_of_rank_deficient_panel():
    # duplicated series: X'X has rank at most 20 of 30
    half = np.random.default_rng(43).standard_normal((20, 30))
    values = np.vstack([half, half, 2.0 * half])
    x = values - values.mean(axis=1, keepdims=True)
    assert _gram_error(_factor_of(values), x) <= 1e-12


def test_j_basis_of_constant_panel_is_zero():
    values = np.tile(np.arange(40.0)[:, None], (1, 30))  # every series constant
    r = _factor_of(values)
    assert np.all(r == 0.0)
    assert j_statistic(Panel(r)).value == 0.0


@pytest.mark.parametrize("scale", [2.0**250, 2.0**-250])
def test_j_basis_at_the_scale_limits(scale):
    # each column is scaled to a largest entry of 1 before its sum of squares;
    # an under- or overflow would be a RuntimeWarning, an error under pytest
    x = np.random.default_rng(44).standard_normal((80, 30))
    x -= x.mean(axis=1, keepdims=True)
    x *= scale / np.max(np.abs(x))
    r = _factor_of(x)
    assert np.all(np.isfinite(r))
    assert _gram_error(r / scale, x / scale) <= 1e-12
    # a time point far below the rest still comes out finite and consistent
    x[:, 3] *= 2.0**-400
    x -= x.mean(axis=1, keepdims=True)
    assert _gram_error(_factor_of(x) / scale, x / scale) <= 1e-12
