import math
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from panelcpt import (
    BootstrapScheme,
    DegenerateSeriesError,
    HStatistic,
    InvalidBlockLengthError,
    JStatistic,
    Panel,
    RngSpec,
    bootstrap_distribution,
    empirical_quantile,
    j_statistic,
    p_value,
    resample_indices,
)
from panelcpt._random import generator, uniform_open
from panelcpt.bootstrap import KINDS, BootstrapDistribution, _chunk_size, _stationary_indices
from panelcpt.panel import demean


def test_scheme_validation():
    with pytest.raises(ValueError):
        BootstrapScheme("moving", 3)
    with pytest.raises(InvalidBlockLengthError):
        BootstrapScheme("circular", 0)


def test_rngspec_contract():
    spec = RngSpec(123)
    a = spec.generator_for(7).integers(0, 1000, size=5)
    b = RngSpec(123).generator_for(7).integers(0, 1000, size=5)
    assert_array_equal(a, b)
    c = spec.generator_for(8).integers(0, 1000, size=5)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        RngSpec(-1)
    with pytest.raises(TypeError):
        RngSpec(1.7)


# --- index generation -----------------------------------------------------

def test_nonoverlapping_blocks_t6_l3():
    scheme = BootstrapScheme("nonoverlapping", 3)
    blocks = {(0, 1, 2), (3, 4, 5)}
    for seed in range(50):
        idx = resample_indices(scheme, 6, RngSpec(seed).generator_for(0))
        assert idx.shape == (6,)
        assert tuple(idx[:3]) in blocks and tuple(idx[3:]) in blocks


def test_nonoverlapping_t8_l2_multiset_preserved():
    scheme = BootstrapScheme("nonoverlapping", 2)
    blocks = {(0, 1), (2, 3), (4, 5), (6, 7)}
    for seed in range(120):
        idx = resample_indices(scheme, 8, RngSpec(seed).generator_for(0))
        assert {tuple(idx[i : i + 2]) for i in range(0, 8, 2)} <= blocks


def test_nonoverlapping_single_block_is_identity():
    scheme = BootstrapScheme("nonoverlapping", 8)
    for seed in range(10):
        idx = resample_indices(scheme, 8, RngSpec(seed).generator_for(0))
        assert_array_equal(idx, np.arange(8))


def test_nonoverlapping_discards_ragged_tail():
    scheme = BootstrapScheme("nonoverlapping", 3)
    idx = resample_indices(scheme, 7, RngSpec(1).generator_for(0))
    assert idx.shape == (6,)
    assert set(idx) <= set(range(6))  # start 6 is never part of a full block


def test_circular_blocks_wrap():
    scheme = BootstrapScheme("circular", 2)
    allowed = {(0, 1), (1, 2), (2, 3), (3, 0)}
    seen = set()
    for seed in range(200):
        idx = resample_indices(scheme, 4, RngSpec(seed).generator_for(0))
        assert idx.shape == (4,)
        pairs = {tuple(idx[:2]), tuple(idx[2:])}
        assert pairs <= allowed
        seen |= pairs
    assert seen == allowed


def test_circular_truncates_to_t():
    scheme = BootstrapScheme("circular", 3)
    idx = resample_indices(scheme, 7, RngSpec(3).generator_for(1))
    assert idx.shape == (7,)
    assert idx.min() >= 0 and idx.max() < 7


def test_stationary_indices_cover_range_and_are_deterministic():
    scheme = BootstrapScheme("stationary", 4)
    a = resample_indices(scheme, 20, RngSpec(5).generator_for(2))
    b = resample_indices(scheme, 20, RngSpec(5).generator_for(2))
    assert_array_equal(a, b)
    assert a.shape == (20,)
    assert a.min() >= 0 and a.max() < 20


def test_stationary_mean_block_length():
    # geometric lengths with success probability p = 1/4 have mean 4; measure
    # over ~1e5 blocks by concatenating draws
    rng = RngSpec(9).generator_for(0)
    total_blocks = 0
    total_length = 0
    while total_blocks < 100_000:
        idx = _stationary_indices(400, 4, rng)
        breaks = np.flatnonzero((np.diff(idx) % 400) != 1)
        total_blocks += breaks.size + 1
        total_length += idx.size
    assert abs(total_length / total_blocks - 4.0) < 0.1


def _reference_indices(kind, t, length, rng):
    """Plain-Python draw order of each scheme: (indices, batches drawn)."""
    if kind == "nonoverlapping":
        m = t // length
        picks = rng.integers(0, m, size=m)
        return [int(p) * length + k for p in picks for k in range(length)], 1
    if kind == "circular":
        starts = rng.integers(0, t, size=-(-t // length))
        return [(int(s) + k) % t for s in starts for k in range(length)][:t], 1
    # stationary: per batch, the starts, then (for L > 1) the geometric
    # lengths; the blocks are walked in order until T indices exist
    batch = max(8, -(-t // length))
    out, batches = [], 0
    while len(out) < t:
        batches += 1
        starts = rng.integers(0, t, size=batch)
        lengths = [1] * batch
        if length > 1:
            u = uniform_open(rng, batch)
            lengths = np.ceil(np.log1p(-u) / math.log1p(-1.0 / length)).astype(int)
        for s, ln in zip(starts, lengths):
            out.extend((int(s) + k) % t for k in range(int(ln)))
    return out[:t], batches


@pytest.mark.parametrize("kind", KINDS)
def test_indices_follow_the_reference_draw_order(kind):
    cases = [(t, length) for t in (4, 5, 13, 50, 100, 1000) for length in (1, 2, 3, 5, 17)
             if length <= t]
    cases += [(4, 3), (4, 4), (5, 3), (13, 7), (13, 13), (50, 26), (50, 40), (100, 99)]
    runs = [(t, length, seed) for t, length in cases for seed in range(12)]
    # seeds whose stationary draw needs three batches of blocks
    runs += [(50, 5, 2786), (24, 3, 1186), (100, 17, 829)]
    batches = []
    for t, length, seed in runs:
        want, used = _reference_indices(kind, t, length, generator(seed, t, length))
        got = resample_indices(BootstrapScheme(kind, length), t, generator(seed, t, length))
        assert got.tolist() == want, (t, length, seed)
        batches.append(used)
    if kind == "stationary":
        assert batches[-3:] == [3, 3, 3] and batches.count(2) >= 20


def test_invalid_block_length_raises():
    with pytest.raises(InvalidBlockLengthError):
        resample_indices(BootstrapScheme("nonoverlapping", 9), 8,
                         RngSpec(0).generator_for(0))


# --- bootstrap distribution -------------------------------------------------

def test_single_block_degeneracy_draws_equal_observed():
    rng = np.random.default_rng(32)
    panel = Panel(rng.standard_normal((4, 20)))
    stat = JStatistic()
    demeaned = Panel(panel.values - panel.values.mean(axis=1, keepdims=True))
    observed = stat(demeaned).value
    dist = bootstrap_distribution(panel, stat, BootstrapScheme("nonoverlapping", 20),
                                  b=25, rng=RngSpec(4))
    assert np.all(dist.draws == observed)


def test_resample_joint_across_series_and_closure():
    # one index sequence per replicate serves every series: a duplicated
    # series stays a duplicate, so each J replicate exactly doubles
    rng = np.random.default_rng(31)
    row = rng.standard_normal((1, 30))
    for scheme in (BootstrapScheme("circular", 4), BootstrapScheme("stationary", 3)):
        single = bootstrap_distribution(Panel(row), JStatistic(), scheme, 150, RngSpec(6))
        pair = bootstrap_distribution(Panel(np.vstack([row, row])), JStatistic(), scheme,
                                      150, RngSpec(6))
        assert_array_equal(pair.draws, 2.0 * single.draws)


def test_same_seed_identical_draws():
    rng = np.random.default_rng(33)
    panel = Panel(rng.standard_normal((3, 30)))
    scheme = BootstrapScheme("circular", 5)
    a = bootstrap_distribution(panel, JStatistic(), scheme, 200, RngSpec(7))
    b = bootstrap_distribution(panel, JStatistic(), scheme, 200, RngSpec(7))
    assert_array_equal(a.draws, b.draws)


def test_worker_count_does_not_change_draws():
    rng = np.random.default_rng(34)
    panel = Panel(rng.standard_normal((3, 40)))
    scheme = BootstrapScheme("stationary", 4)
    serial = bootstrap_distribution(panel, JStatistic(), scheme, 300, RngSpec(8),
                                    workers=1)
    threaded = bootstrap_distribution(panel, JStatistic(), scheme, 300, RngSpec(8),
                                      workers=8)
    assert_array_equal(serial.draws, threaded.draws)


# the 100 x 1000 case is the only one where the 16 MiB chunk cap binds
_DRAW_CASES = [
    pytest.param(shape, stat, kind, id=f"{shape[0]}x{shape[1]}-{stat.name}-{kind}")
    for shape, kinds in [((6, 300), KINDS), ((40, 50), KINDS), ((80, 30), KINDS),
                         ((100, 1000), ("circular",))]
    for stat in (JStatistic(), HStatistic())
    for kind in kinds
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shape,stat,kind", _DRAW_CASES)
def test_each_draw_is_its_resample_statistic_alone(shape, stat, kind, workers):
    # b=70 is one full chunk and one partial one (three chunks of 20 and one
    # of 10 at 100 x 1000); every replicate must be evaluated in the memory
    # order of a panel of its own, bit for bit, on the statistic's basis
    # (J's T x T factor when N > T)
    values = np.random.default_rng(37).standard_normal(shape)
    scheme = BootstrapScheme(kind, 4)
    rng = RngSpec(21)
    draws = bootstrap_distribution(Panel(values), stat, scheme, 70, rng, workers=workers).draws
    demeaned = demean(stat.basis(Panel(values)).values)
    assert demeaned.shape[0] == (min(shape) if stat.name == "J" else shape[0])
    for j in range(70):
        idx = resample_indices(scheme, shape[1], rng.generator_for(j))
        assert draws[j] == stat(Panel(demeaned[:, idx])).value


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", [(61, 60), (100, 50), (200, 100), (2000, 60)],
                         ids=["61x60", "100x50", "200x100", "2000x60"])
def test_j_draws_on_the_factor_equal_draws_on_the_panel(shape, kind):
    # J of a resample of R is J of the same resample of the demeaned panel X,
    # since R'R = X'X; only rounding separates them
    values = np.random.default_rng(39).standard_normal(shape)
    scheme = BootstrapScheme(kind, 3)
    rng = RngSpec(22)
    draws = bootstrap_distribution(Panel(values), JStatistic(), scheme, 70, rng).draws
    demeaned = demean(values)
    for j in range(70):
        idx = resample_indices(scheme, shape[1], rng.generator_for(j))
        want = j_statistic(Panel(demeaned[:, idx])).value
        assert abs(draws[j] - want) <= 1e-12 * want


@pytest.mark.parametrize("shape,size", [
    ((50, 50), 64), ((50, 100), 64), ((100, 50), 64),
    ((100, 100), 64), ((200, 100), 64), ((100, 1000), 20),
], ids=["50x50", "50x100", "100x50", "100x100", "200x100", "100x1000"])
def test_chunk_plan_of_the_grid_shapes(shape, size):
    # every T <= 100 grid shape runs chunks of 64 replicates, the ceiling;
    # only 100 x 1000 is capped at 16 MiB (J resamples min(N, T) rows, H all N)
    n, t = shape
    for t_prime in (t, t - t % 3):
        assert _chunk_size(min(n, t), t_prime) == size
        assert _chunk_size(n, t_prime) == size


def test_bootstrap_runs_the_chunk_plan():
    shapes = []

    class Recorder:
        def basis(self, panel):
            return panel

        def batch(self, values):
            shapes.append(values.shape)
            return np.zeros(values.shape[0])

    panel = Panel(np.random.default_rng(41).standard_normal((100, 1000)))
    bootstrap_distribution(panel, Recorder(), BootstrapScheme("circular", 5), 45, RngSpec(9))
    assert shapes == [(20, 100, 1000), (20, 100, 1000), (5, 100, 1000)]


@pytest.mark.parametrize("workers", [1, 2])
def test_one_worker_runs_chunks_in_the_calling_thread(workers):
    # a pool thread per call can land in a fresh malloc arena, so peak memory
    # of a serial run would vary from one run to the next
    threads = set()

    class Recorder:
        def basis(self, panel):
            return panel

        def batch(self, values):
            threads.add(threading.get_ident())
            return np.zeros(values.shape[0])

    panel = Panel(np.random.default_rng(43).standard_normal((3, 50)))
    bootstrap_distribution(panel, Recorder(), BootstrapScheme("circular", 5), 200, RngSpec(9),
                           workers=workers)
    assert (threads == {threading.get_ident()}) == (workers == 1)


@pytest.mark.parametrize("stat", [JStatistic(), HStatistic()], ids=["J", "H"])
def test_capped_chunks_do_not_depend_on_workers(stat):
    panel = Panel(np.random.default_rng(42).standard_normal((100, 1000)))
    args = (panel, stat, BootstrapScheme("stationary", 6), 70, RngSpec(10))
    serial = bootstrap_distribution(*args, workers=1).draws
    assert_array_equal(serial, bootstrap_distribution(*args, workers=2).draws)


@pytest.mark.parametrize("stat", [JStatistic(), HStatistic()], ids=["J", "H"])
def test_bootstrap_chunk_peak_memory(stat):
    # a 100 x 1000 chunk is capped at 20 replicates (16 MiB), gathered once
    # into its (R, N, T') stack, and the kernel keeps one working array beside it
    panel = Panel(np.random.default_rng(38).standard_normal((100, 1000)))
    args = (panel, stat, BootstrapScheme("circular", 5), 64, RngSpec(9))
    bootstrap_distribution(*args)
    tracemalloc.start()
    try:
        bootstrap_distribution(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**24


def test_wide_j_chunk_peak_memory():
    # J resamples the 60 x 60 factor of a 2000 x 60 panel, so a warm chunk of
    # 64 replicates stays far below the 61 MB of 64 panel-sized resamples
    panel = Panel(np.random.default_rng(40).standard_normal((2000, 60)))
    args = (panel, JStatistic(), BootstrapScheme("nonoverlapping", 3), 64, RngSpec(9))
    bootstrap_distribution(*args)
    tracemalloc.start()
    try:
        bootstrap_distribution(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2000 * 60 * 8 / 10


def test_draws_match_naive_reimplementation():
    # independent re-implementation: draw the same index sequences from the
    # same derived generators, recompute the statistic with explicit loops
    rng = np.random.default_rng(35)
    values = rng.standard_normal((5, 50))
    panel = Panel(values)
    b = 2000
    scheme = BootstrapScheme("nonoverlapping", 1)
    dist = bootstrap_distribution(panel, JStatistic(), scheme, b, RngSpec(11))

    demeaned = values - values.mean(axis=1, keepdims=True)
    naive = np.empty(b)
    for j in range(b):
        gen = RngSpec(11).generator_for(j)
        picks = gen.integers(0, 50, size=50)
        sample = demeaned[:, picks]
        sample = sample - sample.mean(axis=1, keepdims=True)
        best = -np.inf
        for tt in range(1, 50):
            total = 0.0
            for i in range(5):
                total += sample[i, :tt].sum() ** 2
            best = max(best, total / 50)
        naive[j] = best

    got = np.sort(dist.draws)[int(np.ceil(0.95 * b)) - 1]
    want = np.sort(naive)[int(np.ceil(0.95 * b)) - 1]
    assert_allclose(got, want, rtol=1e-9)
    assert abs(got - want) <= 0.1 * abs(want)


def test_statistic_error_reports_replicate_index():
    # series 0 is constant on every resample built from its first three
    # length-2 blocks; replicate 3 is the first such draw under seed 3
    panel = Panel(np.array([[0, 0, 0, 0, 0, 0, 0, 1],
                            [0.3, -1.2, 0.5, 2.0, -0.7, 0.1, 1.1, -0.4]]))
    messages = set()
    for b in (50, 200):
        for workers in (1, 2):
            with pytest.raises(DegenerateSeriesError) as err:
                bootstrap_distribution(panel, HStatistic(), BootstrapScheme("nonoverlapping", 2),
                                       b=b, rng=RngSpec(3), workers=workers)
            assert (err.value.replicate, err.value.series) == (3, 0)
            messages.add(str(err.value))
    assert messages == {"bootstrap replicate 3, series 0: constant series (zero variance)"}


def test_b_must_be_positive():
    panel = Panel(np.zeros((1, 6)) + np.arange(6))
    with pytest.raises(ValueError):
        bootstrap_distribution(panel, JStatistic(),
                               BootstrapScheme("circular", 2), 0, RngSpec(0))


# --- p-value and quantile ----------------------------------------------------

def test_p_value_examples():
    draws = BootstrapDistribution(np.arange(1.0, 100.0))  # 99 draws
    assert p_value(draws, 1000.0) == 1 / 100
    assert p_value(draws, 0.5) == 1.0
    four = BootstrapDistribution(np.array([1.0, 2.0, 3.0, 4.0]))
    assert p_value(four, 2.5) == 0.6


def test_p_value_monotone_in_observed():
    rng = np.random.default_rng(38)
    dist = BootstrapDistribution(rng.standard_normal(97))
    grid = np.linspace(-3, 3, 61)
    values = [p_value(dist, obs) for obs in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_empirical_quantile_examples():
    four = BootstrapDistribution(np.array([4.0, 1.0, 3.0, 2.0]))
    assert empirical_quantile(four, 0.5) == 2.0
    ten = BootstrapDistribution(np.arange(10.0))
    assert empirical_quantile(ten, 0.9999) == 9.0
    assert empirical_quantile(ten, 1e-12) == 0.0  # rank clamps to 1, not to the largest
    assert empirical_quantile(ten, 0.9) <= empirical_quantile(ten, 0.95)
    with pytest.raises(ValueError):
        empirical_quantile(ten, 0.0)


def test_distribution_must_be_finite():
    with pytest.raises(ValueError):
        BootstrapDistribution(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        BootstrapDistribution(np.array([]))
