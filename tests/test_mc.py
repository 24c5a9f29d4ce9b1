from types import SimpleNamespace

import pytest

from panelcpt import (
    DegenerateSeriesError,
    DgpConfig,
    InvalidBlockLengthError,
    MonteCarloError,
    Scenario,
    TestConfig,
    grid_records,
    rejection_frequency,
    run_grid,
)
from panelcpt import mc
from panelcpt.cli import main
from panelcpt.mc import RECORD_FIELDS


def tiny_scenario(label="tiny", s=12, b=49, rho=0.0, break_spec="none", n=6, t=24,
                  block_rule="adaptive", alpha=0.05):
    return Scenario(
        label=label,
        dgp=DgpConfig(n=n, t=t, rho=rho, beta=0.0, break_spec=break_spec),
        test=TestConfig(statistic="J", scheme="nonoverlapping",
                        block_rule=block_rule, b=b, alpha=alpha),
        s=s,
    )


def test_report_shape_and_reproducibility():
    sc = tiny_scenario()
    a = rejection_frequency(sc, seed_base=41)
    b = rejection_frequency(sc, seed_base=41)
    assert a.rejection_frequency == b.rejection_frequency
    assert a.mean_block_length == b.mean_block_length
    assert a.s == 12
    assert a.errors == ()
    assert a.wall_time_s > 0.0
    assert float(a.rejection_frequency * a.s).is_integer()


def test_workers_do_not_change_report():
    sc = tiny_scenario(s=10)
    serial = rejection_frequency(sc, seed_base=5, workers=1)
    parallel = rejection_frequency(sc, seed_base=5, workers=4)
    assert serial.rejection_frequency == parallel.rejection_frequency
    assert serial.mean_block_length == parallel.mean_block_length


@pytest.fixture
def fake_pool(monkeypatch):
    """Run the process pool in-process; records each pool's size and whether
    it is still open."""
    pools = SimpleNamespace(sizes=[], open=0)

    class FakePool:
        def __init__(self, processes):
            pools.sizes.append(processes)

        def __enter__(self):
            pools.open += 1
            return self

        def __exit__(self, *exc):
            pools.open -= 1
            return False

        def imap(self, func, tasks, chunksize=1):
            return map(func, tasks)

    monkeypatch.setattr(mc.multiprocessing, "Pool", FakePool)
    return pools


def test_process_pool_capped_at_replication_count(fake_pool):
    report = rejection_frequency(tiny_scenario(s=3), seed_base=5, workers=8)
    assert fake_pool.sizes == [3]
    assert report.s == 3
    # one pool for the whole grid, capped at the grid's replication count
    fake_pool.sizes.clear()
    reports = run_grid([tiny_scenario(s=3), tiny_scenario(s=2)], seed_base=5, workers=8)
    assert fake_pool.sizes == [5]
    assert [r.s for r in reports] == [3, 2]


def _fail_cell_with_b(monkeypatch, b):
    run = mc.run_test

    def run_test(panel, cfg):
        if cfg.b == b:
            raise DegenerateSeriesError(0)
        return run(panel, cfg)

    monkeypatch.setattr(mc, "run_test", run_test)


@pytest.mark.parametrize("workers", [1, 8])
def test_first_failing_cell_in_grid_order_aborts(workers, fake_pool, monkeypatch):
    _fail_cell_with_b(monkeypatch, 29)
    grid = [tiny_scenario("first", s=3), tiny_scenario("middle", s=3, b=29),
            tiny_scenario("last", s=3, b=39)]
    done = []
    with pytest.raises(MonteCarloError) as err:
        run_grid(grid, seed_base=8, workers=workers,
                 progress=lambda scenario, report: done.append(scenario.label))
    assert err.value.label == "middle"
    assert err.value.n_failed == 3
    assert done == ["first"]
    assert fake_pool.sizes == ([] if workers == 1 else [8])
    assert fake_pool.open == 0


def test_bench_with_a_failing_cell_exits_3_without_output(tmp_path, monkeypatch):
    _fail_cell_with_b(monkeypatch, 29)
    scn = tmp_path / "grid.scn"
    scn.write_text("defaults s=3 statistic=J scheme=nbb block=adaptive n=6 t=24\n"
                   "scenario label=first b=49\n"
                   "scenario label=middle b=29\n"
                   "scenario label=last b=39\n")
    out = tmp_path / "bench.csv"
    assert main(["bench", "--scenarios", str(scn), "--seed", "8", "--out", str(out)]) == 3
    assert not out.exists()


def test_tiny_alpha_never_rejects():
    # with B = 19 the smallest achievable p-value is 1/20 = 0.05, so any
    # alpha below the floor cannot reject
    sc = tiny_scenario(s=15, b=19, alpha=0.0009)
    report = rejection_frequency(sc, seed_base=6)
    assert report.rejection_frequency == 0.0


def test_abort_when_every_replication_fails(monkeypatch):
    # s >= 1, so a run without a completed replication always aborts
    def degenerate(panel, cfg):
        raise DegenerateSeriesError(0)

    monkeypatch.setattr(mc, "run_test", degenerate)
    for s in (12, 1):
        sc = tiny_scenario(s=s)
        with pytest.raises(MonteCarloError) as err:
            rejection_frequency(sc, seed_base=7)
        assert err.value.label == "tiny"
        assert err.value.n_failed == sc.s
        assert err.value.examples[:2] == [
            f"replication {r}: series 0: non-positive variance estimate" for r in range(min(2, s))]


def test_fixed_block_longer_than_series_is_rejected_when_built():
    # every replication used to fail, ending in MonteCarloError
    with pytest.raises(InvalidBlockLengthError, match="999 invalid for series length 24"):
        tiny_scenario(block_rule=999)
    assert tiny_scenario(block_rule=24).test.block_rule == 24


def test_workers_below_one_is_an_error():
    with pytest.raises(ValueError, match="workers"):
        rejection_frequency(tiny_scenario(s=3), seed_base=5, workers=-3)


@pytest.mark.parametrize("seed_base, error", [(-1, ValueError), (2**64, ValueError),
                                              (1.5, TypeError), (True, TypeError)])
def test_seed_base_is_checked_before_the_pool_starts(monkeypatch, seed_base, error):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(mc.multiprocessing, "Pool", no_pool)
    with pytest.raises(error, match="seed_base"):
        run_grid([tiny_scenario(s=3)], seed_base, workers=2)


def test_run_grid_order_and_duplicates():
    sc1 = tiny_scenario(label="one", s=8)
    sc2 = tiny_scenario(label="two", s=8, rho=0.3)
    reports = run_grid([sc1, sc2, sc1], seed_base=9)
    assert [r.label for r in reports] == ["one", "two", "one"]
    assert reports[0].rejection_frequency == reports[2].rejection_frequency
    assert reports[0].mean_block_length == reports[2].mean_block_length
    single = rejection_frequency(sc1, seed_base=9)
    assert single.rejection_frequency == reports[0].rejection_frequency


def test_run_grid_rejects_empty():
    with pytest.raises(ValueError):
        run_grid([], seed_base=1)


def test_power_non_decreasing_in_t():
    freqs = {}
    for t in (50, 100):
        sc = Scenario(
            label=f"power{t}",
            dgp=DgpConfig(n=20, t=t, rho=0.0, beta=0.0,
                          break_spec="noncancelling", t0_fraction=0.5),
            test=TestConfig(block_rule="adaptive", b=99),
            s=40,
        )
        freqs[t] = rejection_frequency(sc, seed_base=10).rejection_frequency
    assert freqs[100] >= freqs[50]


def test_grid_records_fields_and_timing_switch():
    sc = tiny_scenario(s=6)
    reports = run_grid([sc], seed_base=11)
    cold = grid_records([sc], reports)[0]
    assert tuple(cold.keys()) == RECORD_FIELDS
    assert cold["wall_time_s"] == 0.0
    assert cold["N"] == 6 and cold["T"] == 24 and cold["S"] == 6
    assert cold["statistic"] == "J" and cold["B"] == 49
    hot = grid_records([sc], reports, include_timings=True)[0]
    assert hot["wall_time_s"] > 0.0
