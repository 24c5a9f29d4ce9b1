import csv
import json

import numpy as np
import pytest

from panelcpt import (
    DegenerateSeriesError,
    EmptyInputError,
    InvalidBlockLengthError,
    MonteCarloError,
    NonNumericCellError,
    NonRectangularError,
    Panel,
    TestConfig,
    load_csv,
    run_test,
    write_csv,
)
from panelcpt.cli import load_scenario_file, main, parse_scenarios


def run_cli(argv):
    return main(argv)


# --- simulate ----------------------------------------------------------------

def test_simulate_writes_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--n", "2", "--t", "5", "--rho", "0", "--beta", "0",
            "--law", "normal", "--break", "none", "--seed", "42"]
    assert run_cli(argv + ["--out", str(out1)]) == 0
    assert run_cli(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    panel = load_csv(out1, layout="columns")
    assert panel.n_series == 2 and panel.n_time == 5


def test_simulate_rejects_unit_rho(tmp_path, capsys):
    code = run_cli(["simulate", "--n", "1", "--t", "10", "--rho", "1.0",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "rho" in capsys.readouterr().err


@pytest.mark.parametrize("fraction", ["inf", "1e308"])
def test_simulate_overflowing_break_fraction_exits_2(capsys, fraction):
    # used to end in an OverflowError traceback, exit 1
    code = run_cli(["simulate", "--n", "3", "--t", "10", "--break", "cancel",
                    "--t0-frac", fraction])
    assert code == 2
    assert "t0_fraction" in capsys.readouterr().err


def test_simulate_noncancelling_break_shifts_mean(tmp_path):
    out = tmp_path / "b.csv"
    assert run_cli(["simulate", "--n", "1", "--t", "10000", "--break", "noncancel",
                    "--t0-frac", "0.5", "--seed", "8", "--out", str(out)]) == 0
    col = load_csv(out).values[0]
    diff = col[5000:].mean() - col[:5000].mean()
    assert 0.04 < diff < 0.56  # one U(0.1, 0.5) draw plus noise


def test_simulate_stdout(capsys):
    assert run_cli(["simulate", "--n", "1", "--t", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "series_1"
    assert len(out.splitlines()) == 4


# --- test command ---------------------------------------------------------------

@pytest.fixture()
def panel_csv(tmp_path):
    rng = np.random.default_rng(17)
    panel = Panel(rng.standard_normal((5, 40)))
    path = tmp_path / "panel.csv"
    write_csv(panel, path)
    return path, panel


def test_cmd_test_matches_library(panel_csv, tmp_path):
    path, panel = panel_csv
    out = tmp_path / "report.json"
    code = run_cli(["test", "--input", str(path), "--layout", "cols",
                    "--statistic", "J", "--scheme", "nbb", "--block", "adaptive",
                    "--b", "99", "--alpha", "0.05", "--seed", "7",
                    "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    res = run_test(panel, TestConfig(statistic="J", scheme="nonoverlapping",
                                     block_rule="adaptive", b=99, alpha=0.05,
                                     seed=7))
    assert record["statistic_value"] == res.statistic_value
    assert record["critical_value"] == res.critical_value
    assert record["p_value"] == res.p_value
    assert record["reject"] == res.reject
    assert record["changepoint_estimate"] == res.changepoint_estimate
    assert record["block_length"] == res.block_length_used
    assert record["reject"] is False  # verified once, then pinned


def test_cmd_test_byte_order_mark_gives_same_report(panel_csv, tmp_path):
    _, panel = panel_csv
    rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in panel.values.T)
    outs = []
    for name, encoding in (("bare", "utf-8"), ("bom", "utf-8-sig")):
        path, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        path.write_text(rows, encoding=encoding)
        assert run_cli(["test", "--input", str(path), "--b", "49", "--seed", "5",
                        "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cmd_test_block_zero_exits_2(panel_csv, capsys):
    path, _ = panel_csv
    code = run_cli(["test", "--input", str(path), "--block", "0", "--b", "9",
                    "--seed", "1"])
    assert code == 2
    assert "block length" in capsys.readouterr().err


def test_cmd_test_block_not_an_integer_exits_2(panel_csv, capsys):
    path, _ = panel_csv
    assert run_cli(["test", "--input", str(path), "--block", "abc", "--b", "9"]) == 2
    assert "block must be 'adaptive' or an integer" in capsys.readouterr().err


def test_cmd_test_constant_series_h_exits_3(tmp_path, capsys):
    path = tmp_path / "const.csv"
    path.write_text("series_1,series_2\n" + "\n".join(
        f"{v},1" for v in np.random.default_rng(2).standard_normal(30)) + "\n")
    code = run_cli(["test", "--input", str(path), "--statistic", "H",
                    "--block", "4", "--b", "9", "--seed", "1"])
    assert code == 3
    assert "degenerate" in capsys.readouterr().err.lower()


def test_cmd_test_h_on_short_resamples_exits_2(tmp_path, capsys):
    path = tmp_path / "short.csv"
    write_csv(Panel(np.random.default_rng(0).standard_normal((3, 4))), path)
    code = run_cli(["test", "--input", str(path), "--statistic", "H", "--scheme", "nbb",
                    "--block", "3", "--b", "99", "--seed", "1"])
    assert code == 2
    assert "T >= 4" in capsys.readouterr().err


def test_cmd_test_single_series_exits_0(tmp_path):
    path = tmp_path / "one.csv"
    write_csv(Panel(np.random.default_rng(3).standard_normal((1, 40))), path)
    assert run_cli(["test", "--input", str(path), "--b", "19", "--seed", "1"]) == 0


@pytest.mark.parametrize("statistic, block, code", [
    ("J", "adaptive", 2), ("J", "1", 0), ("H", "1", 2)])
def test_cmd_test_three_time_points(tmp_path, capsys, statistic, block, code):
    # a fixed block needs no T >= 4; adaptive blocks and H's bandwidths do
    path = tmp_path / "short.csv"
    write_csv(Panel(np.random.default_rng(4).standard_normal((2, 3))), path)
    assert run_cli(["test", "--input", str(path), "--statistic", statistic,
                    "--block", block, "--b", "19", "--seed", "1"]) == code
    assert ("T >= 4" in capsys.readouterr().err) == (code == 2)


def test_cmd_test_badly_scaled_data_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    write_csv(Panel(np.random.default_rng(0).standard_normal((3, 40)) * 1e200), path)
    code = run_cli(["test", "--input", str(path), "--b", "19", "--seed", "1"])
    assert code == 2
    assert "rescale" in capsys.readouterr().err


def test_cmd_test_missing_file_exits_2(tmp_path):
    assert run_cli(["test", "--input", str(tmp_path / "nope.csv"),
                    "--b", "9", "--seed", "1"]) == 2


def test_cmd_test_nan_cell_exits_2(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\nnan,4\n")
    assert run_cli(["test", "--input", str(path), "--b", "9", "--seed", "1"]) == 2


@pytest.mark.parametrize("command", ["test", "bench"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_is_a_usage_error(panel_csv, command, workers, capsys):
    path, _ = panel_csv
    source = ["--input", str(path)] if command == "test" else ["--scenarios", "paper_tables"]
    with pytest.raises(SystemExit) as exc:
        run_cli([command, *source, "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_cmd_test_workers_byte_identical(panel_csv, tmp_path):
    path, _ = panel_csv
    outs = []
    for workers in ("1", "8"):
        out = tmp_path / f"w{workers}.json"
        assert run_cli(["test", "--input", str(path), "--b", "128", "--seed", "5",
                        "--workers", workers, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# --- scenario files ----------------------------------------------------------------

SCN = """
# tiny grid
defaults s=4 b=19 alpha=0.05 statistic=J scheme=nbb block=adaptive
scenario label=one n=5 t=20 rho=0.3
scenario label=two n=5 t=20 rho=0 break=noncancel t0_frac=0.5
"""


def test_parse_scenarios_defaults_and_overrides():
    scenarios = parse_scenarios(SCN)
    assert [s.label for s in scenarios] == ["one", "two"]
    assert scenarios[0].s == 4 and scenarios[0].test.b == 19
    assert scenarios[0].dgp.rho == 0.3
    assert scenarios[1].dgp.break_spec == "noncancelling"


def test_parse_scenarios_errors():
    with pytest.raises(ValueError):
        parse_scenarios("scenario label=x n=5 t=20 bogus=1")
    with pytest.raises(ValueError):
        parse_scenarios("record label=x n=5 t=20")
    with pytest.raises(Exception):
        parse_scenarios("# nothing\n")
    with pytest.raises(ValueError, match="line 2: .*scheme"):
        parse_scenarios("# comment\nscenario label=x n=5 t=20 scheme=mbb")
    with pytest.raises(ValueError, match="line 1: expected key=value, got 'n5'"):
        parse_scenarios("scenario label=x n5 t=20")
    for line, missing in [("n=5 t=20", "label"), ("label=x t=20", "n"), ("label=x n=5", "t")]:
        with pytest.raises(ValueError, match=f"line 1: scenario needs {missing}="):
            parse_scenarios(f"scenario {line}")


def test_parse_scenarios_rejects_block_longer_than_series():
    with pytest.raises(ValueError, match="line 3: block length 50 invalid for series length 10"):
        parse_scenarios("defaults s=4\nscenario label=a n=3 t=10\nscenario label=x n=3 t=10 block=50")
    assert parse_scenarios("scenario label=x n=3 t=10 block=10")[0].test.block_rule == 10


def test_bundled_paper_tables_resolves():
    scenarios = load_scenario_file("paper_tables")
    assert len(scenarios) == 336
    labels = {s.label for s in scenarios}
    assert len(labels) == 336
    assert all(s.s == 1000 and s.test.b == 500 for s in scenarios)
    kinds = {s.test.scheme for s in scenarios}
    assert kinds == {"nonoverlapping", "circular", "stationary"}
    # size rows: 5 blocks x 6 shapes x 2 laws x 4 variants
    assert sum(1 for s in scenarios if s.label.startswith("t1_")) == 240
    assert sum(1 for s in scenarios if s.label.startswith("t2_")) == 96
    assert sum(1 for s in scenarios if s.dgp.break_spec != "none") == 96


# --- bench ------------------------------------------------------------------------

def test_bench_csv_output_and_determinism(tmp_path):
    scn = tmp_path / "grid.scn"
    scn.write_text(SCN)
    outs = []
    for workers in ("1", "8"):
        out = tmp_path / f"bench{workers}.csv"
        code = run_cli(["bench", "--scenarios", str(scn), "--seed", "3",
                        "--workers", workers, "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    assert lines[0].startswith("label,statistic,scheme,block_rule")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "one"
    assert lines[1].split(",")[-1] == "0.0"  # deterministic wall time field


def test_bench_csv_quotes_labels_with_commas_and_quotes(tmp_path):
    scn = tmp_path / "grid.scn"
    scn.write_text('defaults s=2 b=9\nscenario label=a,b n=3 t=20\n'
                   'scenario label=say"hi" n=3 t=20\n')
    out = tmp_path / "bench.csv"
    assert run_cli(["bench", "--scenarios", str(scn), "--seed", "3", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [15, 15, 15]
    assert [row[0] for row in rows] == ["label", "a,b", 'say"hi"']


def test_bench_json_output_and_overrides(tmp_path):
    scn = tmp_path / "grid.scn"
    scn.write_text(SCN)
    out = tmp_path / "bench.json"
    code = run_cli(["bench", "--scenarios", str(scn), "--seed", "3",
                    "--s", "2", "--b", "9", "--out", str(out)])
    assert code == 0
    records = json.loads(out.read_text())
    assert len(records) == 2
    assert records[0]["S"] == 2 and records[0]["B"] == 9
    assert 0.0 <= records[0]["rejection_frequency"] <= 1.0


def test_bench_timings_flag(tmp_path):
    scn = tmp_path / "grid.scn"
    scn.write_text(SCN)
    out = tmp_path / "bench.json"
    assert run_cli(["bench", "--scenarios", str(scn), "--seed", "3", "--s", "2",
                    "--b", "9", "--timings", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert all(r["wall_time_s"] > 0.0 for r in records)


def test_bench_block_longer_than_series_exits_2_before_running(tmp_path, capsys):
    scn = tmp_path / "grid.scn"
    scn.write_text("defaults s=4 b=9\nscenario label=x n=3 t=10 block=50\n")
    out = tmp_path / "out.csv"
    assert run_cli(["bench", "--scenarios", str(scn), "--out", str(out)]) == 2
    assert "line 2: block length 50" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("token", ["t0_frac=inf", "beta=inf", "rho=nan"])
def test_bench_non_finite_value_exits_2_before_running(tmp_path, capsys, token):
    # t0_frac=inf used to crash with OverflowError; beta=inf passed the reader,
    # then every replication warned and failed on a non-finite panel
    scn = tmp_path / "grid.scn"
    scn.write_text(f"scenario label=x n=3 t=10 break=cancel s=2 b=9 {token}\n")
    out = tmp_path / "out.csv"
    assert run_cli(["bench", "--scenarios", str(scn), "--out", str(out)]) == 2
    assert "line 1: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("error, is_input", [
    (EmptyInputError, True), (NonRectangularError, True), (NonNumericCellError, True),
    (InvalidBlockLengthError, True), (DegenerateSeriesError, False), (MonteCarloError, False),
])
def test_input_errors_are_value_errors(error, is_input):
    # main maps ValueError to exit 2 and the other two to exit 3, with no list
    # of the library's input errors
    assert issubclass(error, ValueError) == is_input


def test_bench_missing_file_exits_2(tmp_path):
    assert run_cli(["bench", "--scenarios", str(tmp_path / "no.scn"),
                    "--out", "-"]) == 2


def test_bench_bundle_smoke_at_tiny_scale(tmp_path):
    # the full bundled grid, one replication each, minimal bootstrap: checks
    # that every row parses, runs, and emits one record
    out = tmp_path / "bundle.csv"
    code = run_cli(["bench", "--scenarios", "paper_tables", "--s", "1",
                    "--b", "9", "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 337
