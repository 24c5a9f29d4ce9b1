"""Command-line interface: run a test on a CSV panel, simulate panels, and
reproduce simulation tables from scenario files.

Scenario files are line-oriented. Each non-comment line starts with a record
type followed by key=value tokens:

    # comment
    defaults s=1000 b=500 alpha=0.05 statistic=J scheme=nbb block=adaptive
    scenario label=size_r03 rho=0.3 beta=0 n=50 t=50 law=normal break=none

``defaults`` lines update the running defaults; ``scenario`` lines emit one
scenario, filling unspecified keys from the defaults. Recognized keys:
label, n, t, rho, beta, law (normal|t5), break (none|cancel|noncancel),
t0_frac, statistic (J|H), scheme (nbb|cbb|sb), block (adaptive|INT), b,
alpha, s. The bundled file ``paper_tables`` encodes the full size and power
grids at their published scales.

Exit codes: 0 success, 2 usage or input error, 3 degenerate data, 1 internal.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from ._random import check_choice, check_int
from .cpt import STATISTICS, TestConfig, run_test
from .dgp import LAWS, DgpConfig, simulate_panel
from .errors import DegenerateSeriesError, MonteCarloError
from .mc import Scenario, grid_records, records_csv, records_json, run_grid
from .panel import csv_text, load_csv

__all__ = ["main", "parse_scenarios", "load_scenario_file"]

# command-line and scenario-file spellings of the library's option values
_SCHEME_ALIASES = {"nbb": "nonoverlapping", "cbb": "circular", "sb": "stationary"}
_BREAK_ALIASES = {"none": "none", "cancel": "cancelling", "noncancel": "noncancelling"}
_LAYOUT_ALIASES = {"cols": "columns", "rows": "rows"}


def _write_out(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _workers(token: str) -> int:
    try:
        return check_int("workers", int(token), 1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _block_rule(token: str):
    if token == "adaptive":
        return "adaptive"
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"block must be 'adaptive' or an integer, got {token!r}")


def _test_config(fields: dict) -> TestConfig:
    return TestConfig(
        statistic=fields["statistic"],
        scheme=_SCHEME_ALIASES[check_choice("scheme", fields["scheme"], _SCHEME_ALIASES)],
        block_rule=_block_rule(fields["block"]),
        b=int(fields["b"]),
        alpha=float(fields["alpha"]),
        seed=fields.get("seed"),
    )


def _dgp_config(fields: dict) -> DgpConfig:
    return DgpConfig(
        n=int(fields["n"]),
        t=int(fields["t"]),
        rho=float(fields["rho"]),
        beta=float(fields["beta"]),
        error_law=fields["law"],
        break_spec=_BREAK_ALIASES[check_choice("break", fields["break"], _BREAK_ALIASES)],
        t0_fraction=float(fields["t0_frac"]),
        seed=fields.get("seed"),
    )


# ---------------------------------------------------------------- test

def _cmd_test(args) -> int:
    panel = load_csv(args.input, layout=_LAYOUT_ALIASES[args.layout])
    cfg = _test_config(vars(args))
    result = run_test(panel, cfg, workers=args.workers)
    record = {
        "statistic": cfg.statistic,
        "scheme": args.scheme,
        "block_rule": cfg.block_rule,
        "block_length": result.block_length_used,
        "b": cfg.b,
        "alpha": cfg.alpha,
        "seed": cfg.seed,
        "statistic_value": result.statistic_value,
        "critical_value": result.critical_value,
        "p_value": result.p_value,
        "reject": result.reject,
        "changepoint_estimate": result.changepoint_estimate,
    }
    _write_out(json.dumps(record, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------- simulate

def _cmd_simulate(args) -> int:
    panel = simulate_panel(_dgp_config(vars(args)))
    _write_out(csv_text(panel), args.out)
    return 0


# ---------------------------------------------------------------- bench

# defaults of the scenario keys, and of the matching command-line options
_DEFAULTS = {
    "rho": "0", "beta": "0", "law": "normal", "break": "none",
    "t0_frac": "0.5", "statistic": "J", "scheme": "nbb", "block": "adaptive",
    "b": "500", "alpha": "0.05", "s": "1000",
}
_SCENARIO_KEYS = {"label", "n", "t", *_DEFAULTS}


def _tokenize(line: str, lineno: int) -> dict:
    pairs = {}
    for token in line.split():
        if "=" not in token:
            raise ValueError(f"line {lineno}: expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        if key not in _SCENARIO_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        pairs[key] = value
    return pairs


def _build_scenario(fields: dict, lineno: int) -> Scenario:
    for required in ("label", "n", "t"):
        if required not in fields:
            raise ValueError(f"line {lineno}: scenario needs {required}=")
    try:
        return Scenario(label=fields["label"], dgp=_dgp_config(fields),
                        test=_test_config(fields), s=int(fields["s"]))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def parse_scenarios(text: str) -> list[Scenario]:
    """Parse scenario-file text into a list of scenarios."""
    defaults = dict(_DEFAULTS)
    scenarios = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, _, rest = line.partition(" ")
        pairs = _tokenize(rest, lineno)
        if kind == "defaults":
            pairs.pop("label", None)
            defaults.update(pairs)
        elif kind == "scenario":
            scenarios.append(_build_scenario({**defaults, **pairs}, lineno))
        else:
            raise ValueError(f"line {lineno}: unknown record type {kind!r}")
    if not scenarios:
        raise ValueError("scenario file contains no scenario lines")
    return scenarios


def load_scenario_file(spec: str) -> list[Scenario]:
    """Load scenarios from a path, or from the bundled file by name."""
    if spec == "paper_tables":
        text = resources.files("panelcpt.data").joinpath("paper_tables.scn").read_text()
    else:
        text = Path(spec).read_text(encoding="utf-8")
    return parse_scenarios(text)


def _cmd_bench(args) -> int:
    scenarios = load_scenario_file(args.scenarios)
    if args.s is not None:
        scenarios = [replace(sc, s=args.s) for sc in scenarios]
    if args.b is not None:
        scenarios = [replace(sc, test=replace(sc.test, b=args.b)) for sc in scenarios]

    total = len(scenarios)

    def progress(scenario, report):
        done = progress.count = getattr(progress, "count", 0) + 1
        print(
            f"[{done}/{total}] {scenario.label}: "
            f"freq={report.rejection_frequency:.4f} "
            f"meanL={report.mean_block_length:.2f} ({report.wall_time_s:.1f}s)",
            file=sys.stderr,
        )

    reports = run_grid(scenarios, args.seed, workers=args.workers, progress=progress)
    records = grid_records(scenarios, reports, include_timings=args.timings)
    fmt = args.format
    if fmt == "auto":
        fmt = "json" if args.out.endswith(".json") else "csv"
    _write_out(records_json(records) if fmt == "json" else records_csv(records), args.out)
    return 0


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelcpt",
        description="Change-point tests for panel data via block bootstrap.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run a change-point test on a CSV panel")
    p_test.add_argument("--input", required=True, help="CSV file with the panel")
    p_test.add_argument("--layout", choices=_LAYOUT_ALIASES, default="cols",
                        help="series per column (default) or per row")
    p_test.add_argument("--statistic", choices=STATISTICS, default=_DEFAULTS["statistic"])
    p_test.add_argument("--scheme", choices=_SCHEME_ALIASES, default=_DEFAULTS["scheme"],
                        help="non-overlapping, circular, or stationary bootstrap")
    p_test.add_argument("--block", default=_DEFAULTS["block"],
                        help="'adaptive' or a fixed integer block length")
    p_test.add_argument("--b", type=int, default=_DEFAULTS["b"], help="bootstrap replicates")
    p_test.add_argument("--alpha", type=float, default=_DEFAULTS["alpha"])
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--workers", type=_workers, default=1)
    p_test.add_argument("--out", default="-", help="output path or - for stdout")
    p_test.set_defaults(func=_cmd_test)

    p_sim = sub.add_parser("simulate", help="simulate a panel and write it as CSV")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--t", type=int, required=True)
    p_sim.add_argument("--rho", type=float, default=_DEFAULTS["rho"])
    p_sim.add_argument("--beta", type=float, default=_DEFAULTS["beta"])
    p_sim.add_argument("--law", choices=LAWS, default=_DEFAULTS["law"])
    p_sim.add_argument("--break", choices=_BREAK_ALIASES, default=_DEFAULTS["break"])
    p_sim.add_argument("--t0-frac", dest="t0_frac", type=float, default=_DEFAULTS["t0_frac"])
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default="-", help="output path or - for stdout")
    p_sim.set_defaults(func=_cmd_simulate)

    p_bench = sub.add_parser("bench", help="run a scenario grid and write reports")
    p_bench.add_argument("--scenarios", required=True,
                         help="scenario file path, or 'paper_tables' for the bundle")
    p_bench.add_argument("--s", type=int, default=None, help="override replications")
    p_bench.add_argument("--b", type=int, default=None, help="override bootstrap size")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--workers", type=_workers, default=1)
    p_bench.add_argument("--out", default="-", help="output path or - for stdout")
    p_bench.add_argument("--format", choices=("auto", "csv", "json"), default="auto")
    p_bench.add_argument("--timings", action="store_true",
                         help="include real wall times (breaks byte-determinism)")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateSeriesError, MonteCarloError) as exc:
        print(f"panelcpt: degenerate data: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # every input error is a ValueError
        print(f"panelcpt: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
