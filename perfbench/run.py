"""panelcpt benchmark.

    python3 perfbench/run.py --workload mc_small --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 20 --trace 0

Run from the root of a checkout. ``--workload all`` runs every workload in
its own process, prints one table of their metrics, and the projected cost
of the full ``paper_tables`` run. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Exit code 2
means the package could not be set up from this checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from time import perf_counter

import runtime


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="mc_small, long_series, wide_panel_cli, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    import bench
    import workloads

    records = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=runtime.ROOT, capture_output=True, text=True, timeout=900,
        )
        detail = [line for line in proc.stdout.splitlines()
                  if line.startswith("PERFBENCH_DETAIL ")]
        if proc.returncode != 0 or not detail:
            sys.stderr.write(proc.stderr)
            print(f"{name}: run failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        records[name] = json.loads(detail[-1].split(" ", 1)[1])

    units = bench.PER_LAYER if args.trace else bench.END_TO_END
    names = list(records)
    print(f"{'metric':40s} {'unit':>8s} " + " ".join(f"{n:>16s}" for n in names))
    for metric, unit in units.items():
        cells = " ".join(f"{records[n]['metrics'][metric]:>16.6g}" for n in names)
        print(f"{metric:40s} {unit:>8s} {cells}")
    if not args.trace:
        cells = " ".join(f"{records[n]['failed_frac']:>16.6g}" for n in names)
        print(f"{'failed_frac':40s} {'fraction':>8s} {cells}")
        for n in names:
            print(f"test_s_tail of {n}: {records[n]['tail']}")
    for n in names:
        for problem in records[n]["mismatches"] + records[n]["errors"]:
            print(f"MISMATCH {problem}")
        for note in records[n]["notes"]:
            print(f"NOTE {note}")
    env = records[names[0]]["environment"]
    print("environment: " + json.dumps(env, sort_keys=True))

    costs = {}
    for n in names:
        costs.update(records[n]["cell_cost_s"])
    hours, proxies = project_paper_tables(costs)
    if hours is not None:
        print(f"PROJECTED (not a gated metric): full paper_tables run, S=1000 B=500, "
              f"{hours:.1f} core-hours at one test per core")
        for missing, used in sorted(proxies.items()):
            print(f"  {missing} priced with the measured cost of {used}")

    result = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": max(1, sum(r["attempted"] for r in records.values())),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {f"{n}.{m}": {"value": v, "unit": units[m]}
                    for n in names for m, v in records[n]["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def project_paper_tables(costs: dict):
    """Core-hours of the 336-cell grid: S of each cell times the median cost of
    one replication (simulate + test) of that cell's (shape, variant).

    Returns (hours, proxies); a (shape, variant) without a measurement is
    priced with the same shape's J adaptive cost and listed in `proxies`.
    Hours is None when a shape has no measurement at all.
    """
    from panelcpt.cli import load_scenario_file
    import workloads

    seconds = 0.0
    proxies = {}
    for sc in load_scenario_file("paper_tables"):
        shape = f"{sc.dgp.n}x{sc.dgp.t}"
        key = f"{shape}/{workloads.variant(sc.test)}"
        if key not in costs:
            proxy = f"{shape}/jrs"
            if proxy not in costs:
                return None, {}
            proxies[key] = proxy
            key = proxy
        seconds += sc.s * costs[key]
    return seconds / 3600.0, proxies


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        runtime.prepare()
        if args.setup_probe:
            started = perf_counter()
            import bench  # imports the package
            print(f"{bench.setup_probe(args.workload, args.seed, started):.9f}")
            return 0
        runtime.import_package()
        import bench
        import workloads

        if args.workload == "all":
            return _run_all(args)
        if args.workload not in workloads.WORKLOADS:
            print(f"unknown workload {args.workload!r}; choose from "
                  f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
            return 2
        setup = [] if args.trace else bench.measure_setup(args.workload, args.seed)
        record = bench.run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), setup_times=setup)
    except runtime.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    bench.emit(record, bool(args.trace))
    out = runtime.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
