"""Self-test of the benchmark at tiny scale (a few seconds).

    python3 perfbench/selftest.py

For every workload, shrunk to a tiny panel and a few bootstrap replicates,
it checks that:
  * an untraced and a traced run pass the output check against references
    recorded on the spot, and print every metric of BENCHMARK.json by name
    with its unit, in the result line too;
  * a deliberately perturbed reference value, and a perturbed block length,
    are reported as failures and named in the mismatch list.
It also checks the per-thread gather time and the per-kind median on
fixed spans and latencies, the seed rotation, and that run.py in a directory holding
only BENCHMARK.json and the benchmark's files exits non-zero without
printing a result. Exit code 0 means every check passed.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys

import runtime

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def tiny_specs():
    import workloads

    return {
        "mc_small": workloads.McSmall(shapes=("50x50",), s=1, b=20),
        "long_series": workloads.LongSeries(n=8, t=120, b=20),
        "wide_panel_cli": workloads.WidePanelCli(n=40, t=30, b=20),
    }


def printed(record: dict, trace: bool) -> tuple[str, dict]:
    import bench

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        bench.emit(record, trace)
    text = buf.getvalue()
    return text, json.loads(text.strip().splitlines()[-1])


def check_names(name: str, record: dict, trace: bool, declared: dict) -> None:
    text, result = printed(record, trace)
    lines = text.splitlines()
    kind = "per_layer" if trace else "end_to_end"
    for metric, unit in declared.items():
        shown = any(line.split()[:1] == [metric] and line.split()[2] == unit
                    for line in lines if len(line.split()) >= 3)
        check(shown, f"{name} {kind}: {metric} printed with unit {unit}")
        entry = result["metrics"].get(metric, {})
        check(entry.get("unit") == unit and isinstance(entry.get("value"), (int, float)),
              f"{name} {kind}: {metric} in the result line with unit {unit}")
    check(set(result) == {"correct", "attempted", "failed", "metrics"}
          and set(result["metrics"]) == set(declared),
          f"{name} {kind}: result line has exactly the declared keys")


def perturbed(refs: dict, name: str, field_kind: str):
    """Copy of `refs` with one float (or one block length) changed."""
    out = copy.deepcopy(refs)
    outputs = out["workloads"][name]["0"]
    key = sorted(outputs)[0]
    if field_kind == "float":
        field = next(f for f in ("statistic_value", "rejection_frequency", "mean_block_length")
                     if f in outputs[key])
        outputs[key][field] = outputs[key][field] * (1 + 1e-6) + 1e-6
    else:
        field = next(f for f in ("block_length", "mean_block_length") if f in outputs[key])
        outputs[key][field] = outputs[key][field] + 1
    return out, f"{key}.{field}"


def main() -> int:
    runtime.prepare()
    runtime.import_package()
    import bench
    import record_references

    declared = json.loads((runtime.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    check(end_to_end == bench.END_TO_END, "BENCHMARK.json end_to_end matches the benchmark")
    check(per_layer == bench.PER_LAYER, "BENCHMARK.json per_layer matches the benchmark")
    runtime.OUT.mkdir(exist_ok=True)

    # Two pool threads gather around their wrapped calls (0.3 s and 0.2 s)
    # while the main thread waits inside bootstrap_distribution.
    spans = [
        (1, "bootstrap.bootstrap_distribution", 0.0, 2.0, None, None, "main"),
        (2, "bootstrap.generator", 0.1, 0.2, 1, None, "a"),
        (3, "stats.batch", 0.5, 1.0, 1, None, "a"),
        (4, "bootstrap.generator", 0.2, 0.3, 1, None, "b"),
        (5, "stats.batch", 0.5, 1.5, 1, None, "b"),
    ]
    check(abs(bench.gather_time(spans) - 0.5) < 1e-9,
          "gather time is counted per thread and summed over threads")
    check(bench.p50_of_kinds({"fast": [1.0, 2.0, 3.0], "slow": [10.0, 11.0, 30.0],
                              "mid": [4.0, 5.0, 9.0]}) == 5.0,
          "test_s_p50 is the median of the per-kind medians")

    for name, spec in tiny_specs().items():
        refs = {"shipped_seeds": [0], "held_out_seeds": [],
                "workloads": {name: {"0": record_references.record(spec, 0)}}}
        for trace in (False, True):
            record = bench.run_workload(name, 0, 0.2, trace, spec=spec, refs=refs,
                                        setup_times=[0.1, 0.2, 0.3])
            check(record["correct"] and record["failed"] == 0,
                  f"{name} trace={int(trace)}: outputs match the reference")
            check_names(name, record, trace, per_layer if trace else end_to_end)
        check(bench.resolve_seed(refs, name, 12345) == 0,
              f"{name}: a seed without a reference uses a shipped seed's inputs")
        for field_kind in ("float", "block"):
            bad_refs, field = perturbed(refs, name, field_kind)
            record = bench.run_workload(name, 0, 0.2, False, spec=spec, refs=bad_refs,
                                        setup_times=[0.1])
            _, result = printed(record, False)
            named = any(field in m for m in record["mismatches"])
            check(not result["correct"] and result["failed"] > 0 and named,
                  f"{name}: perturbed reference {field} is reported as a failure")

    bare = runtime.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(runtime.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(runtime.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "run.py without the package's source exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
