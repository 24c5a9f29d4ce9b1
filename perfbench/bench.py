"""Run one workload, check its outputs, and report its metrics.

Untraced runs (``--trace 0``) report the end-to-end metrics. Traced runs
(``--trace 1``) first run the workload untraced for half the time, then with
spans at every public function of the package's modules for the other
half, and report the per-layer metrics together with the tracing overhead
(traced minus untraced wall time per pass). Both kinds check every output
against the committed references.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import runtime
import tracing
import workloads

REFERENCES = Path(__file__).resolve().parent / "references.json"
SETUP_PROBES = 15

END_TO_END = {
    "setup_s": "s",
    "tests_per_s": "1/s",
    "test_s_p50": "s",
    "test_s_tail": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "bootstrap.generator.calls": "count",
    "bootstrap.generator.s": "s",
    "bootstrap.resample_indices.calls": "count",
    "bootstrap.resample_indices.s": "s",
    "blocklen.autocovariances.calls": "count",
    "blocklen.autocovariances.s": "s",
    "blocklen.autocovariances.lag_products": "count",
    "stats.batch.calls": "count",
    "stats.batch.self_s": "s",
    "stats.batch.elements": "count",
    "blocklen.adaptive_block_length.calls": "count",
    "blocklen.adaptive_block_length.s": "s",
    "blocklen.fallbacks": "count",
    "blocklen.l_adpt_mean": "periods",
    "bootstrap.gather.self_s": "s",
    "bootstrap.gather_bytes": "B",
    "bootstrap.chunks": "count",
    "bootstrap.replicates": "count",
    "bootstrap.scalar_fallbacks": "count",
    "bootstrap.quantile_pvalue.s": "s",
    "panel.load_csv.s": "s",
    "panel.load_csv.bytes": "B",
    "panel.csv_text.s": "s",
    "dgp.simulate_panel.calls": "count",
    "dgp.simulate_panel.s": "s",
    "mc.replications": "count",
    "mc.replication_errors": "count",
    "mc.self_s": "s",
    "cpt.run_test.self_s": "s",
    "stats.observed.s": "s",
    "cli.self_s": "s",
    "share.autocovariances": "%",
    "share.adaptive_block_length": "%",
    "share.generator_indices": "%",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}


# ------------------------------------------------------------------ set-up

def setup_probe(workload: str, seed: int, started: float) -> float:
    """Seconds since `started` (taken before the package was imported) once
    the workload's inputs are generated.

    Runs in a fresh process, so that the import is really done.
    """
    runtime.import_package()
    spec = workloads.WORKLOADS[workload]
    runtime.OUT.mkdir(exist_ok=True)
    spec.generate(resolve_seed(load_references(), workload, seed), runtime.OUT)
    return perf_counter() - started


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=runtime.ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise runtime.SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


# ------------------------------------------------------------------ references

def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def resolve_seed(refs: dict, workload: str, seed: int) -> int:
    """Inputs are those of `seed` when it has a reference, otherwise those of
    shipped seed ``seed mod len(shipped)``; held-out seeds are only used
    when asked for by number."""
    if str(seed) in refs["workloads"].get(workload, {}):
        return seed
    shipped = refs["shipped_seeds"]
    return shipped[seed % len(shipped)]


# ------------------------------------------------------------------ tracing

def install_spans(tracer: tracing.Tracer) -> None:
    """Wrap the public functions of every module at each place they are
    called from, so each call into a layer records a span."""
    from panelcpt import blocklen, bootstrap, cli, cpt, dgp, mc, panel, stats

    patch = tracer.patch
    patch([cli], "main", "cli.main")
    patch([mc, cli], "run_grid", "mc.run_grid")
    patch([mc], "rejection_frequency", "mc.rejection_frequency",
          attrs=lambda a, k, r: {"s": r.s, "errors": len(r.errors)})
    patch([dgp, mc, cli], "simulate_panel", "dgp.simulate_panel")
    patch([cpt, mc, cli], "run_test", "cpt.run_test", attrs=workloads.test_attrs)
    patch([panel, cli], "load_csv", "panel.load_csv",
          attrs=lambda a, k, r: {"bytes": os.path.getsize(a[0])})
    patch([panel, cli], "csv_text", "panel.csv_text")
    patch([blocklen], "adaptive_block_length", "blocklen.adaptive_block_length",
          attrs=lambda a, k, r: {"l": r.l_adpt, "fallback": bool(r.fallback)})
    patch([blocklen], "autocovariances", "blocklen.autocovariances",
          attrs=_lag_products)
    patch([bootstrap, cpt], "bootstrap_distribution", "bootstrap.bootstrap_distribution",
          attrs=lambda a, k, r: {"b": int(a[3])})
    patch([bootstrap, cpt], "empirical_quantile", "bootstrap.quantile_pvalue")
    patch([bootstrap, cpt], "p_value", "bootstrap.quantile_pvalue")
    patch([bootstrap], "resample_indices", "bootstrap.resample_indices")
    patch([bootstrap.RngSpec], "generator_for", "bootstrap.generator")
    for cls in (stats.JStatistic, stats.HStatistic):
        patch([cls], "batch", "stats.batch",
              attrs=lambda a, k, r: {"elements": a[1].size, "bytes": a[1].nbytes})
        patch([cls], "__call__", "stats.call")


def _lag_products(args, kwargs, result) -> dict:
    demeaned, max_lag = args[0], int(args[1])
    t = demeaned.shape[-1]
    rows = demeaned.size // t
    return {"lag_products": rows * sum(t - k for k in range(max_lag + 1))}


_NOT_SUMMED = ("blocklen.l_adpt_mean", "trace.wall_s", "trace.untraced_wall_s",
               "trace.overhead_s")


def layer_metrics(spans, traced_walls, untraced_walls) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass from the spans of the traced passes,
    and the per-test-key shares recorded alongside them."""
    selfs = tracing.self_times(spans)
    names = {s[0]: s[1] for s in spans}
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    summed = defaultdict(float)
    observed_s = scalar_fallbacks = 0
    ls = []
    for sid, name, start, end, parent, attrs, _ in spans:
        calls[name] += 1
        total[name] += end - start
        own[name] += selfs[sid]
        attrs = attrs or {}
        for field in ("lag_products", "elements", "bytes", "b", "s", "errors"):
            if field in attrs:
                summed[f"{name}.{field}"] += attrs[field]
        if name == "blocklen.adaptive_block_length" and "l" in attrs:
            ls.append(attrs["l"])
            summed["fallbacks"] += attrs["fallback"]
        if name == "stats.call":
            parent_name = names.get(parent)
            if parent_name == "cpt.run_test":
                observed_s += end - start
            elif parent_name == "bootstrap.bootstrap_distribution":
                scalar_fallbacks += 1

    test_s = total["cpt.run_test"]

    def share(seconds):
        return 100.0 * seconds / test_s if test_s > 0 else 0.0

    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    library_self = sum(v for k, v in own.items() if k != "bench.iteration")
    m = {
        "bootstrap.generator.calls": calls["bootstrap.generator"],
        "bootstrap.generator.s": total["bootstrap.generator"],
        "bootstrap.resample_indices.calls": calls["bootstrap.resample_indices"],
        "bootstrap.resample_indices.s": total["bootstrap.resample_indices"],
        "blocklen.autocovariances.calls": calls["blocklen.autocovariances"],
        "blocklen.autocovariances.s": total["blocklen.autocovariances"],
        "blocklen.autocovariances.lag_products":
            int(summed["blocklen.autocovariances.lag_products"]),
        "stats.batch.calls": calls["stats.batch"],
        "stats.batch.self_s": own["stats.batch"],
        "stats.batch.elements": int(summed["stats.batch.elements"]),
        "blocklen.adaptive_block_length.calls": calls["blocklen.adaptive_block_length"],
        "blocklen.adaptive_block_length.s": total["blocklen.adaptive_block_length"],
        "blocklen.fallbacks": int(summed["fallbacks"]),
        "blocklen.l_adpt_mean": statistics.fmean(ls) if ls else 0.0,
        "bootstrap.gather.self_s": gather_time(spans),
        "bootstrap.gather_bytes": int(summed["stats.batch.bytes"]),
        "bootstrap.chunks": calls["stats.batch"],
        "bootstrap.replicates": int(summed["bootstrap.bootstrap_distribution.b"]),
        "bootstrap.scalar_fallbacks": scalar_fallbacks,
        "bootstrap.quantile_pvalue.s": total["bootstrap.quantile_pvalue"],
        "panel.load_csv.s": total["panel.load_csv"],
        "panel.load_csv.bytes": int(summed["panel.load_csv.bytes"]),
        "panel.csv_text.s": total["panel.csv_text"],
        "dgp.simulate_panel.calls": calls["dgp.simulate_panel"],
        "dgp.simulate_panel.s": total["dgp.simulate_panel"],
        "mc.replications": int(summed["mc.rejection_frequency.s"]),
        "mc.replication_errors": int(summed["mc.rejection_frequency.errors"]),
        "mc.self_s": own["mc.run_grid"] + own["mc.rejection_frequency"],
        "cpt.run_test.self_s": own["cpt.run_test"],
        "stats.observed.s": observed_s,
        "cli.self_s": own["cli.main"],
        "share.autocovariances": share(total["blocklen.autocovariances"]),
        "share.adaptive_block_length": share(total["blocklen.adaptive_block_length"]),
        "share.generator_indices":
            share(total["bootstrap.generator"] + total["bootstrap.resample_indices"]),
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.unattributed_s": own["bench.iteration"],
        "trace.spans": len(spans),
    }
    # per pass, so that a faster program fitting more passes into the traced
    # half of the run reports comparable numbers
    passes = len(traced_walls)
    for key in m:
        if key not in _NOT_SUMMED and not key.startswith("share."):
            m[key] /= passes
    detail = {
        "self_s_by_layer": {k: own[k] / passes for k in sorted(own) if calls[k]},
        "calls_by_layer": {k: calls[k] / passes for k in sorted(calls) if calls[k]},
        "library_self_s_per_pass": library_self / passes,
        "shares_by_test_key": _shares_by_key(spans),
    }
    return m, detail


def gather_time(spans) -> float:
    """Seconds of bootstrap_distribution spent outside its wrapped children,
    counted per thread and summed over threads.

    On each thread that ran work for a bootstrap_distribution call, the
    window runs from the first child span's start to the last one's end;
    what the children leave uncovered in it is the gather
    ``demeaned[:, idx]`` (plus the chunk loop around it). A thread's idle
    time before its first chunk or after its last is not counted, nor is the
    main thread's wait while the pool runs.
    """
    calls = {s[0] for s in spans if s[1] == "bootstrap.bootstrap_distribution"}
    children = defaultdict(list)
    for _, _, start, end, parent, _, thread in spans:
        if parent in calls:
            children[parent, thread].append((start, end))
    return sum(max(e for _, e in iv) - min(b for b, _ in iv) - tracing.union_length(iv)
               for iv in children.values())


_SHARED = ("blocklen.autocovariances", "blocklen.adaptive_block_length",
           "bootstrap.generator", "bootstrap.resample_indices")


def _shares_by_key(spans) -> dict:
    """For each test key, the share of run_test time spent in autocovariances,
    adaptive_block_length, and generator plus index draws.

    Tests run one at a time, so a span belongs to the test whose interval
    contains its start, whichever thread it ran on.
    """
    tests = sorted((s[2], s[3], (s[5] or {}).get("key", "?"))
                   for s in spans if s[1] == "cpt.run_test")
    starts = [t[0] for t in tests]
    sums = defaultdict(lambda: defaultdict(float))
    for start, end, key in tests:
        sums[key]["test_s"] += end - start
        sums[key]["tests"] += 1
    for _, name, start, end, _, _, _ in spans:
        i = bisect.bisect_right(starts, start) - 1
        if name in _SHARED and i >= 0 and start <= tests[i][1]:
            sums[tests[i][2]][name] += end - start
    out = {}
    for key, s in sorted(sums.items()):
        out[key] = {
            "tests": int(s["tests"]),
            "test_s_mean": s["test_s"] / s["tests"],
            "autocovariances_pct": 100 * s["blocklen.autocovariances"] / s["test_s"],
            "adaptive_block_length_pct":
                100 * s["blocklen.adaptive_block_length"] / s["test_s"],
            "generator_indices_pct":
                100 * (s["bootstrap.generator"] + s["bootstrap.resample_indices"])
                / s["test_s"],
        }
    return out


# ------------------------------------------------------------------ the run

def run_passes(spec, inputs, seconds, tracer, traced, workers, done=()):
    """Closed loop: run passes until the next one would overrun `seconds`
    (at least one pass, counting those in `done`). Returns
    [(wall seconds, Iteration)]."""
    passes = list(done)
    start = perf_counter() - sum(w for w, _ in passes)
    while not passes or perf_counter() - start + passes[-1][0] <= seconds:
        tic = perf_counter()
        if traced:
            with tracer.region("bench.iteration"):
                it = spec.iteration(inputs, tracer, workers)
        else:
            it = spec.iteration(inputs, tracer, workers)
        passes.append((perf_counter() - tic, it))
    return passes


def p50_of_kinds(by_key) -> float:
    """Median over test kinds (shape/variant) of each kind's median latency.

    mc_small's kinds fall into a fast and a slow group of equal size, so the
    median of all its replications is the mean of the slowest fast and the
    fastest slow one: two extremes, which jump from run to run. Medians per
    kind are steadier. wide_panel_cli has a single kind, and long_series runs
    each of its three once in a pass; for them this is the plain median
    (for long_series as long as a run holds one pass).
    """
    return statistics.median(statistics.median(v) for v in by_key.values())


def tail(values) -> tuple[float, str]:
    """The highest sample with at least ten samples above it, and its label.

    Below 20 samples that sample would sit at or under the median, so the
    maximum is reported instead and labelled as such.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n} samples"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} samples, 10 beyond"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": runtime.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": {k: os.environ.get(k) for k in runtime.BLAS_ENV},
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def cpu_ticks():
    """The machine-wide CPU time counters of /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_pct(before, after):
    """Share of CPU time the hypervisor gave to other guests between two
    `cpu_ticks` readings. A run with a high share was slowed by the host, not
    by the program: this is the usual cause of drift between sets of runs."""
    if not before or not after or len(before) < 8:
        return None
    delta = [a - b for a, b in zip(after, before)]
    return 100.0 * delta[7] / sum(delta) if sum(delta) > 0 else None


def _commit() -> str:
    # without its own .git, git would report the commit of an enclosing repository
    if not (runtime.ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=runtime.ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (git failed)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    pkg = runtime.SRC / "panelcpt"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".scn")):
        digest.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec=None, refs=None, setup_times=None) -> dict:
    """Run one workload and return its result record (see `emit`)."""
    spec = spec or workloads.WORKLOADS[name]
    refs = refs if refs is not None else load_references()
    input_seed = resolve_seed(refs, name, seed)
    runtime.OUT.mkdir(exist_ok=True)
    inputs = spec.generate(input_seed, runtime.OUT)
    workers = min(spec.workers, runtime.cpu_count())

    probe = tracing.Tracer()
    spec.probes(probe)
    budget = seconds / 2 if trace else seconds
    try:
        # A pass short enough to fit four times into the run is first run
        # once untimed (output-checked all the same), so that lazy set-up
        # such as OpenBLAS buffers and the first page faults of the chunk
        # arrays does not land on one timed test of a handful.
        cpu_before = cpu_ticks()
        first = run_passes(spec, inputs, 0, probe, False, workers)
        if first[0][0] < budget / 4:
            warmup, plain = first, run_passes(spec, inputs, budget, probe, False, workers)
        else:
            warmup, plain = [], run_passes(spec, inputs, budget, probe, False, workers,
                                           done=first)
        cpu_after = cpu_ticks()
    finally:
        probe.restore()
    traced = []
    spans = []
    if trace:
        tracer = tracing.Tracer()
        install_spans(tracer)
        try:
            traced = run_passes(spec, inputs, budget, tracer, True, workers)
        finally:
            tracer.restore()
        spans = tracer.spans
        tracer.write(runtime.OUT / f"trace-{name}-seed{seed}.jsonl")

    reference = refs["workloads"].get(name, {}).get(str(input_seed))
    attempted = failed = 0
    mismatches, errors = [], []
    for _, it in warmup + plain + traced:
        attempted += it.attempted
        bad = it.failed
        errors.extend(it.errors)
        if reference is None:
            problems = [("*", "no reference outputs recorded")]
            bad = it.attempted
        else:
            problems = workloads.compare(it.outputs, reference)
            bad += sum(it.weight.get(k, 1) for k in {key for key, _ in problems})
        mismatches.extend(f"{name}/seed{input_seed}/{text}" for _, text in problems)
        failed += min(bad, it.attempted)

    latencies = [s for _, it in plain for _, s in it.latencies]
    by_key = defaultdict(list)
    cost_by_key = defaultdict(list)
    for _, it in plain:
        for key, s in it.latencies:
            by_key[key].append(s)
            cost_by_key[key].append(s + it.simulate_s)
    notes = []
    if workers < spec.workers:
        notes.append(f"{name} runs with {workers} of its {spec.workers} workers "
                     f"(nproc={runtime.cpu_count()})"
                     + (": the workers-invariance check is not exercised" if workers == 1 else ""))
    wall = sum(w for w, _ in plain)
    record = {
        "workload": name,
        "seed": seed,
        "input_seed": input_seed,
        "warmup_latencies_s": [s for _, it in warmup for _, s in it.latencies],
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "mismatches": list(dict.fromkeys(mismatches)),  # once, not once per pass
        "errors": errors,
        "notes": notes,
        "workers": workers,
        "processes": 1,
        "environment": environment(),
        "cell_cost_s": {k: statistics.median(v) for k, v in sorted(cost_by_key.items())},
        "latencies_s": latencies,
        "pass_walls_s": [w for w, _ in plain],
        "steal_pct": steal_pct(cpu_before, cpu_after),
    }
    metrics = {}
    if trace:
        layer, detail = layer_metrics(spans, [w for w, _ in traced], [w for w, _ in plain])
        metrics = {k: layer[k] for k in PER_LAYER}
        record["layers"] = detail
    elif latencies:
        setup_times = setup_times or []
        value, label = tail(latencies)
        metrics = {
            "setup_s": statistics.median(setup_times) if setup_times else 0.0,
            "tests_per_s": len(latencies) / wall,
            "test_s_p50": p50_of_kinds(by_key),
            "test_s_tail": value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["tail"] = label
        record["setup_samples_s"] = setup_times
    record["metrics"] = metrics
    record["correct"] = failed == 0 and bool(metrics)
    return record


def emit(record: dict, trace: bool) -> None:
    """Print the human summary, the detail line, and the result line last."""
    units = PER_LAYER if trace else END_TO_END
    print(f"{record['workload']} seed={record['seed']} (inputs of seed "
          f"{record['input_seed']}) passes={record['passes']}"
          f"{' traced=' + str(record['traced_passes']) if trace else ''} "
          f"workers={record['workers']} attempted={record['attempted']} "
          f"failed={record['failed']}"
          + (f" steal={record['steal_pct']:.1f}%" if record["steal_pct"] is not None else ""))
    for problem in record["mismatches"] + record["errors"]:
        print(f"  MISMATCH {problem}")
    for note in record["notes"]:
        print(f"  NOTE {note}")
    for key, value in record["metrics"].items():
        note = f"  ({record['tail']})" if key == "test_s_tail" else ""
        print(f"  {key:40s} {value:>16.6g} {units[key]}{note}")
    if not trace:
        print(f"  {'failed_frac':40s} {record['failed_frac']:>16.6g} fraction "
              f"({record['failed']}/{record['attempted']}, not gated)")
    print("PERFBENCH_DETAIL " + json.dumps(record, sort_keys=True))
    result = {
        "correct": record["correct"],
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
