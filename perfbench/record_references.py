"""Record the outputs every benchmark run is checked against.

    python3 perfbench/record_references.py

Runs one pass of each workload for every shipped and held-out seed and
writes perfbench/references.json. Run it only at a commit whose outputs are
the accepted ones: a later change that alters an output is a mismatch the
benchmark reports, not a reason to record again.

wide_panel_cli is recorded with one bootstrap worker while the benchmark
runs it with two, so every benchmark run checks that results do not depend
on the worker count. Held-out seeds are never picked by the seed rotation;
a change that claims a gain is checked on them by passing one as --seed.
"""

from __future__ import annotations

import json
import sys

import runtime

SHIPPED_SEEDS = list(range(10))
HELD_OUT_SEEDS = [1001]


def record(spec, seed: int) -> dict:
    import tracing

    inputs = spec.generate(seed, runtime.OUT)
    tracer = tracing.Tracer()
    spec.probes(tracer)
    try:
        it = spec.iteration(inputs, tracer, workers=1)
    finally:
        tracer.restore()
    if it.failed or it.errors:
        raise RuntimeError(f"{spec.name} seed {seed}: {it.failed} failed, {it.errors}")
    return it.outputs


def main() -> int:
    runtime.prepare()
    runtime.import_package()
    import bench
    import workloads

    runtime.OUT.mkdir(exist_ok=True)
    recorded = {}
    for name, spec in workloads.WORKLOADS.items():
        recorded[name] = {}
        for seed in SHIPPED_SEEDS + HELD_OUT_SEEDS:
            recorded[name][str(seed)] = record(spec, seed)
            print(f"{name} seed {seed}: recorded", file=sys.stderr, flush=True)
    refs = {
        "rtol": workloads.RTOL,
        "shipped_seeds": SHIPPED_SEEDS,
        "held_out_seeds": HELD_OUT_SEEDS,
        "recorded_with": bench.environment(),
        "workloads": recorded,
    }
    bench.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
