"""The benchmark's workloads.

Each workload is a closed loop with a single caller: it issues one test (or
one Monte Carlo grid), waits for the result, then issues the next. Inputs
are generated from the workload seed alone; the package receives only the
generated inputs. `iteration` returns what one pass produced, and the
caller checks the outputs against the committed references.

Variant names follow the bundled ``paper_tables`` file: hcb = H with
circular blocks, hsb = H with stationary blocks, jcs = J with
non-overlapping blocks of a fixed length, jrs = J with non-overlapping
blocks of the adaptive length.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar
from time import perf_counter

from panelcpt import cli, cpt, dgp, mc
from panelcpt.errors import PanelCptError

# Fields compared at a relative tolerance; every other field exactly.
FLOAT_FIELDS = ("statistic_value", "critical_value", "p_value",
                "rejection_frequency", "mean_block_length")
RTOL = 1e-9


def variant(test) -> str:
    """The paper_tables variant name of a test configuration."""
    if test.statistic == "H":
        return "hcb" if test.scheme == "circular" else "hsb"
    return "jrs" if test.block_rule == "adaptive" else "jcs"


def program_seed(workload: str, seed: int, purpose: str) -> int:
    """32-bit program seed derived from the workload seed (stable across
    Python versions: string seeding hashes with SHA-512)."""
    return random.Random(f"{workload}:{seed}:{purpose}").getrandbits(32)


@dataclass
class Iteration:
    """Outcome of one pass of a workload.

    ``outputs`` maps an output key to the fields checked against the
    reference; ``weight`` maps the same key to the number of tests whose
    result that output summarizes, when more than one. ``latencies`` holds
    (key, seconds) per completed test.
    """

    attempted: int
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    weight: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    simulate_s: float = 0.0  # data generation outside `latencies`


def _test_outputs(result) -> dict:
    return {
        "statistic_value": float(result.statistic_value),
        "critical_value": float(result.critical_value),
        "p_value": float(result.p_value),
        "reject": bool(result.reject),
        "block_length": int(result.block_length_used),
        "changepoint_estimate": int(result.changepoint_estimate),
    }


# ------------------------------------------------------------------ mc_small

# The paper_tables row of mc_small (rho=0.3, beta=0.5, t5 errors), T <= 100.
MC_ROW = "t1_rho0.3_beta0.5_"
MC_LAW = "_t5_"
MC_MAX_T = 100


@dataclass(frozen=True)
class McSmall:
    """`panelcpt bench` in-process over the T<=100 cells of one DGP row."""

    name: ClassVar[str] = "mc_small"
    workers: ClassVar[int] = 1
    shapes: tuple = ()  # empty: every shape of the row with T <= MC_MAX_T
    s: int = 4
    b: int | None = None  # None keeps the published B=500 of the file

    def generate(self, seed: int, workdir: Path) -> dict:
        bundled = Path(cli.__file__).parent / "data" / "paper_tables.scn"
        lines = ["defaults s=1000 b=500 alpha=0.05"]
        for line in bundled.read_text(encoding="utf-8").splitlines():
            if not line.startswith("scenario ") or MC_ROW not in line or MC_LAW not in line:
                continue
            fields = dict(tok.split("=", 1) for tok in line.split()[1:])
            shape = f"{fields['n']}x{fields['t']}"
            if int(fields["t"]) <= MC_MAX_T and (not self.shapes or shape in self.shapes):
                lines.append(line)
        scn = workdir / f"{self.name}-{seed}.scn"
        scn.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = workdir / f"{self.name}-{seed}.csv"
        argv = ["bench", "--scenarios", str(scn), "--s", str(self.s)]
        if self.b is not None:
            argv += ["--b", str(self.b)]
        argv += ["--seed", str(program_seed(self.name, seed, "bench")), "--out", str(out)]
        return {"argv": argv, "out": out, "cells": len(lines) - 1}

    def probes(self, tracer) -> None:
        tracer.patch([mc], "simulate_panel", "dgp.simulate_panel")
        tracer.patch([mc], "run_test", "cpt.run_test", attrs=test_attrs)

    def iteration(self, inputs: dict, tracer, workers: int) -> Iteration:
        mark = len(tracer.spans)
        expected = inputs["cells"] * self.s
        try:
            code = cli.main(inputs["argv"] + ["--workers", str(workers)])
        except Exception as exc:  # a crash is a failed pass, not a dead benchmark
            return Iteration(expected, expected, errors=[f"bench raised {exc!r}"])
        if code != 0:
            return Iteration(expected, expected, errors=[f"bench exited with {code}"])
        it = Iteration(expected)
        with open(inputs["out"], newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                done = int(row["S"])
                it.failed += self.s - done
                it.outputs[row["label"]] = {
                    "rejection_frequency": float(row["rejection_frequency"]),
                    "mean_block_length": float(row["mean_block_length"]),
                    "S": done,
                }
                it.weight[row["label"]] = done
        # a replication is simulate_panel followed by run_test on its panel
        spans = sorted(tracer.spans[mark:], key=lambda s: s[2])
        started = None
        for _, name, start, end, _, attrs, _ in spans:
            if name == "dgp.simulate_panel":
                started = start
            elif name == "cpt.run_test" and started is not None and attrs and "key" in attrs:
                it.latencies.append((attrs["key"], end - started))
                started = None
        return it


# ------------------------------------------------------------------ long_series

# (statistic, scheme) of the adaptive-block tests run on each long panel
LONG_SERIES_TESTS = (("H", "circular"), ("H", "stationary"), ("J", "nonoverlapping"))


@dataclass(frozen=True)
class LongSeries:
    """`run_test` from the library on one simulated N x T panel per pass."""

    name: ClassVar[str] = "long_series"
    workers: ClassVar[int] = 1
    n: int = 100
    t: int = 1000
    b: int = 500

    def generate(self, seed: int, workdir: Path) -> dict:
        data = dgp.DgpConfig(n=self.n, t=self.t, rho=0.3, beta=0.5, error_law="t5",
                             seed=program_seed(self.name, seed, "panel"))
        configs = [
            cpt.TestConfig(statistic=stat, scheme=scheme, block_rule="adaptive",
                           b=self.b, alpha=0.05,
                           seed=program_seed(self.name, seed, f"{stat}-{scheme}"))
            for stat, scheme in LONG_SERIES_TESTS
        ]
        return {"dgp": data, "tests": configs}

    def probes(self, tracer) -> None:
        pass

    def iteration(self, inputs: dict, tracer, workers: int) -> Iteration:
        it = Iteration(len(inputs["tests"]))
        shape = f"{self.n}x{self.t}"
        tic = perf_counter()
        try:
            panel = dgp.simulate_panel(inputs["dgp"])
        except PanelCptError as exc:
            return Iteration(it.attempted, it.attempted, errors=[f"simulate: {exc}"])
        it.simulate_s = perf_counter() - tic
        for cfg in inputs["tests"]:
            key = f"{shape}/{variant(cfg)}"
            tic = perf_counter()
            try:
                result = cpt.run_test(panel, cfg, workers=workers)
            except PanelCptError as exc:
                it.failed += 1
                it.errors.append(f"{key}: {exc}")
                continue
            it.latencies.append((key, perf_counter() - tic))
            it.outputs[key] = _test_outputs(result)
        return it


# ------------------------------------------------------------------ wide_panel_cli

@dataclass(frozen=True)
class WidePanelCli:
    """`panelcpt simulate` then `panelcpt test` on the written CSV."""

    name: ClassVar[str] = "wide_panel_cli"
    workers: ClassVar[int] = 2
    n: int = 2000
    t: int = 60
    b: int = 500

    def generate(self, seed: int, workdir: Path) -> dict:
        panel_csv = workdir / f"{self.name}-{seed}.csv"
        result_json = workdir / f"{self.name}-{seed}.json"
        simulate = ["simulate", "--n", str(self.n), "--t", str(self.t),
                    "--rho", "0.3", "--beta", "0.5", "--law", "t5",
                    "--seed", str(program_seed(self.name, seed, "panel")),
                    "--out", str(panel_csv)]
        test = ["test", "--input", str(panel_csv), "--statistic", "J",
                "--block", "adaptive", "--scheme", "nbb", "--b", str(self.b),
                "--seed", str(program_seed(self.name, seed, "test")),
                "--out", str(result_json)]
        return {"simulate": simulate, "test": test, "out": result_json}

    def probes(self, tracer) -> None:
        pass

    def iteration(self, inputs: dict, tracer, workers: int) -> Iteration:
        it = Iteration(1)
        key = f"{self.n}x{self.t}/jrs"
        argv = inputs["test"] + ["--workers", str(workers)]
        try:
            tic = perf_counter()
            code = cli.main(inputs["simulate"])
            it.simulate_s = perf_counter() - tic
            if code != 0:
                return Iteration(1, 1, errors=[f"{key}: simulate exited with {code}"])
            tic = perf_counter()
            code = cli.main(argv)
            latency = perf_counter() - tic
        except Exception as exc:  # a crash is a failed test, not a dead benchmark
            return Iteration(1, 1, errors=[f"{key}: raised {exc!r}"])
        if code != 0:
            return Iteration(1, 1, errors=[f"{key}: test exited with {code}"])
        record = json.loads(Path(inputs["out"]).read_text(encoding="utf-8"))
        it.outputs[key] = {f: record[f] for f in (
            "statistic_value", "critical_value", "p_value", "reject",
            "block_length", "changepoint_estimate")}
        it.latencies.append((key, latency))
        return it


WORKLOADS = {w.name: w for w in (McSmall(), LongSeries(), WidePanelCli())}


# ------------------------------------------------------------------ span attrs

def test_attrs(args, kwargs, result) -> dict:
    panel, cfg = args[0], args[1]
    return {"key": f"{panel.n_series}x{panel.n_time}/{variant(cfg)}"}


# ------------------------------------------------------------------ references

def compare(outputs: dict, reference: dict) -> list[tuple[str, str]]:
    """(output key, description) for each field that differs from the
    reference; empty when all agree.

    Floats compare at relative tolerance RTOL, everything else exactly. A
    block length that differs is named as such: it flips at a ``ceil``
    boundary of the selector even when the data agree to the last digits.
    """
    problems = []
    for key in sorted(set(outputs) | set(reference)):
        if key not in reference:
            problems.append((key, f"{key}: no reference output"))
            continue
        if key not in outputs:
            problems.append((key, f"{key}: missing from the program's output"))
            continue
        got, want = outputs[key], reference[key]
        for name in sorted(want):
            g, w = got.get(name), want[name]
            if name in FLOAT_FIELDS and isinstance(g, (int, float)) and not isinstance(g, bool):
                same = abs(g - w) <= RTOL * max(abs(g), abs(w))
            else:
                same = g == w
            if not same:
                kind = " (block length flip)" if "block_length" in name else ""
                problems.append((key, f"{key}.{name}: expected {w!r}, got {g!r}{kind}"))
    return problems
