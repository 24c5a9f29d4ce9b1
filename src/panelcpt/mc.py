"""Monte Carlo harness: empirical size and power over scenario grids.

``run_grid`` runs every replication of a grid on one loop. Replication r of a
scenario derives independent seeds for the data draw and for the bootstrap,
``derive_seed(seed_base, r, 0)`` and ``derive_seed(seed_base, r, 1)``, so
results are reproducible from (scenario, seed_base) alone and identical for
any worker count.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import multiprocessing
import time
from dataclasses import dataclass, replace

import numpy as np

from ._random import SEED_MAX, check_int, derive_seed
from .bootstrap import BootstrapScheme
from .cpt import TestConfig, run_test
from .dgp import DgpConfig, simulate_panel
from .errors import MonteCarloError, PanelCptError

__all__ = [
    "Scenario",
    "MonteCarloReport",
    "rejection_frequency",
    "run_grid",
    "grid_records",
    "records_csv",
    "records_json",
]


@dataclass(frozen=True)
class Scenario:
    """One Monte Carlo cell: a data process, a test, and a replication count.

    ``s`` is an integer >= 1, and a fixed block length must fit ``dgp.t``.
    Seeds carried inside ``dgp`` and ``test`` are ignored; the harness
    derives per-replication seeds from its own ``seed_base``.
    """

    label: str
    dgp: DgpConfig
    test: TestConfig
    s: int

    def __post_init__(self):
        object.__setattr__(self, "s", check_int("s", self.s, 1))
        if self.test.block_rule != "adaptive":
            BootstrapScheme(self.test.scheme, self.test.block_rule).resample_length(self.dgp.t)


@dataclass(frozen=True)
class MonteCarloReport:
    """Empirical rejection frequency of one scenario.

    ``s`` counts the replications that completed; ``rejection_frequency * s``
    is an integer. ``errors`` holds one message per failed replication (at
    most 1% of the requested count, otherwise the run aborts). ``wall_time_s``
    is the sum of the replications' own times.
    """

    label: str
    rejection_frequency: float
    s: int
    mean_block_length: float
    wall_time_s: float
    seed_base: int
    errors: tuple = ()


def _replication_worker(args):
    """((reject, block length) or None, error message or None, seconds)."""
    tic = time.perf_counter()
    scenario, seed_base, r = args
    dgp = replace(scenario.dgp, seed=derive_seed(seed_base, r, 0))
    test = replace(scenario.test, seed=derive_seed(seed_base, r, 1))
    try:
        result = run_test(simulate_panel(dgp), test)
    except PanelCptError as exc:
        return None, f"replication {r}: {exc}", time.perf_counter() - tic
    return (bool(result.reject), int(result.block_length_used)), None, time.perf_counter() - tic


def _report(scenario: Scenario, seed_base: int, outcomes) -> MonteCarloReport:
    """One cell's report from its replication outcomes, in replication order."""
    rejects = 0
    wall_time = 0.0
    lengths: list[int] = []
    errors: list[str] = []
    for result, error, seconds in outcomes:
        wall_time += seconds
        if error is not None:
            errors.append(error)
            continue
        reject, length = result
        rejects += int(reject)
        lengths.append(length)
    if len(errors) * 100 > scenario.s:
        raise MonteCarloError(scenario.label, len(errors), scenario.s, errors)
    return MonteCarloReport(
        label=scenario.label,
        rejection_frequency=rejects / len(lengths),
        s=len(lengths),
        mean_block_length=float(np.mean(lengths)),
        wall_time_s=wall_time,
        seed_base=int(seed_base),
        errors=tuple(errors),
    )


def rejection_frequency(scenario: Scenario, seed_base: int,
                        workers: int = 1) -> MonteCarloReport:
    """Estimate the rejection probability of a scenario: ``run_grid`` of one cell.

    Parameters
    ----------
    scenario : Scenario
    seed_base : int
        Master seed; replication r uses seeds derived from
        (seed_base, r, purpose) and nothing else.
    workers : int
        Process count for the replication loop, an integer >= 1.
        Results are identical for any value.

    Raises
    ------
    MonteCarloError
        If more than 1% of replications raise.
    """
    return run_grid([scenario], seed_base, workers=workers)[0]


def run_grid(scenarios, seed_base: int, workers: int = 1,
             progress=None) -> list[MonteCarloReport]:
    """Run a list of scenarios; reports come back in input order.

    All replications run as one task list in grid order, on one process pool
    when ``workers`` > 1. ``progress(scenario, report)`` is called per cell,
    in order, once the cell is complete. ``MonteCarloError`` is raised for
    the first cell in order where more than 1% of replications fail. Reports
    are identical (up to wall time) whatever the parallelism.
    """
    if not scenarios:
        raise ValueError("scenario list must be non-empty")
    seed_base = check_int("seed_base", seed_base, 0, SEED_MAX)
    workers = check_int("workers", workers, 1)
    tasks = [(scenario, seed_base, r) for scenario in scenarios for r in range(scenario.s)]
    reports = []
    with contextlib.ExitStack() as stack:
        outcomes = map(_replication_worker, tasks)
        if workers > 1:
            pool = stack.enter_context(multiprocessing.Pool(processes=min(workers, len(tasks))))
            outcomes = pool.imap(_replication_worker, tasks, chunksize=8)  # in task order
        for scenario in scenarios:
            reports.append(_report(scenario, seed_base, itertools.islice(outcomes, scenario.s)))
            if progress is not None:
                progress(scenario, reports[-1])
    return reports


RECORD_FIELDS = (
    "label", "statistic", "scheme", "block_rule", "rho", "beta", "N", "T",
    "error_law", "S", "B", "alpha", "rejection_frequency",
    "mean_block_length", "wall_time_s",
)


def records_csv(records) -> str:
    """Render grid records as CSV with the fixed column set, quoted as needed."""
    buf = io.StringIO()
    rows = ([str(record[f]) for f in RECORD_FIELDS] for record in records)
    csv.writer(buf, lineterminator="\n").writerows([RECORD_FIELDS, *rows])
    return buf.getvalue()


def records_json(records) -> str:
    """Render grid records as a JSON array with the same fields as the CSV."""
    return json.dumps(records, indent=2) + "\n"


def grid_records(scenarios, reports, include_timings: bool = False) -> list[dict]:
    """Flatten scenarios and reports into records with the fixed field set.

    Wall time is reported as 0.0 unless ``include_timings`` is set, keeping
    file output byte-identical across runs and worker counts.
    """
    records = []
    for scenario, report in zip(scenarios, reports):
        records.append({
            "label": scenario.label,
            "statistic": scenario.test.statistic,
            "scheme": scenario.test.scheme,
            "block_rule": scenario.test.block_rule,
            "rho": scenario.dgp.rho,
            "beta": scenario.dgp.beta,
            "N": scenario.dgp.n,
            "T": scenario.dgp.t,
            "error_law": scenario.dgp.error_law,
            "S": report.s,
            "B": scenario.test.b,
            "alpha": scenario.test.alpha,
            "rejection_frequency": report.rejection_frequency,
            "mean_block_length": report.mean_block_length,
            "wall_time_s": report.wall_time_s if include_timings else 0.0,
        })
    return records
