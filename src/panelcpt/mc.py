"""Monte Carlo harness: empirical size and power over scenario grids.

Each replication r of a scenario derives independent seeds for the data
draw and for the bootstrap, ``derive_seed(seed_base, r, 0)`` and
``derive_seed(seed_base, r, 1)``, so results are reproducible from
(scenario, seed_base) alone and identical for any worker count.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass, replace

import numpy as np

from ._random import derive_seed
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
    "RECORD_FIELDS",
]


@dataclass(frozen=True)
class Scenario:
    """One Monte Carlo cell: a data process, a test, and a replication count.

    Seeds carried inside ``dgp`` and ``test`` are ignored; the harness
    derives per-replication seeds from its own ``seed_base``.
    """

    label: str
    dgp: DgpConfig
    test: TestConfig
    s: int

    def __post_init__(self):
        if int(self.s) < 1:
            raise ValueError(f"replication count must be >= 1, got {self.s}")
        object.__setattr__(self, "s", int(self.s))


@dataclass(frozen=True)
class MonteCarloReport:
    """Empirical rejection frequency of one scenario.

    ``s`` counts the replications that completed; ``rejection_frequency * s``
    is an integer. ``errors`` holds one message per failed replication (at
    most 1% of the requested count, otherwise the run aborts).
    """

    label: str
    rejection_frequency: float
    s: int
    mean_block_length: float
    wall_time_s: float
    seed_base: int
    errors: tuple = ()


def _replication_worker(args):
    """(r, (reject, block length) or None, error message or None)."""
    scenario, seed_base, r = args
    dgp = replace(scenario.dgp, seed=derive_seed(seed_base, r, 0))
    test = replace(scenario.test, seed=derive_seed(seed_base, r, 1))
    try:
        result = run_test(simulate_panel(dgp), test)
    except PanelCptError as exc:
        return r, None, f"replication {r}: {exc}"
    return r, (bool(result.reject), int(result.block_length_used)), None


def rejection_frequency(scenario: Scenario, seed_base: int,
                        workers: int = 1) -> MonteCarloReport:
    """Estimate the rejection probability of a scenario by simulation.

    Parameters
    ----------
    scenario : Scenario
    seed_base : int
        Master seed; replication r uses seeds derived from
        (seed_base, r, purpose) and nothing else.
    workers : int
        Process count for the outer replication loop. Results are
        identical for any value.

    Raises
    ------
    MonteCarloError
        If more than 1% of replications raise.
    """
    tic = time.perf_counter()
    tasks = [(scenario, seed_base, r) for r in range(scenario.s)]
    if workers <= 1:
        outcomes = [_replication_worker(task) for task in tasks]
    else:
        with multiprocessing.Pool(processes=min(workers, scenario.s)) as pool:
            outcomes = pool.map(_replication_worker, tasks, chunksize=8)
    outcomes.sort(key=lambda item: item[0])

    rejects = 0
    lengths: list[int] = []
    errors: list[str] = []
    for _, result, error in outcomes:
        if error is not None:
            errors.append(error)
            continue
        reject, length = result
        rejects += int(reject)
        lengths.append(length)
    if len(errors) * 100 > scenario.s:
        raise MonteCarloError(scenario.label, len(errors), scenario.s, errors)
    done = len(lengths)
    return MonteCarloReport(
        label=scenario.label,
        rejection_frequency=rejects / done if done else 0.0,
        s=done,
        mean_block_length=float(np.mean(lengths)) if lengths else float("nan"),
        wall_time_s=time.perf_counter() - tic,
        seed_base=int(seed_base),
        errors=tuple(errors),
    )


def run_grid(scenarios, seed_base: int, workers: int = 1,
             progress=None) -> list[MonteCarloReport]:
    """Run a list of scenarios in order; reports come back in input order.

    Two occurrences of the same scenario under the same seed_base produce
    identical reports (up to wall time), whatever the parallelism.
    """
    if not scenarios:
        raise ValueError("scenario list must be non-empty")
    reports = []
    for scenario in scenarios:
        report = rejection_frequency(scenario, seed_base, workers=workers)
        if progress is not None:
            progress(scenario, report)
        reports.append(report)
    return reports


RECORD_FIELDS = (
    "label", "statistic", "scheme", "block_rule", "rho", "beta", "N", "T",
    "error_law", "S", "B", "alpha", "rejection_frequency",
    "mean_block_length", "wall_time_s",
)


def _coeff_field(value):
    """Per-series coefficient vectors become semicolon-joined strings so the
    CSV stays comma-safe; scalars pass through."""
    if isinstance(value, tuple):
        return ";".join(str(v) for v in value)
    return value


def records_csv(records) -> str:
    """Render grid records as CSV with the fixed column set."""
    lines = [",".join(RECORD_FIELDS)]
    for record in records:
        lines.append(",".join(str(record[f]) for f in RECORD_FIELDS))
    return "\n".join(lines) + "\n"


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
            "rho": _coeff_field(scenario.dgp.rho),
            "beta": _coeff_field(scenario.dgp.beta),
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
