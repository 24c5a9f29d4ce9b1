"""Test orchestration: statistic + block-length rule + bootstrap scheme
into a decision, p-value, and change-point estimate."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from . import _random, blocklen
from .bootstrap import (
    KINDS,
    BootstrapScheme,
    RngSpec,
    bootstrap_distribution,
    empirical_quantile,
    p_value,
    quantile_rank,
)
from .panel import Panel, demean
from .stats import HStatistic, JStatistic

__all__ = [
    "TestConfig",
    "TestResult",
    "run_test",
    "default_fixed_block_length",
    "effective_level",
]

STATISTICS = {"J": JStatistic, "H": HStatistic}


def default_fixed_block_length(n_time: int) -> int:
    """Default fixed block length, floor(T**(1/5)), for the comparison
    pipeline whose original block-length rule is not publicly specified.

    Deliberately short: it grows too slowly for persistent data, which is
    exactly the behavior the adaptive rule is benchmarked against. Not
    authoritative; pass an explicit Fixed length to override.
    """
    return max(1, int(math.floor(round(n_time ** 0.2, 9))))


def effective_level(alpha: float, b: int) -> float:
    """Largest achievable p-value at which the quantile test still rejects.

    With critical value the ceil((1-alpha)*B)-th order statistic and the
    (1 + count)/(B + 1) p-value, `reject` is exactly equivalent to
    p <= effective_level(alpha, B).
    """
    k = quantile_rank(1.0 - alpha, b)
    return (b - k + 1) / (b + 1)


@dataclass(frozen=True)
class TestConfig:
    """Configuration of one change-point test run.

    Parameters
    ----------
    statistic : {"J", "H"}
    scheme : {"nonoverlapping", "circular", "stationary"}
    block_rule : "adaptive" or int
        "adaptive" selects the block length from the full panel; an integer
        >= 1 fixes it (InvalidBlockLengthError below 1).
    b : int
        Bootstrap replicates, an integer >= 1.
    alpha : float
        Nominal level, a real number in (0, 1); stored as a float.
    seed : int or None
        Master seed for the bootstrap streams, an integer in [0, 2**64).
        Must be set before running. A float or bool size or seed raises
        TypeError, as does a bool or non-real alpha.
    """

    statistic: str = "J"
    scheme: str = "nonoverlapping"
    block_rule: Any = "adaptive"
    b: int = 500
    alpha: float = 0.05
    seed: int | None = None

    __test__ = False  # not a pytest class despite the name

    def __post_init__(self):
        _random.check_choice("statistic", self.statistic, STATISTICS)
        _random.check_choice("scheme", self.scheme, KINDS)
        if isinstance(self.block_rule, str):
            if self.block_rule != "adaptive":
                raise ValueError(f"block_rule must be 'adaptive' or an integer, got {self.block_rule!r}")
        else:
            object.__setattr__(self, "block_rule",
                               BootstrapScheme(self.scheme, self.block_rule).block_length)
        object.__setattr__(self, "b", _random.check_int("b", self.b, 1))
        object.__setattr__(self, "alpha", _random.check_real("alpha", self.alpha, 0.0, 1.0))
        if self.seed is not None:
            object.__setattr__(self, "seed", _random.check_int("seed", self.seed, 0, _random.SEED_MAX))


@dataclass(frozen=True)
class TestResult:
    """Outcome of `run_test`.

    ``reject`` holds exactly when ``statistic_value > critical_value``,
    equivalently when ``p_value <= diagnostics["alpha_effective"]``.
    """

    statistic_value: float
    p_value: float
    critical_value: float
    reject: bool
    changepoint_estimate: int
    block_length_used: int
    diagnostics: dict = field(default_factory=dict)


def run_test(panel: Panel, cfg: TestConfig, workers: int = 1) -> TestResult:
    """Run one bootstrap change-point test.

    Resolves the block length, computes the observed statistic on the
    row-demeaned ``basis`` of the panel, draws the bootstrap distribution, and fills in the
    quantile at 1 - alpha, the p-value, the decision (strict inequality
    against the critical value), and the change-point estimate. Data whose
    largest deviation from a series mean is positive but outside
    [2**-250, 2**250] raise ValueError before any of this.

    Deterministic given (panel, cfg): identical results for any ``workers`` >= 1.
    """
    if cfg.seed is None:
        raise ValueError("TestConfig.seed must be set to run a test")
    # the selector squares autocovariances (data to the 4th power); past
    # these bounds it or the statistics under- or overflow
    scale = abs(demean(panel.values)).max()
    if 0.0 < scale < 2.0**-250 or scale > 2.0**250:
        raise ValueError(f"data scale {scale:.3g} (largest deviation from a series "
                         "mean) is outside [2**-250, 2**250]; rescale the panel")
    selection = blocklen.adaptive_block_length(panel) if cfg.block_rule == "adaptive" else None
    scheme = BootstrapScheme(cfg.scheme, selection.l_adpt if selection else cfg.block_rule)
    t_prime = scheme.resample_length(panel.n_time)
    stat = STATISTICS[cfg.statistic]()
    basis = stat.basis(panel)  # its own basis, so the bootstrap does not reduce it again
    # demean as the bootstrap does, so its L = T replicate equals this value bit for bit
    observed = stat(Panel(demean(basis.values)))
    dist = bootstrap_distribution(basis, stat, scheme, cfg.b, RngSpec(cfg.seed),
                                  workers=workers)
    critical = empirical_quantile(dist, 1.0 - cfg.alpha)
    pv = p_value(dist, observed.value)
    diagnostics = {
        "alpha_effective": effective_level(cfg.alpha, cfg.b),
        "block_selection_fallback": bool(selection.fallback) if selection else None,
        "block_selection_raw": float(selection.raw) if selection else None,
        "l0": selection.l0 if selection else None,
        "t_prime": t_prime,
        "bootstrap_rows": basis.n_series,
    }
    return TestResult(
        statistic_value=observed.value,
        p_value=pv,
        critical_value=critical,
        reject=bool(observed.value > critical),
        changepoint_estimate=observed.argmax_t,
        block_length_used=scheme.block_length,
        diagnostics=diagnostics,
    )
