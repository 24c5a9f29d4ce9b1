"""Test orchestration: statistic + block-length rule + bootstrap scheme
into a decision, p-value, and change-point estimate."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from . import blocklen
from .bootstrap import (
    BootstrapScheme,
    RngSpec,
    bootstrap_distribution,
    empirical_quantile,
    p_value,
    quantile_rank,
)
from .errors import InvalidBlockLengthError
from .panel import Panel, demean_rows
from .stats import HStatistic, JStatistic

__all__ = [
    "TestConfig",
    "TestResult",
    "run_test",
    "default_fixed_block_length",
    "effective_level",
]

_STATISTICS = ("J", "H")
_SCHEMES = ("nonoverlapping", "circular", "stationary")


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
        fixes it.
    b : int
        Bootstrap replicates (>= 1).
    alpha : float
        Nominal level in (0, 1).
    seed : int or None
        Master seed for the bootstrap streams. Must be set before running.
    """

    statistic: str = "J"
    scheme: str = "nonoverlapping"
    block_rule: Any = "adaptive"
    b: int = 500
    alpha: float = 0.05
    seed: int | None = None

    __test__ = False  # not a pytest class despite the name

    def __post_init__(self):
        if self.statistic not in _STATISTICS:
            raise ValueError(f"statistic must be one of {_STATISTICS}, got {self.statistic!r}")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if isinstance(self.block_rule, str):
            if self.block_rule != "adaptive":
                raise ValueError(f"block_rule must be 'adaptive' or an integer, got {self.block_rule!r}")
        else:
            object.__setattr__(self, "block_rule", int(self.block_rule))
        if int(self.b) < 1:
            raise ValueError(f"replicate count must be >= 1, got {self.b}")
        object.__setattr__(self, "b", int(self.b))
        if not 0.0 < float(self.alpha) < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")


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


def _resolve_block_length(panel: Panel, cfg: TestConfig):
    if cfg.block_rule == "adaptive":
        selection = blocklen.adaptive_block_length(panel)
        return selection.l_adpt, selection
    length = int(cfg.block_rule)
    if not 1 <= length <= panel.n_time:
        raise InvalidBlockLengthError(length, panel.n_time)
    return length, None


def _statistic_object(cfg: TestConfig):
    return JStatistic() if cfg.statistic == "J" else HStatistic(bandwidth="auto")


def run_test(panel: Panel, cfg: TestConfig, workers: int = 1) -> TestResult:
    """Run one bootstrap change-point test.

    Resolves the block length, computes the observed statistic on the
    row-demeaned panel, draws the bootstrap distribution, and fills in the
    quantile at 1 - alpha, the p-value, the decision (strict inequality
    against the critical value), and the change-point estimate.

    Deterministic given (panel, cfg): identical results for any ``workers``.
    """
    if cfg.seed is None:
        raise ValueError("TestConfig.seed must be set to run a test")
    length, selection = _resolve_block_length(panel, cfg)
    stat = _statistic_object(cfg)
    # demean as the bootstrap does, so its L = T replicate equals this value bit for bit
    demeaned, _ = demean_rows(panel)
    observed = stat(demeaned)
    dist = bootstrap_distribution(
        panel, stat, BootstrapScheme(cfg.scheme, length), cfg.b,
        RngSpec(cfg.seed), workers=workers,
    )
    critical = empirical_quantile(dist, 1.0 - cfg.alpha)
    pv = p_value(dist, observed.value)
    diagnostics = {
        "statistic": cfg.statistic,
        "scheme": cfg.scheme,
        "block_rule": cfg.block_rule,
        "b": cfg.b,
        "alpha": cfg.alpha,
        "alpha_effective": effective_level(cfg.alpha, cfg.b),
        "seed": cfg.seed,
        "block_selection_fallback": bool(selection.fallback) if selection else None,
        "block_selection_raw": float(selection.raw) if selection else None,
    }
    return TestResult(
        statistic_value=observed.value,
        p_value=pv,
        critical_value=critical,
        reject=bool(observed.value > critical),
        changepoint_estimate=observed.argmax_t,
        block_length_used=length,
        diagnostics=diagnostics,
    )
