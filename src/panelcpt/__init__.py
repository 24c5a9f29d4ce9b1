"""Change-point detection for panel data: CUSUM-type statistics calibrated
by block bootstrap, with data-adaptive block-length selection, a simulation
data generator, and a Monte Carlo harness."""

from .blocklen import (
    BlockLengthSelection,
    adaptive_block_length,
    autocovariances,
    lag_cov,
)
from .bootstrap import (
    BootstrapDistribution,
    BootstrapScheme,
    RngSpec,
    bootstrap_distribution,
    empirical_quantile,
    p_value,
    resample_indices,
)
from .cpt import (
    TestConfig,
    TestResult,
    default_fixed_block_length,
    effective_level,
    run_test,
)
from .dgp import DgpConfig, draw_deltas, resolve_break_time, simulate_panel
from .errors import (
    DegenerateSeriesError,
    EmptyInputError,
    InvalidBlockLengthError,
    MonteCarloError,
    NonNumericCellError,
    NonRectangularError,
    PanelCptError,
)
from .mc import (
    MonteCarloReport,
    Scenario,
    grid_records,
    records_csv,
    records_json,
    rejection_frequency,
    run_grid,
)
from .panel import Panel, SeriesMeans, demean_rows, load_csv, write_csv
from .stats import (
    HStatistic,
    JStatistic,
    LrvEstimates,
    StatisticValue,
    bartlett_lrv,
    h_statistic,
    j_statistic,
)

__version__ = "0.1.0"

__all__ = [
    "Panel", "SeriesMeans", "load_csv", "write_csv", "demean_rows",
    "StatisticValue", "LrvEstimates", "j_statistic", "h_statistic",
    "bartlett_lrv", "JStatistic", "HStatistic",
    "BlockLengthSelection", "lag_cov", "adaptive_block_length", "autocovariances",
    "BootstrapScheme", "BootstrapDistribution", "RngSpec", "resample_indices",
    "bootstrap_distribution", "p_value", "empirical_quantile",
    "TestConfig", "TestResult", "run_test",
    "default_fixed_block_length", "effective_level",
    "DgpConfig", "simulate_panel", "draw_deltas", "resolve_break_time",
    "Scenario", "MonteCarloReport", "rejection_frequency", "run_grid",
    "grid_records", "records_csv", "records_json",
    "PanelCptError", "EmptyInputError", "NonRectangularError",
    "NonNumericCellError", "DegenerateSeriesError", "InvalidBlockLengthError",
    "MonteCarloError",
    "__version__",
]
