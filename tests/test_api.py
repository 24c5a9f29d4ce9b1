import importlib

import panelcpt

EXPORTS = {
    "Panel", "load_csv", "write_csv",
    "StatisticValue", "LrvEstimates", "j_statistic", "h_statistic", "bartlett_lrv",
    "JStatistic", "HStatistic",
    "BlockLengthSelection", "lag_cov", "adaptive_block_length", "autocovariances",
    "BootstrapScheme", "BootstrapDistribution", "RngSpec", "resample_indices",
    "bootstrap_distribution", "p_value", "empirical_quantile",
    "TestConfig", "TestResult", "run_test", "default_fixed_block_length", "effective_level",
    "DgpConfig", "simulate_panel", "draw_deltas", "resolve_break_time",
    "Scenario", "MonteCarloReport", "rejection_frequency", "run_grid",
    "grid_records", "records_csv", "records_json",
    "PanelCptError", "EmptyInputError", "NonRectangularError", "NonNumericCellError",
    "DegenerateSeriesError", "InvalidBlockLengthError", "MonteCarloError",
    "__version__",
}
MODULES = ("panel", "stats", "blocklen", "bootstrap", "cpt", "dgp", "mc", "errors")


def test_export_list_is_the_public_api_without_duplicates():
    assert len(EXPORTS) == 45
    assert set(panelcpt.__all__) == EXPORTS
    assert len(panelcpt.__all__) == len(EXPORTS)


def test_every_exported_name_resolves():
    for name in panelcpt.__all__:
        assert hasattr(panelcpt, name), name


def test_module_export_lists_name_their_own_attributes():
    exported = []
    for name in MODULES:
        module = importlib.import_module(f"panelcpt.{name}")
        for attr in module.__all__:
            assert hasattr(module, attr), f"{name}.{attr}"
            assert getattr(panelcpt, attr) is getattr(module, attr), f"{name}.{attr}"
        exported += module.__all__
    assert sorted(exported) == sorted(EXPORTS - {"__version__"})
