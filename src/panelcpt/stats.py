"""CUSUM processes, the two panel change-point statistics, and the
per-series Bartlett long-run-variance estimator.

The scan statistics both inspect the partial sums of row-demeaned data,

    s[i, t] = sum_{r<=t} (X[i, r] - mean_i(X)),   t = 1..T-1,

and take a maximum over t. ``j_statistic`` aggregates s[i, t]^2 / T across
series; ``h_statistic`` additionally studentizes each series by its Bartlett
long-run variance and recenters by the null mean t(T-t)/T^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blocklen
from .errors import DegenerateSeriesError
from .panel import Panel

__all__ = [
    "CusumProcess",
    "StatisticValue",
    "LrvEstimates",
    "cusum",
    "j_statistic",
    "h_statistic",
    "bartlett_lrv",
    "JStatistic",
    "HStatistic",
]


@dataclass(frozen=True)
class CusumProcess:
    """Partial-sum process of the demeaned panel, s[i, t] for t = 1..T-1."""

    s: np.ndarray = field(repr=False)
    n_series: int
    n_time: int

    def __post_init__(self):
        arr = np.array(self.s, dtype=np.float64, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "s", arr)


@dataclass(frozen=True)
class StatisticValue:
    """A scan statistic together with the time index attaining it.

    ``argmax_t`` is 1-based in 1..T-1; ties break toward the smallest t.
    """

    value: float
    argmax_t: int


@dataclass(frozen=True)
class LrvEstimates:
    """Per-series Bartlett long-run variance estimates (all strictly positive)."""

    sigma2: np.ndarray = field(repr=False)
    bandwidth_used: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name, dtype in (("sigma2", np.float64), ("bandwidth_used", np.int64)):
            arr = np.array(getattr(self, name), dtype=dtype, copy=True)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _demean(values: np.ndarray) -> np.ndarray:
    return values - values.mean(axis=-1, keepdims=True)


def cusum(panel: Panel) -> CusumProcess:
    """Partial sums of the demeaned panel via a single prefix-sum pass."""
    d = _demean(panel.values)
    s = np.cumsum(d, axis=-1)[:, : panel.n_time - 1]
    return CusumProcess(s=s, n_series=panel.n_series, n_time=panel.n_time)


def _j_objective(values: np.ndarray) -> np.ndarray:
    """Objective sum_i s[i, t]^2 / T over t, for stacked panels (..., N, T)."""
    t = values.shape[-1]
    d = _demean(values)
    s = np.cumsum(d, axis=-1)[..., : t - 1]
    return np.sum(s * s, axis=-2) / t


def j_statistic(panel: Panel) -> StatisticValue:
    """Unstudentized CUSUM statistic: max_t sum_i s[i, t]^2 / T."""
    obj = _j_objective(panel.values)
    arg = int(np.argmax(obj))
    return StatisticValue(value=float(obj[arg]), argmax_t=arg + 1)


def bartlett_lrv(panel: Panel, bandwidth="auto") -> LrvEstimates:
    """Per-series Bartlett long-run variance of the demeaned panel.

    sigma2_i = gamma_i(0) + 2 * sum_{k=1..L_i-1} (1 - k/L_i) * gamma_i(k),
    with gamma_i(k) the 1/T-normalized sample autocovariance. The 1/T
    normalization (rather than 1/(T-k)) keeps the estimate positive
    semidefinite.

    Parameters
    ----------
    panel : Panel
    bandwidth : "auto", int, or sequence of int
        "auto" selects L_i per series by the adaptive block-length procedure
        applied to that series alone (requires T >= 4). An explicit bandwidth
        must satisfy 1 <= L < T.

    Raises
    ------
    DegenerateSeriesError
        If any sigma2_i is not strictly positive (e.g. a constant series).
    """
    if isinstance(bandwidth, str) and panel.n_time < 4:
        raise ValueError(f"adaptive selection requires T >= 4, got T={panel.n_time}")
    sigma2, lengths = _lrv(_demean(panel.values), bandwidth)
    bad = np.flatnonzero(sigma2 <= 0.0)
    if bad.size:
        i = int(bad[0])
        detail = (
            "constant series (zero variance)"
            if np.all(panel.values[i] == panel.values[i, 0])
            else "non-positive long-run variance estimate"
        )
        raise DegenerateSeriesError(i, detail)
    return LrvEstimates(sigma2=sigma2, bandwidth_used=lengths)


def _lrv(d: np.ndarray, bandwidth) -> tuple[np.ndarray, np.ndarray]:
    """Bartlett LRV and bandwidths for stacked demeaned series d (..., T).

    "auto" bandwidths come from pilot autocovariances, which the Bartlett
    sum reuses; lags are computed again only past the pilot bandwidth.
    """
    t = d.shape[-1]
    if isinstance(bandwidth, str):
        if bandwidth != "auto":
            raise ValueError(f"bandwidth must be 'auto' or integer(s), got {bandwidth!r}")
        gamma = blocklen.autocovariances(d, blocklen.pilot_bandwidth(t) - 1)
        lengths = blocklen.select_lengths_from_autocov(gamma, t)
    else:
        lengths = np.broadcast_to(np.asarray(bandwidth, dtype=np.int64), d.shape[:-1]).copy()
        if np.any(lengths < 1) or np.any(lengths >= t):
            raise ValueError(f"explicit bandwidth must satisfy 1 <= L < T={t}")
        gamma = None
    max_len = int(lengths.max())
    if gamma is None or max_len > gamma.shape[-1]:
        gamma = blocklen.autocovariances(d, max_len - 1)
    sigma2, _ = blocklen.bartlett_sums(gamma[..., :max_len], lengths)
    return sigma2, lengths


def h_statistic(panel: Panel, lrv: LrvEstimates) -> StatisticValue:
    """Studentized CUSUM statistic.

    max_t (1/sqrt(N)) * sum_i [ s[i,t]^2 / (sigma2_i * T) - t(T-t)/T^2 ].
    """
    sigma2 = np.asarray(lrv.sigma2, dtype=np.float64)
    if sigma2.shape != (panel.n_series,):
        raise ValueError("lrv.sigma2 must have one entry per series")
    if np.any(sigma2 <= 0.0):
        raise DegenerateSeriesError(int(np.flatnonzero(sigma2 <= 0.0)[0]))
    obj = _h_objective(_demean(panel.values), sigma2)
    arg = int(np.argmax(obj))
    return StatisticValue(value=float(obj[arg]), argmax_t=arg + 1)


def _h_objective(d: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """H objective over t for stacked demeaned panels (..., N, T); sigma2 (..., N)."""
    t = d.shape[-1]
    n = d.shape[-2]
    s = np.cumsum(d, axis=-1)[..., : t - 1]
    scaled = np.sum(s * s / sigma2[..., :, None], axis=-2) / t
    tt = np.arange(1, t, dtype=np.float64)
    null_mean = tt * (t - tt) / (t * t)
    return (scaled - n * null_mean) / np.sqrt(n)


class JStatistic:
    """Callable computing the unstudentized statistic; supports batches.

    Instances are the statistic objects handed to the bootstrap: calling one
    on a Panel returns a StatisticValue, while ``batch`` evaluates a stack of
    resampled panels (R, N, T') in one vectorized pass.
    """

    name = "J"

    def __call__(self, panel: Panel) -> StatisticValue:
        return j_statistic(panel)

    def batch(self, values: np.ndarray) -> np.ndarray:
        return np.max(_j_objective(values), axis=-1)


class HStatistic:
    """Callable computing the studentized statistic; supports batches.

    The per-series long-run variances are re-estimated on every input,
    including bootstrap resamples, using the configured bandwidth rule.

    Parameters
    ----------
    bandwidth : "auto" or int
        Passed through to `bartlett_lrv` on each evaluation.
    """

    name = "H"

    def __init__(self, bandwidth="auto"):
        self.bandwidth = bandwidth

    def __call__(self, panel: Panel) -> StatisticValue:
        lrv = bartlett_lrv(panel, bandwidth=self.bandwidth)
        return h_statistic(panel, lrv)

    def batch(self, values: np.ndarray) -> np.ndarray:
        d = _demean(values)
        sigma2, _ = _lrv(d, self.bandwidth)
        if np.any(sigma2 <= 0.0):
            where = np.argwhere(sigma2 <= 0.0)[0]
            raise DegenerateSeriesError(int(where[-1]))
        return np.max(_h_objective(d, sigma2), axis=-1)
