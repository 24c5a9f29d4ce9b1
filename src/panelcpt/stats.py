"""The two panel change-point statistics and the per-series Bartlett
long-run-variance estimator.

The scan statistics both inspect the partial sums of row-demeaned data,

    s[i, t] = sum_{r<=t} (X[i, r] - mean_i(X)),   t = 1..T-1,

and take a maximum over t. ``j_statistic`` aggregates s[i, t]^2 / T across
series; ``h_statistic`` additionally studentizes each series by its Bartlett
long-run variance and recenters by the null mean t(T-t)/T^2.

Each statistic has one kernel, an objective over t for panels (..., N, T). Bootstrap
chunks run it on stacks of resamples (R, N, T); the observed statistic runs it on the
panel itself; every reduction is per row or per replicate, so both round the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blocklen
from ._random import check_int
from .errors import DegenerateSeriesError
from .panel import Panel, demean

__all__ = [
    "StatisticValue",
    "LrvEstimates",
    "j_statistic",
    "h_statistic",
    "bartlett_lrv",
    "JStatistic",
    "HStatistic",
]


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


def _best(objective: np.ndarray) -> StatisticValue:
    """Maximum and 1-based argmax of the objective over t of the panel itself."""
    arg = int(np.argmax(objective))
    return StatisticValue(value=float(objective[arg]), argmax_t=arg + 1)


def _j_objective(values: np.ndarray) -> np.ndarray:
    """Objective sum_i s[i, t]^2 / T over t, for stacked panels (..., N, T),
    with the partial sums taken and squared in place in the demeaned copy."""
    t = values.shape[-1]
    d = demean(values)
    s = np.cumsum(d, axis=-1, out=d)[..., : t - 1]
    return np.sum(np.square(s, out=s), axis=-2) / t


def j_statistic(panel: Panel) -> StatisticValue:
    """Unstudentized CUSUM statistic: max_t sum_i s[i, t]^2 / T."""
    return _best(_j_objective(panel.values))


def bartlett_lrv(panel: Panel, bandwidth="auto") -> LrvEstimates:
    """Per-series Bartlett long-run variance of the demeaned panel.

    sigma2_i = gamma_i(0) + 2 * sum_{k=1..L_i-1} (1 - k/L_i) * gamma_i(k),
    with gamma_i(k) the 1/T-normalized sample autocovariance. The 1/T
    normalization (rather than 1/(T-k)) keeps the estimate positive
    semidefinite.

    Parameters
    ----------
    panel : Panel
    bandwidth : "auto" or int
        "auto" selects L_i per series by the adaptive block-length procedure
        applied to that series alone (requires T >= 4). An explicit bandwidth
        is one integer 1 <= L < T shared by all series.

    Raises
    ------
    DegenerateSeriesError
        If any sigma2_i is not strictly positive (e.g. a constant series).
    """
    sigma2, lengths = _lrv(demean(panel.values), bandwidth)
    return LrvEstimates(sigma2=sigma2, bandwidth_used=lengths)


def _lrv(d: np.ndarray, bandwidth) -> tuple[np.ndarray, np.ndarray]:
    """Bartlett LRV and bandwidths for stacked demeaned series d (..., N, T).

    "auto" bandwidths come from pilot autocovariances, which the Bartlett
    sum reuses; if any bandwidth exceeds the pilot's, all lags up to the
    largest bandwidth are computed again for the whole stack.
    Raises DegenerateSeriesError for the first non-positive estimate, with
    the stack position of its panel as ``replicate`` when d is a stack.
    """
    t = d.shape[-1]
    if isinstance(bandwidth, str):
        if bandwidth != "auto":
            raise ValueError(f"bandwidth must be 'auto' or an integer, got {bandwidth!r}")
        gamma = blocklen.autocovariances(d, blocklen.pilot_bandwidth(t) - 1)
        lengths = blocklen.select_lengths_from_autocov(gamma, t)
    else:
        lengths = np.full(d.shape[:-1], check_int("bandwidth", bandwidth, 1, t - 1))
        gamma = None
    max_len = int(lengths.max())
    if gamma is None or max_len > gamma.shape[-1]:
        gamma = blocklen.autocovariances(d, max_len - 1)
    sigma2, _ = blocklen.bartlett_sums(gamma[..., :max_len], lengths)
    bad = np.argwhere(sigma2 <= 0.0)
    if bad.size:
        *row, i = (int(k) for k in bad[0])
        series = d[(*row, i)]
        detail = ("constant series (zero variance)" if np.all(series == series[0])
                  else "non-positive long-run variance estimate")
        raise DegenerateSeriesError(i, detail, replicate=row[0] if row else None)
    return sigma2, lengths


def h_statistic(panel: Panel, lrv: LrvEstimates) -> StatisticValue:
    """Studentized CUSUM statistic.

    max_t (1/sqrt(N)) * sum_i [ s[i,t]^2 / (sigma2_i * T) - t(T-t)/T^2 ].
    """
    sigma2 = np.asarray(lrv.sigma2, dtype=np.float64)
    if sigma2.shape != (panel.n_series,):
        raise ValueError("lrv.sigma2 must have one entry per series")
    if np.any(sigma2 <= 0.0):
        raise DegenerateSeriesError(int(np.argmax(sigma2 <= 0.0)))
    return _best(_h_objective(demean(panel.values), sigma2))


def _h_objective(d: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """H objective over t for stacked demeaned panels (..., N, T); sigma2 (..., N).
    Overwrites d with its partial sums, squared and divided by sigma2."""
    t = d.shape[-1]
    n = d.shape[-2]
    s = np.cumsum(d, axis=-1, out=d)[..., : t - 1]
    np.divide(np.square(s, out=s), sigma2[..., :, None], out=s)
    scaled = np.sum(s, axis=-2) / t
    tt = np.arange(1, t, dtype=np.float64)
    null_mean = tt * (t - tt) / (t * t)
    return (scaled - n * null_mean) / np.sqrt(n)


class JStatistic:
    """The unstudentized statistic as a bootstrap statistic object.

    Calling one on a Panel returns a StatisticValue; ``batch`` evaluates a
    stack of resampled panels (R, N, T') in one vectorized pass. Both run
    the same kernel.
    """

    name = "J"

    def __call__(self, panel: Panel) -> StatisticValue:
        return j_statistic(panel)

    def basis(self, panel: Panel) -> Panel:
        """The panel the bootstrap resamples: for N > T, the upper-triangular R (T, T)
        with R'R = X'X of the demeaned panel X, so J of each resample of R is J of the
        same resample of X up to rounding. Householder reflections summed in einsum,
        not BLAS, keep its bits independent of the BLAS build; columns scaled to a
        largest entry of 1 keep every sum of squares from under- or overflowing."""
        if panel.n_series <= panel.n_time:
            return panel
        a = demean(panel.values).T.copy()  # row k is column k of X
        r = np.zeros((len(a), len(a)))
        for k in range(len(a)):
            scale = np.max(np.abs(a[k, k:]))
            if scale > 0.0:
                v = a[k, k:] / scale
                norm = np.copysign(np.sqrt(np.einsum("i,i->", v, v)), v[0])
                r[k, k] = -norm * scale
                v[0] += norm  # so that v'v = 2 * norm * v[0]
                rest = a[k + 1:, k:]
                rest -= np.multiply.outer(np.einsum("ij,j->i", rest, v) / (norm * v[0]), v)
            r[k, k + 1:] = a[k + 1:, k]
        return Panel(r)

    def batch(self, values: np.ndarray) -> np.ndarray:
        return np.max(_j_objective(values), axis=-1)


class HStatistic:
    """The studentized statistic as a bootstrap statistic object.

    The per-series long-run variances are re-estimated on every input,
    including bootstrap resamples, with "auto" bandwidths as in `bartlett_lrv`
    (T >= 4 on every input); calls and ``batch`` run the same kernel.
    """

    name = "H"

    def basis(self, panel: Panel) -> Panel:
        """The panel itself: per-series studentization is not rotation-invariant."""
        return panel

    def __call__(self, panel: Panel) -> StatisticValue:
        return _best(self._objective(panel.values))

    def batch(self, values: np.ndarray) -> np.ndarray:
        return np.max(self._objective(values), axis=-1)

    def _objective(self, values: np.ndarray) -> np.ndarray:
        d = demean(values)
        sigma2, _ = _lrv(d, "auto")
        return _h_objective(d, sigma2)
