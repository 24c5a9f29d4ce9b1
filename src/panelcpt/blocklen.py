"""Data-adaptive block-length selection for the block bootstrap.

The selector treats block-length choice like plug-in bandwidth selection for
a kernel long-run-variance estimator (Andrews 1991): Bartlett sums of pilot
autocovariances at bandwidth l0 = ceil(sqrt(T)) give a level term and a
bias-curvature term, whose ratio yields the bandwidth after a fifth-root
rescaling.

The panel-wide rule is stated through the N x N Bartlett matrices CP0 and
CP1 of the row-demeaned cross-section, but it reads only sum(CP0), sum(CP1)
and diag(CP0). The two sums are the Bartlett level and curvature of the
aggregate series sum_i x_it, and diag(CP0) holds the Bartlett level of each
series, so the selection runs on autocovariances in O(N T l0). CP0 and CP1
themselves are built from `lag_cov` only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._random import check_int
from .panel import Panel, demean

__all__ = [
    "BlockLengthSelection",
    "autocovariances",
    "lag_cov",
    "adaptive_block_length",
]


@dataclass(frozen=True)
class BlockLengthSelection:
    """Result of the adaptive block-length procedure.

    Attributes
    ----------
    l0 : int
        Pilot bandwidth, ceil(sqrt(T)).
    raw : float
        The value inside the ceiling, before integer rounding and clamping.
    l_adpt : int
        Selected block length, clamped to [1, floor(T/2)].
    fallback : bool
        True when the denominator was non-positive and the selector fell
        back to ceil(T**(1/3)).
    panel : Panel
        The panel the length was selected from.
    cp0, cp1 : ndarray
        N x N level and curvature matrices, read-only and built on first
        access (O(N^2 T l0) time, l0 N x N matrices of memory).
    """

    l0: int
    raw: float
    l_adpt: int
    fallback: bool
    panel: Panel = field(repr=False, compare=False)

    @cached_property
    def _cp(self) -> tuple[np.ndarray, np.ndarray]:
        mats = np.moveaxis(lag_cov(self.panel, self.l0), 0, -1)
        cps = bartlett_sums(mats, self.l0)
        for arr in cps:
            arr.flags.writeable = False
        return cps

    @property
    def cp0(self) -> np.ndarray:
        return self._cp[0]

    @property
    def cp1(self) -> np.ndarray:
        return self._cp[1]


def autocovariances(demeaned: np.ndarray, max_lag: int) -> np.ndarray:
    """Per-series autocovariances of already-demeaned data.

    Parameters
    ----------
    demeaned : ndarray
        Array of shape (..., T) whose last axis is time; rows must already
        have mean zero.
    max_lag : int
        Largest lag to compute (must be < T).

    Returns
    -------
    ndarray of shape (..., max_lag + 1)
        Entry k is gamma_k = (1/T) * sum_t x_t x_{t+k}, the 1/T-normalized
        sample autocovariance. Each lag is one fused product-sum per row, so
        no (..., T - k) product array is formed and a row's result does not
        depend on its position in the stack.
    """
    t = demeaned.shape[-1]
    check_int("max_lag", max_lag, 0, t - 1)
    return np.stack([np.einsum("...t,...t->...", demeaned[..., : t - k], demeaned[..., k:]) / t
                     for k in range(max_lag + 1)], axis=-1)


def pilot_bandwidth(n_time: int) -> int:
    """Pilot bandwidth ceil(sqrt(T)); the one place an adaptive choice rejects T < 4."""
    if n_time < 4:
        raise ValueError(f"adaptive selection requires T >= 4, got T={n_time}")
    return int(math.ceil(math.sqrt(n_time)))


def bartlett_sums(gamma: np.ndarray, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Bartlett level and curvature sums of autocovariances.

    With w_k = 1 - k/L for k < L and 0 otherwise,

        level     = gamma_0 + 2 * sum_{k>=1} w_k gamma_k
        curvature = 2 * sum_{k>=1} k w_k gamma_k

    ``gamma`` has shape (..., K) with lags 0..K-1; ``lengths`` (int or array
    broadcasting against gamma's leading axes) must not exceed K.
    """
    k = np.arange(1, gamma.shape[-1])
    lengths = np.asarray(lengths)[..., None]
    w = np.where(k < lengths, 1.0 - k / lengths, 0.0)
    tail = gamma[..., 1:]
    level = gamma[..., 0] + 2.0 * np.sum(w * tail, axis=-1)
    curvature = 2.0 * np.sum(k * w * tail, axis=-1)
    return level, curvature


def length_formula(level, curvature, diag_sq, n_time: int):
    """The plug-in block length from Bartlett sums, elementwise.

        raw = (3 T |curvature| / (level + diag_sq)) ** (1/5)

    and L = ceil(raw) clamped to [1, floor(T/2)]. The absolute value keeps
    the fifth root defined when negatively correlated data make the
    curvature negative. Where the denominator is not positive, raw is NaN
    and L falls back to ceil(T**(1/3)).

    Returns (raw, L, fallback) as arrays of the broadcast input shape.
    """
    den = level + diag_sq
    ok = den > 0.0
    num = 3.0 * n_time * np.abs(curvature)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.where(ok, (num / np.where(ok, den, 1.0)) ** 0.2, np.nan)
    half = max(1, n_time // 2)
    lengths = np.clip(np.ceil(np.where(ok, raw, 1.0)), 1, half).astype(np.int64)
    fallback = max(1, min(int(math.ceil(n_time ** (1.0 / 3.0))), half))
    return raw, np.where(ok, lengths, fallback), ~ok


def lag_cov(panel: Panel, l0: int) -> np.ndarray:
    """Pilot lag-covariance matrices of the row-demeaned panel.

    Returns an (l0, N, N) array whose entry k is
    (1/T) * sum_{t=1..T-k} x_t x_{t+k}', with x_t the cross-section vector
    at time t; entry 0 is the contemporaneous covariance.
    """
    check_int("l0", l0, 1, panel.n_time)
    d = demean(panel.values)
    t = panel.n_time
    v = np.empty((l0, panel.n_series, panel.n_series), dtype=np.float64)
    v[0] = d @ d.T / t
    for k in range(1, l0):
        v[k] = d[:, :-k] @ d[:, k:].T / t
    return v


def adaptive_block_length(panel: Panel) -> BlockLengthSelection:
    """Select a panel-wide bootstrap block length from the data.

    With the Bartlett matrices CP0 = V_0 + 2 * sum_k w(k, l0) V_k and
    CP1 = 2 * sum_k k * w(k, l0) V_k of the lag-covariance matrices V_k,

        raw = (3 T |sum CP1| / (sum CP0 + sum_j CP0[j,j]**2)) ** (1/5)

    and l_adpt = ceil(raw) clamped to [1, floor(T/2)] (see
    `length_formula`). sum(CP0) and sum(CP1) are computed as the Bartlett
    sums of the aggregate series, and CP0[j,j] as that of series j, so no
    N x N matrix is formed.

    The pilot bandwidth is always l0 = ceil(sqrt(T)); the selection
    reports it as ``l0``.

    Parameters
    ----------
    panel : Panel
        Requires T >= 4.
    """
    t = panel.n_time
    l0 = pilot_bandwidth(t)
    d = demean(panel.values)
    level, curvature = bartlett_sums(autocovariances(d.sum(axis=0), l0 - 1), l0)
    diag, _ = bartlett_sums(autocovariances(d, l0 - 1), l0)
    raw, length, fallback = length_formula(level, curvature, np.sum(diag**2), t)
    return BlockLengthSelection(
        l0=l0, raw=float(raw), l_adpt=int(length), fallback=bool(fallback), panel=panel,
    )


def select_lengths_from_autocov(gamma: np.ndarray, n_time: int) -> np.ndarray:
    """Vectorized single-series selection from autocovariances.

    Applies the adaptive procedure with N = 1 (diag_sq = level**2) to each
    row of ``gamma`` (shape (..., l0), lags 0..l0-1). Used for per-series
    bandwidth choice in the long-run variance estimator.
    """
    level, curvature = bartlett_sums(gamma, gamma.shape[-1])
    return length_formula(level, curvature, level**2, n_time)[1]
