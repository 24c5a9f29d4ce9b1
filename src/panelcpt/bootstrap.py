"""Block-bootstrap resampling over panels and the bootstrap distribution,
quantile, and p-value machinery.

Resampling is joint across the cross-section: one sequence of time indices
is drawn per replicate and applied to every series simultaneously, so
cross-sectional dependence survives resampling. The panel is row-demeaned
before blocks are drawn, and the statistic re-demeans each resample.

Reproducibility contract: replicate j draws from a PCG64 generator derived
as SeedSequence([seed, j]), so the draws vector is bit-identical for any
execution order, chunking, or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _random
from .errors import DegenerateSeriesError, InvalidBlockLengthError
from .panel import Panel, demean

__all__ = [
    "BootstrapScheme",
    "BootstrapDistribution",
    "RngSpec",
    "resample_indices",
    "bootstrap_distribution",
    "p_value",
    "empirical_quantile",
    "quantile_rank",
]

KINDS = ("nonoverlapping", "circular", "stationary")

# Replicates are evaluated in fixed-size chunks so the vectorized statistic
# sees identical array shapes regardless of worker count.
_CHUNK = 64


@dataclass(frozen=True)
class BootstrapScheme:
    """A resampling scheme: kind plus block length.

    kind : {"nonoverlapping", "circular", "stationary"}
        Non-overlapping blocks (the tail beyond the last full block is
        discarded), circular blocks (wrap around modulo T), or stationary
        resampling with geometric block lengths of mean ``block_length``.
    block_length : int
        Block length L >= 1 (for "stationary", the expected block length;
        the geometric success probability is 1/L).
    """

    kind: str
    block_length: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"scheme kind must be one of {KINDS}, got {self.kind!r}")
        if int(self.block_length) < 1:
            raise InvalidBlockLengthError(self.block_length)
        object.__setattr__(self, "block_length", int(self.block_length))

    def checked_length(self, t: int) -> int:
        """L, checked to fit a series of length t (InvalidBlockLengthError if L > t)."""
        if self.block_length > t:
            raise InvalidBlockLengthError(self.block_length, t)
        return self.block_length


@dataclass(frozen=True)
class RngSpec:
    """Master seed of the bootstrap replicates, an integer in [0, 2**64).

    Replicate j uses ``Generator(PCG64(SeedSequence([seed, j])))``.
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", _random.check_seed(self.seed))

    def generator_for(self, replicate: int) -> np.random.Generator:
        return _random.generator(self.seed, replicate)


@dataclass(frozen=True)
class BootstrapDistribution:
    """Vector of B bootstrap statistic replicates."""

    draws: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.array(self.draws, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("draws must be a non-empty vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("bootstrap draws must all be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "draws", arr)

    @property
    def b(self) -> int:
        return int(self.draws.size)


def resample_indices(scheme: BootstrapScheme, t: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw one replicate's time indices (0-based; m*L of them for
    non-overlapping blocks, else T).

    nonoverlapping
        The m = floor(T/L) blocks starting at 0, L, 2L, ... are drawn m
        times uniformly with replacement and concatenated.
    circular
        ceil(T/L) block starts are drawn uniformly from 0..T-1; blocks wrap
        modulo T; the concatenation is truncated to T.
    stationary
        Blocks have independent geometric lengths with success probability
        1/L and uniform starts, wrap modulo T, truncated to T.
    """
    length = scheme.checked_length(t)
    if scheme.kind == "nonoverlapping":
        m = t // length
        picks = rng.integers(0, m, size=m)
        return (picks[:, None] * length + np.arange(length)).ravel()
    if scheme.kind == "circular":
        n_blocks = -(-t // length)
        starts = rng.integers(0, t, size=n_blocks)
        idx = (starts[:, None] + np.arange(length)) % t
        return idx.ravel()[:t]
    return _stationary_indices(t, length, rng)


def _stationary_indices(t: int, length: int, rng: np.random.Generator) -> np.ndarray:
    p = 1.0 / length
    starts: list[np.ndarray] = []
    lengths: list[np.ndarray] = []
    total = 0
    batch = max(8, -(-t // length))
    while total < t:
        s = rng.integers(0, t, size=batch)
        if length == 1:
            ln = np.ones(batch, dtype=np.int64)
        else:
            u = _random.uniform_open(rng, batch)
            ln = np.ceil(np.log1p(-u) / math.log1p(-p)).astype(np.int64)
        starts.append(s)
        lengths.append(ln)
        total += int(ln.sum())
    s = np.concatenate(starts)
    ln = np.concatenate(lengths)
    keep = int(np.searchsorted(np.cumsum(ln), t, side="left")) + 1
    s, ln = s[:keep], ln[:keep]
    offsets = np.arange(int(ln.sum())) - np.repeat(np.cumsum(ln) - ln, ln)
    return ((np.repeat(s, ln) + offsets) % t)[:t]


def bootstrap_distribution(panel: Panel, statistic, scheme: BootstrapScheme,
                           b: int, rng: RngSpec, workers: int = 1
                           ) -> BootstrapDistribution:
    """Bootstrap distribution of a statistic under joint block resampling.

    The panel is row-demeaned once; replicate j then resamples it with
    indices from ``rng.generator_for(j)``. Replicates are stacked in chunks
    and evaluated by the statistic's batch kernel (which re-demeans each
    resample). Results are identical for any ``workers``.

    Parameters
    ----------
    panel : Panel
    statistic : JStatistic or HStatistic
        Its ``batch(values)`` maps stacked resamples (R, N, T') to R values.
    scheme : BootstrapScheme
    b : int
        Number of replicates, >= 1.
    rng : RngSpec
    workers : int
        Thread count; chunking is fixed so results do not depend on it.

    Raises
    ------
    DegenerateSeriesError
        For the first replicate with a non-positive long-run variance,
        naming that replicate and the series.
    """
    if b < 1:
        raise ValueError(f"replicate count must be >= 1, got {b}")
    t = panel.n_time
    length = scheme.checked_length(t)
    t_prime = (t // length) * length if scheme.kind == "nonoverlapping" else t
    demeaned = demean(panel.values)
    draws = np.empty(b, dtype=np.float64)

    def run_chunk(lo: int) -> None:
        hi = min(b, lo + _CHUNK)
        idx = np.empty((hi - lo, t_prime), dtype=np.int64)
        for j in range(lo, hi):
            idx[j - lo] = resample_indices(scheme, t, rng.generator_for(j))
        # contiguous copy so reductions run in the same order as on a single
        # (1, N, T') stack, keeping draws bit-identical to a scalar call
        stacked = np.ascontiguousarray(demeaned[:, idx].transpose(1, 0, 2))
        try:
            draws[lo:hi] = statistic.batch(stacked)
        except DegenerateSeriesError as exc:
            raise DegenerateSeriesError(exc.series, exc.detail, lo + exc.replicate) from None

    chunk_starts = range(0, b, _CHUNK)
    if workers <= 1 or b <= _CHUNK:
        for lo in chunk_starts:
            run_chunk(lo)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # materialize to surface worker exceptions
            list(pool.map(run_chunk, chunk_starts))
    return BootstrapDistribution(draws)


def quantile_rank(q: float, b: int) -> int:
    """Order-statistic rank ceil(q*b), guarded against rounding at integers
    and at least 1, so a tiny q names the smallest draw."""
    return max(1, int(math.ceil(round(q * b, 9))))


def empirical_quantile(dist: BootstrapDistribution, q: float) -> float:
    """The ceil(q*B)-th smallest draw."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    k = quantile_rank(q, dist.b)
    return float(np.sort(dist.draws)[k - 1])


def p_value(dist: BootstrapDistribution, observed: float) -> float:
    """Finite-sample bootstrap p-value (1 + #{draws >= observed}) / (B + 1)."""
    count = int(np.count_nonzero(dist.draws >= observed))
    return (1 + count) / (dist.b + 1)
