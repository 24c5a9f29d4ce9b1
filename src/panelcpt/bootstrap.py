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
]

KINDS = ("nonoverlapping", "circular", "stationary")

# A chunk holds at most _CHUNK replicates and _CHUNK_BYTES bytes, so a long
# panel's chunk stays in cache; its size depends only on (rows, T').
_CHUNK, _CHUNK_BYTES = 64, 1 << 24


def _chunk_size(rows: int, t_prime: int) -> int:
    return min(_CHUNK, max(1, _CHUNK_BYTES // (rows * t_prime * 8)))


@dataclass(frozen=True)
class BootstrapScheme:
    """A resampling scheme: kind plus block length.

    kind : {"nonoverlapping", "circular", "stationary"}
        Non-overlapping blocks (the tail beyond the last full block is
        discarded), circular blocks (wrap around modulo T), or stationary
        resampling with geometric block lengths of mean ``block_length``.
    block_length : int
        Block length L, an integer >= 1 (for "stationary", the expected
        block length; the geometric success probability is 1/L).
    """

    kind: str
    block_length: int

    def __post_init__(self):
        _random.check_choice("scheme kind", self.kind, KINDS)
        try:
            length = _random.check_int("block length", self.block_length, 1)
        except ValueError:
            raise InvalidBlockLengthError(self.block_length) from None
        object.__setattr__(self, "block_length", length)

    def resample_length(self, t: int) -> int:
        """Length T' of a resample of a length-t series: floor(t/L) * L for
        non-overlapping blocks, else t. InvalidBlockLengthError if L > t."""
        if self.block_length > t:
            raise InvalidBlockLengthError(self.block_length, t)
        return t - t % self.block_length if self.kind == "nonoverlapping" else t


@dataclass(frozen=True)
class RngSpec:
    """Master seed of the bootstrap replicates, an integer in [0, 2**64).

    Replicate j uses ``Generator(PCG64(SeedSequence([seed, j])))``.
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", _random.check_int("seed", self.seed, 0, _random.SEED_MAX))

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
    t_prime, length = scheme.resample_length(t), scheme.block_length
    if scheme.kind == "nonoverlapping":
        m = t_prime // length
        picks = rng.integers(0, m, size=m)
        return (picks[:, None] * length + np.arange(length)).ravel()
    if scheme.kind == "circular":
        n_blocks = -(-t // length)
        starts = rng.integers(0, t, size=n_blocks)
        idx = (starts[:, None] + np.arange(length)) % t
        return idx.ravel()[:t]
    return _stationary_indices(t, length, rng)


def _stationary_indices(t: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """Batches of max(8, ceil(T/L)) blocks (starts, then lengths), expanded as drawn."""
    batch = max(8, -(-t // length))
    parts, total = [], 0
    while total < t:
        starts = rng.integers(0, t, size=batch)
        lengths = np.ones(batch, dtype=np.int64)
        if length > 1:
            u = _random.uniform_open(rng, batch)
            lengths = np.ceil(np.log1p(-u) / math.log1p(-1.0 / length)).astype(np.int64)
        ends = np.cumsum(lengths)
        parts.append((np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1])) % t)
        total += int(ends[-1])
    return np.concatenate(parts)[:t]


def bootstrap_distribution(panel: Panel, statistic, scheme: BootstrapScheme,
                           b: int, rng: RngSpec, workers: int = 1
                           ) -> BootstrapDistribution:
    """Bootstrap distribution of a statistic under joint block resampling.

    ``statistic.basis(panel)`` (the panel, or for J with N > T its T x T factor) is
    row-demeaned once; replicate j resamples it with indices from ``rng.generator_for(j)``
    into its slab of a C-ordered (R, rows, T') chunk. Chunks run in ``workers`` contiguous
    parts, the first in the calling thread and the others on a thread pool; each thread
    refills one chunk buffer and hands it to the statistic's batch kernel (which
    re-demeans each resample). Each draw equals its resample's statistic alone, bit for
    bit, for any ``workers``, and for J the J of the same resample of the demeaned panel
    up to rounding, at cost O(B min(N, T) T').

    Parameters
    ----------
    panel : Panel
    statistic : JStatistic or HStatistic
        Its ``batch(values)`` maps stacked resamples (R, rows, T') to R values.
    scheme : BootstrapScheme
    b : int
        Number of replicates, an integer >= 1.
    rng : RngSpec
    workers : int
        Thread count >= 1; chunks depend only on (rows, T'), so results do not.

    Raises
    ------
    DegenerateSeriesError
        For the first replicate with a non-positive long-run variance,
        naming that replicate and the series.
    """
    b = _random.check_int("b", b, 1)
    workers = _random.check_int("workers", workers, 1)
    t = panel.n_time
    t_prime = scheme.resample_length(t)
    demeaned = demean(statistic.basis(panel).values)
    draws = np.empty(b, dtype=np.float64)
    size = _chunk_size(demeaned.shape[0], t_prime)

    starts = range(0, b, size)
    per = -(-len(starts) // workers)
    parts = [starts[i:i + per] for i in range(0, len(starts), per)]

    def run_chunks(part: range) -> None:
        # one chunk buffer per thread, refilled for each of its chunks
        buf = np.empty((min(b, size), demeaned.shape[0], t_prime), dtype=np.float64)
        for lo in part:
            hi = min(b, lo + size)
            chunk = buf[:hi - lo]
            for j in range(lo, hi):
                chunk[j - lo] = demeaned[:, resample_indices(scheme, t, rng.generator_for(j))]
            try:
                draws[lo:hi] = statistic.batch(chunk)
            except DegenerateSeriesError as exc:
                raise DegenerateSeriesError(exc.series, exc.detail, lo + exc.replicate) from None

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # the first part in the calling thread (so one worker starts no thread),
        # the rest on the pool; results in part order, so the first error
        # raised is the first failing replicate's
        futures = [pool.submit(run_chunks, part) for part in parts[1:]]
        run_chunks(parts[0])
        for future in futures:
            future.result()
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
