"""Platform-stable sampling primitives.

All randomness in the package flows through PCG64 generators derived from a
64-bit master seed via ``numpy.random.SeedSequence``, and all continuous draws
are produced by explicit inverse-CDF transforms of 53-bit uniforms. This keeps
every sampled value bit-reproducible for a fixed seed, independent of
platform, worker count, and numpy's own distribution implementations.
"""

from __future__ import annotations

import numpy as np

_TWO53 = float(2**53)
SEED_MAX = 2**64 - 1

__all__ = [
    "check_int",
    "derive_seed",
    "generator",
    "uniform_open",
    "normal_quantile",
    "standard_normal",
    "student_t5_standardized",
]


def check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """Every size, count, seed and worker count as an int in [lo, hi]: a
    bool or non-integer raises TypeError, a value out of range ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def derive_seed(*path: int) -> int:
    """Derive a child 64-bit seed from an integer path.

    The derivation is ``SeedSequence([*path]).generate_state(1)`` and is the
    documented rule used to decouple streams, e.g. ``(seed_base, rep, 0)`` for
    data generation and ``(seed_base, rep, 1)`` for bootstrap resampling.
    """
    parts = [check_int("seed", p, 0, SEED_MAX) for p in path]
    ss = np.random.SeedSequence(parts)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def generator(*path: int) -> np.random.Generator:
    """Build a PCG64 generator keyed by an integer path (see `derive_seed`)."""
    parts = [check_int("seed", p, 0, SEED_MAX) for p in path]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(parts)))


def uniform_open(rng: np.random.Generator, size) -> np.ndarray:
    """Uniform draws on the open interval (0, 1).

    Values are ``(k + 0.5) / 2**53`` for a 53-bit integer ``k``, rounded to
    the nearest double, ties to even (so k >= 2**52 lands on a neighbour),
    and capped below 1: 0.0 and 1.0 are never produced and the quantile
    transforms below stay finite.
    """
    k = rng.integers(0, 2**53, size=size, dtype=np.uint64)
    u = k.astype(np.float64)
    u += 0.5
    u /= _TWO53
    np.minimum(u, np.nextafter(1.0, 0.0), out=u)
    return u


# Rational approximations for the standard normal quantile (relative error
# below 1e-15 on (0, 1); Wichura's PPND16 coefficient set).
_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_B = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
    5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
    2.8729085735721942674e4, 5.2264952788528545610e3,
)
_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0,
    5.76949722146069140550e0, 3.64784832476320460504e0,
    1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_D = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
    6.89767334985100004550e-1, 1.48103976427480074590e-1,
    1.51986665636164571966e-2, 5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_E = (
    6.65790464350110377720e0, 5.46378491116411436990e0,
    1.78482653991729133580e0, 2.96560571828504891230e-1,
    2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_F = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
    1.48753612908506148525e-2, 7.86869131145613259100e-4,
    1.84631831751005468180e-5, 1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


# Elements per block of `normal_quantile`: a block's few float arrays
# (256 KiB each) stay in a core's L2 cache.
_BLOCK = 1 << 15


def _polyval(coeffs, x: np.ndarray) -> np.ndarray:
    out = np.full_like(x, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        np.multiply(out, x, out=out)
        np.add(out, c, out=out)
    return out


def normal_quantile(p) -> np.ndarray:
    """Standard normal quantile function, vectorized, accurate to ~1e-15.

    Inputs must lie strictly inside (0, 1). Wichura's AS 241 runs over flat
    blocks of `_BLOCK` inputs; every element sees the same operations in the
    same order in any block, so the result does not depend on `_BLOCK`.
    """
    p = np.asarray(p, dtype=np.float64)
    out = np.empty(p.shape)
    _quantile_into(p, out)
    return out


def _quantile_into(p: np.ndarray, out: np.ndarray) -> None:
    """Write `normal_quantile` of ``p`` into ``out``, which may be ``p``."""
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("normal_quantile requires arguments strictly in (0, 1)")
    flat_p, flat_out = p.reshape(-1), out.reshape(-1)
    for lo in range(0, flat_p.size, _BLOCK):
        _quantile_block(flat_p[lo:lo + _BLOCK], flat_out[lo:lo + _BLOCK])


def _quantile_block(p: np.ndarray, out: np.ndarray) -> None:
    """AS 241 on a 1-D block ``p``, written into ``out`` (which may be ``p``)
    only after the last read of ``p``.

    The central formula (q * A(r)) / B(r) runs on the whole block, which
    costs less than gathering its |q| <= 0.425 elements; the tail elements
    are then overwritten. For |q| < 0.5, r > -0.0694, where B stays above
    0.002, so the discarded values raise no warning.
    """
    q = p - 0.5
    tail = ~(np.abs(q) <= 0.425)  # the complement, so a NaN takes the tail path
    qt = q[tail]
    r = np.where(qt < 0.0, p[tail], 1.0 - p[tail])
    r = np.sqrt(-np.log(r))
    near = r <= 5.0
    val = np.empty_like(r)
    if np.any(near):
        rn = r[near] - 1.6
        val[near] = _polyval(_C, rn) / _polyval(_D, rn)
    if np.any(~near):
        rf = r[~near] - 5.0
        val[~near] = _polyval(_E, rf) / _polyval(_F, rf)

    r = 0.180625 - q ** 2
    num = _polyval(_A, r)
    np.multiply(q, num, out=num)
    np.divide(num, _polyval(_B, r), out=out)
    out[tail] = np.where(qt < 0.0, -val, val)


def standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normal draws via inverse CDF of 53-bit uniforms."""
    u = uniform_open(rng, size)
    _quantile_into(u, u)
    return u


def student_t5_standardized(rng: np.random.Generator, size) -> np.ndarray:
    """Unit-variance Student-t draws with 5 degrees of freedom.

    Built as z0 / sqrt(chi2_5 / 5) from six normals per draw (the chi-square
    is a sum of squared normals), then scaled by sqrt(3/5) so the variance is
    exactly 1 instead of the raw t5 variance 5/3.
    """
    if isinstance(size, int):
        size = (size,)
    z = standard_normal(rng, tuple(size) + (6,))
    z[..., 1:] **= 2  # in place, so no (..., 5) temporary
    chi2 = np.sum(z[..., 1:], axis=-1)
    return z[..., 0] / np.sqrt(chi2 / 5.0) * np.sqrt(3.0 / 5.0)
