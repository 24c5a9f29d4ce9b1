"""Simulator for panels with AR(1) errors, a common factor, and an optional
mean break at a fixed fraction of the sample.

The generated process is

    X[i, t] = delta_i * 1{t > t0} + e[i, t]
    e[i, t] = rho * e[i, t-1] + eps[i, t]
    eps[i, t] = a[i, t] + beta * f[t]

with a and f drawn iid from the configured error law (standard normal, or
Student-t with 5 df standardized to unit variance). The AR recursion starts
from zero and runs a 100-step burn-in, which is distribution-agnostic and
leaves a bias of order rho**100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _random
from .panel import Panel

__all__ = [
    "DgpConfig",
    "simulate_panel",
    "draw_deltas",
    "resolve_break_time",
]

BURN_IN = 100

LAWS = ("normal", "t5")
_BREAKS = ("none", "cancelling", "noncancelling")


@dataclass(frozen=True)
class DgpConfig:
    """Parameters of the simulated panel.

    Parameters
    ----------
    n, t : int
        Panel dimensions (N >= 1 series, T >= 2 time points), integers.
    rho : float
        AR(1) coefficient shared by all series, a real number in (-1, 1).
    beta : float
        Common-factor loading shared by all series, a finite real number.
    error_law : {"normal", "t5"}
        Innovation law for both the idiosyncratic terms and the factor;
        "t5" is Student-t with 5 df scaled to unit variance.
    break_spec : {"none", "cancelling", "noncancelling"}
        Break-size law: none, U(-1/2, 1/2), or U(1/10, 1/2).
    t0_fraction : float
        Break located at t0 = floor(t0_fraction * T), a finite real number;
        the break adds delta_i to every observation with t > t0. A bool or
        non-real rho, beta or t0_fraction raises TypeError.
    seed : int or None
        Master seed, an integer in [0, 2**64); must be set before simulating.
    """

    n: int
    t: int
    rho: float = 0.0
    beta: float = 0.0
    error_law: str = "normal"
    break_spec: str = "none"
    t0_fraction: float = 0.5
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _random.check_int("n", self.n, 1))
        object.__setattr__(self, "t", _random.check_int("t", self.t, 2))
        object.__setattr__(self, "rho", _random.check_real("rho", self.rho, -1.0, 1.0))
        object.__setattr__(self, "beta", _random.check_real("beta", self.beta))
        object.__setattr__(self, "t0_fraction", _random.check_real("t0_fraction", self.t0_fraction))
        _random.check_choice("error_law", self.error_law, LAWS)
        _random.check_choice("break_spec", self.break_spec, _BREAKS)
        if self.break_spec != "none":
            # outside (0, 1) no t0 fits, and floor(t0_fraction * T) may overflow
            _random.check_real("t0_fraction of a break", self.t0_fraction, 0.0, 1.0)
            t0 = resolve_break_time(self.t0_fraction, self.t)
            if not 1 <= t0 <= self.t - 1:
                raise ValueError(
                    f"break time floor({self.t0_fraction} * {self.t}) = {t0} "
                    f"outside 1..{self.t - 1}"
                )
        if self.seed is not None:
            object.__setattr__(self, "seed", _random.check_int("seed", self.seed, 0, _random.SEED_MAX))


def resolve_break_time(t0_fraction: float, t: int) -> int:
    """Break index t0 = floor(t0_fraction * T), guarded against rounding; the mean
    shifts after t0."""
    return math.floor(round(t0_fraction * t, 9))


def draw_deltas(spec: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw per-series break sizes.

    "cancelling" draws are uniform on (-1/2, 1/2), so cross-sectional
    aggregation can cancel the signal; "noncancelling" draws are uniform on
    (1/10, 1/2), all positive.
    """
    if spec == "cancelling":
        return _random.uniform_open(rng, n) - 0.5
    if spec == "noncancelling":
        return 0.1 + 0.4 * _random.uniform_open(rng, n)
    raise ValueError(f"no break sizes to draw for break_spec={spec!r}")


def _draw(rng: np.random.Generator, law: str, size) -> np.ndarray:
    if law == "normal":
        return _random.standard_normal(rng, size)
    return _random.student_t5_standardized(rng, size)


def simulate_panel(cfg: DgpConfig) -> Panel:
    """Simulate one panel from the configured process.

    Draw order is fixed (break sizes, then the factor path, then the
    idiosyncratic array) so a given seed yields the same panel on every
    platform regardless of parameters downstream in the order.
    """
    if cfg.seed is None:
        raise ValueError("DgpConfig.seed must be set to simulate")
    rng = _random.generator(cfg.seed)
    deltas = None
    if cfg.break_spec != "none":
        deltas = draw_deltas(cfg.break_spec, cfg.n, rng)
    horizon = BURN_IN + cfg.t
    f = _draw(rng, cfg.error_law, horizon)
    a = _draw(rng, cfg.error_law, (cfg.n, horizon))
    a += cfg.beta * f  # the innovations eps, in place
    values = _ar1_filter(a, cfg.rho)[:, BURN_IN:]
    if deltas is not None:
        values = _inject_break(values, deltas, resolve_break_time(cfg.t0_fraction, cfg.t))
    return Panel(values)


def _ar1_filter(eps: np.ndarray, rho: float) -> np.ndarray:
    """e[i, s] = rho * e[i, s-1] + eps[i, s], started from zero."""
    out = np.empty_like(eps)
    acc = np.zeros(eps.shape[0])
    for s in range(eps.shape[1]):
        acc = rho * acc + eps[:, s]
        out[:, s] = acc
    return out


def _inject_break(values: np.ndarray, deltas: np.ndarray, t0: int) -> np.ndarray:
    """Add delta_i to observations strictly after the (1-based) index t0."""
    out = values.copy()
    out[:, t0:] += np.asarray(deltas)[:, None]
    return out
