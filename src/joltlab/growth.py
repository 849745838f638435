"""Seedable generators for synthetic capability trajectories.

Families: pure exponential, logistic, log-quadratic (the canonical
superexponential form C0*exp(a*t + b*t^2)), an injected-jolt variant that
smoothly ramps the relative growth rate of a base trajectory, and composite
weighted mixtures. Ground-truth "jolting" labels are derived from the family,
never measured post hoc.

Noise is multiplicative Gaussian on the values, resampled per point when a
draw would leave the positive domain. All generation is a pure function of
(spec, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DataError, Spec, real, text, whole
from .timeseries import DT_RANGE, MAX_POINTS, TimeSeries

NOISE_SIGMAS = {"none": 0.0, "low": 0.01, "medium": 0.05, "high": 0.10}


# --- declarative specs --------------------------------------------------------

@dataclass(frozen=True)
class GridSpec(Spec, section="grid"):
    t_start: float = real(0.0)
    t_end: float = real(20.0)
    n_points: int = whole(200, ge=8, le=MAX_POINTS)

    def __post_init__(self):
        super().__post_init__()
        if not self.t_end > self.t_start:
            raise ConfigError("grid needs t_end > t_start")
        lo, hi = DT_RANGE
        step = (self.t_end - self.t_start) / (self.n_points - 1)
        if not lo <= step <= hi:
            raise ConfigError(f"grid step (t_end - t_start) / (n_points - 1) must lie in "
                              f"[{lo:g}, {hi:g}], got {step:g}")

    def times(self) -> np.ndarray:
        """Read-only grid times, one array per grid: the series generated on a
        grid share it, so a batch of them is seen to share one grid at once."""
        return _grid_times(self.t_start, self.t_end, self.n_points)


@lru_cache(maxsize=16)
def _grid_times(t_start: float, t_end: float, n_points: int) -> np.ndarray:
    t = np.linspace(t_start, t_end, n_points)
    t.setflags(write=False)
    return t


@dataclass(frozen=True)
class NoiseSpec(Spec, section="noise"):
    """Multiplicative noise tier (or explicit relative sigma) plus seed."""

    level: str = text("none")
    sigma_rel: float | None = real(None, ge=0)
    seed: int = whole(0, ge=0)

    def __post_init__(self):
        super().__post_init__()
        if self.sigma_rel is None and self.level not in NOISE_SIGMAS:
            raise ConfigError(f"unknown noise level {self.level!r}")

    @property
    def sigma(self) -> float:
        if self.sigma_rel is not None:
            return float(self.sigma_rel)
        return NOISE_SIGMAS[self.level]


@dataclass(frozen=True)
class Exponential(Spec):
    c0: float = real(1.0, gt=0)
    k: float = real(0.1)


@dataclass(frozen=True)
class Logistic(Spec):
    l: float = real(100.0, gt=0)
    r: float = real(1.0, gt=0)
    t0: float = real(10.0)


@dataclass(frozen=True)
class LogQuadratic(Spec):
    """C(t) = c0 * exp(a*t + b*t^2); superexponential when b > 0."""

    c0: float = real(1.0, gt=0)
    a: float = real(0.0)
    b: float = real(0.01)


@dataclass(frozen=True)
class InjectedJolt(Spec):
    """Base trajectory whose relative growth rate ramps up by ``ramp_strength``.

    The ramp follows a C^2 quintic smoothstep over [jolt_start, jolt_end]
    applied to the slope of log-capability, so the increase in growth rate is
    sustained after the ramp and the third derivative exists everywhere.
    """

    base: object = field(default_factory=Exponential)
    jolt_start: float = real(5.0)
    jolt_end: float = real(10.0)
    ramp_strength: float = real(0.1, ge=0)

    def __post_init__(self):
        super().__post_init__()
        if not self.jolt_end > self.jolt_start:
            raise ConfigError("InjectedJolt requires jolt_end > jolt_start")


@dataclass(frozen=True)
class InteractionSpec:
    """Pairwise interaction terms keyed by ordered factor index pairs.

    Each entry maps (i, j) to either a callable of t or a sampled array on
    the shared grid. Defaults to no interactions.
    """

    terms: tuple = ()

    def sampled(self, times: np.ndarray) -> np.ndarray:
        total = np.zeros_like(times)
        for (_i, _j), term in self.terms:
            vals = term(times) if callable(term) else np.asarray(term, float)
            if vals.shape != times.shape:
                raise DataError("interaction term length != grid length")
            if not np.all(np.isfinite(vals)):
                raise ConfigError("interaction term must be finite")
            total = total + vals
        return total


@dataclass(frozen=True)
class Composite:
    """Weighted sum of factor trajectories (interaction terms apply only to
    jolt-series composition via :func:`compose`)."""

    factors: tuple = ()

    def __post_init__(self):
        if not self.factors:
            raise ConfigError("Composite requires at least one factor")


@dataclass(frozen=True)
class GrowthModelSpec:
    family: object = field(default_factory=Exponential)
    grid: GridSpec = field(default_factory=GridSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    @property
    def label(self) -> bool:
        """Ground-truth jolting label, derived from the family."""
        return _family_label(self.family, self.grid)


# --- smoothstep helpers -------------------------------------------------------

def smoothstep_integral(x):
    """Antiderivative of :func:`joltlab.detector.smoothstep`, 0 at x <= 0."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, 0.0, 1.0)
    inside = xc**4 * (2.5 + xc * (-3.0 + xc))
    return inside + np.where(x > 1.0, x - 1.0, 0.0)


# --- evaluation ---------------------------------------------------------------

def evaluate(family, times: np.ndarray) -> np.ndarray:
    """Noiseless closed-form trajectory of ``family`` on ``times``."""
    if isinstance(family, Exponential):
        return family.c0 * np.exp(family.k * times)
    if isinstance(family, Logistic):
        return family.l / (1.0 + np.exp(-family.r * (times - family.t0)))
    if isinstance(family, LogQuadratic):
        return family.c0 * np.exp(family.a * times + family.b * times**2)
    if isinstance(family, InjectedJolt):
        base = evaluate(family.base, times)
        span = family.jolt_end - family.jolt_start
        x = (times - family.jolt_start) / span
        bump = family.ramp_strength * span * smoothstep_integral(x)
        return base * np.exp(bump)
    if isinstance(family, Composite):
        total = np.zeros_like(times)
        for w, sub in family.factors:
            total = total + w * evaluate(sub, times)
        return total
    raise ConfigError(f"unknown growth family {type(family).__name__}")


def _family_label(family, grid: GridSpec) -> bool:
    if isinstance(family, (Exponential, Logistic)):
        return False
    if isinstance(family, LogQuadratic):
        return family.b > 0
    if isinstance(family, InjectedJolt):
        return family.ramp_strength > 0
    if isinstance(family, Composite):
        # sustained alpha'(t) > 0 across the grid, checked numerically
        t = grid.times()
        logv = np.log(evaluate(family, t))
        return bool(np.all(np.diff(logv, 2) > 0))
    raise ConfigError(f"unknown growth family {type(family).__name__}")


def generate(spec: GrowthModelSpec) -> tuple[TimeSeries, bool]:
    """Generate a (possibly noisy) trajectory plus its ground-truth label."""
    t = spec.grid.times()
    values = evaluate(spec.family, t)
    if not np.all(values > 0):
        raise ConfigError("generated trajectory is not strictly positive")
    return add_noise(TimeSeries(t, values), spec.noise), spec.label


def add_noise(series: TimeSeries, noise: NoiseSpec) -> TimeSeries:
    """Multiply values by (1 + eps), eps ~ N(0, sigma_rel^2), kept positive.

    Draws that would produce a non-positive value are resampled. Identity
    for sigma 0; bitwise deterministic for a fixed seed.
    """
    series.log_values  # raises a DataError: no draw makes a C <= 0 positive
    sigma = noise.sigma
    if sigma == 0.0:
        return series
    rng = np.random.default_rng(np.random.SeedSequence(noise.seed))
    v = series.values
    out = v * (1.0 + sigma * rng.standard_normal(v.size))
    bad = out <= 0
    while bad.any():
        out[bad] = v[bad] * (1.0 + sigma * rng.standard_normal(int(bad.sum())))
        bad = out <= 0
    return series.with_values(out)


# --- jolt-series combination and damping --------------------------------------

def compose(factors, interaction: InteractionSpec | None = None) -> TimeSeries:
    """Pointwise weighted sum of jolt series plus interaction terms.

    ``factors`` is a list of (weight, TimeSeries) sharing one grid.
    """
    if not factors:
        raise ConfigError("compose requires at least one factor")
    times = factors[0][1].times
    total = np.zeros_like(times)
    for w, s in factors:
        if not np.array_equal(s.times, times):
            raise DataError("factor series must share one time grid")
        total = total + w * s.values
    if interaction is not None:
        total = total + interaction.sampled(times)
    return TimeSeries(times, total)


@dataclass(frozen=True)
class ResourceSchedule(Spec):
    """Sampled resource utilization R(t) with cap r_max."""

    times: np.ndarray
    utilization: np.ndarray
    r_max: float = real(gt=0)

    def __post_init__(self):
        super().__post_init__()
        t = np.asarray(self.times, dtype=float)
        u = np.asarray(self.utilization, dtype=float)
        if t.shape != u.shape:
            raise DataError("schedule grid/utilization length mismatch")
        if np.any(u < 0):
            raise ConfigError("resource utilization must be >= 0")
        if np.any(u > self.r_max):
            raise ConfigError("resource utilization exceeds r_max")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "utilization", u)


def apply_resource_damping(jolt: TimeSeries, schedule: ResourceSchedule) -> TimeSeries:
    """Damp a jolt series by (r_max - R(t)) / r_max pointwise."""
    if not np.array_equal(jolt.times, schedule.times):
        raise DataError("jolt series and schedule must share one grid")
    factor = (schedule.r_max - schedule.utilization) / schedule.r_max
    return jolt.with_values(jolt.values * factor)
