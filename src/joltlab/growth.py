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

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import GridMismatch, InvalidSpec, ScheduleViolation
from .timeseries import TimeSeries

NOISE_SIGMAS = {"none": 0.0, "low": 0.01, "medium": 0.05, "high": 0.10}


# --- declarative specs --------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    t_start: float = 0.0
    t_end: float = 20.0
    n_points: int = 200

    def __post_init__(self):
        for name in ("t_start", "t_end"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise InvalidSpec(f"grid {name} must be a finite number, got {value!r}")
        if not isinstance(self.n_points, numbers.Integral):
            raise InvalidSpec(f"grid n_points must be a whole number, got {self.n_points!r}")
        if self.n_points < 8:
            raise InvalidSpec("grid needs n_points >= 8")
        if not self.t_end > self.t_start:
            raise InvalidSpec("grid needs t_end > t_start")

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
class NoiseSpec:
    """Multiplicative noise tier (or explicit relative sigma) plus seed."""

    level: str = "none"
    sigma_rel: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.sigma_rel is None and self.level not in NOISE_SIGMAS:
            raise InvalidSpec(f"unknown noise level {self.level!r}")
        if self.sigma_rel is not None:
            if not (isinstance(self.sigma_rel, numbers.Real) and math.isfinite(self.sigma_rel)):
                raise InvalidSpec(f"sigma_rel must be a finite number, got {self.sigma_rel!r}")
            if self.sigma_rel < 0:
                raise InvalidSpec(f"sigma_rel must be >= 0, got {self.sigma_rel}")
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise InvalidSpec(f"noise seed must be a whole number, got {self.seed!r}")
        if self.seed < 0:
            raise InvalidSpec(f"noise seed must be >= 0, got {self.seed}")

    @property
    def sigma(self) -> float:
        if self.sigma_rel is not None:
            return float(self.sigma_rel)
        return NOISE_SIGMAS[self.level]


@dataclass(frozen=True)
class Exponential:
    c0: float = 1.0
    k: float = 0.1

    def __post_init__(self):
        if self.c0 <= 0:
            raise InvalidSpec("Exponential requires c0 > 0")


@dataclass(frozen=True)
class Logistic:
    l: float = 100.0
    r: float = 1.0
    t0: float = 10.0

    def __post_init__(self):
        if self.l <= 0 or self.r <= 0:
            raise InvalidSpec("Logistic requires l > 0 and r > 0")


@dataclass(frozen=True)
class LogQuadratic:
    """C(t) = c0 * exp(a*t + b*t^2); superexponential when b > 0."""

    c0: float = 1.0
    a: float = 0.0
    b: float = 0.01

    def __post_init__(self):
        if self.c0 <= 0:
            raise InvalidSpec("LogQuadratic requires c0 > 0")


@dataclass(frozen=True)
class InjectedJolt:
    """Base trajectory whose relative growth rate ramps up by ``ramp_strength``.

    The ramp follows a C^2 quintic smoothstep over [jolt_start, jolt_end]
    applied to the slope of log-capability, so the increase in growth rate is
    sustained after the ramp and the third derivative exists everywhere.
    """

    base: object = field(default_factory=Exponential)
    jolt_start: float = 5.0
    jolt_end: float = 10.0
    ramp_strength: float = 0.1

    def __post_init__(self):
        if not self.jolt_end > self.jolt_start:
            raise InvalidSpec("InjectedJolt requires jolt_end > jolt_start")
        if self.ramp_strength < 0:
            raise InvalidSpec("InjectedJolt requires ramp_strength >= 0")


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
                raise GridMismatch("interaction term length != grid length")
            if not np.all(np.isfinite(vals)):
                raise InvalidSpec("interaction term must be finite")
            total = total + vals
        return total


@dataclass(frozen=True)
class Composite:
    """Weighted sum of factor trajectories (interaction terms apply only to
    jolt-series composition via :func:`compose`)."""

    factors: tuple = ()

    def __post_init__(self):
        if not self.factors:
            raise InvalidSpec("Composite requires at least one factor")


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
    raise InvalidSpec(f"unknown growth family {type(family).__name__}")


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
    raise InvalidSpec(f"unknown growth family {type(family).__name__}")


def generate(spec: GrowthModelSpec) -> tuple[TimeSeries, bool]:
    """Generate a (possibly noisy) trajectory plus its ground-truth label."""
    t = spec.grid.times()
    values = evaluate(spec.family, t)
    if not np.all(values > 0):
        raise InvalidSpec("generated trajectory is not strictly positive")
    return add_noise(TimeSeries(t, values), spec.noise), spec.label


def add_noise(series: TimeSeries, noise: NoiseSpec) -> TimeSeries:
    """Multiply values by (1 + eps), eps ~ N(0, sigma_rel^2), kept positive.

    Draws that would produce a non-positive value are resampled. Identity
    for sigma 0; bitwise deterministic for a fixed seed.
    """
    series.log_values  # raises NonPositiveValue: no draw makes a C <= 0 positive
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
        raise InvalidSpec("compose requires at least one factor")
    times = factors[0][1].times
    total = np.zeros_like(times)
    for w, s in factors:
        if not np.array_equal(s.times, times):
            raise GridMismatch("factor series must share one time grid")
        total = total + w * s.values
    if interaction is not None:
        total = total + interaction.sampled(times)
    return TimeSeries(times, total)


@dataclass(frozen=True)
class ResourceSchedule:
    """Sampled resource utilization R(t) with cap r_max."""

    times: np.ndarray
    utilization: np.ndarray
    r_max: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        u = np.asarray(self.utilization, dtype=float)
        if self.r_max <= 0:
            raise InvalidSpec("r_max must be positive")
        if t.shape != u.shape:
            raise GridMismatch("schedule grid/utilization length mismatch")
        if np.any(u < 0):
            raise ScheduleViolation("resource utilization must be >= 0")
        if np.any(u > self.r_max):
            raise ScheduleViolation("resource utilization exceeds r_max")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "utilization", u)


def apply_resource_damping(jolt: TimeSeries, schedule: ResourceSchedule) -> TimeSeries:
    """Damp a jolt series by (r_max - R(t)) / r_max pointwise."""
    if not np.array_equal(jolt.times, schedule.times):
        raise GridMismatch("jolt series and schedule must share one grid")
    factor = (schedule.r_max - schedule.utilization) / schedule.r_max
    return jolt.with_values(jolt.values * factor)
