"""Jolt metrics computed from derivative estimates.

Implements the normalized jolt J(t) = C'''/C, the dimensionless jolt
J_N(t) = C'''*C / (C'*C''), the relative growth rate alpha(t) = C'/C and the
doubling time ln(2)/alpha. Resource damping and composite combination
live in the growth module.

J_N is undefined where C' or C'' vanish (e.g. a logistic inflection point);
such points are masked rather than raising. Masked entries are NaN and are
skipped by downstream statistics.

SavGol estimates, from log C, are always positive; J and alpha check C > 0
for hand-built estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .estimation import DerivativeEstimate
from .timeseries import write_exact

METRICS_CSV_HEADER = "t,J,JN,alpha,t_double,singular"

# relative singularity guard on |C'| and |C''| for the dimensionless jolt
SINGULARITY_GUARD = 1e-8


@dataclass
class JoltMetrics:
    times: np.ndarray
    jolt: np.ndarray           # J(t), time^-3
    jolt_dimensionless: np.ndarray  # J_N(t), NaN where singular
    alpha: np.ndarray          # relative growth rate, time^-1
    doubling_time: np.ndarray  # ln2/alpha, NaN where alpha <= 0
    singular_mask: np.ndarray  # True where J_N is undefined

    def write_csv(self, path) -> None:
        write_exact(path, METRICS_CSV_HEADER, self.times, self.jolt, self.jolt_dimensionless,
                    self.alpha, self.doubling_time, self.singular_mask)


def _require_positive_capability(d: DerivativeEstimate) -> None:
    if not np.all(d.c > 0):
        raise DataError("capability estimates must be > 0")


def jolt_magnitude(d: DerivativeEstimate) -> np.ndarray:
    """J(t) = C'''(t) / C(t), pointwise."""
    _require_positive_capability(d)
    return d.c3 / d.c


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x * x))) if x.size else 0.0


def dimensionless_jolt(d: DerivativeEstimate) -> tuple[np.ndarray, np.ndarray]:
    """J_N(t) = C'''*C / (C'*C'') with a singularity mask.

    The guard threshold is relative: SINGULARITY_GUARD times the RMS of the
    respective derivative over interior (non-edge) points.
    """
    interior = ~d.edge_mask
    if not interior.any():
        interior = np.ones_like(d.edge_mask)
    eps1 = SINGULARITY_GUARD * _rms(d.c1[interior])
    eps2 = SINGULARITY_GUARD * _rms(d.c2[interior])
    mask = (np.abs(d.c1) <= eps1) | (np.abs(d.c2) <= eps2)
    jn = np.full(d.times.size, np.nan)
    ok = ~mask
    jn[ok] = d.c3[ok] * d.c[ok] / (d.c1[ok] * d.c2[ok])
    return jn, mask


def growth_and_doubling(d: DerivativeEstimate) -> tuple[np.ndarray, np.ndarray]:
    """alpha = C'/C and doubling time ln2/alpha (NaN where alpha <= 0)."""
    _require_positive_capability(d)
    alpha = d.c1 / d.c
    doubling = np.full(alpha.shape, np.nan)
    pos = alpha > 0
    doubling[pos] = math.log(2) / alpha[pos]
    return alpha, doubling


def compute_metrics(d: DerivativeEstimate) -> JoltMetrics:
    """All per-point jolt metrics from one derivative estimate."""
    jolt = jolt_magnitude(d)
    jn, mask = dimensionless_jolt(d)
    alpha, doubling = growth_and_doubling(d)
    return JoltMetrics(
        times=d.times,
        jolt=jolt,
        jolt_dimensionless=jn,
        alpha=alpha,
        doubling_time=doubling,
        singular_mask=mask,
    )
