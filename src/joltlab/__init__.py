"""joltlab: detection and quantification of superexponential capability growth.

Library + CLI for generating synthetic technology-capability trajectories,
estimating derivatives up to third order from noisy series, computing jolt
metrics, detecting superexponential regimes with a hybrid detector, and
validating the detector with a Monte Carlo harness.
"""

__version__ = "0.4.0"

from .detector import (
    DetectionResult,
    DetectorConfig,
    detection_signal,
    hybrid_detect,
    permutation_test,
)
from .errors import JoltlabError
from .estimation import (
    DerivativeEstimate,
    SavitzkyGolay,
    estimate_derivatives,
    savgol_derivative,
    savgol_smooth,
)
from .metrics import (
    JoltMetrics,
    compute_metrics,
    dimensionless_jolt,
    growth_and_doubling,
    jolt_magnitude,
)
from .timeseries import TimeSeries, read_csv, write_csv

# The generators and the Monte Carlo harness load on first use (PEP 562):
# detect and metrics run neither, and their dataclasses are most of the
# package's import time.
_LAZY = {
    **dict.fromkeys((
        "Composite", "Exponential", "GridSpec", "GrowthModelSpec", "InjectedJolt",
        "InteractionSpec", "Logistic", "LogQuadratic", "NoiseSpec", "ResourceSchedule",
        "add_noise", "apply_resource_damping", "compose", "generate",
    ), "growth"),
    **dict.fromkeys((
        "ConfusionCounts", "MCCell", "MCReport", "TrialMix", "run_cell", "run_cells",
        "summarize", "sweep", "sweeps",
    ), "montecarlo"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
