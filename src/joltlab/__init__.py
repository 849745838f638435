"""joltlab: detection and quantification of superexponential capability growth.

Library + CLI for generating synthetic technology-capability trajectories,
estimating derivatives up to third order from noisy series, computing jolt
metrics, detecting superexponential regimes with a hybrid detector, and
validating the detector with a Monte Carlo harness.
"""

__version__ = "0.7.0"

# Every export loads on first use (PEP 562), so ``import joltlab`` loads no
# numpy and ``joltlab.cli`` runs before numpy does; detect and metrics never
# load the generators or the Monte Carlo harness.
_LAZY = {
    **dict.fromkeys(("DetectionResult", "DetectorConfig", "detection_signal",
                     "hybrid_detect", "permutation_test"), "detector"),
    "JoltlabError": "errors",
    **dict.fromkeys(("DerivativeEstimate", "SavitzkyGolay", "estimate_derivatives",
                     "savgol_derivative", "savgol_smooth"), "estimation"),
    **dict.fromkeys(("JoltMetrics", "compute_metrics", "dimensionless_jolt",
                     "growth_and_doubling", "jolt_magnitude"), "metrics"),
    **dict.fromkeys(("TimeSeries", "read_csv", "write_csv"), "timeseries"),
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
