"""joltlab: detection and quantification of superexponential capability growth.

Library + CLI for generating synthetic technology-capability trajectories,
estimating derivatives up to third order from noisy series, computing jolt
metrics, detecting superexponential regimes with a hybrid detector, and
validating the detector with a Monte Carlo harness.
"""

__version__ = "0.2.0"

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
from .growth import (
    Composite,
    Exponential,
    GridSpec,
    GrowthModelSpec,
    InjectedJolt,
    InteractionSpec,
    Logistic,
    LogQuadratic,
    NoiseSpec,
    ResourceSchedule,
    add_noise,
    apply_resource_damping,
    compose,
    generate,
    inject_intervention,
)
from .metrics import (
    JoltMetrics,
    compute_metrics,
    dimensionless_jolt,
    growth_and_doubling,
    jolt_magnitude,
)
from .montecarlo import (
    ConfusionCounts,
    MCCell,
    MCReport,
    TrialMix,
    run_cell,
    run_cells,
    summarize,
    sweep,
    sweeps,
)
from .timeseries import TimeSeries, read_csv, write_csv
