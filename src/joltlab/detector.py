"""Hybrid jolt detector with permutation-test significance.

The detection signal is S(t) = alpha'(t) = d^2/dt^2 ln C(t): a pure
exponential has S = 0, a jolting (superexponential) regime has sustained
S > 0. Positive raw third derivatives alone are deliberately not used as the
signal, because every growing exponential already has C''' > 0.

The verdict combines three sub-scores (MAD-normalized peak ratio, smoothstep
template cross-correlation, longest-positive-run duration) with a residual
permutation test against an exponential null.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidSpec,
    SeriesTooShort,
    TooFewPermutations,
    TooFewPoints,
)
from .estimation import (
    SavitzkyGolay,
    _filter_log,
    _resid_scale,
    default_savgol,
    edge_mask,
    savgol_weights,
)
from .growth import smoothstep
from .timeseries import TimeSeries


@dataclass(frozen=True)
class DetectorConfig:
    """Hybrid detector hyperparameters (the Monte Carlo sweep axes)."""

    smoother: SavitzkyGolay | None = None  # None -> window scaled to n
    threshold_peak: float = 3.0
    min_duration_frac: float = 0.25
    combine_weights: tuple = (1 / 3, 1 / 3, 1 / 3)
    decision_threshold: float = 0.5
    n_perm: int = 499
    alpha_sig: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.threshold_peak <= 0:
            raise InvalidSpec("threshold_peak must be > 0")
        if not 0 < self.min_duration_frac <= 1:
            raise InvalidSpec("min_duration_frac must lie in (0, 1]")
        w = np.asarray(self.combine_weights, dtype=float)
        if w.size != 3 or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise InvalidSpec("combine_weights must be 3 non-negatives summing to 1")
        if not 0 < self.decision_threshold < 1:
            raise InvalidSpec("decision_threshold must lie in (0, 1)")
        if self.n_perm < 99:
            raise TooFewPermutations("n_perm must be >= 99")
        if not 0 < self.alpha_sig < 1:
            raise InvalidSpec("alpha_sig must lie in (0, 1)")

    def verdict(self, score, p_value):
        """The detection rule, elementwise on arrays: a jolt is reported when
        ``score >= decision_threshold`` and ``p_value <= alpha_sig``."""
        return (score >= self.decision_threshold) & (p_value <= self.alpha_sig)


@dataclass
class Signal:
    """Per-point detection signal with its edge mask."""

    times: np.ndarray
    values: np.ndarray
    edge_mask: np.ndarray

    @property
    def unmasked(self) -> np.ndarray:
        return self.values[~self.edge_mask]


@dataclass
class DetectionResult:
    verdict: bool
    score: float
    sub_scores: dict
    intervals: list
    p_value: float
    signal: Signal

    def to_dict(self) -> dict:
        return {
            "verdict": bool(self.verdict),
            "score": float(self.score),
            "sub_scores": {
                "peak": float(self.sub_scores["peak"]),
                "pattern": float(self.sub_scores["pattern"]),
                "duration": float(self.sub_scores["duration"]),
            },
            "intervals": [[float(a), float(b)] for a, b in self.intervals],
            "p_value": float(self.p_value),
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# poly_order of the default detection smoother: exact for the log-quadratic
# signal (log C is degree 2) and far lower in noise variance than higher
# orders; third-derivative estimation elsewhere still uses poly_order >= 4.
DETECTION_POLY_ORDER = 2


def _resolve_smoother(n: int, smoother: SavitzkyGolay | None) -> SavitzkyGolay:
    return smoother if smoother is not None else default_savgol(n, DETECTION_POLY_ORDER)


def _log_signal(logv: np.ndarray, cfg: SavitzkyGolay, dt: float) -> np.ndarray:
    """Second SavGol derivative of log-values, with a numerical floor.

    Values whose magnitude is below the rounding floor of the filter are
    snapped to exactly zero so that noiseless exponentials (log-linear input)
    yield an identically zero signal instead of amplified rounding noise.
    The floor comes from the centred log-values, so it ignores value scale.
    """
    logv, (s,) = _filter_log(logv, cfg, dt, (2,))
    floor = 1e-11 * max(1.0, float(np.max(np.abs(logv)))) / dt**2
    s[np.abs(s) <= floor] = 0.0
    return s


def detection_signal(series: TimeSeries, smoother: SavitzkyGolay | None = None) -> Signal:
    """S(t) = d^2/dt^2 ln C(t) via SavGol, with boundary points masked."""
    logv = series.log_values
    cfg = _resolve_smoother(len(series), smoother)
    if cfg.poly_order < 2:
        raise InvalidSpec("detection signal needs poly_order >= 2")
    s = _log_signal(logv, cfg, series.dt)
    return Signal(series.times, s, edge_mask(len(series), cfg.window))


# --- sub-scores ---------------------------------------------------------------

def _require_points(s: np.ndarray) -> None:
    if s.size < 8:
        raise TooFewPoints(f"need at least 8 unmasked signal points, got {s.size}")


def peak_ratio_score(
    s: np.ndarray, threshold_peak: float = DetectorConfig.threshold_peak
) -> float:
    """max(S) over a robust null scale (1.4826 * MAD of the mean-removed
    signal), squashed through x/(1+x) after dividing by the threshold."""
    _require_points(s)
    peak = float(np.max(s))
    centered = s - s.mean()
    scale = 1.4826 * float(np.median(np.abs(centered - np.median(centered))))
    if scale == 0.0:
        return 0.0 if peak <= 0 else 1.0
    raw = peak / scale
    if raw <= 0:
        return 0.0
    x = raw / threshold_peak
    return x / (1.0 + x)


def _smoothstep_template(width: int) -> np.ndarray:
    return smoothstep(np.linspace(0.0, 1.0, width))


def pattern_match_score(s: np.ndarray) -> float:
    """Best normalized cross-correlation against rising smoothstep templates.

    Templates of widths n/4, n/2 and 3n/4 are slid across all lags; the
    maximum Pearson correlation, clamped to [0, 1], is the score. A constant
    signal scores 0.
    """
    _require_points(s)
    n = s.size
    sd = s.std()
    # constant up to filter rounding jitter counts as constant
    if sd <= 1e-9 * max(1.0, float(np.max(np.abs(s)))):
        return 0.0
    z = (s - s.mean()) / sd
    best = 0.0
    for width in (n // 4, n // 2, (3 * n) // 4):
        if width < 4:
            continue
        tmpl = _smoothstep_template(width)
        tz = tmpl - tmpl.mean()
        tnorm = math.sqrt(float(tz @ tz))
        windows = np.lib.stride_tricks.sliding_window_view(z, width)
        seg_mean = windows.mean(axis=1)
        seg_ss = (windows * windows).sum(axis=1)
        seg_sq = seg_ss - width * seg_mean**2
        dots = windows @ tz
        # a segment constant up to the rounding of this difference has no shape
        valid = seg_sq > 1e-9 * seg_ss
        if valid.any():
            corr = dots[valid] / (np.sqrt(seg_sq[valid]) * tnorm)
            best = max(best, float(corr.max()))
    return min(max(best, 0.0), 1.0)


def _positive_runs(s: np.ndarray):
    """(start, length) of maximal runs with s > 0, as Python ints."""
    # +1 steps of the zero-padded mask open a run, -1 steps close one
    steps = np.diff((s > 0).astype(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(steps == 1)
    ends = np.flatnonzero(steps == -1)
    return list(zip(starts.tolist(), (ends - starts).tolist()))


def _run_fraction(length: int, s: np.ndarray, min_duration_frac: float) -> float:
    """A run's share of the unmasked signal ``s`` over the duration threshold."""
    return (length / s.size) / min_duration_frac


def duration_score(
    s: np.ndarray, min_duration_frac: float = DetectorConfig.min_duration_frac
) -> float:
    """Longest positive run fraction, normalized by the duration threshold."""
    _require_points(s)
    runs = _positive_runs(s)
    longest = max((length for _, length in runs), default=0)
    return min(1.0, _run_fraction(longest, s, min_duration_frac))


# --- permutation test ---------------------------------------------------------

@lru_cache(maxsize=256)
def _permutation_weights(n: int, window: int, poly_order: int):
    """(w, resid_scale) of the permutation test at one (n, window, poly_order).

    ``w @ x`` is the interior mean of ``M2 @ x`` in index space, M2 being the
    deriv-2 SavGol operator: its interior rows are shifted copies of the
    centre kernel, so their column sums are the kernel convolved with a box.
    ``resid_scale`` is the smoother's degrees-of-freedom correction,
    :func:`joltlab.estimation._resid_scale`.
    """
    h = window // 2
    box = np.ones(n - 2 * h)
    w = np.convolve(box, savgol_weights(window, poly_order, 2)) / box.size
    w.setflags(write=False)
    return w, _resid_scale(n, window, poly_order)


@lru_cache(maxsize=1)
def _permutation_index(seed: int, n: int, n_perm: int) -> np.ndarray:
    """Read-only int32 (n_perm, n) row shuffles of ``arange(n)``. ``rng.permuted``
    draws the same shuffle whatever the array holds, so ``x[idx]`` is its draw
    on ``x``; back-to-back detections on one seed (one MC trial) share it.
    It shuffles intp items, which numpy swaps faster, and keeps int32 ones."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    idx = rng.permuted(np.broadcast_to(np.arange(n), (n_perm, n)), axis=1).astype(np.int32)
    idx.setflags(write=False)
    return idx


def permutation_test(
    series: TimeSeries, config: DetectorConfig, signal: Signal | None = None
) -> float:
    """P-value of mean(S) against an exponential null with permuted residuals.

    The null model is exponential, a line in log-space. Surrogates are that
    line plus permuted noise-scale residuals: the ones left after smoothing,
    variance-corrected for the smoother's degrees of freedom. So the null
    distribution reflects measurement noise rather than systematic misfit of
    the null model, and a noiseless jolting series attains the minimum
    p-value. Deterministic for a fixed config seed.

    The statistic, the interior mean of S = M2 log C / dt^2, is linear in
    log C: one dot product ``w @ x`` per surrogate x, so the permutations are
    never smoothed one by one. The deriv-2 kernel behind ``w`` annihilates
    every polynomial of degree <= poly_order (>= 2), so ``w`` maps the null
    line to zero: the line is never fitted, and a surrogate's statistic is
    ``w`` dotted with its permuted residuals.
    Ties are stated on the scalar: a surrogate counts as an exceedance when
    ``stat >= observed - floor``, with the filter's rounding floor
    ``1e-11 * max(1, max|logv - mean(logv)| + max|resid|) / dt^2``, which
    like the signal's floor does not move with the value scale. Surrogates
    of a noiseless exponential (statistic zero up to rounding) therefore tie
    with its zero observed statistic, giving p = 1. The observed statistic
    is the interior mean of the floored detection signal: ``signal`` when
    given, which must be ``detection_signal(series, config.smoother)``, else
    that signal computed here.
    p = (1 + #exceedances) / (n_perm + 1).
    """
    if signal is None:
        signal = detection_signal(series, config.smoother)
    cfg = _resolve_smoother(len(series), config.smoother)
    dt = series.dt
    logv, (smooth,) = _filter_log(series.log_values, cfg, dt, (0,))
    n = logv.size

    observed = float(signal.unmasked.mean())

    w, resid_scale = _permutation_weights(n, cfg.window, cfg.poly_order)
    w = w / dt**2
    resid = (logv - smooth) * resid_scale

    stats = resid[_permutation_index(config.seed, n, config.n_perm)] @ w
    floor = 1e-11 * max(1.0, float(np.max(np.abs(logv)) + np.max(np.abs(resid)))) / dt**2
    exceed = int(np.count_nonzero(stats >= observed - floor))
    return (1 + exceed) / (config.n_perm + 1)


# --- hybrid detector ----------------------------------------------------------

def _detection_intervals(signal: Signal, min_duration_frac: float) -> list:
    """(first, last) times of the positive runs that score full duration."""
    idx = np.flatnonzero(~signal.edge_mask)
    s = signal.values[idx]
    intervals = []
    for start, length in _positive_runs(s):
        if _run_fraction(length, s, min_duration_frac) >= 1.0:
            lo = idx[start]
            hi = idx[start + length - 1]
            intervals.append((float(signal.times[lo]), float(signal.times[hi])))
    return intervals


def hybrid_detect(series: TimeSeries, config: DetectorConfig | None = None) -> DetectionResult:
    """Full hybrid detection: signal, sub-scores, combined score, p-value,
    and the verdict of :meth:`DetectorConfig.verdict`."""
    if config is None:
        config = DetectorConfig()
    if len(series) < 32:
        raise SeriesTooShort(f"need >= 32 points, got {len(series)}")
    signal = detection_signal(series, config.smoother)
    s = signal.unmasked
    peak = peak_ratio_score(s, config.threshold_peak)
    pattern = pattern_match_score(s)
    duration = duration_score(s, config.min_duration_frac)
    w = config.combine_weights
    score = w[0] * peak + w[1] * pattern + w[2] * duration
    p_value = permutation_test(series, config, signal)
    return DetectionResult(
        verdict=config.verdict(score, p_value),
        score=float(score),
        sub_scores={"peak": peak, "pattern": pattern, "duration": duration},
        intervals=_detection_intervals(signal, config.min_duration_frac),
        p_value=p_value,
        signal=signal,
    )
