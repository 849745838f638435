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
from dataclasses import dataclass, field
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
    _savgol_filter,
    default_savgol,
    edge_mask,
    savgol_weights,
)
from .growth import smoothstep
from .timeseries import TimeSeries, uniform_spacing, validate


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


def _resolve_smoother(n: int, smoother: SavitzkyGolay | None) -> SavitzkyGolay:
    # poly_order 2 is exact for the log-quadratic signal (log C is degree 2)
    # and has far lower noise variance than higher orders; third-derivative
    # estimation elsewhere still uses poly_order >= 4.
    return smoother if smoother is not None else default_savgol(n, poly_order=2)


def _log_signal(logv: np.ndarray, cfg: SavitzkyGolay, dt: float) -> np.ndarray:
    """Second SavGol derivative of log-values, with a numerical floor.

    Values whose magnitude is below the rounding floor of the filter are
    snapped to exactly zero so that noiseless exponentials (log-linear input)
    yield an identically zero signal instead of amplified rounding noise.
    """
    s = _savgol_filter(logv, cfg.window, cfg.poly_order, 2) / dt**2
    floor = 1e-11 * max(1.0, float(np.max(np.abs(logv)))) / dt**2
    s[np.abs(s) <= floor] = 0.0
    return s


def detection_signal(series: TimeSeries, smoother: SavitzkyGolay | None = None) -> Signal:
    """S(t) = d^2/dt^2 ln C(t) via SavGol, with boundary points masked."""
    validate(series, require_positive=True)
    cfg = _resolve_smoother(len(series), smoother)
    if cfg.poly_order < 2:
        raise InvalidSpec("detection signal needs poly_order >= 2")
    dt = uniform_spacing(series)
    logv = np.log(series.values)
    s = _log_signal(logv, cfg, dt)
    return Signal(series.times, s, edge_mask(len(series), cfg.window))


# --- sub-scores ---------------------------------------------------------------

def _require_points(s: np.ndarray) -> None:
    if s.size < 8:
        raise TooFewPoints("need at least 8 unmasked signal points")


def peak_ratio_score(s: np.ndarray, threshold_peak: float = 3.0) -> float:
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
        if tnorm == 0:
            continue
        windows = np.lib.stride_tricks.sliding_window_view(z, width)
        seg_mean = windows.mean(axis=1)
        seg_sq = (windows * windows).sum(axis=1) - width * seg_mean**2
        seg_norm = np.sqrt(np.clip(seg_sq, 0.0, None))
        dots = windows @ tz
        valid = seg_norm > 0
        if valid.any():
            corr = dots[valid] / (seg_norm[valid] * tnorm)
            best = max(best, float(corr.max()))
    return min(max(best, 0.0), 1.0)


def _positive_runs(s: np.ndarray):
    """(start, length) of maximal runs with s > 0."""
    runs = []
    start = None
    for i, val in enumerate(s):
        if val > 0 and start is None:
            start = i
        elif val <= 0 and start is not None:
            runs.append((start, i - start))
            start = None
    if start is not None:
        runs.append((start, s.size - start))
    return runs


def duration_score(s: np.ndarray, min_duration_frac: float = 0.25) -> float:
    """Longest positive run fraction, normalized by the duration threshold."""
    _require_points(s)
    runs = _positive_runs(s)
    longest = max((length for _, length in runs), default=0)
    return min(1.0, (longest / s.size) / min_duration_frac)


# --- permutation test ---------------------------------------------------------

@lru_cache(maxsize=256)
def _permutation_weights(n: int, window: int, poly_order: int):
    """(w, resid_scale) of the permutation test at one (n, window, poly_order).

    ``w @ x`` is the interior mean of ``M2 @ x`` in index space, M2 being the
    deriv-2 SavGol operator: its interior rows are shifted copies of the
    centre kernel, so their column sums are the kernel convolved with a box.
    ``resid_scale`` is the degrees-of-freedom correction
    sqrt(n / (n - 2 tr M0 + sum M0^2)) for residuals of the smoother M0.
    Neither sum needs M0 itself: the rows of the least-squares projection of
    one window (a symmetric idempotent matrix, so its trace and its squared
    Frobenius norm both equal poly_order + 1) are M0's h edge rows at each
    end plus one centre row c0, and the other n - 2h - 1 rows of M0 repeat
    c0. So tr M0 = p+1 + (n-2h-1) c0[h] and sum M0^2 = p+1 + (n-2h-1) |c0|^2.
    """
    h = window // 2
    box = np.ones(n - 2 * h)
    w = np.convolve(box, savgol_weights(window, poly_order, 2)) / box.size
    w.setflags(write=False)
    c0 = savgol_weights(window, poly_order, 0)
    repeats = n - 2 * h - 1
    nu = poly_order + 1 + repeats * float(c0[h])
    nu2 = poly_order + 1 + repeats * float(c0 @ c0)
    denom = max(n - 2.0 * nu + nu2, 1.0)
    return w, math.sqrt(n / denom)


def permutation_test(series: TimeSeries, config: DetectorConfig) -> float:
    """P-value of mean(S) against an exponential null with permuted residuals.

    The null model is exponential (linear fit in log-space). Surrogates are
    built by adding permuted noise-scale residuals to the null fit and the
    statistic is recomputed per surrogate. The permuted residuals are the
    ones left after smoothing (variance-corrected for the smoother's degrees
    of freedom), so the null distribution reflects measurement noise rather
    than systematic misfit of the null model; a noiseless jolting series
    therefore attains the minimum p-value. Deterministic for a fixed config
    seed.

    The statistic, the interior mean of S = M2 log C / dt^2, is linear in
    log C, so it is a single dot product ``w @ x`` per surrogate x = fit +
    permuted residuals; the permutations are never smoothed one by one.
    Ties are stated on the scalar: a surrogate counts as an exceedance when
    ``stat >= observed - floor``, with the filter's rounding floor
    ``1e-11 * max(1, max|fit| + max|resid|) / dt^2``. Surrogates of a
    noiseless exponential (statistic zero up to rounding) therefore tie with
    its zero observed statistic, giving p = 1. The observed statistic is the
    interior mean of the floored detection signal.
    p = (1 + #exceedances) / (n_perm + 1).
    """
    validate(series, require_positive=True)
    cfg = _resolve_smoother(len(series), config.smoother)
    dt = uniform_spacing(series)
    logv = np.log(series.values)
    n = logv.size
    interior = ~edge_mask(n, cfg.window)

    observed = float(_log_signal(logv, cfg, dt)[interior].mean())

    w, resid_scale = _permutation_weights(n, cfg.window, cfg.poly_order)
    w = w / dt**2
    resid = (logv - _savgol_filter(logv, cfg.window, cfg.poly_order, 0)) * resid_scale

    null_fit = np.polynomial.Polynomial.fit(series.times, logv, 1)
    fitted = null_fit(series.times)

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    perms = np.broadcast_to(resid, (config.n_perm, n)).copy()
    rng.permuted(perms, axis=1, out=perms)
    stats = float(fitted @ w) + perms @ w
    floor = 1e-11 * max(1.0, float(np.max(np.abs(fitted)) + np.max(np.abs(resid)))) / dt**2
    exceed = int(np.count_nonzero(stats >= observed - floor))
    return (1 + exceed) / (config.n_perm + 1)


# --- hybrid detector ----------------------------------------------------------

def _detection_intervals(signal: Signal, min_duration_frac: float) -> list:
    n = signal.values.size
    idx = np.flatnonzero(~signal.edge_mask)
    s = signal.values[idx]
    intervals = []
    for start, length in _positive_runs(s):
        if length >= min_duration_frac * n:
            lo = idx[start]
            hi = idx[start + length - 1]
            intervals.append((float(signal.times[lo]), float(signal.times[hi])))
    return intervals


def hybrid_detect(series: TimeSeries, config: DetectorConfig | None = None) -> DetectionResult:
    """Full hybrid detection: signal, sub-scores, combined score, p-value.

    verdict = (score >= decision_threshold) AND (p_value <= alpha_sig).
    """
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
    p_value = permutation_test(series, config)
    verdict = (score >= config.decision_threshold) and (p_value <= config.alpha_sig)
    return DetectionResult(
        verdict=verdict,
        score=float(score),
        sub_scores={"peak": peak, "pattern": pattern, "duration": duration},
        intervals=_detection_intervals(signal, config.min_duration_frac),
        p_value=p_value,
        signal=signal,
    )
