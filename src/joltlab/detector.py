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

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DataError, Spec, real, whole
from .estimation import (
    SavitzkyGolay,
    _filter_log,
    _resid_scale,
    default_savgol,
    edge_mask,
    savgol_weights,
)
from .timeseries import TimeSeries, write_json


# poly_order of the default detection smoother: exact for the log-quadratic
# signal (log C is degree 2) and far lower in noise variance than higher
# orders; third-derivative estimation elsewhere still uses poly_order >= 4.
DETECTION_POLY_ORDER = 2


@dataclass(frozen=True)
class DetectorConfig(Spec, section="detector"):
    """Hybrid detector hyperparameters, none in a time unit: detection runs in grid
    steps. The SavGol smoother has ``window`` points (null: n's default) and degree
    ``poly_order`` (>= 2 for S = (ln C)'')."""

    window: int | None = whole(None, ge=5)
    poly_order: int = whole(DETECTION_POLY_ORDER, ge=2)
    threshold_peak: float = real(3.0, gt=0)
    min_duration_frac: float = real(0.25, gt=0, le=1)
    combine_weights: tuple = real((1 / 3, 1 / 3, 1 / 3), ge=0, n=3)
    decision_threshold: float = real(0.5, gt=0, lt=1)
    # p-values resolve 1/(n_perm + 1); the draw and its gathers hold about
    # 32 * n_perm * (window - 1) bytes: 6.4 MB at the ceiling and n=200
    n_perm: int = whole(499, ge=99, le=10_000)
    alpha_sig: float = real(0.05, gt=0, lt=1)
    seed: int = whole(0, ge=0)

    def __post_init__(self):
        super().__post_init__()
        self.smoother  # a set window meets SavitzkyGolay's rule
        w = self.combine_weights
        if abs(math.fsum(w) - 1.0) > 1e-9:
            raise ConfigError(f"detector combine_weights must sum to 1, got {w!r}")

    @property
    def smoother(self) -> SavitzkyGolay | None:
        """The smoother of a set window, or None when the window follows n."""
        return None if self.window is None else SavitzkyGolay(self.window, self.poly_order)

    def verdict(self, score, p_value):
        """The detection rule, elementwise on arrays: a jolt is reported when
        ``score >= decision_threshold`` and ``p_value <= alpha_sig``."""
        return (score >= self.decision_threshold) & (p_value <= self.alpha_sig)

    def scoring(self) -> "DetectorConfig":
        """This config with the fields :meth:`verdict` reads at their defaults:
        two configs equal after it give every series the same score and p-value."""
        cls = type(self)
        return replace(self, decision_threshold=cls.decision_threshold, alpha_sig=cls.alpha_sig)


@dataclass
class Signal:
    """Per-point detection signal S dt^2 (per squared grid step) with its edge
    mask, and the pass over log C it came from (smoother, centred log C, order-0
    fit) for the permutation test. Per-point arrays hold a row per series of a batch."""

    times: np.ndarray
    values: np.ndarray
    edge_mask: np.ndarray
    smoother: SavitzkyGolay
    centred_log: np.ndarray
    fit: np.ndarray

    @property
    def unmasked(self) -> np.ndarray:
        # row-major, so that each row's reductions sum pairwise as on its own
        return self.values.compress(~self.edge_mask, axis=-1)

    def take(self, rows) -> "Signal":
        """The signal of one row (an index) or of some rows (a slice or a
        list of indices)."""
        return Signal(self.times, self.values[rows], self.edge_mask, self.smoother,
                      self.centred_log[rows], self.fit[rows])


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
            "sub_scores": {k: float(self.sub_scores[k]) for k in ("peak", "pattern", "duration")},
            "intervals": [[float(a), float(b)] for a, b in self.intervals],
            "p_value": float(self.p_value),
        }

    def to_json(self, path) -> None:
        write_json(path, self.to_dict())


# the filter's rounding floor, per squared grid step, per unit of max(1,
# |centred log C|): the signal snaps |S dt^2| at or below it to zero, and the
# permutation test counts a surrogate within it as a tie, so both read it
_ROUNDING_FLOOR = 1e-11


def _batch(series) -> tuple[list, bool]:
    """(rows, single): ``series`` as a list of series on one time grid, and
    whether it was one TimeSeries rather than a sequence of them."""
    if isinstance(series, TimeSeries):
        return [series], True
    rows = list(series)
    if not rows:
        raise DataError("a batch needs at least one series")
    times = rows[0].times
    for row in rows[1:]:
        if row.times is not times and not np.array_equal(row.times, times):
            raise DataError("the series of a batch must share one time grid")
    return rows, False


def _by_row(x):
    """A reduction along the last axis: a float for one row, else the array."""
    return float(x) if np.ndim(x) == 0 else x


def detection_signal(series, config: DetectorConfig | None = None) -> Signal:
    """S dt^2 = d^2/dj^2 ln C via ``config``'s SavGol (j the grid index; None:
    ``DetectorConfig()``), boundary points masked, from one pass over centred
    log C that also gives the permutation test its order-0 fit. Values at or
    below the rounding floor, taken from the centred log C and so free of value
    scale and time unit, snap to exactly zero: noiseless exponentials give an
    identically zero signal.

    ``series`` may be a sequence of series on one grid; the signal then holds
    one row per series, each the bits that series gets on its own."""
    rows, single = _batch(series)
    grid = rows[0]
    config = DetectorConfig() if config is None else config
    cfg = config.smoother or default_savgol(len(grid), config.poly_order)
    grid.dt  # a uniform grid whose step is in DT_RANGE; the signal never reads it
    logv = grid.log_values if single else np.stack([row.log_values for row in rows])
    logv, (fit, s) = _filter_log(logv, cfg, (0, 2))
    floor = _ROUNDING_FLOOR * np.maximum(1.0, np.max(np.abs(logv), axis=-1, keepdims=True))
    s[np.abs(s) <= floor] = 0.0
    return Signal(grid.times, s, edge_mask(len(grid), cfg.window), cfg, logv, fit)


# --- sub-scores ---------------------------------------------------------------
# Each sub-score reduces along the last axis: a signal gives a float, a
# (rows, n) matrix of signals an array of one score per row.

def _require_points(s: np.ndarray) -> None:
    if s.shape[-1] < 8:
        raise DataError(f"need at least 8 unmasked signal points, got {s.shape[-1]}")


def _median(x: np.ndarray) -> np.ndarray:
    """``np.median`` along the last axis, bit for bit: the mean of the middle
    one or two order statistics. ``np.median`` imports numpy.ma on its first
    call, 10-15 ms in every process that detects."""
    n = x.shape[-1]
    middle = np.partition(x, [(n - 1) // 2, n // 2], axis=-1)[..., (n - 1) // 2 : n // 2 + 1]
    return middle.mean(axis=-1)


def peak_ratio_score(s: np.ndarray, threshold_peak: float = DetectorConfig.threshold_peak):
    """max(S) over a robust null scale (1.4826 * MAD of the mean-removed
    signal), squashed through x/(1+x) after dividing by the threshold."""
    _require_points(s)
    peak = np.max(s, axis=-1)
    centered = s - s.mean(axis=-1, keepdims=True)
    mad = _median(np.abs(centered - _median(centered)[..., None]))
    scale = 1.4826 * mad
    flat = scale == 0.0
    raw = peak / np.where(flat, 1.0, scale)
    x = np.maximum(raw, 0.0) / threshold_peak
    return _by_row(np.where(flat, peak > 0, np.where(raw > 0, x / (1.0 + x), 0.0)))


def smoothstep(x):
    """Quintic smoothstep: 0 below 0, 1 above 1, C^2 at the joints. It shapes
    the pattern score's templates and the generators' ramps."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


@lru_cache(maxsize=64)
def _smoothstep_template(width: int):
    """Read-only (tz, ||tz||): the mean-removed smoothstep template of one width."""
    tmpl = smoothstep(np.linspace(0.0, 1.0, width))
    tz = tmpl - tmpl.mean()
    tz.setflags(write=False)
    return tz, math.sqrt(float(tz @ tz))


def pattern_match_score(s: np.ndarray):
    """Best normalized cross-correlation against rising smoothstep templates.

    Templates of widths n/4, n/2 and 3n/4 are slid across all lags; the
    maximum Pearson correlation, clamped to [0, 1], is the score. A constant
    signal scores 0. Each segment's sum and sum of squares are differences
    of running sums, so no n x width array is formed. The dots are
    ``np.correlate`` row by row, whose rounding a matrix product would move.
    """
    _require_points(s)
    n = s.shape[-1]
    sd = s.std(axis=-1, keepdims=True)
    # constant up to filter rounding jitter counts as constant; the test is
    # relative, so it does not move with the signal's scale
    flat = sd <= 1e-9 * np.max(np.abs(s), axis=-1, keepdims=True)
    z = (s - s.mean(axis=-1, keepdims=True)) / np.where(flat, 1.0, sd)
    c1 = np.zeros(s.shape[:-1] + (n + 1,))
    c2 = np.zeros(c1.shape)
    np.cumsum(z, axis=-1, out=c1[..., 1:])
    np.cumsum(z * z, axis=-1, out=c2[..., 1:])
    best = np.zeros(s.shape[:-1])
    for width in (n // 4, n // 2, (3 * n) // 4):
        if width < 4:
            continue
        tz, tnorm = _smoothstep_template(width)
        seg_sum = c1[..., width:] - c1[..., :-width]
        seg_ss = c2[..., width:] - c2[..., :-width]
        seg_sq = seg_ss - seg_sum**2 / width
        dots = np.empty(seg_sq.shape)
        for out, row in zip(dots.reshape(-1, dots.shape[-1]), z.reshape(-1, n)):
            out[...] = np.correlate(row, tz, "valid")
        # a segment constant up to the rounding of this difference has no shape
        valid = seg_sq > 1e-9 * seg_ss
        corr = dots / (np.sqrt(np.where(valid, seg_sq, 1.0)) * tnorm)
        best = np.maximum(best, np.max(np.where(valid, corr, 0.0), axis=-1))
    return _by_row(np.where(flat[..., 0], 0.0, np.minimum(best, 1.0)))


def _positive_runs(s: np.ndarray):
    """(start, length) of maximal runs with s > 0 along the last axis, as
    Python ints. A start indexes the flattened ``s``; no run crosses a row."""
    n = s.shape[-1]
    # a zero after each row closes its last run
    pos = np.zeros(s.shape[:-1] + (n + 1,), dtype=np.int8)
    pos[..., :n] = s > 0
    # +1 steps open a run, -1 steps close one
    steps = np.diff(pos.ravel(), prepend=0)
    starts = np.flatnonzero(steps == 1)
    ends = np.flatnonzero(steps == -1)
    return list(zip((starts - starts // (n + 1)).tolist(), (ends - starts).tolist()))


def _run_fraction(length, n: int, min_duration_frac: float):
    """A run's share of ``n`` unmasked signal points over the duration threshold."""
    return (length / n) / min_duration_frac


def duration_score(s: np.ndarray, min_duration_frac: float = DetectorConfig.min_duration_frac):
    """Longest positive run fraction, normalized by the duration threshold."""
    _require_points(s)
    n = s.shape[-1]
    longest = np.zeros(s.shape[:-1], dtype=np.intp)
    runs = _positive_runs(s)
    if runs:
        starts, lengths = np.array(runs).T
        np.maximum.at(longest.reshape(-1), starts // n, lengths)
    return _by_row(np.minimum(1.0, _run_fraction(longest, n, min_duration_frac)))


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


# intp items of the one buffer that each row chunk of the permutation draw is
# shuffled in (256 KB)
_DRAW_BUDGET = 1 << 15


def _permutation_index(seed: int, n: int, n_perm: int, keep: int) -> np.ndarray:
    """Read-only intp row shuffles of ``arange(n)``, of which only the first and
    last ``keep`` columns are kept: (n_perm, 2 * keep), or the whole (n_perm, n)
    draw when ``keep`` is 0 or ``2 * keep >= n``. ``rng.permuted`` draws the
    same shuffle whatever the array holds, so ``x[idx]`` is its draw on ``x``
    in the kept columns; every series scored on one seed shares it. Rows are
    shuffled in place in one buffer of at most ``max(n, _DRAW_BUDGET)`` items,
    reset to ``arange(n)`` before each chunk; the generator shuffles row
    after row, so the chunks give the one-shot draw."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    lo, hi = (keep, n - keep) if 0 < 2 * keep < n else (n, n)
    idx = np.empty((n_perm, lo + n - hi), dtype=np.intp)
    rows = max(1, _DRAW_BUDGET // n)
    buffer = np.empty((min(rows, n_perm), n), dtype=np.intp)
    for start in range(0, n_perm, rows):
        chunk = buffer[:n_perm - start]
        chunk[...] = np.arange(n)
        rng.permuted(chunk, axis=1, out=chunk)
        idx[start:start + rows, :lo] = chunk[:, :lo]
        idx[start:start + rows, lo:] = chunk[:, hi:]
    idx.setflags(write=False)
    return idx


def _surrogate_stats(signal: Signal, index: np.ndarray):
    """(stats, resid): the permutation test's statistic of each surrogate,
    along the last axis, and the scaled residuals that ``index`` permutes.

    ``w`` is zero up to rounding between its first and last 2h entries, so
    only the first ``window - 1`` and the last ``n - hi`` columns of the draw
    are gathered. ``index`` is the whole draw or the kept columns of
    :func:`_permutation_index`, at least ``window - 1`` on each side; either
    way those are its outer columns. Each side's gather holds the
    permutations along its last axis, so ``w @ x`` is one matrix-vector
    product per series, as for a series on its own.
    """
    cfg, logv = signal.smoother, signal.centred_log
    n = logv.shape[-1]
    lo = cfg.window - 1
    hi = max(n - lo, lo)
    width = index.shape[-1]
    if width != n and not 2 * lo <= width < n:
        raise DataError(f"a permutation index of {width} columns does not hold the first "
                        f"and last {lo} of {n} that window {cfg.window} reads")
    w, resid_scale = _permutation_weights(n, cfg.window, cfg.poly_order)
    resid = (logv - signal.fit) * resid_scale
    stats = (w[:lo] @ np.take(resid, index[:, :lo].T, axis=-1)
             + w[hi:] @ np.take(resid, index[:, width - (n - hi):].T, axis=-1))
    return stats, resid


def permutation_test(series, config: DetectorConfig, signal: Signal | None = None,
                     index: np.ndarray | None = None):
    """P-value of mean(S) against an exponential null with permuted residuals.

    The null model is exponential, a line in log-space. Surrogates are that
    line plus permuted noise-scale residuals: the ones left after smoothing,
    variance-corrected for the smoother's degrees of freedom. So the null
    distribution reflects measurement noise rather than systematic misfit of
    the null model, and a noiseless jolting series attains the minimum
    p-value. Deterministic for a fixed config seed.

    The statistic, the interior mean of S dt^2 = M2 log C, is linear in
    log C: one dot product ``w @ x`` per surrogate x, so the permutations are
    never smoothed one by one. The deriv-2 kernel behind ``w`` annihilates
    every polynomial of degree <= poly_order (>= 2), so ``w`` maps the null
    line to zero: the line is never fitted, and a surrogate's statistic is
    ``w`` dotted with its permuted residuals. The mean of a second derivative
    telescopes, so the statistic is in effect the difference of the smoothed
    log C's end slopes over the interior's length: the deriv-2 kernel sums to
    zero, ``w`` is non-zero only on its first and last 2h entries
    (h = window // 2), and only those entries of each surrogate are gathered.
    Ties are stated on the scalar: a surrogate counts as an exceedance when
    ``stat >= observed - floor``, with the filter's rounding floor
    ``_ROUNDING_FLOOR * max(1, max|logv - mean(logv)| + max|resid|)``, which
    like the signal's floor moves with neither the value scale nor the time unit.
    Surrogates of a noiseless exponential (statistic zero up to rounding)
    therefore tie with its zero observed statistic, giving p = 1. The
    observed statistic is the interior mean of the floored detection signal,
    whose pass over log C also gives the residuals: ``signal`` when given, a
    signal of ``series`` (a DataError if its rows or length differ), else
    ``detection_signal(series, config)``. p = (1 + #exceedances) / (n_perm + 1).

    The null assumes exchangeable residuals, that is serially independent
    noise: a permutation destroys any order the residuals have. The statistic
    is a low-frequency contrast, so serially correlated noise widens its
    distribution and not the surrogates', and p comes out too small. On
    exponentials with AR(1) noise on log C (n=200, default config, 400
    series per phi, standard error about 0.011), P(p <= 0.05) was 0.037,
    0.115 and 0.220 at phi 0, 0.3 and 0.6.

    ``series`` may be a sequence of series on one grid, all tested on
    ``config`` and so on one draw: then one p-value per series comes back, in
    an array. ``index`` is that draw, ``_permutation_index(config.seed, n,
    config.n_perm, keep)`` with ``keep`` at least the smoother's ``window -
    1``, when the caller has made it: one draw per seed then serves every
    series and smoother tested on it. Without it the test draws its own,
    keeping the ``window - 1`` columns on each side that its smoother reads.
    """
    if signal is None:
        signal = detection_signal(series, config)
    else:
        rows, single = _batch(series)
        shape = (len(rows[0]),) if single else (len(rows), len(rows[0]))
        if signal.values.shape != shape:
            raise DataError(f"a signal of shape {signal.values.shape} does not match "
                            f"its series, of shape {shape}")
    observed = signal.unmasked.mean(axis=-1)
    if index is None:
        index = _permutation_index(config.seed, signal.values.shape[-1], config.n_perm,
                                   signal.smoother.window - 1)
    stats, resid = _surrogate_stats(signal, index)
    spread = np.max(np.abs(signal.centred_log), axis=-1) + np.max(np.abs(resid), axis=-1)
    floor = _ROUNDING_FLOOR * np.maximum(1.0, spread)
    exceed = np.count_nonzero(stats >= (observed - floor)[..., None], axis=-1)
    return _by_row((1 + exceed) / (config.n_perm + 1))


# --- hybrid detector ----------------------------------------------------------

def _detection_intervals(signal: Signal, min_duration_frac: float) -> list:
    """(first, last) times of the positive runs that score full duration."""
    idx = np.flatnonzero(~signal.edge_mask)
    s = signal.values[idx]
    intervals = []
    for start, length in _positive_runs(s):
        if _run_fraction(length, s.size, min_duration_frac) >= 1.0:
            lo = idx[start]
            hi = idx[start + length - 1]
            intervals.append((float(signal.times[lo]), float(signal.times[hi])))
    return intervals


def _detect(groups) -> list:
    """Per (config, series, seeds) group, (signal, (peak, pattern, duration),
    scores, p_values) with one row per series: row j has the bits that
    series j gets on its own with ``seed=seeds[j]``. The series of all
    groups lie on one grid. Each distinct permutation draw (seed, n_perm) is
    made once, keeping the columns that the widest window among the groups
    that use it reads, and gathered for every group's rows that use it; only
    one draw is held at a time."""
    n = len(_batch([one for _, series, _ in groups for one in series])[0][0])
    if n < 32:
        raise DataError(f"need >= 32 points, got {n}")
    scored = []
    draws = {}  # (seed, n_perm) -> (group, its rows) that use the draw
    for g, (config, series, seeds) in enumerate(groups):
        if len(seeds) != len(series):
            raise DataError(f"{len(series)} series need one seed each, got {len(seeds)}")
        signal = detection_signal(series, config)
        s = signal.unmasked
        subs = (peak_ratio_score(s, config.threshold_peak), pattern_match_score(s),
                duration_score(s, config.min_duration_frac))
        w = config.combine_weights
        scored.append((signal, subs, w[0] * subs[0] + w[1] * subs[1] + w[2] * subs[2]))
        by_seed = {}
        for j, seed in enumerate(seeds):
            by_seed.setdefault(seed, []).append(j)
        for seed, rows in by_seed.items():
            draws.setdefault((seed, config.n_perm), []).append((g, rows))

    p_values = [np.empty(len(seeds)) for _, _, seeds in groups]
    for (seed, n_perm), uses in draws.items():
        keep = max(scored[g][0].smoother.window for g, _ in uses) - 1
        index = _permutation_index(seed, n, n_perm, keep)
        for g, rows in uses:
            config, series, _ = groups[g]
            p_values[g][rows] = permutation_test(
                [series[j] for j in rows], config, scored[g][0].take(rows), index)
        del index  # before the next draw, so that one draw is held at a time
    return [(*group, p) for group, p in zip(scored, p_values)]


def hybrid_detect(series, config: DetectorConfig | None = None):
    """Full hybrid detection: signal, sub-scores, combined score, p-value,
    and the verdict of :meth:`DetectorConfig.verdict`.

    ``series`` may instead be a sequence of (config, series, seeds) groups,
    every series on one grid, with no ``config``: then one (scores,
    p_values) pair of float arrays comes back per group, whose row j is bit
    for bit the score and p-value of ``hybrid_detect(series[j],
    replace(config, seed=seeds[j]))``. Each group is scored as one
    (rows, n) matrix, and each distinct permutation draw (seed, n_perm) is
    made once for all the groups that use it.
    """
    if not isinstance(series, TimeSeries):
        return [(scores, p_values) for *_, scores, p_values in _detect(series)]
    config = DetectorConfig() if config is None else config
    signal, subs, score, p = _detect([(config, [series], [config.seed])])[0]
    peak, pattern, duration = (sub.item() for sub in subs)
    score, p_value, signal = score.item(), p.item(), signal.take(0)
    return DetectionResult(
        verdict=config.verdict(score, p_value),
        score=score,
        sub_scores={"peak": peak, "pattern": pattern, "duration": duration},
        # an interval is a run of full duration, so without one there is none
        intervals=(_detection_intervals(signal, config.min_duration_frac)
                   if duration == 1.0 else []),
        p_value=p_value,
        signal=signal,
    )
