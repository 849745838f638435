import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from joltlab import detector
from joltlab.detector import (
    DETECTION_POLY_ORDER,
    DetectorConfig,
    _permutation_index,
    _permutation_weights,
    _positive_runs,
    detection_signal,
    duration_score,
    hybrid_detect,
    pattern_match_score,
    peak_ratio_score,
    permutation_test,
    smoothstep,
)
from joltlab.errors import ConfigError, DataError
from joltlab.estimation import SavitzkyGolay, default_savgol, edge_mask, estimate_derivatives
from joltlab.growth import (
    Exponential,
    GridSpec,
    GrowthModelSpec,
    InjectedJolt,
    Logistic,
    LogQuadratic,
    NoiseSpec,
    add_noise,
    evaluate,
    generate,
)
from joltlab.metrics import compute_metrics
from joltlab.timeseries import TimeSeries
from savgol_oracle import dense_savgol


def make_series(fn, n=200, t0=0.0, t1=20.0):
    t = np.linspace(t0, t1, n)
    return TimeSeries(t, fn(t))


# --- detection signal ---------------------------------------------------------

def test_exponential_signal_is_zero():
    s = make_series(lambda t: 3.0 * np.exp(0.1 * t))
    sig = detection_signal(s)
    np.testing.assert_array_equal(sig.values, 0.0)


def test_logquadratic_signal_is_2b():
    b = 0.01
    s = make_series(lambda t: np.exp(b * t**2))
    sig = detection_signal(s)
    interior = ~sig.edge_mask
    # the signal is per squared grid step
    np.testing.assert_allclose(sig.values[interior] / s.dt**2, 2 * b, atol=1e-4)


def test_logistic_signal_negative_interior():
    s = make_series(lambda t: evaluate(Logistic(100.0, 1.0, 10.0), t))
    sig = detection_signal(s)
    late = ~sig.edge_mask & (s.times > 5.0)
    assert np.all(sig.values[late] < 0)


def _assert_same_signal(got, want):
    for name in ("values", "centred_log", "fit", "edge_mask"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.smoother == want.smoother


@pytest.mark.parametrize("window", [None, 15])
@pytest.mark.parametrize("poly_order", [2, 3, 4])
def test_detection_signal_is_the_signal_hybrid_detect_scores(poly_order, window):
    # one resolver of the smoother: a null window is n's default at the
    # config's poly_order, in the signal alone as in the detection
    rng = np.random.default_rng(poly_order)
    s = make_series(lambda t: np.exp(0.1 * t + 0.002 * t**2 + 0.02 * rng.standard_normal(t.size)))
    config = DetectorConfig(window=window, poly_order=poly_order, n_perm=99)
    signal = detection_signal(s, config)
    _assert_same_signal(signal, hybrid_detect(s, config).signal)
    assert signal.smoother == SavitzkyGolay(window or 21, poly_order)


def test_no_config_or_the_default_configs_smoother_is_the_default_signal():
    # the two calls the cold benchmark makes: DetectorConfig().smoother is
    # None, as is no config, and both mean DetectorConfig()
    s = make_series(lambda t: np.exp(0.1 * t + 0.002 * t**2))
    want = hybrid_detect(s).signal
    for config in (None, DetectorConfig().smoother, DetectorConfig()):
        _assert_same_signal(detection_signal(s, config), want)


# --- sub-scores ---------------------------------------------------------------

def test_peak_score_zero_signal():
    assert peak_ratio_score(np.zeros(50)) == 0.0


def test_peak_score_single_excursion():
    rng = np.random.default_rng(0)
    s = rng.standard_normal(200)
    centered = s - s.mean()
    scale = 1.4826 * np.median(np.abs(centered - np.median(centered)))
    s[100] = 10 * scale
    expected = (10 / 3) / (1 + 10 / 3)  # ~0.769
    assert peak_ratio_score(s, 3.0) == pytest.approx(expected, abs=0.02)


def test_peak_score_sign_flip():
    rng = np.random.default_rng(1)
    s = rng.standard_normal(200)
    s[50] = 8.0  # positive peak
    assert peak_ratio_score(-s) <= peak_ratio_score(s)


def test_peak_score_requires_points():
    with pytest.raises(DataError, match="need at least 8 unmasked signal points, got 5"):
        peak_ratio_score(np.ones(5))


def test_pattern_score_smoothstep_self():
    s = smoothstep(np.linspace(0, 1, 200))
    assert pattern_match_score(s) >= 0.99


def test_pattern_score_iid_noise_mostly_low():
    rng = np.random.default_rng(2)
    low = sum(pattern_match_score(rng.standard_normal(200)) < 0.5 for _ in range(100))
    assert low >= 95


def test_pattern_score_constant_is_zero():
    assert pattern_match_score(np.full(100, 3.0)) == 0.0


def _pattern_score_windows(s):
    """The sliding-window pattern score that the running-sum form replaced,
    kept as its oracle: every segment's moments from an n x width view."""
    n = s.size
    sd = s.std()
    if sd <= 1e-9 * max(1.0, float(np.max(np.abs(s)))):
        return 0.0
    z = (s - s.mean()) / sd
    best = 0.0
    for width in (n // 4, n // 2, (3 * n) // 4):
        if width < 4:
            continue
        tmpl = smoothstep(np.linspace(0.0, 1.0, width))
        tz = tmpl - tmpl.mean()
        tnorm = math.sqrt(float(tz @ tz))
        windows = np.lib.stride_tricks.sliding_window_view(z, width)
        seg_mean = windows.mean(axis=1)
        seg_ss = (windows * windows).sum(axis=1)
        seg_sq = seg_ss - width * seg_mean**2
        dots = windows @ tz
        valid = seg_sq > 1e-9 * seg_ss
        if valid.any():
            corr = dots[valid] / (np.sqrt(seg_sq[valid]) * tnorm)
            best = max(best, float(corr.max()))
    return min(max(best, 0.0), 1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(8, 4000), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-6, 1e6), walk=st.booleans())
def test_pattern_score_matches_sliding_window_oracle_on_noise(n, seed, scale, walk):
    s = np.random.default_rng(seed).standard_normal(n) * scale
    if walk:
        s = np.cumsum(s)
    assert pattern_match_score(s) == pytest.approx(_pattern_score_windows(s), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(k=st.floats(0.02, 0.12), start=st.floats(2.0, 12.0), length=st.floats(2.0, 8.0),
       strength=st.floats(0.05, 0.4), n=st.sampled_from([64, 200, 1000, 4000]),
       scale=st.floats(1e-3, 1e6))
def test_pattern_score_matches_sliding_window_oracle_on_noiseless_jolts(
    k, start, length, strength, n, scale
):
    # the signal is flat, up to rounding, before and after the ramp
    jolt = InjectedJolt(Exponential(1.0, k), start, start + length, strength)
    series = generate(GrowthModelSpec(jolt, GridSpec(n_points=n), NoiseSpec("none")))[0]
    s = detection_signal(series.with_values(series.values * scale)).unmasked
    assert pattern_match_score(s) == pytest.approx(_pattern_score_windows(s), abs=1e-12)


def test_smoothstep_template_is_cached_read_only():
    tz, tnorm = detector._smoothstep_template(50)
    assert detector._smoothstep_template(50)[0] is tz
    assert not tz.flags.writeable
    assert tnorm == pytest.approx(np.linalg.norm(tz), rel=1e-15)
    with pytest.raises(ValueError):
        tz[0] = 1.0


def test_duration_full_run():
    assert duration_score(np.ones(64), 0.25) == 1.0
    assert duration_score(np.ones(64), 1.0) == 1.0


def test_duration_alternating():
    s = np.tile([1.0, -1.0], 50)
    assert duration_score(s, 0.25) == pytest.approx(0.04)


def test_duration_half_run_boundary():
    s = -np.ones(100)
    s[:50] = 1.0
    assert duration_score(s, 0.5) == 1.0


def _positive_runs_loop(s):
    """The scalar scan ``_positive_runs`` replaced, kept as its oracle."""
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


def test_positive_runs_match_scalar_scan():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        s = rng.integers(-1, 2, size=int(rng.integers(1, 60))) * rng.random()
        runs = _positive_runs(s)
        assert runs == _positive_runs_loop(s)
        # Python ints, so duration_score stays a Python float
        assert all(type(x) is int for run in runs for x in run)


# --- permutation test ---------------------------------------------------------

def test_permutation_minimum_p_on_noiseless_jolt():
    s = make_series(lambda t: np.exp(0.01 * t**2))
    p = permutation_test(s, DetectorConfig(n_perm=999))
    assert p == pytest.approx(1 / 1000)


def test_permutation_p_high_on_exponential():
    # surrogates of a log-linear series equal its zero statistic up to
    # rounding; the scalar tie rule counts them as exceedances
    for k in (0.03, 0.07, 0.1, 0.12):
        for c0 in (1e-3, 1.0, 1e6):
            for shift in (0.0, 1000.0):
                s = make_series(lambda t: c0 * np.exp(k * (t - shift)), t0=shift, t1=20.0 + shift)
                assert permutation_test(s, DetectorConfig()) == 1.0


def test_permutation_determinism():
    rng = np.random.default_rng(3)
    t = np.linspace(0, 20, 100)
    v = np.exp(0.1 * t) * (1 + 0.05 * rng.standard_normal(100))
    s = TimeSeries(t, np.abs(v))
    cfg = DetectorConfig(seed=7)
    assert permutation_test(s, cfg) == permutation_test(s, cfg)


def test_permutation_test_refuses_a_signal_of_other_series():
    # the test reads only the signal, so a signal of other series gave their p-values
    s = make_series(lambda t: np.exp(0.1 * t + 0.01 * t**2), n=100)
    longer = make_series(lambda t: np.exp(0.1 * t), n=120)
    cfg = DetectorConfig()
    assert permutation_test(s, cfg, detection_signal(s, cfg)) == permutation_test(s, cfg)
    for series, signal in [(s, detection_signal(longer, cfg)),
                           ([s], detection_signal([s, s], cfg)),
                           ([s, s], detection_signal([s], cfg)),
                           (s, detection_signal([s], cfg))]:
        with pytest.raises(DataError, match="does not match its series"):
            permutation_test(series, cfg, signal)


def _dense_permutation_p(series, config):
    """Reference permutation test: every surrogate is pushed through the
    dense deriv-2 operator, floored elementwise like the detection signal,
    reduced to its interior mean and compared with ``>=``."""
    cfg = config.smoother or default_savgol(len(series), config.poly_order)
    dt = series.dt
    logv = np.log(series.values)
    n = logv.size
    interior = ~edge_mask(n, cfg.window)
    m2 = dense_savgol(n, cfg.window, cfg.poly_order, 2)

    def signal_rows(rows):
        s = (rows @ m2.T) / dt**2
        floor = 1e-11 * max(1.0, float(np.max(np.abs(rows)))) / dt**2
        s[np.abs(s) <= floor] = 0.0
        return s

    observed = float(signal_rows(logv[None, :])[0][interior].mean())
    m0 = dense_savgol(n, cfg.window, cfg.poly_order, 0)
    nu = float(np.trace(m0))
    nu2 = float(np.sum(m0 * m0))
    resid = (logv - m0 @ logv) * math.sqrt(n / max(n - 2.0 * nu + nu2, 1.0))
    fitted = np.polynomial.Polynomial.fit(series.times, logv, 1)(series.times)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    perms = rng.permuted(np.broadcast_to(resid, (config.n_perm, n)).copy(), axis=1)
    stats = signal_rows(fitted[None, :] + perms)[:, interior].mean(axis=1)
    return (1 + int(np.sum(stats >= observed))) / (config.n_perm + 1)


_T = np.linspace(0.0, 20.0, 200)
_JOLT = InjectedJolt(Exponential(1.0, 0.06), jolt_start=6.0, jolt_end=12.0, ramp_strength=0.2)
_ORACLE_CASES = {
    "low": add_noise(TimeSeries(_T, evaluate(Exponential(1.0, 0.08), _T)),
                     NoiseSpec("low", seed=1)).values,
    "medium": add_noise(TimeSeries(_T, evaluate(LogQuadratic(1.0, 0.05, 0.01), _T)),
                        NoiseSpec("medium", seed=2)).values,
    "high": add_noise(TimeSeries(_T, evaluate(_JOLT, _T)), NoiseSpec("high", seed=3)).values,
    "exponential": evaluate(Exponential(2.0, 0.1), _T),
    "logquadratic": evaluate(LogQuadratic(1.0, 0.03, 0.01), _T),
    "injected_jolt": evaluate(_JOLT, _T),
}


@pytest.mark.parametrize("window", [None, 7])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_permutation_matches_dense_reference(case, window):
    values = _ORACLE_CASES[case]
    config = DetectorConfig(window=window, seed=11)
    for series in (TimeSeries(_T, values), TimeSeries(_T, values * 1e6),
                   TimeSeries(_T + 1000.0, values)):
        assert permutation_test(series, config) == _dense_permutation_p(series, config)


@settings(max_examples=40, deadline=None)
@given(
    h=st.integers(2, 15),
    poly_order=st.integers(2, 6),
    extra=st.integers(0, 90),
)
def test_permutation_weights_match_dense_oracle(h, poly_order, extra):
    window = 2 * h + 1
    poly_order = min(poly_order, window - 1)
    n = window + extra
    w, resid_scale = _permutation_weights(n, window, poly_order)
    m2 = dense_savgol(n, window, poly_order, 2)
    m0 = dense_savgol(n, window, poly_order, 0)
    want = m2[h:n - h].mean(axis=0)
    np.testing.assert_allclose(w, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
    denom = max(n - 2.0 * np.trace(m0) + np.sum(m0 * m0), 1.0)
    assert resid_scale == pytest.approx(math.sqrt(n / denom), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 400), seed=st.integers(0, 2**64 - 1), n_perm=st.integers(99, 600),
       keep=st.integers(0, 220))
def test_permutation_index_gathers_the_permuted_draw(n, seed, n_perm, keep):
    # the kept columns are those of the one-shot draw however the rows are
    # chunked: one row at a time, ragged chunks, or the default buffer
    x = np.random.default_rng(n).standard_normal(n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    want = rng.permuted(np.broadcast_to(x, (n_perm, n)).copy(), axis=1)
    if 0 < 2 * keep < n:
        want = np.hstack([want[:, :keep], want[:, n - keep:]])
    for budget in (1, 7, n - 1, 7 * n, detector._DRAW_BUDGET):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(detector, "_DRAW_BUDGET", budget)
            idx = _permutation_index(seed, n, n_perm, keep)
        assert idx.dtype == np.intp and not idx.flags.writeable
        np.testing.assert_array_equal(x[idx], want)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(32, 120), h=st.integers(2, 59), extra=st.integers(0, 30),
       seed=st.integers(0, 2**32 - 1))
def test_surrogate_stats_are_the_same_bits_from_the_kept_columns(n, h, extra, seed):
    # windows up to n - 1, so that 2 (window - 1) > n keeps the whole draw;
    # an index kept for a wider window serves a narrower one
    window = 2 * min(h, (n - 2) // 2) + 1
    t = np.linspace(0.0, 20.0, n)
    noise = 0.05 * np.random.default_rng(seed).standard_normal((3, n))
    series = [TimeSeries(t, np.exp(0.08 * t + 0.004 * t**2 + row)) for row in noise]
    signal = detection_signal(series, DetectorConfig(window=window))
    full = detector._surrogate_stats(signal, _permutation_index(seed, n, 199, 0))
    for keep in (window - 1, window - 1 + extra):
        index = _permutation_index(seed, n, 199, keep)
        kept = detector._surrogate_stats(signal, index)
        assert np.array_equal(kept[0], full[0]) and np.array_equal(kept[1], full[1])
    narrow = _permutation_index(seed, n, 199, window - 2)
    if narrow.shape[1] < n:
        with pytest.raises(DataError, match="does not hold the first and last"):
            detector._surrogate_stats(signal, narrow)


def test_groups_of_different_windows_share_one_draw_of_the_widest(monkeypatch):
    # n=64: window 31 keeps 2 x 30 of the 64 columns, window 41 all of them
    t = np.linspace(0.0, 20.0, 64)
    rng = np.random.default_rng(8)
    series = [TimeSeries(t, np.exp(0.06 * t + 0.003 * t**2 + 0.02 * rng.standard_normal(64)))
              for _ in range(2)]
    for windows in ((5, 7, 21, 31), (7, 41)):
        groups = [(DetectorConfig(window=w, n_perm=199), series, [3, 3]) for w in windows]
        draws = []
        draw = detector._permutation_index
        monkeypatch.setattr(detector, "_permutation_index",
                            lambda *args: draws.append(args) or draw(*args))
        batch = hybrid_detect(groups)
        monkeypatch.undo()
        assert draws == [(3, 64, 199, max(windows) - 1)]
        for (config, _, seeds), (scores, p_values) in zip(groups, batch):
            for one, seed, score, p_value in zip(series, seeds, scores, p_values):
                want = hybrid_detect(one, replace(config, seed=seed))
                assert (score, p_value) == (want.score, want.p_value)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(32, 400), h=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_surrogate_statistics_have_the_exact_permutation_moments(n, h, seed):
    # w sums to zero, so w dotted with a uniformly permuted r has mean 0 and
    # variance var(r) n/(n-1) (w.w), var(r) the population variance. The
    # surrogates are independent draws, so their sample mean and variance
    # stay within 5 standard errors of those moments.
    window = 2 * min(h, (n - 8) // 2) + 1
    t = np.linspace(0.0, 20.0, n)
    noise = 0.05 * np.random.default_rng(seed).standard_normal(n)
    series = TimeSeries(t, np.exp(0.08 * t + noise))
    signal = detection_signal(series, DetectorConfig(window=window))
    index = _permutation_index(seed, n, 1999, window - 1)
    stats, resid = detector._surrogate_stats(signal, index)
    w = _permutation_weights(n, window, DETECTION_POLY_ORDER)[0]
    variance = resid.var() * n / (n - 1) * (w @ w)
    m = stats.size
    assert abs(stats.mean()) <= 5 * math.sqrt(variance / m)
    sample_var = stats.var(ddof=1)
    fourth = np.mean((stats - stats.mean()) ** 4)
    assert abs(sample_var - variance) <= 5 * math.sqrt((fourth - sample_var**2) / m)


def test_too_few_permutations():
    with pytest.raises(ConfigError, match="detector n_perm must be >= 99, got 98"):
        DetectorConfig(n_perm=98)


@pytest.mark.parametrize("kwargs, named", [
    ({"n_perm": 199.5}, "n_perm must be a whole number, got 199.5"),
    ({"n_perm": float("nan")}, "n_perm must be a whole number, got nan"),
    ({"n_perm": "500"}, "n_perm must be a whole number, got '500'"),
    ({"n_perm": 500.0}, "n_perm must be a whole number, got 500.0"),
    ({"seed": 1.5}, "seed must be a whole number, got 1.5"),
    ({"seed": True}, "seed must be a whole number, got True"),
])
def test_n_perm_and_seed_must_be_whole(kwargs, named):
    # each of these was accepted and raised a TypeError inside the detection
    with pytest.raises(ConfigError, match=re.escape(named)):
        DetectorConfig(**kwargs)
    assert DetectorConfig(n_perm=np.int64(199), seed=np.uint32(3)).n_perm == 199


def _one_rate_null(n, reps):
    """Exponentials of one rate, with one stream of 5% multiplicative noise."""
    rng = np.random.default_rng(4)
    t = np.linspace(0, 20, n)
    clean = np.exp(0.08 * t)
    for _ in range(reps):
        yield TimeSeries(t, np.abs(clean * (1 + 0.05 * rng.standard_normal(n))))


def _acceptance_6_null(n, reps):
    """Acceptance 6's nulls: k ~ U(0.03, 0.12), 5% noise seeded by the rep."""
    rng = np.random.default_rng(123)
    t = np.linspace(0, 20, n)
    for i in range(reps):
        k = float(rng.uniform(0.03, 0.12))
        yield add_noise(TimeSeries(t, np.exp(k * t)), NoiseSpec(sigma_rel=0.05, seed=i))


def test_permutation_null_calibration_smoke():
    # small-scale versions of the calibration suite (full run in acceptance);
    # the rejection rate at alpha 0.05 stays within 3 binomial SEs of 0.05.
    # n=64 at the default window is the worst cell of the null-calibration
    # grid (n 64/200/1000 x window x sigma, 600 reps each): it rejected
    # 0.063-0.065
    for n, reps, data in ((100, 100, _one_rate_null), (64, 600, _acceptance_6_null)):
        rejections = sum(
            permutation_test(s, DetectorConfig(n_perm=199, seed=i)) <= 0.05
            for i, s in enumerate(data(n, reps))
        )
        rate = rejections / reps
        assert abs(rate - 0.05) <= 3 * math.sqrt(0.05 * 0.95 / reps), (n, rate)


# --- hybrid detector ----------------------------------------------------------

def _spy(monkeypatch, name):
    """Calls of ``detector.<name>`` from here on; the spy forwards to it."""
    calls, original = [], getattr(detector, name)
    monkeypatch.setattr(detector, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_hybrid_detect_computes_the_signal_once(monkeypatch):
    # one pass over log C gives the signal and the permutation test's fit
    calls = _spy(monkeypatch, "_filter_log")
    hybrid_detect(make_series(lambda t: np.exp(0.01 * t**2)))
    assert [orders for *_, orders in calls] == [(0, 2)]


def test_runs_are_found_once_without_a_sustained_run(monkeypatch):
    calls = _spy(monkeypatch, "_positive_runs")
    assert hybrid_detect(make_series(lambda t: np.exp(0.1 * t))).intervals == []
    assert len(calls) == 1


def test_noiseless_exponential_verdict_false():
    s = make_series(lambda t: np.exp(0.1 * t))
    r = hybrid_detect(s)
    assert r.verdict is False
    assert r.score < 0.25
    assert r.sub_scores == {"peak": 0.0, "pattern": 0.0, "duration": 0.0}
    assert r.intervals == []


@pytest.mark.parametrize("length", [44, 45, 47, 49, 50])
def test_intervals_are_the_runs_that_score_full_duration(length):
    # 200 points less window 21's edges leave 180 unmasked, so at
    # min_duration_frac 0.25 a run of 45 or more is sustained
    n, window, start = 200, 21, 60
    values = np.full(n, -1.0)
    values[start : start + length] = 1.0
    # only the sub-scores and intervals read this signal, not its log C fields
    signal = detector.Signal(np.arange(float(n)), values, edge_mask(n, window),
                             SavitzkyGolay(window, DETECTION_POLY_ORDER), np.zeros(n), np.zeros(n))
    sustained = length >= 45
    assert (duration_score(signal.unmasked, 0.25) == 1.0) == sustained
    expected = [(float(start), float(start + length - 1))] if sustained else []
    assert detector._detection_intervals(signal, 0.25) == expected


def test_noiseless_logquadratic_verdict_true():
    s = make_series(lambda t: np.exp(0.01 * t**2))
    r = hybrid_detect(s)
    assert r.verdict is True
    assert r.score > DetectorConfig().decision_threshold
    assert r.p_value <= 0.05
    assert len(r.intervals) >= 1


def test_window_larger_than_series_raises():
    s = make_series(lambda t: np.exp(0.1 * t), n=35)
    config = DetectorConfig(window=41)
    with pytest.raises(ConfigError, match="window 41 exceeds series length 35"):
        detection_signal(s, config)
    with pytest.raises(ConfigError, match="window 41 exceeds series length 35"):
        permutation_test(s, config)


def test_series_too_short():
    t = np.linspace(0, 5, 31)
    with pytest.raises(DataError, match="need >= 32 points, got 31"):
        hybrid_detect(TimeSeries(t, np.exp(t)))


def test_verdict_requires_both_gates():
    # a logistic has p = 1.0: even a permissive score threshold cannot fire
    s = make_series(lambda t: evaluate(Logistic(100.0, 1.0, 10.0), t))
    r = hybrid_detect(s)
    assert r.verdict is False
    assert r.p_value > 0.05


def test_result_json_contract(tmp_path):
    s = make_series(lambda t: np.exp(0.01 * t**2))
    r = hybrid_detect(s)
    path = tmp_path / "detection.json"
    r.to_json(path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"verdict", "score", "sub_scores", "intervals", "p_value"}
    assert set(payload["sub_scores"]) == {"peak", "pattern", "duration"}
    assert isinstance(payload["verdict"], bool)


def test_config_validation():
    with pytest.raises(ConfigError, match=re.escape("decision_threshold must lie in (0, 1)")):
        DetectorConfig(decision_threshold=0.0)
    with pytest.raises(ConfigError, match="combine_weights must sum to 1"):
        DetectorConfig(combine_weights=(0.5, 0.5, 0.5))
    with pytest.raises(ConfigError, match=re.escape("min_duration_frac must lie in (0, 1]")):
        DetectorConfig(min_duration_frac=0.0)
    with pytest.raises(ConfigError, match="threshold_peak must be > 0, got -1.0"):
        DetectorConfig(threshold_peak=-1.0)


# --- invariances --------------------------------------------------------------

def test_scale_invariance():
    s = make_series(lambda t: np.exp(0.01 * t**2))
    scaled = s.with_values(s.values * 1e6)
    a, b = hybrid_detect(s), hybrid_detect(scaled)
    assert a.verdict == b.verdict
    assert a.score == pytest.approx(b.score, abs=1e-9)
    assert a.p_value == pytest.approx(b.p_value, abs=1e-9)


def test_time_shift_invariance():
    t = np.linspace(0, 20, 200)
    v = np.exp(0.01 * t**2)
    a = hybrid_detect(TimeSeries(t, v))
    b = hybrid_detect(TimeSeries(t + 1000.0, v))
    assert a.verdict == b.verdict
    assert a.score == pytest.approx(b.score, abs=1e-9)
    assert a.p_value == pytest.approx(b.p_value, abs=1e-9)


# --- property tests -----------------------------------------------------------

_FAMILIES = st.one_of(
    st.builds(Exponential, c0=st.floats(0.1, 10.0), k=st.floats(0.02, 0.15)),
    st.builds(LogQuadratic, c0=st.floats(0.1, 10.0), a=st.floats(0.0, 0.12),
              b=st.floats(0.002, 0.02)),
    st.builds(
        lambda k, start, length, strength: InjectedJolt(
            Exponential(1.0, k), jolt_start=start, jolt_end=start + length,
            ramp_strength=strength,
        ),
        st.floats(0.02, 0.12), st.floats(2.0, 12.0), st.floats(2.0, 8.0),
        st.floats(0.05, 0.4),
    ),
)


def _generated(family, level="none", seed=0):
    return generate(GrowthModelSpec(family, GridSpec(), NoiseSpec(level, seed=seed)))[0]


_NOISY_SERIES = st.builds(
    _generated, _FAMILIES, st.sampled_from(["low", "medium", "high"]), st.integers(0, 2**32 - 1)
)
_SERIES = st.builds(
    _generated, _FAMILIES, st.sampled_from(["none", "low", "medium", "high"]),
    st.integers(0, 2**32 - 1),
)


# Noiseless injected jolts have a signal that is flat before and after the
# ramp. These two once broke the invariance at the 1e-9 level: the pattern
# score correlated the rounding noise of those flat segments, and signal
# values near a rounding floor that moved with max|log C| flipped in or out
# of a run.
@example(
    series=_generated(InjectedJolt(Exponential(1.0, 0.0625), 2.0, 4.0, 0.25)),
    scale=0.5, shift=0.0,
)
@example(
    series=_generated(InjectedJolt(Exponential(1.0, 0.04179695436259557), 3.2870550526072666,
                                   5.440875026910737, 0.05863368198457069)),
    scale=426633.6618622286, shift=0.0,
)
@settings(max_examples=30, deadline=None)
@given(series=_SERIES, scale=st.floats(1e-3, 1e6), shift=st.floats(-1000.0, 1000.0))
def test_detection_invariant_under_value_scale_and_time_shift(series, scale, shift):
    base = hybrid_detect(series)
    for moved in (series.with_values(series.values * scale),
                  TimeSeries(series.times + shift, series.values)):
        result = hybrid_detect(moved)
        assert result.verdict == base.verdict
        assert result.score == pytest.approx(base.score, abs=1e-9)
        assert result.p_value == pytest.approx(base.p_value, abs=1e-9)


_METRIC_FAMILIES = st.one_of(
    st.builds(Exponential, c0=st.floats(0.1, 10.0), k=st.floats(0.02, 0.15)),
    st.builds(Logistic, l=st.floats(10.0, 1000.0), r=st.floats(0.2, 1.0),
              t0=st.floats(5.0, 15.0)),
    st.builds(LogQuadratic, c0=st.floats(0.1, 10.0), a=st.floats(0.0, 0.12),
              b=st.floats(0.002, 0.02)),
)
_SCALED_COLUMNS = ("c", "c1", "c2", "c3", "c3_lo", "c3_hi")
# Worst error relative to the column's largest finite value, over 10,500
# random draws: 2.1e-12 for C..C''', the bounds, J and alpha; 1.6e-9 for the
# doubling time and 2.7e-8 for J_N, whose near-zero alpha or C'' amplify
# rounding with a tail in 1/error. Time shifts moved nothing.
_METRIC_TOLERANCES = {
    **dict.fromkeys(_SCALED_COLUMNS + ("jolt", "alpha"), 1e-11),
    "doubling_time": 1e-7,
    "jolt_dimensionless": 1e-6,
}


def _metric_columns(series):
    est = estimate_derivatives(series)
    metrics = compute_metrics(est)
    return {name: getattr(est if name in _SCALED_COLUMNS else metrics, name)
            for name in _METRIC_TOLERANCES}


@settings(max_examples=30, deadline=None)
@given(series=st.builds(_generated, _METRIC_FAMILIES, st.sampled_from(["low", "medium", "high"]),
                        st.integers(0, 2**32 - 1)),
       scale=st.floats(1e-3, 1e6), shift=st.floats(-1000.0, 1000.0))
def test_metrics_scale_with_values_and_ignore_time_shift(series, scale, shift):
    base = _metric_columns(series)
    for moved, factor in ((series.with_values(series.values * scale), scale),
                          (TimeSeries(series.times + shift, series.values), 1.0)):
        for name, got in _metric_columns(moved).items():
            want = base[name] * (factor if name in _SCALED_COLUMNS else 1.0)
            finite = ~np.isnan(want)
            np.testing.assert_array_equal(np.isnan(got), ~finite)
            tol = _METRIC_TOLERANCES[name] * np.max(np.abs(want[finite]))
            np.testing.assert_allclose(got[finite], want[finite], rtol=0, atol=tol)


@settings(max_examples=30, deadline=None)
@given(series=_NOISY_SERIES, n_perm=st.integers(99, 400), seed=st.integers(0, 2**32 - 1))
def test_p_value_lies_in_its_range(series, n_perm, seed):
    p = permutation_test(series, DetectorConfig(n_perm=n_perm, seed=seed))
    assert 1 / (n_perm + 1) <= p <= 1


@settings(max_examples=30, deadline=None)
@given(c0=st.floats(1e-3, 1e6), k=st.floats(0.01, 0.2), shift=st.floats(-1000.0, 1000.0),
       seed=st.integers(0, 2**32 - 1))
def test_p_is_one_on_noiseless_exponentials(c0, k, shift, seed):
    t = np.linspace(0.0, 20.0, 200)
    series = TimeSeries(t + shift, c0 * np.exp(k * t))
    assert permutation_test(series, DetectorConfig(seed=seed)) == 1.0


@settings(max_examples=30, deadline=None)
@given(series=_NOISY_SERIES, window=st.sampled_from([None, 7, 21]),
       seed=st.integers(0, 2**32 - 1))
def test_hybrid_p_value_is_the_standalone_permutation_test(series, window, seed):
    # hybrid_detect hands its signal to the permutation test, which computes
    # the signal itself when called alone: the two must agree bit for bit
    config = DetectorConfig(window=window, seed=seed)
    assert hybrid_detect(series, config).p_value == permutation_test(series, config)


_BATCH_ROW = st.tuples(
    _FAMILIES, st.sampled_from(["none", "low", "medium", "high"]), st.integers(0, 2**32 - 1),
    st.sampled_from([None, 5, 7, 11, 21, 31]), st.integers(2, 4),
    st.one_of(st.integers(0, 2), st.integers(0, 2**63)), st.sampled_from([99, 199]),
)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(32, 400), rows=st.lists(_BATCH_ROW, min_size=1, max_size=6))
def test_batch_detection_is_each_series_on_its_own(n, rows):
    # rows with equal configs form one group, in which seeds may repeat;
    # groups share seeds across windows, or share nothing. Each row must get
    # the bits it gets in a call of its own
    groups = {}
    for family, level, noise_seed, window, poly_order, seed, n_perm in rows:
        spec = GrowthModelSpec(family, GridSpec(n_points=n), NoiseSpec(level, seed=noise_seed))
        if window is None or window > n - 8:  # at least 8 unmasked points
            window = default_savgol(n).window
        config = DetectorConfig(window=window, poly_order=poly_order, n_perm=n_perm)
        series, seeds = groups.setdefault(config, ([], []))
        series.append(generate(spec)[0])
        seeds.append(seed)
    batch = hybrid_detect([(config, *group) for config, group in groups.items()])
    assert len(batch) == len(groups)
    for (config, (series, seeds)), (scores, p_values) in zip(groups.items(), batch):
        assert scores.dtype == p_values.dtype == np.float64
        assert scores.shape == p_values.shape == (len(series),)
        for one, seed, score, p_value in zip(series, seeds, scores, p_values):
            want = hybrid_detect(one, replace(config, seed=seed))
            assert (score, p_value) == (want.score, want.p_value)


def test_batch_on_two_grids_rejected():
    a = make_series(lambda t: np.exp(0.1 * t))
    b = make_series(lambda t: np.exp(0.1 * t), t1=21.0)
    config = DetectorConfig()
    with pytest.raises(DataError, match="one time grid"):
        hybrid_detect([(config, [a], [0]), (config, [b], [0])])
    with pytest.raises(DataError, match="one time grid"):
        hybrid_detect([(config, [a, b], [0, 1])])
    with pytest.raises(DataError, match="2 series need one seed each, got 1"):
        hybrid_detect([(config, [a, a], [0])])
    with pytest.raises(DataError, match="at least one series"):
        hybrid_detect([])
    with pytest.raises(DataError, match="at least one series"):
        hybrid_detect([(config, [a], [0]), (config, [], [])])
    short = make_series(lambda t: np.exp(0.1 * t), n=20)
    with pytest.raises(DataError, match="got 20"):
        hybrid_detect([(config, [short], [0])])
