import json
import math

import numpy as np
import pytest

from joltlab.detector import (
    DETECTION_POLY_ORDER,
    DetectorConfig,
    detection_signal,
    duration_score,
    hybrid_detect,
    pattern_match_score,
    peak_ratio_score,
    permutation_test,
)
from joltlab.errors import (
    InvalidSpec,
    SeriesTooShort,
    TooFewPermutations,
    TooFewPoints,
    WindowTooLarge,
)
from joltlab.estimation import SavitzkyGolay, default_savgol, edge_mask
from joltlab.growth import (
    Exponential,
    InjectedJolt,
    Logistic,
    LogQuadratic,
    NoiseSpec,
    add_noise,
    evaluate,
    smoothstep,
)
from joltlab.timeseries import TimeSeries, uniform_spacing
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
    np.testing.assert_allclose(sig.values[interior], 2 * b, atol=1e-4)


def test_logistic_signal_negative_interior():
    s = make_series(lambda t: evaluate(Logistic(100.0, 1.0, 10.0), t))
    sig = detection_signal(s)
    late = ~sig.edge_mask & (s.times > 5.0)
    assert np.all(sig.values[late] < 0)


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
    with pytest.raises(TooFewPoints):
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


def _dense_permutation_p(series, config):
    """Reference permutation test: every surrogate is pushed through the
    dense deriv-2 operator, floored elementwise like the detection signal,
    reduced to its interior mean and compared with ``>=``."""
    cfg = config.smoother or default_savgol(len(series), DETECTION_POLY_ORDER)
    dt = uniform_spacing(series)
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
    smoother = None if window is None else SavitzkyGolay(window, 2)
    config = DetectorConfig(smoother=smoother, seed=11)
    for series in (TimeSeries(_T, values), TimeSeries(_T, values * 1e6),
                   TimeSeries(_T + 1000.0, values)):
        assert permutation_test(series, config) == _dense_permutation_p(series, config)


def test_too_few_permutations():
    with pytest.raises(TooFewPermutations):
        DetectorConfig(n_perm=98)


def test_permutation_null_calibration_smoke():
    # small-scale version of the calibration suite (full run in acceptance)
    rng = np.random.default_rng(4)
    t = np.linspace(0, 20, 100)
    clean = np.exp(0.08 * t)
    rejections = 0
    reps = 100
    for i in range(reps):
        v = clean * (1 + 0.05 * rng.standard_normal(100))
        p = permutation_test(TimeSeries(t, np.abs(v)), DetectorConfig(n_perm=199, seed=i))
        rejections += p <= 0.05
    assert rejections / reps <= 0.12


# --- hybrid detector ----------------------------------------------------------

def test_noiseless_exponential_verdict_false():
    s = make_series(lambda t: np.exp(0.1 * t))
    r = hybrid_detect(s)
    assert r.verdict is False
    assert r.score < 0.25
    assert r.sub_scores == {"peak": 0.0, "pattern": 0.0, "duration": 0.0}
    assert r.intervals == []


def test_noiseless_logquadratic_verdict_true():
    s = make_series(lambda t: np.exp(0.01 * t**2))
    r = hybrid_detect(s)
    assert r.verdict is True
    assert r.score > DetectorConfig().decision_threshold
    assert r.p_value <= 0.05
    assert len(r.intervals) >= 1


def test_window_larger_than_series_raises():
    s = make_series(lambda t: np.exp(0.1 * t), n=35)
    smoother = SavitzkyGolay(41, 2)
    with pytest.raises(WindowTooLarge, match="window 41 exceeds series length 35"):
        detection_signal(s, smoother)
    with pytest.raises(WindowTooLarge, match="window 41 exceeds series length 35"):
        permutation_test(s, DetectorConfig(smoother=smoother))


def test_series_too_short():
    t = np.linspace(0, 5, 31)
    with pytest.raises(SeriesTooShort):
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
    with pytest.raises(InvalidSpec):
        DetectorConfig(decision_threshold=0.0)
    with pytest.raises(InvalidSpec):
        DetectorConfig(combine_weights=(0.5, 0.5, 0.5))
    with pytest.raises(InvalidSpec):
        DetectorConfig(min_duration_frac=0.0)
    with pytest.raises(InvalidSpec):
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
