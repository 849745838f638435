"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The Monte Carlo sweep (criterion 1) and the permutation calibration
(criterion 6) dominate the runtime.
"""

import json

import numpy as np
import yaml

from joltlab.cli import main
from joltlab.detector import DetectorConfig, hybrid_detect, permutation_test
from joltlab.estimation import (
    DerivativeEstimate,
    SavitzkyGolay,
    estimate_derivatives,
    savgol_apply,
    savgol_derivative,
    savgol_smooth,
    savgol_weights,
)
from joltlab.growth import (
    GridSpec,
    NoiseSpec,
    ResourceSchedule,
    add_noise,
    apply_resource_damping,
    compose,
)
from joltlab.metrics import compute_metrics, dimensionless_jolt
from joltlab.timeseries import TimeSeries

JOBS = 8


RESULTS: list = []  # emitted by the terminal-summary hook in conftest.py


def _report(num: int, desc: str, ok: bool) -> None:
    line = f"[acceptance {num}] {'PASS' if ok else 'FAIL'} — {desc}"
    RESULTS.append(line)
    print("\n" + line)
    assert ok, f"acceptance criterion {num} failed: {desc}"


def _analytic_exponential(t, c0, k):
    c = c0 * np.exp(k * t)
    return DerivativeEstimate(
        times=t, c=c, c1=k * c, c2=k**2 * c, c3=k**3 * c,
        c3_lo=(k**3 * c).copy(), c3_hi=(k**3 * c).copy(),
        edge_mask=np.zeros(t.size, dtype=bool),
    )


# --- 1. Detector calibration targets ------------------------------------------

TARGETS = {"low": (0.95, 0.05), "medium": (0.92, 0.08), "high": (0.85, 0.15)}


def test_acceptance_1_table1_sweep(tmp_path):
    # the default CLI sweep: window {7,11,15,21} x decision_threshold
    # {0.3..0.7} = 20 cells, 1000+1000 trials per cell, all noise levels
    out = tmp_path / "sweep"
    code = main(["sweep", "--out", str(out), "--seed", "42",
                 "--trials", "1000", "--jobs", str(JOBS)])
    assert code == 0
    rows = (out / "heatmap.csv").read_text().splitlines()[1:]
    rates = {}
    for row in rows:
        noise, window, threshold, tpr, fpr, _err = row.split(",")
        rates[(float(window), float(threshold))] = rates.get(
            (float(window), float(threshold)), {})
        rates[(float(window), float(threshold))][noise] = (float(tpr), float(fpr))
    winners = [
        cfg for cfg, by_noise in rates.items()
        if all(
            by_noise[noise][0] >= tpr_min and by_noise[noise][1] <= fpr_max
            for noise, (tpr_min, fpr_max) in TARGETS.items()
        )
    ]
    _report(
        1,
        "a single sweep configuration meets the TPR/FPR targets at every "
        f"noise level (winning (window, threshold) configs: {winners})",
        len(winners) >= 1,
    )


# --- 2. Exponential identity suite --------------------------------------------

def test_acceptance_2_exponential_identities():
    rng = np.random.default_rng(0)
    t = np.linspace(0, 20, 200)
    ok = True
    for _ in range(50):
        c0 = float(rng.uniform(0.5, 5.0))
        k = float(rng.uniform(0.02, 0.12))
        analytic = _analytic_exponential(t, c0, k)
        jn, mask = dimensionless_jolt(analytic)
        ok &= not mask.any() and np.max(np.abs(jn - 1.0)) <= 1e-9

        series = TimeSeries(t, c0 * np.exp(k * t))
        est = estimate_derivatives(series)
        jn, mask = dimensionless_jolt(est)
        interior = ~est.edge_mask & ~mask
        ok &= np.max(np.abs(jn[interior] - 1.0)) <= 0.05

        result = hybrid_detect(series)
        ok &= result.verdict is False and result.score < 0.25
    _report(2, "J_N ≡ 1 and verdict False on 50 noiseless exponentials", ok)


# --- 3. Jolting oracle suite --------------------------------------------------

def test_acceptance_3_jolting_oracles():
    ok = True
    for b in (0.005, 0.01, 0.02):
        # pipeline J_N near t = 0 (grid straddles zero; oracle value is 3)
        t = np.linspace(-10, 10, 400)
        est = estimate_derivatives(TimeSeries(t, np.exp(b * t**2)))
        jn, mask = dimensionless_jolt(est)
        i0 = np.argmin(np.abs(t))
        ok &= not mask[i0] and abs(jn[i0] - 3.0) <= 0.15

        # doubling time strictly decreasing; verdict True on noiseless series
        t = GridSpec().times()
        series = TimeSeries(t, np.exp(b * t**2))
        est = estimate_derivatives(series)
        doubling = compute_metrics(est).doubling_time[~est.edge_mask]
        ok &= not np.isnan(doubling).any() and np.all(np.diff(doubling) < 0)
        ok &= hybrid_detect(series).verdict is True
    _report(3, "pipeline J_N ≈ 3 at t=0, shrinking doubling time, verdict True "
               "for LogQuadratic b ∈ {0.005, 0.01, 0.02}", ok)


# --- 4. Savitzky-Golay exactness ----------------------------------------------

def test_acceptance_4_savgol_exactness():
    ok = True
    # unit spacing: differencing then carries no 1/dt^k rounding amplification
    t = np.arange(50.0)
    for window in (5, 7, 11, 21):
        for poly_order in (2, 3, 4):
            for degree in range(poly_order + 1):
                coefs = np.arange(1.0, degree + 2) / 10.0 ** np.arange(degree + 1)
                poly = np.polynomial.Polynomial(coefs)
                series = TimeSeries(t, poly(t))
                cfg = SavitzkyGolay(window, poly_order)
                ok &= np.max(np.abs(
                    savgol_smooth(series, cfg).values - poly(t))) <= 1e-10
                for order in range(1, min(poly_order, 3) + 1):
                    got = savgol_derivative(series, cfg, order).values
                    ok &= np.max(np.abs(got - poly.deriv(order)(t))) <= 1e-10
    oracle = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
    ok &= np.max(np.abs(savgol_weights(5, 2, 0) - oracle)) <= 1e-12
    _report(4, "polynomial reproduction to 1e-10 and window-5/order-2 weights "
               "equal to (-3,12,17,12,-3)/35", ok)


# --- 5. Derivative accuracy ---------------------------------------------------

def test_acceptance_5_derivative_accuracy():
    t = np.arange(0, 20.0001, 0.1)
    series = TimeSeries(t, np.exp(0.1 * t))
    cfg = SavitzkyGolay(11, 4)
    est = estimate_derivatives(series, cfg)
    interior = ~est.edge_mask
    truth = 0.001 * np.exp(0.1 * t)
    rel = (est.c3[interior] - truth[interior]) / truth[interior]
    rmse = float(np.sqrt(np.mean(rel**2)))

    smoothed = savgol_apply(series, cfg, 0)
    fd = np.gradient(smoothed, t)
    c1 = savgol_apply(series, cfg, 1)
    inner = interior.copy()
    inner[0] = inner[-1] = False
    rel_rms = float(
        np.sqrt(np.mean((fd[inner] - c1[inner]) ** 2))
        / np.sqrt(np.mean(c1[inner] ** 2))
    )
    _report(5, f"third-derivative rel RMSE {rmse:.2e} ≤ 2% and finite-difference "
               f"check {rel_rms:.2e} ≤ 1%", rmse <= 0.02 and rel_rms <= 0.01)


# --- 6. Permutation-test calibration ------------------------------------------

def test_acceptance_6_permutation_calibration():
    t = np.linspace(0, 20, 200)
    rng = np.random.default_rng(123)
    rejections = 0
    reps = 1000
    for i in range(reps):
        k = float(rng.uniform(0.03, 0.12))
        clean = np.exp(k * t)
        noisy = add_noise(TimeSeries(t, clean), NoiseSpec(sigma_rel=0.05, seed=i))
        p = permutation_test(noisy, DetectorConfig(n_perm=199, seed=i))
        rejections += p <= 0.05
    rate = rejections / reps
    _report(6, f"null rejection rate {rate:.3f} within [0.03, 0.07]",
            0.03 <= rate <= 0.07)


# --- 7. Equation unit identities ----------------------------------------------

def test_acceptance_7_equation_identities():
    ok = True
    t = np.array([0.0, 1.0, 2.0])
    a = TimeSeries(t, np.full(3, 2.0))
    b = TimeSeries(t, np.full(3, 4.0))
    ok &= np.all(compose([(1.0, a)]).values == a.values)
    ok &= np.max(np.abs(compose([(0.5, a), (0.5, b)]).values - 3.0)) <= 1e-12

    from joltlab.growth import InteractionSpec
    inter = InteractionSpec(terms=(
        ((0, 1), np.full(3, 0.5)), ((1, 0), np.full(3, 0.5)),
    ))
    ok &= np.max(np.abs(compose([(0.5, a), (0.5, b)], inter).values - 4.0)) <= 1e-12

    jolt = TimeSeries(t, np.full(3, 0.4))
    sat = ResourceSchedule(t, np.full(3, 1.0), r_max=1.0)
    idle = ResourceSchedule(t, np.zeros(3), r_max=1.0)
    half = ResourceSchedule(t, np.full(3, 0.5), r_max=1.0)
    ok &= np.max(np.abs(apply_resource_damping(jolt, sat).values)) <= 1e-12
    ok &= np.max(np.abs(apply_resource_damping(jolt, idle).values - 0.4)) <= 1e-12
    ok &= np.max(np.abs(apply_resource_damping(jolt, half).values - 0.2)) <= 1e-12
    _report(7, "composite weighted-sum and resource-damping identities to 1e-12", ok)


# --- 8. Determinism & schedule invariance -------------------------------------

def test_acceptance_8_schedule_invariance(tmp_path):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "seed": 17,
        "mc": {"n_trials": 50},
        "detector": {"n_perm": 199},
        "grid": {"n_points": 100},
    }))
    outputs = {}
    for jobs in (1, 8):
        out = tmp_path / f"jobs{jobs}"
        code = main(["mc", "--config", str(cfg_path), "--out", str(out),
                     "--jobs", str(jobs)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        report.pop("timestamp")
        outputs[jobs] = ((out / "table1.csv").read_bytes(), report)
    _report(8, "cmd_mc at --jobs 1 and --jobs 8 produces identical outputs",
            outputs[1] == outputs[8])


# --- 9. Scale/shift invariance ------------------------------------------------

def test_acceptance_9_scale_shift_invariance():
    t = np.linspace(0, 20, 200)
    cases = [
        np.exp(0.1 * t),
        np.exp(0.01 * t**2),
        100.0 / (1.0 + np.exp(-(t - 10.0))),
        add_noise(TimeSeries(t, np.exp(0.08 * t)),
                  NoiseSpec(sigma_rel=0.05, seed=2)).values,
    ]
    ok = True
    for values in cases:
        ref = hybrid_detect(TimeSeries(t, values))
        for variant in (TimeSeries(t, values * 1e6),
                        TimeSeries(t + 1000.0, values)):
            got = hybrid_detect(variant)
            ok &= got.verdict == ref.verdict
            ok &= abs(got.score - ref.score) <= 1e-9
            ok &= abs(got.p_value - ref.p_value) <= 1e-9
    _report(9, "×1e6 value scaling and +1000 time shift leave verdict, score "
               "and p-value unchanged to 1e-9", ok)


# Acceptance 9 scales values and shifts time; this scales time itself, as a
# change of time unit does (seconds, hours, years). The detector works in grid
# steps, so no result may move by a single bit, at any step in DT_RANGE: the
# default grid's step of about 0.1 becomes about 1.0e-30 at 1e-29 and 9.0e29
# at 9e30, the ends of that range.
TIME_SCALES = (1e-29, 1e-6, 1e-3, 8766.0, 3.15576e7, 1e9, 9e30)


def _time_scaling_cases():
    """(label, series, config): 40 drawn trials per class of a medium-noise
    Monte Carlo cell, each with its own detector seed, and two noiseless series."""
    from dataclasses import replace

    from joltlab.growth import generate
    from joltlab.montecarlo import MCCell, sample_trial_spec

    cell = MCCell(noise="medium", master_seed=42)
    for is_positive in (True, False):
        for i in range(40):
            spec, seed = sample_trial_spec(cell, is_positive, i)
            yield (f"{'pos' if is_positive else 'neg'} {i}", generate(spec)[0],
                   replace(cell.detector, seed=seed))
    t = cell.grid.times()
    yield "exponential", TimeSeries(t, np.exp(0.1 * t)), cell.detector
    yield "log-quadratic", TimeSeries(t, np.exp(0.05 * t + 0.01 * t**2)), cell.detector


def test_time_scaling_leaves_verdict_p_value_and_scores_unchanged():
    differ = []
    for label, series, config in _time_scaling_cases():
        ref = hybrid_detect(series, config)
        for scale in TIME_SCALES:
            got = hybrid_detect(TimeSeries(scale * series.times, series.values), config)
            same = (got.verdict == ref.verdict and got.p_value == ref.p_value
                    and got.score == ref.score and got.sub_scores == ref.sub_scores)
            if not same:
                differ.append((label, scale, ref.sub_scores, got.sub_scores))
    assert not differ, f"{len(differ)} results moved with the time unit, first: {differ[0]}"
