import math
import re

import numpy as np
import pytest

from joltlab.detector import smoothstep
from joltlab.errors import ConfigError, DataError
from joltlab.growth import (
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
    evaluate,
    generate,
)
from joltlab.timeseries import DT_RANGE, TimeSeries


# --- closed-form family values ------------------------------------------------

def test_exponential_doubling_identity():
    t = np.linspace(0, 10, 101)
    v = evaluate(Exponential(c0=1.0, k=math.log(2) / 10), t)
    assert v[-1] == pytest.approx(2.0, abs=1e-12)


def test_logistic_midpoint():
    t = np.linspace(0, 10, 101)
    v = evaluate(Logistic(l=100.0, r=1.0, t0=5.0), t)
    assert v[50] == pytest.approx(50.0, abs=1e-12)


def test_logquadratic_alpha_increasing_and_labeled():
    spec = GrowthModelSpec(family=LogQuadratic(c0=1.0, a=0.0, b=0.01))
    series, label = generate(spec)
    assert label is True
    # alpha(t) = 2bt: log-derivative strictly increasing
    logv = np.log(series.values)
    alpha = np.diff(logv) / np.diff(series.times)
    assert np.all(np.diff(alpha) > 0)


def test_exponential_and_logistic_not_labeled():
    assert GrowthModelSpec(family=Exponential()).label is False
    assert GrowthModelSpec(family=Logistic()).label is False
    assert GrowthModelSpec(family=InjectedJolt(ramp_strength=0.2)).label is True


def test_injected_jolt_alpha_ramps_by_strength():
    fam = InjectedJolt(
        base=Exponential(c0=1.0, k=0.05),
        jolt_start=5.0, jolt_end=10.0, ramp_strength=0.2,
    )
    t = np.linspace(0, 20, 2001)
    logv = np.log(evaluate(fam, t))
    alpha = np.gradient(logv, t)
    assert alpha[100] == pytest.approx(0.05, abs=1e-6)   # t = 1, pre-ramp
    assert alpha[1500] == pytest.approx(0.25, abs=1e-6)  # t = 15, post-ramp


def test_composite_evaluates_weighted_sum():
    t = np.linspace(0, 5, 50)
    fam = Composite(factors=((0.5, Exponential(1, 0.1)), (0.5, Exponential(2, 0.2))))
    expect = 0.5 * np.exp(0.1 * t) + 0.5 * 2 * np.exp(0.2 * t)
    np.testing.assert_allclose(evaluate(fam, t), expect, rtol=1e-12)


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError, match="Exponential c0 must be > 0, got -1.0"):
        Exponential(c0=-1.0)
    with pytest.raises(ConfigError, match="Logistic l must be > 0, got 0.0"):
        Logistic(l=0.0)
    with pytest.raises(ConfigError, match="InjectedJolt requires jolt_end > jolt_start"):
        InjectedJolt(jolt_start=5.0, jolt_end=5.0)
    with pytest.raises(ConfigError, match="grid needs t_end > t_start"):
        GridSpec(t_start=1.0, t_end=1.0)
    with pytest.raises(ConfigError, match="unknown noise level 'extreme'"):
        NoiseSpec(level="extreme")


@pytest.mark.parametrize("kwargs, named", [
    ({"t_end": math.inf}, "grid t_end must be a finite number, got inf"),
    ({"t_start": -math.inf}, "grid t_start must be a finite number, got -inf"),
    ({"t_start": math.nan}, "grid t_start must be a finite number, got nan"),
    ({"t_end": "20"}, "grid t_end must be a finite number, got '20'"),
    ({"n_points": 200.5}, "grid n_points must be a whole number, got 200.5"),
    ({"n_points": 200.0}, "grid n_points must be a whole number, got 200.0"),
    ({"n_points": "200"}, "grid n_points must be a whole number, got '200'"),
])
def test_grid_needs_finite_bounds_and_whole_n_points(kwargs, named):
    # an infinite t_end gave an all-NaN grid: every Monte Carlo trial failed
    # with a warning and the command still exited 0
    with pytest.raises(ConfigError, match=re.escape(named)):
        GridSpec(**kwargs)
    assert GridSpec(t_start=np.float64(1.0), n_points=np.int64(50)).times().size == 50


@pytest.mark.parametrize("kwargs, step", [
    ({"t_end": 1.0e200}, "5.02513e+197"),
    ({"t_start": -1.0e308, "t_end": 1.0e308}, "inf"),
    ({"t_end": 1.0e-30}, "5.02513e-33"),
])
def test_grid_step_outside_the_stated_range_is_refused_naming_the_keys(kwargs, step):
    # t_end 1e200 raised OverflowError from dt**k in the first detection
    named = f"grid step (t_end - t_start) / (n_points - 1) must lie in [1e-30, 1e+30], got {step}"
    with pytest.raises(ConfigError, match=re.escape(named)):
        GridSpec(**kwargs)


@pytest.mark.parametrize("step", [DT_RANGE[0] * (1 + 1e-9), DT_RANGE[1] * (1 - 1e-9)])
def test_grid_step_just_inside_the_stated_range_generates(step):
    flat = GrowthModelSpec(family=Exponential(k=0.0), grid=GridSpec(0.0, 7 * step, 8))
    assert generate(flat)[0].dt == pytest.approx(step, rel=1e-12)


# --- smoothstep ---------------------------------------------------------------

def test_smoothstep_endpoints_and_monotone():
    x = np.linspace(-0.5, 1.5, 201)
    y = smoothstep(x)
    assert y[0] == 0.0 and y[-1] == 1.0
    assert smoothstep(np.array([0.5]))[0] == pytest.approx(0.5)
    assert np.all(np.diff(y) >= 0)


# --- noise --------------------------------------------------------------------

def test_no_noise_is_identity():
    s = TimeSeries([0, 1, 2], [1, 2, 4])
    out = add_noise(s, NoiseSpec(level="none"))
    assert out is s


def test_noise_std_matches_sigma():
    t = np.arange(10_000.0)
    s = TimeSeries(t, np.full(t.size, 7.0))
    out = add_noise(s, NoiseSpec(sigma_rel=0.05, seed=3))
    ratio_std = np.std(out.values / s.values - 1.0)
    assert 0.045 <= ratio_std <= 0.055


def test_noise_determinism():
    t = np.linspace(0, 20, 200)
    s = TimeSeries(t, np.exp(0.1 * t))
    a = add_noise(s, NoiseSpec(level="high", seed=11))
    b = add_noise(s, NoiseSpec(level="high", seed=11))
    np.testing.assert_array_equal(a.values, b.values)


def test_noise_stays_positive():
    s = TimeSeries(np.arange(500.0), np.full(500, 1e-3))
    out = add_noise(s, NoiseSpec(sigma_rel=0.5, seed=0))
    assert np.all(out.values > 0)


def test_generate_determinism():
    spec = GrowthModelSpec(
        family=LogQuadratic(b=0.01), noise=NoiseSpec(level="medium", seed=5)
    )
    a, _ = generate(spec)
    b, _ = generate(spec)
    np.testing.assert_array_equal(a.values, b.values)


# --- composition and damping --------------------------------------------------

def test_compose_single_factor_identity():
    s = TimeSeries([0, 1, 2], [1.0, 2.0, 3.0])
    out = compose([(1.0, s)])
    np.testing.assert_array_equal(out.values, s.values)


def test_compose_weighted_mean():
    t = np.array([0.0, 1.0, 2.0])
    a = TimeSeries(t, np.full(3, 2.0))
    b = TimeSeries(t, np.full(3, 4.0))
    out = compose([(0.5, a), (0.5, b)])
    np.testing.assert_allclose(out.values, 3.0, atol=1e-12)


def test_compose_with_interaction_terms():
    t = np.array([0.0, 1.0, 2.0])
    a = TimeSeries(t, np.full(3, 2.0))
    b = TimeSeries(t, np.full(3, 4.0))
    inter = InteractionSpec(terms=(
        ((0, 1), lambda x: np.full(x.shape, 0.5)),
        ((1, 0), np.full(3, 0.5)),
    ))
    out = compose([(0.5, a), (0.5, b)], inter)
    np.testing.assert_allclose(out.values, 4.0, atol=1e-12)


def test_compose_grid_mismatch():
    a = TimeSeries([0, 1, 2], [1, 1, 1])
    b = TimeSeries([0, 1, 3], [1, 1, 1])
    with pytest.raises(DataError, match="factor series must share one time grid"):
        compose([(1.0, a), (1.0, b)])


def test_damping_saturation_zeroes_jolt():
    t = np.array([0.0, 1.0, 2.0])
    jolt = TimeSeries(t, [0.4, 0.4, 0.4])
    sched = ResourceSchedule(t, np.full(3, 2.0), r_max=2.0)
    np.testing.assert_allclose(apply_resource_damping(jolt, sched).values, 0.0, atol=1e-12)


def test_damping_zero_utilization_is_identity():
    t = np.array([0.0, 1.0, 2.0])
    jolt = TimeSeries(t, [0.4, 0.5, 0.6])
    sched = ResourceSchedule(t, np.zeros(3), r_max=2.0)
    np.testing.assert_allclose(apply_resource_damping(jolt, sched).values, jolt.values, atol=1e-12)


def test_damping_half_utilization():
    t = np.array([0.0, 1.0])
    jolt = TimeSeries(t, [0.4, 0.4])
    sched = ResourceSchedule(t, np.full(2, 1.0), r_max=2.0)
    np.testing.assert_allclose(apply_resource_damping(jolt, sched).values, 0.2, atol=1e-12)


def test_schedule_over_cap_rejected():
    with pytest.raises(ConfigError, match="resource utilization exceeds r_max"):
        ResourceSchedule(np.array([0.0, 1.0]), np.array([0.5, 3.0]), r_max=2.0)
