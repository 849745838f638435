import math

import numpy as np
import pytest

from joltlab.errors import NonPositiveCapability
from joltlab.estimation import DerivativeEstimate, estimate_derivatives
from joltlab.growth import (
    Logistic,
    ResourceSchedule,
    apply_resource_damping,
    compose,
    evaluate,
)
from joltlab.metrics import (
    compute_metrics,
    dimensionless_jolt,
    growth_and_doubling,
    jolt_magnitude,
)
from joltlab.timeseries import TimeSeries


def analytic_estimate(t, c, c1, c2, c3):
    """Build a DerivativeEstimate from closed-form derivative arrays."""
    return DerivativeEstimate(
        times=t, c=c, c1=c1, c2=c2, c3=c3,
        c3_lo=c3.copy(), c3_hi=c3.copy(),
        edge_mask=np.zeros(t.size, dtype=bool),
    )


def exponential_estimate(k=0.1, n=100):
    t = np.linspace(0, 20, n)
    c = np.exp(k * t)
    return analytic_estimate(t, c, k * c, k**2 * c, k**3 * c)


# --- jolt magnitude J = C'''/C ------------------------------------------------

def test_exponential_jolt_is_k_cubed():
    d = exponential_estimate(k=0.1)
    np.testing.assert_allclose(jolt_magnitude(d), 0.001, atol=1e-15)


def test_quadratic_jolt_is_zero():
    t = np.linspace(0, 5, 50)
    d = analytic_estimate(t, 1 + t**2, 2 * t, np.full(t.size, 2.0), np.zeros(t.size))
    np.testing.assert_array_equal(jolt_magnitude(d), 0.0)


def test_cubic_jolt_direct_substitution():
    # C = t^3 + 1 at t = 1: C''' / C = 6 / 2 = 3
    t = np.array([1.0])
    d = analytic_estimate(t, np.array([2.0]), np.array([3.0]), np.array([6.0]), np.array([6.0]))
    assert jolt_magnitude(d)[0] == pytest.approx(3.0, abs=1e-12)


def test_jolt_requires_positive_capability():
    t = np.linspace(0, 5, 10)
    d = analytic_estimate(t, t - 2.0, np.ones(10), np.ones(10), np.ones(10))
    with pytest.raises(NonPositiveCapability):
        jolt_magnitude(d)


# --- dimensionless jolt J_N ---------------------------------------------------

def test_exponential_jn_is_one():
    for k in (0.05, 0.2, 1.0):
        d = exponential_estimate(k=k)
        jn, mask = dimensionless_jolt(d)
        assert not mask.any()
        np.testing.assert_allclose(jn, 1.0, atol=1e-12)


def test_logistic_inflection_masked():
    # C'' = 0 exactly at t0; the inflection point must be masked, not raise
    t = np.linspace(0, 20, 201)  # t0 = 10 falls on the grid
    fam = Logistic(l=100.0, r=1.0, t0=10.0)
    c = evaluate(fam, t)
    sig = 1.0 / (1.0 + np.exp(-(t - 10.0)))
    c1 = 100.0 * sig * (1 - sig)
    c2 = c1 * (1 - 2 * sig)
    c3 = c1 * (1 - 6 * sig + 6 * sig**2)
    d = analytic_estimate(t, c, c1, c2, c3)
    jn, mask = dimensionless_jolt(d)
    i0 = np.argmin(np.abs(t - 10.0))
    assert mask[i0]
    assert np.isnan(jn[i0])


def test_logquadratic_jn_symbolic_oracle():
    # for C = exp(b t^2): J_N = (3 + 2bt^2)/(1 + 2bt^2), hence 3 at t -> 0
    b = 0.01
    t = np.linspace(0.5, 10, 100)
    c = np.exp(b * t**2)
    c1 = 2 * b * t * c
    c2 = (2 * b + (2 * b * t) ** 2) * c
    c3 = (12 * b**2 * t + (2 * b * t) ** 3) * c
    d = analytic_estimate(t, c, c1, c2, c3)
    jn, mask = dimensionless_jolt(d)
    oracle = (3 + 2 * b * t**2) / (1 + 2 * b * t**2)
    assert not mask.any()
    np.testing.assert_allclose(jn, oracle, rtol=1e-10)


def test_pipeline_jn_near_three_at_origin():
    b = 0.01
    t = np.linspace(-10, 10, 400)  # even count: grid straddles but skips t=0
    d = estimate_derivatives(TimeSeries(t, np.exp(b * t**2)))
    jn, mask = dimensionless_jolt(d)
    i0 = np.argmin(np.abs(t))
    assert not mask[i0]
    assert jn[i0] == pytest.approx(3.0, abs=0.15)


# --- growth rate and doubling time --------------------------------------------

def test_doubling_time_identity():
    d = exponential_estimate(k=math.log(2) / 10)
    alpha, doubling = growth_and_doubling(d)
    np.testing.assert_allclose(alpha, math.log(2) / 10, atol=1e-15)
    np.testing.assert_allclose(doubling, 10.0, atol=1e-9)


def test_logquadratic_doubling_at_t10():
    b = 0.01
    t = np.arange(0.5, 15.01, 0.5)  # grid contains t = 10 exactly
    c = np.exp(b * t**2)
    d = analytic_estimate(t, c, 2 * b * t * c, np.zeros(t.size), np.zeros(t.size))
    alpha, doubling = growth_and_doubling(d)
    i = np.argmin(np.abs(t - 10.0))
    assert alpha[i] == pytest.approx(0.2, abs=1e-12)
    assert doubling[i] == pytest.approx(math.log(2) / 0.2, abs=1e-9)


def test_declining_series_doubling_masked():
    t = np.linspace(0, 5, 20)
    c = np.exp(-0.1 * t)
    d = analytic_estimate(t, c, -0.1 * c, 0.01 * c, -0.001 * c)
    _, doubling = growth_and_doubling(d)
    assert np.isnan(doubling).all()


def test_compute_metrics_csv_contract(tmp_path):
    d = exponential_estimate()
    m = compute_metrics(d)
    path = tmp_path / "metrics.csv"
    m.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,J,JN,alpha,t_double,singular"
    assert len(lines) == 1 + d.times.size


# --- damping and composition --------------------------------------------------

def test_effective_jolt_substitution():
    t = np.array([0.0, 1.0, 2.0])
    jolt = TimeSeries(t, np.full(3, 1.0))
    sched = ResourceSchedule(t, np.full(3, 0.25), r_max=1.0)
    np.testing.assert_allclose(apply_resource_damping(jolt, sched).values, 0.75, atol=1e-12)


def test_composite_jolt_weighted_sum():
    t = np.array([0.0, 1.0])
    a = TimeSeries(t, np.full(2, 2.0))
    b = TimeSeries(t, np.full(2, 4.0))
    out = compose([(0.5, a), (0.5, b)])
    np.testing.assert_allclose(out.values, 3.0, atol=1e-12)
