import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from joltlab.detector import detection_signal, hybrid_detect
from joltlab.errors import ConfigError, DataError
from joltlab.estimation import (
    SavitzkyGolay,
    _filter_log,
    _savgol_filter,
    _savgol_operator,
    default_savgol,
    edge_mask,
    estimate_derivatives,
    savgol_apply,
    savgol_derivative,
    savgol_smooth,
    savgol_weights,
)
from joltlab.growth import (
    GridSpec,
    GrowthModelSpec,
    LogQuadratic,
    NoiseSpec,
    generate,
)
from joltlab.timeseries import TimeSeries
from savgol_oracle import dense_savgol


# --- Savitzky-Golay -----------------------------------------------------------

def test_savgol_config_contracts():
    with pytest.raises(ConfigError, match="SavitzkyGolay window must be >= 5, got 4"):
        SavitzkyGolay(window=4)
    with pytest.raises(ConfigError, match="SavitzkyGolay window must be >= 5, got 3"):
        SavitzkyGolay(window=3)
    with pytest.raises(ConfigError, match="needs an odd window and poly_order < window"):
        SavitzkyGolay(window=5, poly_order=5)


def test_window5_order2_weights_match_ls_oracle():
    # independent least-squares oracle for the classic 5-point quadratic filter
    oracle = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
    np.testing.assert_allclose(savgol_weights(5, 2, 0), oracle, atol=1e-12)


@pytest.mark.parametrize("poly_order", [2, 3, 4])
@pytest.mark.parametrize("window", [5, 7, 11, 21, 41])
def test_savgol_filter_matches_exact_oracle(window, poly_order):
    # n covers every edge row and several interior rows; unit spacing, so
    # savgol_apply is the index-space operator itself
    n = 2 * window + 3
    rng = np.random.default_rng(100 * window + poly_order)
    x = rng.standard_normal(n)
    xs = rng.standard_normal((4, n))
    series = TimeSeries(np.arange(float(n)), x)
    for deriv in range(min(poly_order, 3) + 1):
        oracle = dense_savgol(n, window, poly_order, deriv)
        rows = _savgol_filter(np.eye(n), window, poly_order, deriv).T
        row_max = np.abs(oracle).max(axis=1, keepdims=True)
        assert np.all(np.abs(rows - oracle) <= 1e-13 * row_max)
        for got, want in (
            (savgol_apply(series, SavitzkyGolay(window, poly_order), deriv), oracle @ x),
            (_savgol_filter(xs, window, poly_order, deriv), xs @ oracle.T),
        ):
            np.testing.assert_allclose(
                got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max()
            )


def test_savgol_operator_matches_polynomial_basis():
    # the operator builds its Vandermonde and derivative matrices without
    # numpy.polynomial; its bits are those of the numpy.polynomial basis
    from numpy.polynomial import polynomial as P

    build = _savgol_operator.__wrapped__  # leave the cache as it is
    for window in range(3, 402, 2):
        h = window // 2
        u = (np.arange(window) - h) / h
        for poly_order in range(9):
            coef = np.linalg.pinv(P.polyvander(u, poly_order))
            for deriv in range(poly_order + 1):
                deriv_at = P.polyvander(u, poly_order - deriv) @ P.polyder(
                    np.eye(poly_order + 1), deriv) / h**deriv
                got = build(window, poly_order, deriv)
                for part, want in zip(got, (coef, deriv_at[h] @ coef, deriv_at)):
                    assert np.array_equal(part, want), (window, poly_order, deriv)


def test_quadratic_reproduced_window5_order2():
    t = np.linspace(0, 5, 40)
    s = TimeSeries(t, t**2)
    out = savgol_smooth(s, SavitzkyGolay(5, 2))
    np.testing.assert_allclose(out.values, s.values, atol=1e-10)


def test_constant_series_unchanged():
    s = TimeSeries(np.arange(30.0), np.full(30, 4.2))
    out = savgol_smooth(s, SavitzkyGolay(11, 4))
    np.testing.assert_allclose(out.values, 4.2, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    window=st.sampled_from([5, 7, 11, 21]),
    poly_order=st.sampled_from([2, 3, 4]),
    coefs=st.lists(st.floats(-2, 2), min_size=1, max_size=3),
)
def test_polynomial_reproduction_property(window, poly_order, coefs):
    # values and derivatives of any polynomial with degree <= poly_order are
    # reproduced exactly, including at the one-sided boundary fits
    degree = min(len(coefs) - 1, poly_order)
    poly = np.polynomial.Polynomial(coefs[: degree + 1])
    t = np.linspace(0, 3, 40)
    s = TimeSeries(t, poly(t))
    for order in range(0, min(poly_order, 3) + 1):
        expect = poly.deriv(order)(t) if order else poly(t)
        if order == 0:
            got = savgol_smooth(s, SavitzkyGolay(window, poly_order)).values
        else:
            got = savgol_derivative(s, SavitzkyGolay(window, poly_order), order).values
        np.testing.assert_allclose(got, expect, atol=1e-8)


def test_cubic_third_derivative_is_six():
    t = np.linspace(0, 4, 50)
    s = TimeSeries(t, t**3)
    out = savgol_derivative(s, SavitzkyGolay(7, 3), 3)
    interior = ~edge_mask(50, 7)
    np.testing.assert_allclose(out.values[interior], 6.0, atol=1e-8)


def test_exponential_first_derivative():
    t = np.arange(0, 20.0001, 0.1)
    s = TimeSeries(t, np.exp(0.1 * t))
    out = savgol_derivative(s, SavitzkyGolay(11, 4), 1)
    interior = ~edge_mask(t.size, 11)
    ratio = out.values[interior] / s.values[interior]
    np.testing.assert_allclose(ratio, 0.1, atol=1e-3)


def test_derivative_order_exceeds_poly():
    t = np.linspace(0, 5, 40)
    s = TimeSeries(t, t**2)
    with pytest.raises(ConfigError, match="derivative order 3 exceeds poly_order 2"):
        savgol_derivative(s, SavitzkyGolay(7, 2), 3)


def test_derivatives_out_of_range():
    s = TimeSeries(np.linspace(0, 5, 40), np.linspace(1, 2, 40))
    for order in (0, 4):
        with pytest.raises(ConfigError, match="1, 2 or 3"):
            savgol_derivative(s, SavitzkyGolay(11, 4), order)


def test_cubic_recovery():
    # a cubic lies in a poly_order-4 fit's model space, so its values and
    # derivatives 1-3 come back at every point, the one-sided edge fits too
    cubic = np.polynomial.Polynomial([1.0, -2.0, 0.5, 2.0])
    t = np.linspace(-2, 2, 60)
    s = TimeSeries(t, cubic(t))
    config = SavitzkyGolay(11, 4)
    np.testing.assert_allclose(savgol_smooth(s, config).values, cubic(t), atol=1e-9)
    for order in (1, 2, 3):
        got = savgol_derivative(s, config, order).values
        np.testing.assert_allclose(got, cubic.deriv(order)(t), atol=1e-9)


def test_window_too_large():
    s = TimeSeries(np.arange(9.0), np.arange(9.0) + 1)
    with pytest.raises(ConfigError, match="window 11 exceeds series length 9"):
        savgol_smooth(s, SavitzkyGolay(11, 2))


def test_memory_bounded_in_n():
    # the default window at n=20,000 is 2001; a dense n x n operator would
    # need 3.2 GB, the banded filter a few output-sized arrays. A detection's
    # permutation draw keeps only the first and last window - 1 columns the
    # statistic reads, 499 x 4000 intp (16 MB) at n=20,000, shuffled in one
    # 256 KB buffer: it peaked at 34 MB, against 58 MB with the whole 499 x n
    # index. At n=200 a detection with a warm operator and a fresh seed
    # peaked at 0.4 MB, against 1.2 MB with the whole index
    for n, estimate, bound_mb in ((20_000, estimate_derivatives, 8),
                                  (20_000, detection_signal, 8),
                                  (20_000, hybrid_detect, 40),
                                  (200, hybrid_detect, 0.6)):
        t = np.linspace(0.0, 20.0, n)
        series = TimeSeries(t, np.exp(0.1 * t + 0.002 * t**2))
        if n == 200:
            hybrid_detect(series)  # builds the operator
        tracemalloc.start()
        try:
            estimate(series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 1e6, f"{estimate.__name__} peaked at {peak / 1e6:.1f} MB at n={n}"


def test_default_savgol_scales_with_length():
    assert default_savgol(200).window == 21
    assert default_savgol(50).window == 11
    cfg = default_savgol(1000)
    assert cfg.window == 101 and cfg.window % 2 == 1
    assert default_savgol(11).window == 11
    with pytest.raises(DataError, match="10 points"):
        default_savgol(10)


def test_estimate_derivatives_needs_cubic_capable_order():
    t = np.linspace(0, 5, 60)
    s = TimeSeries(t, np.exp(t))
    with pytest.raises(ConfigError, match="third-derivative estimation needs poly_order >= 3"):
        estimate_derivatives(s, SavitzkyGolay(11, 2))


def test_edge_mask_width():
    mask = edge_mask(20, 11)
    assert mask[:5].all() and mask[-5:].all() and not mask[5:-5].any()


# --- log-space estimates and the C''' interval -------------------------------

def _logquadratic_c3(t, a, b):
    """C''' of exp(a t + b t^2)."""
    l1 = a + 2 * b * t
    return np.exp(a * t + b * t**2) * (6 * b * l1 + l1**3)


def test_noiseless_logquadratic_exact_with_near_zero_interval():
    t = np.linspace(0, 20, 200)
    truth = _logquadratic_c3(t, 0.1, 0.01)
    est = estimate_derivatives(TimeSeries(t, np.exp(0.1 * t + 0.01 * t**2)))
    assert np.max(np.abs(est.c3 - truth) / truth) <= 1e-10
    assert np.max((est.c3_hi - est.c3_lo) / truth) <= 1e-10
    assert np.all(est.c3_lo <= est.c3) and np.all(est.c3 <= est.c3_hi)


def test_derivatives_from_cubic_model():
    # log C cubic: within the default poly_order-4 fit, so C..C''' are exact
    # to rounding through the chain rule's L3 term, with a near-zero interval
    log_c = np.polynomial.Polynomial([0.0, 0.1, 0.01, -0.0003])
    t = np.linspace(0, 20, 200)
    c = np.exp(log_c(t))
    l1, l2, l3 = (log_c.deriv(k)(t) for k in (1, 2, 3))
    truth = {"c": c, "c1": c * l1, "c2": c * (l2 + l1**2),
             "c3": c * (l3 + 3 * l1 * l2 + l1**3)}
    est = estimate_derivatives(TimeSeries(t, c))
    for name, want in truth.items():
        scale = np.abs(want).max()
        assert np.abs(getattr(est, name) - want).max() <= 1e-10 * scale, name
    assert np.max(est.c3_hi - est.c3_lo) <= 1e-10 * np.abs(truth["c3"]).max()


def test_log_exponential_selects_linear():
    # log C of an exponential is linear, so the log-space curvature terms
    # vanish: C'/C = k, C''/C = k^2 and C'''/C = k^3 at every point
    t = np.linspace(0, 10, 50)
    est = estimate_derivatives(TimeSeries(t, 2.0 * np.exp(0.3 * t)))
    np.testing.assert_allclose(est.c, 2.0 * np.exp(0.3 * t), rtol=1e-12)
    for got, power in ((est.c1, 1), (est.c2, 2), (est.c3, 3)):
        np.testing.assert_allclose(got / est.c, 0.3**power, rtol=1e-10)


def test_derivatives_from_quadratic_model_zero_c3():
    # log C = 3 + 0.1 t + 0.01 t^2, centred to mean zero before filtering:
    # L1 = 0.1 + 0.02 t, L2 = 0.02 and L3 = 0 at every point; the filter
    # works per grid step, so the k-th derivative is divided by dt^k
    t = np.linspace(0, 20, 200)
    s = TimeSeries(t, np.exp(3.0 + 0.1 * t + 0.01 * t**2))
    centred, per_step = _filter_log(s.log_values, default_savgol(200), (1, 2, 3))
    l1, l2, l3 = (lk / s.dt**k for k, lk in enumerate(per_step, start=1))
    assert abs(centred.mean()) <= 1e-12
    np.testing.assert_allclose(l1, 0.1 + 0.02 * t, atol=1e-11)
    np.testing.assert_allclose(l2, 0.02, atol=1e-11)
    np.testing.assert_allclose(l3, 0.0, atol=1e-11)


def test_insufficient_data():
    s = TimeSeries(np.arange(10.0), np.exp(0.1 * np.arange(10.0)))
    with pytest.raises(DataError, match="10 points"):
        estimate_derivatives(s)
    with pytest.raises(ConfigError, match="window 11 exceeds series length 10"):
        estimate_derivatives(s, SavitzkyGolay(11, 4))


# Over 40 blocks of 100 series (seeds 0-3999), every third at every level
# covered 0.926-0.966 of interior points, with a block SD of at most 0.006;
# the bounds sit about 3 SD beyond those extremes.
@pytest.mark.parametrize("a, b", [(0.1, 0.01), (0.05, 0.005)])
@pytest.mark.parametrize("level", ["low", "medium", "high"])
def test_c3_interval_covers_truth_in_each_third(a, b, level):
    grid = GridSpec()
    truth = _logquadratic_c3(grid.times(), a, b)
    inside = []
    for seed in range(100):
        spec = GrowthModelSpec(LogQuadratic(1.0, a, b), grid, NoiseSpec(level, seed=seed))
        est = estimate_derivatives(generate(spec)[0])
        inside.append(((est.c3_lo <= truth) & (truth <= est.c3_hi))[~est.edge_mask])
    for third in np.array_split(np.array(inside), 3, axis=1):
        assert 0.91 <= third.mean() <= 0.98
