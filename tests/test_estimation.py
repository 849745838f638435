import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from joltlab.detector import detection_signal
from joltlab.errors import (
    IllConditioned,
    InsufficientData,
    InvalidOrder,
    InvalidSpec,
    OrderExceedsPoly,
    OutOfRange,
    SeriesTooShort,
    SpanTooSmall,
    WindowTooLarge,
)
from joltlab.estimation import (
    CubicSplineModel,
    PolynomialModel,
    SavitzkyGolay,
    _savgol_filter,
    bootstrap_derivative_ci,
    default_savgol,
    derivatives_from_model,
    edge_mask,
    estimate_derivatives,
    fit_model,
    loess_smooth,
    savgol_apply,
    savgol_derivative,
    savgol_smooth,
    savgol_weights,
)
from joltlab.growth import NoiseSpec, add_noise
from joltlab.timeseries import TimeSeries
from savgol_oracle import dense_savgol


# --- Savitzky-Golay -----------------------------------------------------------

def test_savgol_config_contracts():
    with pytest.raises(InvalidOrder):
        SavitzkyGolay(window=4)
    with pytest.raises(InvalidOrder):
        SavitzkyGolay(window=3)
    with pytest.raises(InvalidOrder):
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
    with pytest.raises(OrderExceedsPoly):
        savgol_derivative(s, SavitzkyGolay(7, 2), 3)


def test_window_too_large():
    s = TimeSeries(np.arange(9.0), np.arange(9.0) + 1)
    with pytest.raises(WindowTooLarge, match="window 11 exceeds series length 9"):
        savgol_smooth(s, SavitzkyGolay(11, 2))


def test_memory_bounded_in_n():
    # the default window at n=20,000 is 2001; a dense n x n operator would
    # need 3.2 GB, the banded filter a few output-sized arrays
    n = 20_000
    t = np.linspace(0.0, 20.0, n)
    series = TimeSeries(t, np.exp(0.1 * t + 0.002 * t**2))
    for estimate in (estimate_derivatives, detection_signal):
        tracemalloc.start()
        try:
            estimate(series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6, f"{estimate.__name__} peaked at {peak / 1e6:.1f} MB"


def test_default_savgol_scales_with_length():
    assert default_savgol(200).window == 21
    assert default_savgol(50).window == 11
    cfg = default_savgol(1000)
    assert cfg.window == 101 and cfg.window % 2 == 1
    assert default_savgol(11).window == 11
    with pytest.raises(SeriesTooShort, match="10 points"):
        default_savgol(10)


def test_estimate_derivatives_needs_cubic_capable_order():
    t = np.linspace(0, 5, 60)
    s = TimeSeries(t, np.exp(t))
    with pytest.raises(OrderExceedsPoly):
        estimate_derivatives(s, SavitzkyGolay(11, 2))


def test_edge_mask_width():
    mask = edge_mask(20, 11)
    assert mask[:5].all() and mask[-5:].all() and not mask[5:-5].any()


# --- LOESS --------------------------------------------------------------------

def test_loess_reproduces_lines():
    t = np.linspace(0, 10, 80)
    s = TimeSeries(t, 3.0 * t - 1.0)
    out = loess_smooth(s, span=0.4)
    np.testing.assert_allclose(out.values, s.values, atol=1e-9)


def test_loess_constant_unchanged():
    s = TimeSeries(np.arange(50.0), np.full(50, 2.5))
    out = loess_smooth(s, span=0.3)
    np.testing.assert_allclose(out.values, 2.5, atol=1e-9)


def test_loess_reduces_noise():
    t = np.linspace(0, 20, 200)
    clean = np.exp(0.1 * t)
    noisy = add_noise(TimeSeries(t, clean), NoiseSpec(sigma_rel=0.05, seed=7))
    out = loess_smooth(noisy, span=0.3)
    rms_in = np.sqrt(np.mean((noisy.values - clean) ** 2))
    rms_out = np.sqrt(np.mean((out.values - clean) ** 2))
    assert rms_out < rms_in


def test_loess_span_too_small():
    s = TimeSeries(np.arange(10.0), np.arange(10.0))
    with pytest.raises(SpanTooSmall):
        loess_smooth(s, span=0.2)


# --- model fitting and selection ----------------------------------------------

def test_cubic_recovery():
    t = np.linspace(-2, 2, 60)
    v = 1.0 - 2.0 * t + 0.5 * t**2 + 2.0 * t**3
    model = fit_model(TimeSeries(t, v), [PolynomialModel(d) for d in range(1, 7)])
    assert model.spec == PolynomialModel(3)
    np.testing.assert_allclose(model.coefficients, [1.0, -2.0, 0.5, 2.0], atol=1e-8)
    assert model.predict(0.5, 1) == pytest.approx(-2.0 + 0.5 + 6.0 * 0.25)


def test_log_exponential_selects_linear():
    t = np.linspace(0, 10, 50)
    logv = np.log(2.0 * np.exp(0.3 * t))
    model = fit_model(TimeSeries(t, logv), [PolynomialModel(2), PolynomialModel(1)])
    assert model.spec == PolynomialModel(1)


def test_insufficient_data():
    s = TimeSeries([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(InsufficientData):
        fit_model(s, [PolynomialModel(5)])


@pytest.mark.parametrize("spec", [PolynomialModel(40), CubicSplineModel(8)])
def test_ill_conditioned_design_rejected(spec):
    # a degree-40 power basis; spline knots in a gap with no data
    t = np.concatenate([np.linspace(0, 1, 35), np.linspace(4, 5, 35)])
    with pytest.raises(IllConditioned, match="condition number"):
        fit_model(TimeSeries(t, np.exp(t)), [spec])
    model = fit_model(TimeSeries(t, np.exp(t)), [spec, PolynomialModel(3)])
    assert model.spec == PolynomialModel(3)
    assert [d.spec for d in model.candidates] == [PolynomialModel(3)]


def test_unknown_criterion_rejected():
    t = np.linspace(0, 5, 30)
    with pytest.raises(InvalidSpec):
        fit_model(TimeSeries(t, t), [PolynomialModel(1), PolynomialModel(2)], criterion="r2")


def test_cv_criterion_runs():
    t = np.linspace(0, 5, 60)
    v = t**2 + 0.1 * np.sin(t)
    model = fit_model(TimeSeries(t, v), [PolynomialModel(d) for d in (1, 2, 3)], criterion="cv")
    assert model.spec.degree >= 2
    assert len(model.candidates) == 3


def test_cv_prefers_fewest_parameters_among_exact_fits():
    # every degree >= 2 fits 1 + t + t^2 to rounding; the CV error's precision
    # floor makes them tie, and the smallest model wins whatever the order
    candidates = [PolynomialModel(d) for d in range(6, 0, -1)]
    for n in range(30, 130):
        t = np.linspace(0, 5, n)
        model = fit_model(TimeSeries(t, 1 + t + t**2), candidates, criterion="cv")
        assert model.spec == PolynomialModel(2), n


@pytest.mark.parametrize("criterion", ["aic", "bic", "cv"])
def test_all_zero_series_selects_smallest_model(criterion):
    t = np.linspace(0, 5, 40)
    model = fit_model(TimeSeries(t, np.zeros(40)), None, criterion=criterion)
    assert model.spec == PolynomialModel(1)
    np.testing.assert_array_equal(model.predict(t, 1), 0.0)


def test_derivatives_from_cubic_model():
    t = np.linspace(-1, 1, 40)
    model = fit_model(TimeSeries(t, t**3), [PolynomialModel(3)])
    d = derivatives_from_model(model, t)
    np.testing.assert_allclose(d.c3, 6.0, atol=1e-8)


def test_derivatives_from_quadratic_model_zero_c3():
    t = np.linspace(-1, 1, 40)
    model = fit_model(TimeSeries(t, 1 + t**2), [PolynomialModel(2)])
    d = derivatives_from_model(model, t)
    np.testing.assert_allclose(d.c3, 0.0, atol=1e-10)


def test_spline_third_derivative_of_cubic():
    t = np.linspace(0, 5, 50)
    model = fit_model(TimeSeries(t, t**3), [CubicSplineModel(4)])
    interior = np.linspace(1, 4, 30)
    d = derivatives_from_model(model, interior)
    np.testing.assert_allclose(d.c3, 6.0, atol=1e-6)
    assert model.predict(2.5) == pytest.approx(2.5**3)


@pytest.mark.parametrize("n, knots", [
    (n, k) for n in (20, 200, 1000) for k in (1, 2, 4, 8, 16)
    if n >= CubicSplineModel(k).n_params + 2
])
def test_spline_matches_fitpack(n, knots):
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(10 * n + knots)
    t = 1000.0 + np.linspace(0.0, 7.0, n)
    v = 1e6 * (np.sin(t) + np.exp(0.2 * (t - 1000.0)) + 0.1 * rng.standard_normal(n))
    model = fit_model(TimeSeries(t, v), [CubicSplineModel(knots)])
    interior = np.linspace(t[0], t[-1], knots + 2)[1:-1]
    reference = interpolate.LSQUnivariateSpline(t, v, interior, k=3)
    # midpoints of a grid whose nodes include every knot, so none is a knot
    grid = np.linspace(t[0], t[-1], 64 * (knots + 1) + 1)
    at = np.concatenate([[t[0]], (grid[:-1] + grid[1:]) / 2, [t[-1]]])
    for order in range(4):
        want = reference(at) if order == 0 else reference.derivative(order)(at)
        got = model.predict(at, order)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), order


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(40, 300),
    offset=st.floats(-1000, 1000),
    span=st.floats(0.5, 100),
    degree=st.integers(1, 6),
    knots=st.integers(1, 8),
    data=st.data(),
)
def test_fit_reproduces_its_own_model_space(n, offset, span, degree, knots, data):
    # a polynomial of degree <= d, and a cubic spline on the model's own
    # knots, are fitted exactly: values and derivatives 1-3 over the range
    t = offset + np.linspace(0.0, span, n)
    domain = [t[0], t[-1]]

    def coefs(size):
        return data.draw(st.lists(st.floats(-1, 1), min_size=size, max_size=size))

    poly = np.polynomial.Polynomial(coefs(data.draw(st.integers(1, degree + 1))), domain)
    # the spline's pieces: past each knot, one more c * (x - knot)^3 in the
    # unit coordinate x the domain maps to [-1, 1]
    pieces = [np.polynomial.Polynomial(coefs(4), domain)]
    for c, knot in zip(coefs(knots), np.linspace(-1.0, 1.0, knots + 2)[1:-1]):
        pieces.append(pieces[-1] + c * np.polynomial.Polynomial([-knot, 1.0], domain) ** 3)
    knot_t = np.linspace(t[0], t[-1], knots + 2)[1:-1]
    # check points include both ends and stay off the knots, where the third
    # derivative jumps
    at = np.linspace(t[0], t[-1], 301)
    at = at[np.all(np.abs(at[:, None] - knot_t) > 1e-6 * span, axis=1)]

    def spline(x, order):
        which = np.searchsorted(knot_t, x, side="right")
        return np.choose(which, [p.deriv(order)(x) for p in pieces])

    cases = [
        (PolynomialModel(degree), lambda x, order: poly.deriv(order)(x)),
        (CubicSplineModel(knots), spline),
    ]
    half = span / 2
    for spec, truth in cases:
        v = truth(t, 0)
        model = fit_model(TimeSeries(t, v), [spec])
        for order in range(4):
            want = truth(at, order)
            # rounding in the m-th derivative scales as the values / half^m
            tol = 1e-9 * max(np.abs(want).max(), np.abs(v).max() / half**order)
            assert np.abs(model.predict(at, order) - want).max() <= tol, (spec, order)


def test_derivatives_out_of_range():
    t = np.linspace(0, 5, 40)
    model = fit_model(TimeSeries(t, t**2), [PolynomialModel(2)])
    with pytest.raises(OutOfRange):
        derivatives_from_model(model, np.linspace(0, 6, 10))


# --- bootstrap ----------------------------------------------------------------

def test_bootstrap_degenerate_on_noiseless_polynomial():
    t = np.linspace(0, 20, 200)
    s = TimeSeries(t, 1.0 + t + 0.5 * t**2)
    est = bootstrap_derivative_ci(s, n_boot=300, seed=0)
    interior = ~est.edge_mask
    width = est.c3_hi[interior] - est.c3_lo[interior]
    assert np.max(width) < 1e-6


def test_bootstrap_coverage_on_noisy_exponential():
    t = np.linspace(0, 20, 200)
    truth = 0.1**3 * np.exp(0.1 * t)
    base = TimeSeries(t, np.exp(0.1 * t))
    fracs = []
    for seed in range(20):
        noisy = add_noise(base, NoiseSpec(sigma_rel=0.05, seed=seed))
        est = bootstrap_derivative_ci(noisy, n_boot=300, seed=seed)
        interior = ~est.edge_mask
        inside = (truth >= est.c3_lo) & (truth <= est.c3_hi)
        fracs.append(inside[interior].mean())
    assert np.mean(fracs) >= 0.9


def test_bootstrap_determinism():
    t = np.linspace(0, 20, 150)
    noisy = add_noise(TimeSeries(t, np.exp(0.1 * t)), NoiseSpec(sigma_rel=0.05, seed=1))
    a = bootstrap_derivative_ci(noisy, n_boot=250, seed=9)
    b = bootstrap_derivative_ci(noisy, n_boot=250, seed=9)
    np.testing.assert_array_equal(a.c3_lo, b.c3_lo)
    np.testing.assert_array_equal(a.c3_hi, b.c3_hi)


def test_bootstrap_minimum_replicates():
    t = np.linspace(0, 20, 100)
    with pytest.raises(InvalidSpec):
        bootstrap_derivative_ci(TimeSeries(t, np.exp(0.1 * t)), n_boot=100)


def test_ci_contains_point_estimate():
    t = np.linspace(0, 20, 200)
    noisy = add_noise(TimeSeries(t, np.exp(0.1 * t)), NoiseSpec(sigma_rel=0.1, seed=4))
    est = bootstrap_derivative_ci(noisy, n_boot=300, seed=4)
    assert np.all(est.c3_lo <= est.c3)
    assert np.all(est.c3_hi >= est.c3)
