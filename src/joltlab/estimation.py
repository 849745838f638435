"""Smoothing, curve fitting and derivative estimation up to third order.

Savitzky-Golay filtering is one least-squares polynomial projection per
window on a uniform grid: a (poly_order+1) x window pseudo-inverse maps a
window of values to its fitted polynomial, whose derivative at the window
centre is the interior convolution kernel. The window//2 boundary points at
each end evaluate the fit of the first or last full window at their own
offsets (Gorry, Anal. Chem. 62:570, 1990), so the filter takes O(n * window)
time and no working array larger than the window beside its output. The
boundary points are flagged in an edge mask so downstream consumers can
exclude them.

Derivatives of a capability series come from log C, filtered once per order
(the detector filters it through the same helper), with a closed-form
delta-method 95% interval on C'''.

Model fitting is one linear least-squares fit of a basis with closed-form
derivatives: the power columns of a polynomial, or a cubic plus one
truncated power per interior knot for a least-squares cubic spline. AIC,
BIC or blocked cross-validation selects among the candidates, and C', C''
and C''' come analytically from the fitted coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import polynomial as P

from .errors import (
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
from .timeseries import TimeSeries, uniform_spacing, validate

DERIVATIVE_CSV_HEADER = "t,c,c1,c2,c3,c3_lo,c3_hi,edge"


@dataclass(frozen=True)
class SavitzkyGolay:
    """Local polynomial smoother config: odd window >= 5, poly_order < window."""

    window: int = 11
    poly_order: int = 4

    def __post_init__(self):
        if self.window < 5 or self.window % 2 == 0:
            raise InvalidOrder("window must be an odd integer >= 5")
        if not 0 <= self.poly_order < self.window:
            raise InvalidOrder("poly_order must satisfy 0 <= poly_order < window")


_MIN_DEFAULT_WINDOW = SavitzkyGolay.window


def default_savgol(n: int, poly_order: int = SavitzkyGolay.poly_order) -> SavitzkyGolay:
    """Default detection pipeline smoother: window = max(11, ~n/10, odd).

    A series shorter than the window floor of 11 has no default smoother:
    it raises SeriesTooShort naming n rather than shrinking the window until
    every point is a boundary point.
    """
    if n < _MIN_DEFAULT_WINDOW:
        raise SeriesTooShort(
            f"series has {n} points; the default smoother needs at least "
            f"{_MIN_DEFAULT_WINDOW}"
        )
    w = int(round(n / 10))
    if w % 2 == 0:
        w += 1
    w = max(_MIN_DEFAULT_WINDOW, w)
    w = min(w, n if n % 2 == 1 else n - 1)
    return SavitzkyGolay(window=w, poly_order=poly_order)


@dataclass
class DerivativeEstimate:
    """Per-point estimates of C, C', C'', C''' with a 95% CI on C'''."""

    times: np.ndarray
    c: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    c3_lo: np.ndarray
    c3_hi: np.ndarray
    edge_mask: np.ndarray

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(DERIVATIVE_CSV_HEADER + "\n")
            for i in range(self.times.size):
                fh.write(
                    f"{self.times[i]:.17g},{self.c[i]:.17g},{self.c1[i]:.17g},"
                    f"{self.c2[i]:.17g},{self.c3[i]:.17g},{self.c3_lo[i]:.17g},"
                    f"{self.c3_hi[i]:.17g},{int(self.edge_mask[i])}\n"
                )


# --- Savitzky-Golay core ------------------------------------------------------

@lru_cache(maxsize=64)
def _savgol_operator(window: int, poly_order: int, deriv: int):
    """(coef, kernel, deriv_at) of the ``deriv``-th SavGol filter.

    ``coef`` ((poly_order+1) x window) maps one window of values to the
    coefficients of its least-squares polynomial in u = (j - h)/h, h =
    window//2; scaling the offsets into [-1, 1] keeps the pseudo-inverse well
    conditioned. Row j of ``deriv_at`` (window x (poly_order+1)) evaluates
    the fit's index-space derivative at offset j, so ``deriv_at[j] @ coef`` is
    the filter row of a point at offset j; ``kernel`` is the centre row.
    """
    if deriv > poly_order:
        raise OrderExceedsPoly(
            f"derivative order {deriv} exceeds poly_order {poly_order}"
        )
    h = window // 2
    u = (np.arange(window) - h) / h
    coef = np.linalg.pinv(P.polyvander(u, poly_order))
    # d/dj = (1/h) d/du
    deriv_at = P.polyvander(u, poly_order - deriv) @ P.polyder(np.eye(poly_order + 1), deriv)
    deriv_at /= h**deriv
    parts = (coef, deriv_at[h] @ coef, deriv_at)
    for part in parts:
        part.setflags(write=False)
    return parts


def _savgol_filter(x: np.ndarray, window: int, poly_order: int, deriv: int) -> np.ndarray:
    """Index-space SavGol output along the last axis of ``x``.

    Interior points correlate the centre kernel with a strided view of ``x``
    (nothing is copied). The h points at each end take the least-squares fit
    of the first or last full window, evaluated at their own offsets (Gorry's
    edge-point method), so they keep the interior's polynomial degree and
    polynomial exactness.
    """
    n = x.shape[-1]
    if window > n:
        raise WindowTooLarge(f"window {window} exceeds series length {n}")
    coef, kernel, deriv_at = _savgol_operator(window, poly_order, deriv)
    h = window // 2
    out = np.empty(x.shape)
    out[..., h : n - h] = sliding_window_view(x, window, axis=-1) @ kernel
    out[..., :h] = (x[..., :window] @ coef.T) @ deriv_at[:h].T
    out[..., n - h :] = (x[..., n - window :] @ coef.T) @ deriv_at[h + 1 :].T
    return out


def savgol_weights(window: int, poly_order: int, deriv: int = 0) -> np.ndarray:
    """Center-point weights of the interior SavGol filter (index space).

    They are the ``deriv``-th derivative, at the window centre, of the window's
    least-squares polynomial, as a linear map of the window's values. The
    returned array is read-only.
    """
    cfg = SavitzkyGolay(window, poly_order)
    return _savgol_operator(cfg.window, cfg.poly_order, deriv)[1]


def savgol_apply(series: TimeSeries, config: SavitzkyGolay, deriv: int = 0) -> np.ndarray:
    """SavGol output values (derivative ``deriv``) in physical time units."""
    validate(series)
    dt = uniform_spacing(series)
    return _savgol_filter(series.values, config.window, config.poly_order, deriv) / dt**deriv


def savgol_smooth(series: TimeSeries, config: SavitzkyGolay) -> TimeSeries:
    return series.with_values(savgol_apply(series, config, 0))


def savgol_derivative(series: TimeSeries, config: SavitzkyGolay, order: int) -> TimeSeries:
    if order not in (1, 2, 3):
        raise InvalidOrder("derivative order must be 1, 2 or 3")
    return series.with_values(savgol_apply(series, config, order))


def edge_mask(n: int, window: int) -> np.ndarray:
    """Boolean mask of the first/last window//2 boundary-affected points."""
    h = window // 2
    mask = np.zeros(n, dtype=bool)
    mask[:h] = True
    mask[n - h :] = True
    return mask


def _filter_log(logv: np.ndarray, config: SavitzkyGolay, dt: float, orders):
    """Centred log C and its SavGol derivatives of ``orders`` (physical units),
    the one place log C is filtered. Centring first keeps a value scale out
    of the derivatives and of rounding floors taken from the centred values."""
    logv, w, p = logv - logv.mean(), config.window, config.poly_order
    return logv, [_savgol_filter(logv, w, p, k) / dt**k for k in orders]


def _resid_scale(n: int, window: int, poly_order: int) -> float:
    """sqrt(n / (n - 2 tr M0 + sum M0^2)), the degrees-of-freedom correction
    that turns the RMS of the smoother M0's residuals into a noise SD.

    One window's least-squares projection is symmetric idempotent (trace and
    squared Frobenius norm both p+1) and its rows are M0's h edge rows at
    each end plus the centre row c0, which M0's other n-2h-1 rows repeat. So
    tr M0 = p+1 + (n-2h-1) c0[h] and sum M0^2 = p+1 + (n-2h-1) |c0|^2.
    """
    h = window // 2
    c0 = savgol_weights(window, poly_order, 0)
    repeats = n - 2 * h - 1
    nu = poly_order + 1 + repeats * float(c0[h])
    nu2 = poly_order + 1 + repeats * float(c0 @ c0)
    return math.sqrt(n / max(n - 2.0 * nu + nu2, 1.0))


def estimate_derivatives(
    series: TimeSeries, config: SavitzkyGolay | None = None
) -> DerivativeEstimate:
    """SavGol estimates of C..C''' from log C, with a 95% interval on C'''.

    L = log C is filtered once per order k = 0..3, and the chain rule gives
    C = exp(L0), C' = C L1, C'' = C (L2 + L1^2) and
    C''' = C (L3 + 3 L1 L2 + L1^3). So C is positive, an exponential has
    J_N = 1, and a log-quadratic is exact up to rounding.

    The interval is the delta method: the half-width is 1.96 sigma |g|, g
    being the gradient of C''' with respect to log C,
    C''' k0 + 3C (L2 + L1^2) k1 + 3C L1 k2 + C k3 for the point's deriv-m
    filter rows k_m, and sigma the noise SD of log C (homoscedastic under
    multiplicative noise): the RMS of log C - L0 times :func:`_resid_scale`.
    Each k_m is ``deriv_at[j] @ coef`` at the point's offset j in its window,
    so g = b @ coef for a (poly_order+1)-vector b, and |g|^2 = b coef coef^T b^T
    takes O(n (poly_order+1)^2) time and memory.
    """
    validate(series, require_positive=True)
    n = len(series)
    if config is None:
        config = default_savgol(n)
    w, p = config.window, config.poly_order
    if p < 3:
        raise OrderExceedsPoly("third-derivative estimation needs poly_order >= 3")
    dt = uniform_spacing(series)
    logv = np.log(series.values)
    centred, (l0, l1, l2, l3) = _filter_log(logv, config, dt, range(4))
    c = np.exp(l0 + logv.mean())
    c2_over_c = l2 + l1**2
    c3 = c * (l3 + 3 * l1 * l2 + l1**3)
    gradient = (c3, 3 * c * c2_over_c, 3 * c * l1, c)
    # each point's offset in the window whose fit it is evaluated from
    offset = np.arange(n) - np.clip(np.arange(n) - w // 2, 0, n - w)
    b = sum(g[:, None] * _savgol_operator(w, p, m)[2][offset] / dt**m
            for m, g in enumerate(gradient))
    coef = _savgol_operator(w, p, 0)[0]
    sigma = float(np.sqrt(np.mean((centred - l0) ** 2))) * _resid_scale(n, w, p)
    half = 1.96 * sigma * np.sqrt(np.einsum("ij,jk,ik->i", b, coef @ coef.T, b))
    return DerivativeEstimate(
        times=series.times,
        c=c, c1=c * l1, c2=c * c2_over_c, c3=c3,
        c3_lo=c3 - half, c3_hi=c3 + half,
        edge_mask=edge_mask(n, w),
    )


# --- LOESS --------------------------------------------------------------------

def loess_smooth(series: TimeSeries, span: float = 0.3) -> TimeSeries:
    """Local linear regression with tricube weights over a span fraction.

    Smoothing only; third derivatives always come from SavGol or analytic
    model differentiation.
    """
    validate(series)
    t, v = series.times, series.values
    n = t.size
    if span * n < 4:
        raise SpanTooSmall(f"span*n = {span * n:.2f} < 4")
    k = max(int(math.ceil(span * n)), 2)
    out = np.empty(n)
    for i in range(n):
        d = np.abs(t - t[i])
        idx = np.argpartition(d, k - 1)[:k]
        dmax = d[idx].max()
        if dmax == 0:
            out[i] = v[idx].mean()
            continue
        w = (1.0 - (d[idx] / dmax) ** 3) ** 3
        w = np.clip(w, 0.0, None)
        x = t[idx] - t[i]
        sw, swx = w.sum(), (w * x).sum()
        swxx, swy, swxy = (w * x * x).sum(), (w * v[idx]).sum(), (w * x * v[idx]).sum()
        denom = sw * swxx - swx * swx
        if denom <= 0:
            out[i] = swy / sw
        else:
            out[i] = (swxx * swy - swx * swxy) / denom
    return series.with_values(out)


# --- model fitting and selection ----------------------------------------------

@dataclass(frozen=True)
class PolynomialModel:
    degree: int

    @property
    def n_params(self):
        return self.degree + 1


@dataclass(frozen=True)
class CubicSplineModel:
    knots: int  # number of interior knots

    @property
    def n_params(self):
        return self.knots + 4


@dataclass
class FitDiagnostics:
    spec: object
    n_params: int
    rss: float
    aic: float
    bic: float
    cv: float


@dataclass
class FitModel:
    """A fitted, thrice-differentiable model with selection diagnostics."""

    spec: object
    t_range: tuple
    rss: float
    aic: float
    bic: float
    cv: float
    candidates: list
    basis_coef: np.ndarray = field(repr=False)  # of _basis over t_range
    coefficients: np.ndarray | None = None  # a polynomial's, in powers of t

    def predict(self, times, order: int = 0) -> np.ndarray:
        x, half = _unit(np.ravel(times), self.t_range)
        values = _basis(x, self.spec, order) @ self.basis_coef / half**order
        return values.reshape(np.shape(times))


def _unit(t, t_range):
    """x = (t - mid) / half in [-1, 1] over ``t_range``, and the half-span."""
    lo, hi = t_range
    half = (hi - lo) / 2
    return (np.asarray(t, dtype=float) - (lo + hi) / 2) / half, half


def _basis(x, spec, m):
    """The m-th x-derivative of the model's basis columns at x.

    A degree-p polynomial has the columns 1, x, ..., x^p. A cubic spline adds
    to the cubic's columns one truncated power (x - knot)_+^3 per interior
    knot, evenly spaced on (-1, 1): the same space as the cubic B-splines on
    those knots (de Boor, A Practical Guide to Splines, ch. IX). ``d >= 0``
    makes the spline's third derivative right-continuous at a knot.
    """
    if isinstance(spec, PolynomialModel):
        p, knots = spec.degree, np.empty(0)
    elif isinstance(spec, CubicSplineModel):
        p, knots = 3, np.linspace(-1.0, 1.0, spec.knots + 2)[1:-1]
    else:
        raise InvalidSpec(f"unknown model kind {type(spec).__name__}")
    poly = P.polyvander(x, max(p - m, 0)) @ P.polyder(np.eye(p + 1), m)
    d = x[:, None] - knots
    return np.hstack([poly, math.perm(3, m) * (d >= 0) * np.maximum(d, 0) ** (3 - m)])


def _fit_one(t, v, spec):
    """Least-squares basis coefficients of ``spec`` on (t, v), and the RSS."""
    design = _basis(_unit(t, (t[0], t[-1]))[0], spec, 0)
    coef, _, _, sv = np.linalg.lstsq(design, v, rcond=None)
    if sv[0] > 1e12 * sv[-1]:
        raise IllConditioned(f"design condition number {sv[0] / sv[-1]:.3g} > 1e12")
    resid = v - design @ coef
    return coef, float(resid @ resid)


def _blocked_cv(t, v, spec, folds=5):
    n = t.size
    blocks = np.array_split(np.arange(n), folds)
    errs = []
    for block in blocks:
        train = np.setdiff1d(np.arange(n), block)
        if train.size < spec.n_params + 1:
            return math.inf
        try:
            coef, _ = _fit_one(t[train], v[train], spec)
        except (IllConditioned, np.linalg.LinAlgError):
            return math.inf
        x = _unit(t[block], (t[train[0]], t[train[-1]]))[0]
        errs.append(float(np.mean((v[block] - _basis(x, spec, 0) @ coef) ** 2)))
    return float(np.mean(errs))


def fit_model(
    series: TimeSeries,
    candidates=None,
    criterion: str = "bic",
    cv_folds: int = 5,
) -> FitModel:
    """Fit all candidates by least squares and keep the criterion minimizer.

    ``criterion`` is one of "aic", "bic" (default) or "cv" (contiguous-block
    k-fold cross-validation). Diagnostics for every candidate are retained on
    the returned model. Candidates that tie on the criterion, such as exact
    fits under cv, go to the one with the fewest parameters.
    """
    validate(series)
    if candidates is None:
        candidates = [PolynomialModel(d) for d in range(1, 7)]
    if not candidates:
        raise InvalidSpec("fit_model needs at least one candidate model")
    t, v = series.times, series.values
    n = t.size
    max_params = max(c.n_params for c in candidates)
    if n < max_params + 2:
        raise InsufficientData(
            f"n = {n} < max candidate parameter count + 2 = {max_params + 2}"
        )
    if criterion not in ("aic", "bic", "cv"):
        raise InvalidSpec(f"unknown selection criterion {criterion!r}")
    # RSS/n and the CV error are floored at the data's squared numerical
    # precision, so exact fits of different sizes tie and the parameter count
    # decides; the bound on the RMS keeps the floor positive for all-zero data
    floor = (1e-12 * max(float(np.sqrt(np.mean(v * v))), 1e-100)) ** 2

    diags, fits = [], {}
    errors = []
    for spec in candidates:
        try:
            fits[id(spec)], rss = _fit_one(t, v, spec)
        except IllConditioned as exc:
            errors.append(exc)
            continue
        # -2 x Gaussian log-likelihood, up to constants
        misfit = n * math.log(max(rss / n, floor))
        aic, bic = misfit + 2 * spec.n_params, misfit + spec.n_params * math.log(n)
        cv = max(_blocked_cv(t, v, spec, cv_folds), floor)
        diags.append(FitDiagnostics(spec, spec.n_params, rss, aic, bic, cv))
    if not diags:
        raise errors[0]

    best = min(diags, key=lambda d: (getattr(d, criterion), d.n_params))
    t_range = (float(t[0]), float(t[-1]))
    coef = fits[id(best.spec)]
    is_poly = isinstance(best.spec, PolynomialModel)
    return FitModel(
        spec=best.spec,
        t_range=t_range,
        rss=best.rss, aic=best.aic, bic=best.bic, cv=best.cv,
        candidates=diags,
        basis_coef=coef,
        coefficients=P.Polynomial(coef, domain=t_range).convert().coef if is_poly else None,
    )


def derivatives_from_model(model: FitModel, times) -> DerivativeEstimate:
    """Analytic derivatives of a fitted model on a grid within its range. The
    C''' bounds equal the estimate: a fitted model carries no noise model."""
    times = np.asarray(times, dtype=float)
    lo, hi = model.t_range
    tol = 1e-9 * max(abs(lo), abs(hi), 1.0)
    if times.min() < lo - tol or times.max() > hi + tol:
        raise OutOfRange("grid extends beyond the fitted range")
    c, c1, c2, c3 = (model.predict(times, order) for order in range(4))
    return DerivativeEstimate(
        times=times,
        c=c, c1=c1, c2=c2, c3=c3,
        c3_lo=c3.copy(), c3_hi=c3.copy(),
        edge_mask=np.zeros(times.size, dtype=bool),
    )
