"""Smoothing, curve fitting and derivative estimation up to third order.

Savitzky-Golay filtering is implemented from first principles as local
least-squares polynomial projection on a uniform grid. Interior points use
centered windows; boundary points use one-sided fits over a shrunken window
and are flagged in an edge mask so downstream consumers can exclude them.

Model fitting (polynomials, least-squares cubic splines) uses orthogonalizing
factorizations throughout, with AIC/BIC/blocked-CV model selection, and
derivatives taken analytically from the fitted model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.interpolate import LSQUnivariateSpline
from scipy.stats import t as t_dist

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


@dataclass(frozen=True)
class Loess:
    span: float = 0.3

    def __post_init__(self):
        if not 0 < self.span <= 1:
            raise InvalidSpec("loess span must lie in (0, 1]")


_MIN_DEFAULT_WINDOW = 11


def default_savgol(n: int, poly_order: int = 4) -> SavitzkyGolay:
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

def _ls_weights(m: int, poly_order: int, deriv: int, eval_idx: int) -> np.ndarray:
    """Least-squares projection weights for the ``deriv``-th derivative of a
    degree-``poly_order`` fit over ``m`` points, evaluated at ``eval_idx``.

    The index offsets are integers, so the normal equations are solved in
    exact rational arithmetic; the returned weights are correct to the last
    double-precision bit (the filter reproduces polynomials exactly).
    """
    if deriv > poly_order:
        return np.zeros(m)
    from fractions import Fraction

    k = poly_order + 1
    offsets = [j - eval_idx for j in range(m)]
    gram = [
        [Fraction(sum(x ** (p + q) for x in offsets)) for q in range(k)]
        for p in range(k)
    ]
    rhs = [Fraction(1 if p == deriv else 0) for p in range(k)]
    # Gaussian elimination with partial pivoting over the rationals
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(gram[r][col]))
        gram[col], gram[piv] = gram[piv], gram[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = Fraction(1, 1) / gram[col][col]
        for r in range(k):
            if r == col:
                continue
            factor = gram[r][col] * inv
            gram[r] = [a - factor * b for a, b in zip(gram[r], gram[col])]
            rhs[r] -= factor * rhs[col]
    coef = [rhs[p] / gram[p][p] for p in range(k)]
    fact = math.factorial(deriv)
    return np.array(
        [float(fact * sum(coef[p] * x**p for p in range(k))) for x in offsets]
    )


@lru_cache(maxsize=256)
def _savgol_matrix(n: int, window: int, poly_order: int, deriv: int) -> np.ndarray:
    """Dense n x n operator mapping values to index-space SavGol output."""
    h = window // 2
    mat = np.zeros((n, n))
    center = _ls_weights(window, poly_order, deriv, h)
    for i in range(h, n - h):
        mat[i, i - h : i + h + 1] = center
    for i in range(h):
        # one-sided fits over the full window so edge rows keep the same
        # polynomial degree (and polynomial exactness) as the interior
        mat[i, :window] = _ls_weights(window, poly_order, deriv, i)
        mat[n - 1 - i, n - window :] = _ls_weights(window, poly_order, deriv, window - 1 - i)
    mat.setflags(write=False)
    return mat


def savgol_weights(window: int, poly_order: int, deriv: int = 0) -> np.ndarray:
    """Center-point weights of the interior SavGol filter (index space)."""
    cfg = SavitzkyGolay(window, poly_order)
    if deriv > cfg.poly_order:
        raise OrderExceedsPoly("derivative order exceeds poly_order")
    return _ls_weights(window, poly_order, deriv, window // 2)


def _check_savgol(series: TimeSeries, config: SavitzkyGolay, deriv: int) -> float:
    validate(series)
    if config.window > len(series):
        raise WindowTooLarge(
            f"window {config.window} exceeds series length {len(series)}"
        )
    if deriv > config.poly_order:
        raise OrderExceedsPoly(
            f"derivative order {deriv} exceeds poly_order {config.poly_order}"
        )
    return uniform_spacing(series)


def savgol_apply(series: TimeSeries, config: SavitzkyGolay, deriv: int = 0) -> np.ndarray:
    """SavGol output values (derivative ``deriv``) in physical time units."""
    dt = _check_savgol(series, config, deriv)
    mat = _savgol_matrix(len(series), config.window, config.poly_order, deriv)
    return (mat @ series.values) / dt**deriv


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


def estimate_derivatives(
    series: TimeSeries, config: SavitzkyGolay | None = None
) -> DerivativeEstimate:
    """SavGol estimates of C..C''' on the series grid with edge flags.

    Confidence bounds are degenerate (equal to the point estimate); use
    :func:`bootstrap_derivative_ci` for real intervals.
    """
    if config is None:
        config = default_savgol(len(series))
    if config.poly_order < 3:
        raise OrderExceedsPoly("third-derivative estimation needs poly_order >= 3")
    c = savgol_apply(series, config, 0)
    c1 = savgol_apply(series, config, 1)
    c2 = savgol_apply(series, config, 2)
    c3 = savgol_apply(series, config, 3)
    return DerivativeEstimate(
        times=series.times,
        c=c, c1=c1, c2=c2, c3=c3,
        c3_lo=c3.copy(), c3_hi=c3.copy(),
        edge_mask=edge_mask(len(series), config.window),
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
    _predictors: tuple = field(repr=False, default=())
    coefficients: np.ndarray | None = None
    coef_cov: np.ndarray | None = None
    n_obs: int = 0

    def predict(self, times, order: int = 0) -> np.ndarray:
        return self._predictors[order](np.asarray(times, dtype=float))


def _information_criteria(n, rss, k, scale=1.0):
    # Gaussian log-likelihood up to constants. RSS is floored at the numerical
    # precision of the data so that exact fits of different sizes tie on the
    # likelihood term and the parameter penalty decides between them.
    floor = n * (1e-12 * max(scale, 1e-150)) ** 2
    rss = max(rss, floor)
    aic = n * math.log(rss / n) + 2 * k
    bic = n * math.log(rss / n) + k * math.log(n)
    return aic, bic


def _rms_scale(v) -> float:
    return float(np.sqrt(np.mean(v * v)))


def _fit_polynomial(t, v, degree):
    series_poly = np.polynomial.Polynomial.fit(t, v, degree)
    xm = series_poly.mapparms()[0] + series_poly.mapparms()[1] * t
    design = np.vander(xm, degree + 1, increasing=True)
    cond = np.linalg.cond(design)
    if cond > 1e12:
        raise IllConditioned(f"design condition number {cond:.3g} > 1e12")
    resid = v - series_poly(t)
    rss = float(resid @ resid)
    preds = [series_poly.deriv(m) if m else series_poly for m in range(4)]
    predictors = tuple(
        (lambda f: (lambda x: np.asarray(f(x), dtype=float)))(p) for p in preds
    )
    # covariance of the mapped-domain coefficients, for t-tests
    n, k = t.size, degree + 1
    cov = None
    if n > k:
        sigma2 = rss / (n - k)
        gram_inv = np.linalg.pinv(design.T @ design)
        cov = sigma2 * gram_inv
    unscaled = series_poly.convert().coef
    return predictors, rss, unscaled, cov


def _fit_spline(t, v, n_knots):
    interior = np.linspace(t[0], t[-1], n_knots + 2)[1:-1]
    spl = LSQUnivariateSpline(t, v, interior, k=3)
    resid = v - spl(t)
    rss = float(resid @ resid)
    predictors = tuple(
        (lambda m: (lambda x: np.asarray(
            spl(x) if m == 0 else spl.derivative(m)(x), dtype=float)))(m)
        for m in range(4)
    )
    return predictors, rss


def _fit_one(t, v, spec):
    if isinstance(spec, PolynomialModel):
        predictors, rss, coefs, cov = _fit_polynomial(t, v, spec.degree)
        return predictors, rss, coefs, cov
    if isinstance(spec, CubicSplineModel):
        predictors, rss = _fit_spline(t, v, spec.knots)
        return predictors, rss, None, None
    raise InvalidSpec(f"unknown model kind {type(spec).__name__}")


def _blocked_cv(t, v, spec, folds=5):
    n = t.size
    blocks = np.array_split(np.arange(n), folds)
    errs = []
    for block in blocks:
        train = np.setdiff1d(np.arange(n), block)
        if train.size < spec.n_params + 1:
            return math.inf
        try:
            predictors, _, _, _ = _fit_one(t[train], v[train], spec)
        except Exception:
            return math.inf
        pred = predictors[0](t[block])
        errs.append(float(np.mean((v[block] - pred) ** 2)))
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
    the returned model.
    """
    validate(series)
    if candidates is None:
        candidates = [PolynomialModel(d) for d in range(1, 7)]
    t, v = series.times, series.values
    n = t.size
    max_params = max(c.n_params for c in candidates)
    if n < max_params + 2:
        raise InsufficientData(
            f"n = {n} < max candidate parameter count + 2 = {max_params + 2}"
        )
    if criterion not in ("aic", "bic", "cv"):
        raise InvalidSpec(f"unknown selection criterion {criterion!r}")

    diags, fits = [], {}
    errors = []
    for spec in candidates:
        try:
            predictors, rss, coefs, cov = _fit_one(t, v, spec)
        except IllConditioned as exc:
            errors.append(exc)
            continue
        aic, bic = _information_criteria(n, rss, spec.n_params, _rms_scale(v))
        cv = _blocked_cv(t, v, spec, cv_folds)
        diags.append(FitDiagnostics(spec, spec.n_params, rss, aic, bic, cv))
        fits[id(spec)] = (predictors, coefs, cov)
    if not diags:
        raise errors[0] if errors else InsufficientData("no candidate could be fitted")

    key = {"aic": lambda d: d.aic, "bic": lambda d: d.bic, "cv": lambda d: d.cv}[criterion]
    best = min(diags, key=key)
    predictors, coefs, cov = fits[id(best.spec)]
    return FitModel(
        spec=best.spec,
        t_range=(float(t[0]), float(t[-1])),
        rss=best.rss, aic=best.aic, bic=best.bic, cv=best.cv,
        candidates=diags,
        _predictors=predictors,
        coefficients=coefs,
        coef_cov=cov,
        n_obs=n,
    )


def coefficient_t_tests(model: FitModel, min_order: int = 3):
    """Classical t-tests on fitted polynomial coefficients of order >= 3.

    Returns a list of (order, coefficient, std_error, t_stat, p_value). The
    standard errors come from the mapped-domain least-squares covariance, so
    the tests are performed in that basis (same t statistics as any affine
    reparametrization of the time axis).
    """
    if not isinstance(model.spec, PolynomialModel) or model.coef_cov is None:
        raise InvalidSpec("t-tests require a fitted polynomial model")
    dof = model.n_obs - model.spec.n_params
    out = []
    for order in range(min_order, model.spec.degree + 1):
        se = math.sqrt(max(model.coef_cov[order, order], 0.0))
        coef = float(model.coefficients[order])
        if se == 0:
            out.append((order, coef, 0.0, math.inf if coef else 0.0, 0.0 if coef else 1.0))
            continue
        tstat = coef / se
        p = 2.0 * float(t_dist.sf(abs(tstat), dof))
        out.append((order, coef, se, tstat, p))
    return out


def derivatives_from_model(model: FitModel, times) -> DerivativeEstimate:
    """Analytic derivatives of a fitted model on a grid within its range."""
    times = np.asarray(times, dtype=float)
    lo, hi = model.t_range
    tol = 1e-9 * max(abs(lo), abs(hi), 1.0)
    if times.min() < lo - tol or times.max() > hi + tol:
        raise OutOfRange("grid extends beyond the fitted range")
    c = model.predict(times, 0)
    c3 = model.predict(times, 3)
    return DerivativeEstimate(
        times=times,
        c=c,
        c1=model.predict(times, 1),
        c2=model.predict(times, 2),
        c3=c3,
        c3_lo=c3.copy(),
        c3_hi=c3.copy(),
        edge_mask=np.zeros(times.size, dtype=bool),
    )


# --- bootstrap ----------------------------------------------------------------

def bootstrap_derivative_ci(
    series: TimeSeries,
    config: SavitzkyGolay | None = None,
    n_boot: int = 500,
    seed: int = 0,
) -> DerivativeEstimate:
    """Residual-bootstrap 95% percentile CIs for the third derivative.

    Smooths once, resamples residuals with replacement, re-runs the SavGol
    derivative pipeline per replicate. Deterministic for a fixed seed.
    """
    if n_boot < 200:
        raise InvalidSpec("n_boot must be >= 200")
    if config is None:
        config = default_savgol(len(series))
    base = estimate_derivatives(series, config)
    dt = uniform_spacing(series)
    resid = series.values - base.c
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = len(series)
    idx = rng.integers(0, n, size=(n_boot, n))
    replicates = base.c[None, :] + resid[idx]
    mat3 = _savgol_matrix(n, config.window, config.poly_order, 3)
    c3_rep = (replicates @ mat3.T) / dt**3
    lo = np.percentile(c3_rep, 2.5, axis=0)
    hi = np.percentile(c3_rep, 97.5, axis=0)
    base.c3_lo = np.minimum(lo, base.c3)
    base.c3_hi = np.maximum(hi, base.c3)
    return base
