"""Smoothing and derivative estimation up to third order.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, Spec, whole
from .timeseries import TimeSeries, write_exact

DERIVATIVE_CSV_HEADER = "t,c,c1,c2,c3,c3_lo,c3_hi,edge"


@dataclass(frozen=True)
class SavitzkyGolay(Spec):
    """Local polynomial smoother config: odd window >= 5, poly_order < window."""

    window: int = whole(11, ge=5)
    poly_order: int = whole(4, ge=0)

    def __post_init__(self):
        super().__post_init__()
        if self.window % 2 == 0 or self.poly_order >= self.window:
            raise ConfigError(f"SavitzkyGolay needs an odd window and poly_order < window, "
                              f"got window {self.window}, poly_order {self.poly_order}")


_MIN_DEFAULT_WINDOW = SavitzkyGolay.window


def default_savgol(n: int, poly_order: int = SavitzkyGolay.poly_order) -> SavitzkyGolay:
    """Default detection pipeline smoother: window = max(11, ~n/10, odd).

    A series shorter than the window floor of 11 has no default smoother:
    it raises a DataError naming n rather than shrinking the window until
    every point is a boundary point.
    """
    if n < _MIN_DEFAULT_WINDOW:
        raise DataError(
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
        write_exact(path, DERIVATIVE_CSV_HEADER, self.times, self.c, self.c1, self.c2,
                    self.c3, self.c3_lo, self.c3_hi, self.edge_mask)


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
        raise ConfigError(
            f"derivative order {deriv} exceeds poly_order {poly_order}"
        )
    h = window // 2
    u = (np.arange(window) - h) / h
    coef = np.linalg.pinv(np.vander(u, poly_order + 1, increasing=True))
    # d^m/du^m u^j = j!/(j - m)! u^(j - m), and d/dj = (1/h) d/du
    deriv_at = np.zeros((window, poly_order + 1))
    deriv_at[:, deriv:] = np.vander(u, poly_order + 1 - deriv, increasing=True) * [
        math.perm(j, deriv) for j in range(deriv, poly_order + 1)
    ]
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
    polynomial exactness. The edge fits are matrix-vector products, one per
    row, so a row of a matrix gets the bits it would get on its own.
    """
    n = x.shape[-1]
    if window > n:
        raise ConfigError(f"window {window} exceeds series length {n}")
    coef, kernel, deriv_at = _savgol_operator(window, poly_order, deriv)
    h = window // 2
    out = np.empty(x.shape)
    out[..., h : n - h] = sliding_window_view(x, window, axis=-1) @ kernel
    out[..., :h] = (deriv_at[:h] @ (coef @ x[..., :window, None]))[..., 0]
    out[..., n - h :] = (deriv_at[h + 1 :] @ (coef @ x[..., n - window :, None]))[..., 0]
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
    w, p = config.window, config.poly_order
    return _savgol_filter(series.values, w, p, deriv) / series.dt**deriv


def savgol_smooth(series: TimeSeries, config: SavitzkyGolay) -> TimeSeries:
    return series.with_values(savgol_apply(series, config, 0))


def savgol_derivative(series: TimeSeries, config: SavitzkyGolay, order: int) -> TimeSeries:
    if order not in (1, 2, 3):
        raise ConfigError("derivative order must be 1, 2 or 3")
    return series.with_values(savgol_apply(series, config, order))


def edge_mask(n: int, window: int) -> np.ndarray:
    """Boolean mask of the first/last window//2 boundary-affected points."""
    h = window // 2
    mask = np.zeros(n, dtype=bool)
    mask[:h] = True
    mask[n - h :] = True
    return mask


def _filter_log(logv: np.ndarray, config: SavitzkyGolay, orders):
    """Centred log C and its SavGol derivatives of ``orders`` per grid step,
    the one place log C is filtered. Centring first keeps a value scale out
    of the derivatives and of rounding floors taken from the centred values.
    Each row of a matrix ``logv`` is centred and filtered on its own."""
    logv, w, p = logv - logv.mean(axis=-1, keepdims=True), config.window, config.poly_order
    return logv, [_savgol_filter(logv, w, p, k) for k in orders]


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

    Lk, the k-th SavGol derivative of log C per grid step over dt^k, gives
    C = exp(L0), C' = C L1, C'' = C (L2 + L1^2) and
    C''' = C (L3 + 3 L1 L2 + L1^3) by the chain rule. So C is positive, an
    exponential has J_N = 1, and a log-quadratic is exact up to rounding.

    The interval is the delta method: the half-width is 1.96 sigma |g|, g
    being the gradient of C''' with respect to log C,
    C''' k0 + 3C (L2 + L1^2) k1 + 3C L1 k2 + C k3 for the point's deriv-m
    filter rows k_m, and sigma the noise SD of log C (homoscedastic under
    multiplicative noise): the RMS of log C - L0 times :func:`_resid_scale`.
    Each k_m is ``deriv_at[j] @ coef`` at the point's offset j in its window,
    so g = b @ coef for a (poly_order+1)-vector b, and |g|^2 = b coef coef^T b^T
    takes O(n (poly_order+1)^2) time and memory.
    """
    logv = series.log_values
    n = len(series)
    if config is None:
        config = default_savgol(n)
    w, p = config.window, config.poly_order
    if p < 3:
        raise ConfigError("third-derivative estimation needs poly_order >= 3")
    dt = series.dt
    centred, per_step = _filter_log(logv, config, range(4))
    l0, l1, l2, l3 = (lk / dt**k for k, lk in enumerate(per_step))
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
