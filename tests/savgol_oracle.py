"""Exact-rational Savitzky-Golay reference for the tests.

The filter under test evaluates one floating-point least-squares projection
per window. This oracle solves the normal equations for every output row in
exact rational arithmetic instead, and assembles the dense n x n operator
row by row, so it shares no numerics with the code it checks.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def ls_weights(m: int, poly_order: int, deriv: int, eval_idx: int) -> np.ndarray:
    """Least-squares projection weights for the ``deriv``-th derivative of a
    degree-``poly_order`` fit over ``m`` points, evaluated at ``eval_idx``.

    The index offsets are integers, so the normal equations are solved in
    exact rational arithmetic; the returned weights are correct to the last
    double-precision bit.
    """
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


@lru_cache(maxsize=None)
def dense_savgol(n: int, window: int, poly_order: int, deriv: int) -> np.ndarray:
    """Dense n x n operator mapping values to index-space SavGol output.

    Interior rows hold the centred kernel; the h = window//2 rows at each end
    hold the fit of the first or last full window evaluated at their own
    offsets.
    """
    h = window // 2
    mat = np.zeros((n, n))
    center = ls_weights(window, poly_order, deriv, h)
    for i in range(h, n - h):
        mat[i, i - h : i + h + 1] = center
    for i in range(h):
        mat[i, :window] = ls_weights(window, poly_order, deriv, i)
        mat[n - 1 - i, n - window :] = ls_weights(window, poly_order, deriv, window - 1 - i)
    mat.setflags(write=False)
    return mat
