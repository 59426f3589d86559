"""Chebyshev kernel: Gauss-Lobatto nodes, node/coefficient transforms, trimming.

Coefficient arrays have shape (deg+1, n), one column per component;
values_to_coeffs also takes a stack (K, deg+1, n) of K at once.  The
piecewise container in ``piecewise`` builds its Chebyshev basis on these
helpers; the solver's collocation reuses the cached Vandermonde pair.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from numpy.polynomial import chebyshev as C

from .pencil import frozen

TRIM_TOL = 1e-14


@cache
def cgl_nodes(degree):
    """Chebyshev-Gauss-Lobatto nodes on [-1, 1], ascending.

    Cached per degree and returned read-only: callers share one array.
    """
    return frozen(np.array([1.0]) if degree == 0 else C.chebpts2(degree + 1))


@cache
def _vander_inv(degree):
    V = C.chebvander(cgl_nodes(degree), degree)
    return V, np.linalg.inv(V)


def values_to_coeffs(values):
    """Chebyshev coefficients of the interpolant through CGL node values,
    for one array of values (deg+1, n) or a stack (K, deg+1, n)."""
    degree = values.shape[-2] - 1
    _, Vinv = _vander_inv(degree)
    return Vinv @ values


def trim_coeffs(coef, tol=TRIM_TOL):
    """Drop trailing rows whose largest entry is at most tol times the
    largest entry of the series: the cut is relative to the series' own
    size, with no absolute floor."""
    mags = np.max(np.abs(coef), axis=1) if coef.shape[1] else np.zeros(coef.shape[0])
    top = float(mags.max()) if mags.size else 0.0
    cut = tol * top
    keep = coef.shape[0]
    while keep > 1 and mags[keep - 1] <= cut:
        keep -= 1
    return coef[:keep]
