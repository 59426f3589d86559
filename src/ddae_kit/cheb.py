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


def trim_lengths(coefs):
    """Kept length of each series in a stack (K, deg+1, n), or of one
    series (deg+1, n): trailing rows whose largest entry is at most TRIM_TOL
    times the largest entry of the series are dropped, so the cut is
    relative to the series' own size, with no absolute floor (a NaN row
    is kept).  A lone series is cut by a loop over its rows, which takes
    fewer numpy calls than the vectorized count of a stack."""
    mags = np.maximum.reduce(np.abs(coefs), axis=-1, initial=0.0)
    if mags.ndim == 1 or len(mags) == 1:
        cut, rows = TRIM_TOL * float(np.maximum.reduce(mags, axis=None)), mags.ravel().tolist()
        keep = len(rows)
        while keep > 1 and rows[keep - 1] <= cut:
            keep -= 1
        return keep if mags.ndim == 1 else np.array([keep])
    kept = ~(mags <= TRIM_TOL * mags.max(axis=-1, keepdims=True))
    kept[..., 0] = True
    return coefs.shape[-2] - kept[..., ::-1].argmax(axis=-1)


def cut_stack(stack, lengths):
    """A stack (K, m, n) of series cut to the longest of the given lengths,
    the rows of each series past its length set to zero (in place), so
    that the stack is zero-padded."""
    if len(lengths) == 1:
        return stack[:, : lengths[0]]
    stack = stack[:, : lengths.max()]
    stack[np.arange(stack.shape[1]) >= lengths[:, None]] = 0.0
    return stack


def trim_stack(stack, lengths):
    """A zero-padded stack of series of the given lengths, each trimmed
    as by trim_coeffs: the cut stack (cut_stack) and the kept lengths."""
    kept = trim_lengths(stack)
    if len(kept) > 1:  # a lone series fills its stack
        kept = np.minimum(kept, lengths)
    return cut_stack(stack, kept), kept


def trim_coeffs(coef):
    """coef without the trailing rows trim_lengths drops."""
    return coef[: trim_lengths(coef)]
