"""Characteristic roots and the exponential-stability verdict.

Roots of det(lambda E - A - exp(-lambda tau) D) are located by Newton's
method seeded at the local minima of the determinant magnitude on a
rectangular grid.  The grid is evaluated in chunks of whole rows: each
chunk forms all its matrices in one complex product
[lambda, 1, e^{-lambda tau}] @ [E; -A; -D], then takes one stacked
determinant and one hypot, and a chunk holds about GRID_CHUNK matrix
entries, so any grid up to MAX_GRID stays within a fixed memory bound;
e^{-lambda tau} is the outer product of e^{-x tau} over the rows and
e^{-iy tau} over the columns, one exponential per axis point.
Only the Newton step solves for the logarithmic derivative
trace(M^{-1} M'), which keeps the iteration well scaled even when the
determinant itself spans many orders of magnitude.  All seeds advance
together as arrays, one stacked solve per iteration, and a candidate is
a root when its backward error, from one stacked SVD, is at most
RESIDUAL_TOL.

Newton and the backward error form M elementwise
(_char_matrix's expression), not through the grid's product, because:
- each lane of a stack must equal the evaluation at its lambda alone bit
  for bit, so that lockstep Newton follows every seed's own iterates;
- the last bit of a BLAS product depends on the shape of the stack it
  is part of, so a lambda's matrix would change with its neighbours;
- the grid only ranks cells to pick Newton seeds: a change in its last
  bits can move a seed only where two cells' magnitudes nearly tie, and
  reports seeded from it were checked equal to those of the elementwise
  per-row grid on the benchmark's outputs and on random systems in the
  tests, not shown equal by construction.

The stability verdict is gated by the propagation classification: for
de-smoothing systems a negative spectral abscissa does not imply
exponential stability, so the assessment refuses to conclude and says
so in its verdict, INCONCLUSIVE_DE_SMOOTHING; whether the gate applied
is read off that verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .classify import PropagationKind, classify_propagation
from .errors import DimensionMismatch
from .model import DdaeSystem, SplitCoefficients
from .pencil import norm2

RESIDUAL_TOL = 1e-8
DEDUP_RADIUS = 1e-6
NEWTON_MAX_ITER = 80
# points per grid axis; the grid's |det| array alone is MAX_GRID^2 floats
MAX_GRID = 1024
# complex matrix entries formed at once on the grid (about 1 MB); a chunk
# holds whole rows, at least one
GRID_CHUNK = 2 ** 16
# |alpha| at or below this is marginal
MARGIN = 1e-6


class StabilityVerdict(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"
    INCONCLUSIVE_DE_SMOOTHING = "inconclusive_de_smoothing"
    INCONCLUSIVE_BOX = "inconclusive_box"


@dataclass(frozen=True)
class SearchBox:
    re_min: float
    re_max: float
    im_max: float

    def __post_init__(self):
        # the grid spans [re_min, re_max] and at most [-im_max, im_max]
        extents = (float(self.re_max) - float(self.re_min), 2.0 * float(self.im_max))
        if not (np.isfinite(extents).all() and self.re_max > self.re_min and self.im_max > 0):
            raise DimensionMismatch("invalid search box: non-finite or empty bounds")


@dataclass(eq=False)
class StabilityReport:
    """Root search outcome, final when the search returns.

    alpha is the largest real part over the verified roots; box_limited
    flags a root within two grid cells of the right box edge, i.e. the
    search window may truncate the relevant root set.  rightmost_roots
    holds (lambda, eta) pairs, rightmost first, and every eta, the
    root's backward error, is at most RESIDUAL_TOL.
    """

    alpha: float | None
    rightmost_roots: list
    box: SearchBox
    grid: tuple
    box_limited: bool
    no_roots = property(lambda self: not self.rightmost_roots)


def _stacked(lam, *mats):
    """lam as a stack of 1x1 blocks, and the matrices raised to its rank.

    Equal ranks keep numpy's complex products on the loop a scalar lam
    takes: with n = 1, a one-element stack of shape (1, 1, 1) times a
    (1, 1) matrix runs a scalar loop that rounds differently in the
    last bit.
    """
    lam = np.asarray(lam)[..., None, None]
    lead = (None,) * (lam.ndim - 2)
    return (lam, *(X[lead] for X in mats))


def _char_matrix(E, A, D, tau, lam):
    """M(lambda) = lambda E - A - e^{-lambda tau} D.

    lam is a scalar or an array; an array of shape s gives a stack of
    shape s + (n, n), ready for one stacked determinant.
    """
    lam, E, D = _stacked(lam, E, D)
    return lam * E - A - np.exp(-lam * tau) * D


def default_box(E, A, D, tau, **given):
    """The box re_min = -10 s, re_max = 5 s, im_max = 20 pi / tau, with
    s = (1 + ||A|| + ||D||) / (1 + ||E||), and the given bounds in place
    of its own; a default bound that overflows must be given."""
    s = (1.0 + norm2(A) + norm2(D)) / (1.0 + norm2(E))
    box = {"re_min": -10.0 * s, "re_max": 5.0 * s, "im_max": 20.0 * np.pi / float(tau)}
    unset = [k for k in box if k not in given and not np.isfinite(box[k])]
    if unset:
        raise DimensionMismatch(f"invalid search box: the default {unset[0]} = {box[unset[0]]}"
                                f" is not finite; give --{unset[0].replace('_', '-')}")
    return SearchBox(**{**box, **given})


def _grid_magnitudes(E, A, D, tau, res, ims):
    """|det M(x + iy)| for x in res (rows) and y in ims (columns).

    Each chunk of whole rows forms its matrices in one complex product,
    [lambda, 1, e^{-lambda tau}] (k x 3) @ [E; -A; -D] (3 x n^2), and
    reduces them with one stacked det and one hypot; the rows per chunk
    keep the product within GRID_CHUNK entries.  e^{-lambda tau} is
    e^{-x tau} e^{-iy tau}, one exponential per row and per column.  Far
    left in the box e^{-x tau} overflows; those cells come out NaN,
    quietly.
    """
    n = E.shape[-1]
    coeffs = np.stack([E, -A, -D]).reshape(3, n * n).astype(complex)
    rows = max(1, GRID_CHUNK // max(1, len(ims) * n * n))
    mag = np.empty((len(res), len(ims)))
    with np.errstate(over="ignore", invalid="ignore"):
        decay, turn = np.exp(-res * tau), np.exp(-1j * tau * ims)
        for i in range(0, len(res), rows):
            lam = (res[i:i + rows, None] + 1j * ims).ravel()
            basis = np.ones((len(lam), 3), dtype=complex)
            basis[:, 0] = lam
            basis[:, 2] = (decay[i:i + rows, None] * turn).ravel()
            det = np.linalg.det((basis @ coeffs).reshape(len(lam), n, n))
            mag[i:i + rows] = np.hypot(det.real, det.imag).reshape(-1, len(ims))
    return mag


def _local_minima(mag):
    """Row-major (k, 2) array of the indices whose magnitude is minimal
    within its 3x3 block (cells outside the grid do not count, and a
    NaN in the block means no minimum), the block minimum taken in two
    separable passes of three rows, then three columns."""
    padded = np.pad(mag, 1, constant_values=np.inf)
    rows = np.minimum(np.minimum(padded[:-2], padded[1:-1]), padded[2:])
    window = np.minimum(np.minimum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])
    return np.argwhere(mag <= window)


def _newton(E, A, D, tau, seeds):
    """Newton's method on det M(lambda) with the step 1 / trace(M^{-1} M'),
    run from every seed at once; returns the final iterates as a list.

    A lane stops at a singular M, a zero or non-finite log-derivative, or
    a step below 1e-13 relative to |lambda|: masks over the active lanes,
    which advance as arrays.  One exp(-lambda tau) per iterate gives M and
    M' = E + tau e^{-lambda tau} D, one stacked solve the log-derivatives;
    only a singular M makes every lane solve alone, so that one stops.
    The step is np.reciprocal, Smith's quotient like CPython's 1.0 / z
    (numpy's division rounds differently), equal to it up to the sign of
    a zero part, which moves no lambda without a -0.0 part: every lane
    follows its seed's own iterates.  Far in the left half-plane
    exp(-lambda tau) overflows, quietly: the non-finite log-derivative
    stops that lane, and the box filter or its backward error drops it.
    """
    lams = np.array(seeds, dtype=complex)
    active = np.arange(len(lams))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            if not active.size:
                break
            lam, E_, D_ = _stacked(lams[active], E, D)
            e = np.exp(-lam * tau)
            M, dM = lam * E_ - A - e * D_, E + tau * e * D_
            try:
                logderiv = np.trace(np.linalg.solve(M, dM), axis1=-2, axis2=-1)
            except np.linalg.LinAlgError:
                logderiv = np.full(len(M), np.nan, dtype=complex)
                for k in range(len(M)):
                    try:
                        logderiv[k] = np.trace(np.linalg.solve(M[k], dM[k]))
                    except np.linalg.LinAlgError:
                        pass
            size = np.abs(logderiv)
            moving = (0.0 < size) & (size < np.inf)
            active, step = active[moving], np.reciprocal(logderiv[moving])
            lams[active] -= step
            active = active[~(np.abs(step) <= 1e-13 * (1.0 + np.abs(lams[active])))]
    return lams.tolist()


def _backward_errors(E, A, D, tau, lams):
    """Normwise backward error of each lambda as a root (Tisseur, Linear
    Algebra Appl. 309, 2000), from one stacked SVD of M / omega:

        eta = sigma_min(M) / (omega (1 + |lambda| + |e^{-lambda tau}|)),
        omega = max(||E||_2, ||A||_2, ||D||_2),

    the least relative change of E, A, D making lambda a root: in [0, 1],
    and the same when E, A and D are scaled together.  Dividing by omega
    first keeps every term finite where M is; where e^{-lambda tau}
    overflows, eta is inf without the SVD (LAPACK would print a message).
    An empty M is never singular.
    """
    omega = max(norm2(E), norm2(A), norm2(D)) or 1.0
    lam = np.array(lams, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        M = _char_matrix(E, A, D, tau, lam) / omega
        scale = 1.0 + np.hypot(lam.real, lam.imag) + np.exp(-tau * lam.real)
    finite = np.isfinite(M).all(axis=(-2, -1)) & (scale < np.inf)
    eta = np.full(len(lam), np.inf)
    if finite.any():
        sigma = np.linalg.svd(M[finite], compute_uv=False)
        eta[finite] = sigma.min(axis=-1, initial=np.inf) / scale[finite]
    return eta.tolist()


def spectral_abscissa_matrices(
    E, A, D, tau, box: SearchBox | None = None, grid=80
) -> StabilityReport:
    """Grid-seeded Newton root search for arbitrary coefficient matrices.

    |det M| is evaluated on the grid in chunks of whole rows (fixed real
    part), one matrix product, one stacked determinant and one hypot per
    chunk, at most about GRID_CHUNK matrix entries at a time; Newton
    starts from every 3x3 local minimum, all seeds advancing as arrays.
    """
    E, A, D = np.asarray(E), np.asarray(A), np.asarray(D)
    if np.isscalar(grid):
        grid = (int(grid), int(grid))
    g_re, g_im = grid
    if not (2 <= g_re <= MAX_GRID and 2 <= g_im <= MAX_GRID):
        raise DimensionMismatch(
            f"the root grid needs 2 to {MAX_GRID} points per axis, got {g_re} x {g_im}")
    if box is None:
        box = default_box(E, A, D, tau)
    real_data = not any(np.iscomplexobj(X) for X in (E, A, D))
    im_min = 0.0 if real_data else -box.im_max
    res = np.linspace(box.re_min, box.re_max, g_re)
    ims = np.linspace(im_min, box.im_max, g_im)
    cell_re = (box.re_max - box.re_min) / (g_re - 1)
    cell_im = (box.im_max - im_min) / (g_im - 1)

    mag = _grid_magnitudes(E, A, D, tau, res, ims)
    seeds = [complex(res[i], ims[j]) for i, j in _local_minima(mag)]
    pad_re, pad_im = 2 * cell_re, 2 * cell_im
    inside = []
    for lam in _newton(E, A, D, tau, seeds):
        if real_data and -pad_im <= lam.imag < 0.0:
            lam = lam.conjugate()
        if (box.re_min - pad_re <= lam.real <= box.re_max + pad_re
                and im_min - pad_im <= lam.imag <= box.im_max + pad_im):
            inside.append(lam)
    candidates = [(lam, eta) for lam, eta in zip(inside, _backward_errors(E, A, D, tau, inside))
                  if eta <= RESIDUAL_TOL]
    # best-verified first; a copy of a kept root may lie anywhere in (Re, Im) order
    candidates.sort(key=lambda c: (c[1], c[0].real, c[0].imag))
    roots = []
    for lam, eta in candidates:
        if all(abs(lam - kept) > DEDUP_RADIUS * (1.0 + abs(lam)) for kept, _ in roots):
            roots.append((lam, eta))
    roots.sort(key=lambda c: (-c[0].real, c[0].imag))

    # only the right edge can hide a larger real part; vertical root
    # chains make top-edge proximity unavoidable for any delay system
    return StabilityReport(
        alpha=roots[0][0].real if roots else None, rightmost_roots=roots,
        box=box, grid=(g_re, g_im),
        box_limited=any(lam.real >= box.re_max - 2 * cell_re for lam, _ in roots),
    )


def spectral_abscissa(sys: DdaeSystem, box: SearchBox | None = None, grid=80):
    """Spectral abscissa of the delayed pencil of a system."""
    return spectral_abscissa_matrices(sys.E, sys.A, sys.D, sys.tau, box, grid)


def assess_exponential_stability(
    sys: DdaeSystem, split: SplitCoefficients, report: StabilityReport
) -> StabilityVerdict:
    """Stability verdict gated by the propagation classification.

    De-smoothing systems are never judged by the abscissa alone.  An alpha above
    MARGIN is conclusive even in a truncated box (the verified root does
    not go away); a negative alpha is trusted only when the box was not
    limiting.  |alpha| <= MARGIN reports marginal.  The report is left
    as it is: the verdict alone says whether the gate applied.
    """
    prop = classify_propagation(split, sys.horizon_intervals)
    if prop.kind is PropagationKind.DE_SMOOTHING:
        return StabilityVerdict.INCONCLUSIVE_DE_SMOOTHING
    if report.alpha is None:
        return StabilityVerdict.INCONCLUSIVE_BOX
    if report.alpha > MARGIN:
        return StabilityVerdict.UNSTABLE
    if report.box_limited:
        return StabilityVerdict.INCONCLUSIVE_BOX
    if report.alpha < -MARGIN:
        return StabilityVerdict.STABLE
    return StabilityVerdict.MARGINAL
