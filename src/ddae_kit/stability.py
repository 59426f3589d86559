"""Characteristic roots and the exponential-stability verdict.

Roots of det(lambda E - A - exp(-lambda tau) D) are located by Newton's
method seeded at the local minima of the determinant magnitude on a
rectangular grid, evaluated one row per stacked determinant.  Only the
Newton step solves for the logarithmic derivative trace(M^{-1} M'),
which keeps the iteration well scaled even when the determinant itself
spans many orders of magnitude.

The stability verdict is gated by the propagation classification: for
de-smoothing systems a negative spectral abscissa does not imply
exponential stability, so the assessment refuses to conclude.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .classify import PropagationKind, classify_propagation
from .errors import DimensionMismatch
from .model import DdaeSystem, SplitCoefficients
from .pencil import norm2

RESIDUAL_TOL = 1e-8
DEDUP_RADIUS = 1e-6
NEWTON_MAX_ITER = 80
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
        finite = np.all(np.isfinite((self.re_min, self.re_max, self.im_max)))
        if not (finite and self.re_max > self.re_min and self.im_max > 0):
            raise DimensionMismatch("invalid search box: non-finite or empty bounds")


@dataclass(eq=False)
class StabilityReport:
    """Root search outcome plus the classification gate (set by assess).

    alpha is the largest real part over the verified roots; box_limited
    flags a root within two grid cells of the right box edge, i.e. the
    search window may truncate the relevant root set.  Every reported
    root satisfies |det(lambda E - A - e^{-lambda tau} D)| <=
    1e-8 * max(1, ||M||)^n.
    """

    alpha: float | None
    rightmost_roots: list
    box: SearchBox
    grid: tuple
    box_limited: bool
    no_roots: bool
    gate: str | None = field(default=None)


def _char_matrix(E, A, D, tau, lam):
    """M(lambda) = lambda E - A - e^{-lambda tau} D.

    lam is a scalar or an array; an array of shape s gives a stack of
    shape s + (n, n), ready for one stacked determinant.
    """
    lam = np.asarray(lam)[..., None, None]
    return lam * E - A - np.exp(-lam * tau) * D


def _logderiv(E, D, tau, lam, M):
    """trace(M^{-1} M') with M' = E + tau e^{-lambda tau} D; None if M is singular."""
    try:
        return complex(np.trace(np.linalg.solve(M, E + tau * np.exp(-lam * tau) * D)))
    except np.linalg.LinAlgError:
        return None


def char_function(sys: DdaeSystem, lam):
    """Characteristic value h(lambda) and its derivative dh/dlambda.

    Computed via a pivoted factorization; the derivative uses
    h' = h * trace(M^{-1} M') with M' = E + tau e^{-lambda tau} D.
    At an exactly singular M the value is 0 (a root) and the derivative
    is reported as None.
    """
    lam = complex(lam)
    M = _char_matrix(sys.E, sys.A, sys.D, sys.tau, lam)
    det = complex(np.linalg.det(M))
    logderiv = _logderiv(sys.E, sys.D, sys.tau, lam, M)
    return det, None if logderiv is None else det * logderiv


def default_box(E, A, D, tau):
    s = (1.0 + norm2(A) + norm2(D)) / (1.0 + norm2(E))
    return SearchBox(re_min=-10.0 * s, re_max=5.0 * s, im_max=20.0 * np.pi / tau)


def _local_minima(mag):
    """Row-major (k, 2) array of the indices whose magnitude is minimal
    within its 3x3 block (cells outside the grid do not count)."""
    padded = np.pad(mag, 1, constant_values=np.inf)
    window = np.lib.stride_tricks.sliding_window_view(padded, (3, 3)).min(axis=(2, 3))
    return np.argwhere(mag <= window)


def _newton(E, A, D, tau, lam):
    """Newton's method on det M(lambda) with the step 1 / trace(M^{-1} M').

    Stops at a singular M, a zero or non-finite log-derivative, or a step
    below 1e-13 relative to |lambda|.  One factorization per iteration:
    the solve inside _logderiv detects the singular M.  An iterate far in
    the left half-plane overflows exp(-lambda tau); the warnings are
    silenced because the non-finite log-derivative already stops the
    iteration and the box filter drops the candidate.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            logderiv = _logderiv(E, D, tau, lam, _char_matrix(E, A, D, tau, lam))
            if logderiv is None or abs(logderiv) == 0.0 or not np.isfinite(abs(logderiv)):
                break
            step = 1.0 / logderiv
            lam = lam - step
            if abs(step) <= 1e-13 * (1.0 + abs(lam)):
                break
    return lam


def spectral_abscissa_matrices(
    E, A, D, tau, box: SearchBox | None = None, grid=80
) -> StabilityReport:
    """Grid-seeded Newton root search for arbitrary coefficient matrices.

    |det M| is evaluated one grid row (fixed real part) per stacked
    determinant; Newton starts from every 3x3 local minimum.
    """
    E, A, D = np.asarray(E), np.asarray(A), np.asarray(D)
    n = E.shape[0]
    if np.isscalar(grid):
        grid = (int(grid), int(grid))
    g_re, g_im = grid
    if g_re < 2 or g_im < 2:
        raise DimensionMismatch("the root grid needs at least 2 points per axis")
    if box is None:
        box = default_box(E, A, D, tau)
    real_data = not any(np.iscomplexobj(X) for X in (E, A, D))
    im_min = 0.0 if real_data else -box.im_max
    res = np.linspace(box.re_min, box.re_max, g_re)
    ims = np.linspace(im_min, box.im_max, g_im)
    cell_re = (box.re_max - box.re_min) / (g_re - 1)
    cell_im = (box.im_max - im_min) / (g_im - 1)

    # hypot, not np.abs: np.abs rounds complex arrays differently in the
    # last bit from the scalar |det| that Newton and char_function see
    mag = np.empty((g_re, g_im))
    for i, x in enumerate(res):
        det = np.linalg.det(_char_matrix(E, A, D, tau, x + 1j * ims))
        mag[i] = np.hypot(det.real, det.imag)

    pad_re, pad_im = 2 * cell_re, 2 * cell_im
    candidates = []
    for i, j in _local_minima(mag):
        lam = _newton(E, A, D, tau, complex(res[i], ims[j]))
        if real_data and -pad_im <= lam.imag < 0.0:
            lam = lam.conjugate()
        if not (
            box.re_min - pad_re <= lam.real <= box.re_max + pad_re
            and im_min - pad_im <= lam.imag <= box.im_max + pad_im
        ):
            continue
        M = _char_matrix(E, A, D, tau, lam)
        residual = abs(complex(np.linalg.det(M)))
        if residual <= RESIDUAL_TOL * max(1.0, norm2(M)) ** n:
            candidates.append((lam, residual))

    candidates.sort(key=lambda c: (c[0].real, c[0].imag))
    roots = []
    for lam, r in candidates:
        if roots and abs(lam - roots[-1][0]) <= DEDUP_RADIUS * (1.0 + abs(lam)):
            if r < roots[-1][1]:
                roots[-1] = (lam, r)
            continue
        roots.append((lam, r))
    roots.sort(key=lambda c: (-c[0].real, c[0].imag))

    # only the right edge can hide a larger real part; vertical root
    # chains make top-edge proximity unavoidable for any delay system
    return StabilityReport(
        alpha=roots[0][0].real if roots else None, rightmost_roots=roots,
        box=box, grid=(g_re, g_im), no_roots=not roots,
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
    limiting.  |alpha| <= MARGIN reports marginal.
    """
    prop = classify_propagation(split, sys.horizon_intervals)
    if prop.kind is PropagationKind.DE_SMOOTHING:
        report.gate = "not_applicable_de_smoothing"
        return StabilityVerdict.INCONCLUSIVE_DE_SMOOTHING
    report.gate = "applicable"
    if report.no_roots or report.alpha is None:
        return StabilityVerdict.INCONCLUSIVE_BOX
    if report.alpha > MARGIN:
        return StabilityVerdict.UNSTABLE
    if report.box_limited:
        return StabilityVerdict.INCONCLUSIVE_BOX
    if report.alpha < -MARGIN:
        return StabilityVerdict.STABLE
    return StabilityVerdict.MARGINAL
