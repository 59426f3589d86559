"""Method-of-steps solver with a derivative-jump ledger.

Each delay interval is one differential-algebraic segment driven by the
previous segment.  The algebraic (fast) part is obtained in closed form
from derivatives of the segment inhomogeneity; the differential (slow)
part is integrated by global Chebyshev collocation on each smooth piece,
at a low degree first and at the top degree only where the low degree
does not resolve the piece.  Every segment of a sweep is the same DAE
segment with new data, so one Sweep builds each operator a segment
applies once: the collocation inverses and Vandermonde rows, the
fast-part operators, the data windows in Chebyshev form and f's own
derivative tables at the knots.
Restart values are never projected: a violation of the consistency
condition is the de-smoothing failure mode and is reported, not
repaired.

One-sided derivatives at the knots i*tau are computed by exact recursion
through the inherent ODE rather than by differentiating interpolants, so
the ledger of derivative jumps stays accurate to roundoff for polynomial
data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.linalg import inv
from numpy.polynomial import chebyshev as C

from .cheb import TRIM_TOL, _vander_inv, cgl_nodes, trim_coeffs, values_to_coeffs
from .errors import (
    CollocationSingular,
    DimensionMismatch,
    InconsistentRestart,
    NotAdmissible,
)
from .history import agreement_order, check_admissible, is_consistent
from .model import (
    DdaeSystem,
    FastPart,
    SplitCoefficients,
    build_split,
    segment_window,
    solution_taylor,
    solution_taylor_from_value,
)
from .piecewise import Piece, PiecewisePolynomial, _stacked

# relative tolerance for declaring a derivative jump at a knot
JUMP_TOL = 1e-7
# first collocation degree of every piece (capped by SolverConfig.degree)
FIRST_DEGREE = 16
# highest collocation degree SolverConfig accepts
MAX_DEGREE = 128
# off-node residual accepted at the first degree, relative to the scale
# ||J|| max|v| + max|q| at the grid midpoints
RESID_TOL = 1e-11
# longest derivative stream a sweep may carry: segment 1 holds
# k_max + M nu + max(nu, 1) orders and every later segment a few fewer,
# so the sweep stores O(MAX_STREAM_ORDERS^2 n) numbers at most; the bound
# caps k_max (SolverConfig) and, for nu > 0, the horizon (method_of_steps)
MAX_STREAM_ORDERS = 1024


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the stepping solver.

    degree: top collocation degree; a smooth piece is solved at
        min(FIRST_DEGREE, degree) first and at degree only when that
        solve fails its resolution test.
    k_max: highest derivative order compared at knots (default index+2,
        below MAX_STREAM_ORDERS).
    on_inconsistent: "record" stores the breakdown in the ledger and
        returns the partial trajectory; "stop" raises instead.
    """

    degree: int = 48
    k_max: int | None = None
    on_inconsistent: str = "record"

    def __post_init__(self):
        if not 1 <= self.degree <= MAX_DEGREE:
            raise DimensionMismatch(f"collocation degree must be in 1..{MAX_DEGREE}")
        if self.k_max is not None and not 0 <= self.k_max < MAX_STREAM_ORDERS:
            raise DimensionMismatch(f"k_max must be in 0..{MAX_STREAM_ORDERS - 1}")
        if self.on_inconsistent not in ("record", "stop"):
            raise DimensionMismatch("on_inconsistent must be 'record' or 'stop'")


@dataclass(eq=False)
class SegmentSolution:
    """Solution on one delay interval, in segment-local time [0, tau].

    pieces is a piecewise polynomial in the Chebyshev basis;
    derivs_start / derivs_end hold one-sided derivatives (rows = order)
    at the left and right segment ends.
    """

    index: int
    pieces: PiecewisePolynomial
    consistency_residual: float
    derivs_start: np.ndarray
    derivs_end: np.ndarray


@dataclass(eq=False)
class Trajectory:
    """Per-segment solutions; x(t) = segment[i](t - (i-1) tau)."""

    segments: list
    tau: float
    n: int

    def evaluate(self, t, order=0, side="right"):
        if not self.segments:
            raise DimensionMismatch("empty trajectory")
        t = float(t)
        # t / tau runs over [0, segments]: the snap is relative to that span
        eps = 1e-12 * len(self.segments)
        if side == "left":
            i = int(np.ceil(t / self.tau - eps))
        else:
            i = int(np.floor(t / self.tau + eps)) + 1
        i = min(max(i, 1), len(self.segments))
        local = t - (i - 1) * self.tau
        return self.segments[i - 1].pieces.evaluate(local, order=order, side=side)

    def evaluate_many(self, ts, order=0):
        return np.stack([self.evaluate(t, order) for t in np.atleast_1d(ts)])


@dataclass(frozen=True, eq=False)
class LedgerEntry:
    """Observed derivative jump at the knot t = knot_index * tau."""

    knot_index: int
    time: float
    matched_order: int
    first_jump_order: int | None
    jump_vector: np.ndarray | None
    jump_norm: float | None
    inconsistent_restart: bool


@dataclass(eq=False)
class JumpLedger:
    entries: list

    @property
    def has_inconsistent(self):
        return any(e.inconsistent_restart for e in self.entries)

    def entry_at(self, knot_index):
        return next((e for e in self.entries if e.knot_index == knot_index), None)


@cache
def _colloc_dmat(degree):
    """Node-space differentiation matrix on the CGL grid of [-1, 1]."""
    V, Vinv = _vander_inv(degree)
    Dc = np.zeros((degree + 1, degree + 1))
    Dc[:degree] = C.chebder(np.eye(degree + 1), axis=0)
    return V @ Dc @ Vinv


@cache
def _midpoint_mats(degree):
    """Midpoints of the CGL grid of [-1, 1] and the node->midpoint value
    and derivative matrices (I_m, D_m) of the degree-p interpolant.

    The p midpoints cos((j + 1/2) pi / p) lie strictly between
    consecutive nodes, where an under-resolved collocant shows its
    residual.
    """
    _, Vinv = _vander_inv(degree)
    mids = np.cos((np.arange(degree) + 0.5) * np.pi / degree)
    I_m = C.chebvander(mids, degree) @ Vinv
    return mids, I_m, I_m @ _colloc_dmat(degree)


class SlowCollocation:
    """Collocation solver for v' = J v + q, v(start) = v0, piece by piece.

    Two rungs: every piece is solved at degree min(FIRST_DEGREE, degree)
    first and kept if it passes a resolution test (its coefficient tail
    and its residual between the nodes); a piece that fails is solved
    again at the top degree, with the same arithmetic as a one-rung solve
    at that degree.

    The bordered operator (first block row [I 0 ... 0], the rest
    (2/h) D_p (x) I - I (x) J on the CGL nodes of a piece of width h)
    depends only on p, h and the dtype, so its inverse is computed once
    per (p, h, dtype), on first use, and every further piece of that
    degree and width costs one mat-vec.  Widths are compared relative to
    the span of the sweep's forcing (the delay tau), so cuts that differ
    only by roundoff, such as 0.3 and 1.0 - 0.7, share one inverse.  The
    forcing is evaluated at the nodes and the midpoints through
    Chebyshev-Vandermonde rows built once per (degree, forcing length).
    One instance lives for one sweep; its operators go with it.
    """

    def __init__(self, J, degree):
        self.J = J
        self.degree = degree
        self.first_degree = min(FIRST_DEGREE, degree)
        self._J_norm = float(np.abs(J).sum(axis=1).max(initial=0.0))
        self._inverses = {}
        self._rows = {}

    def _vander(self, degree, length):
        """Vandermonde rows of length coefficients at the degree's CGL
        nodes and at its grid midpoints."""
        key = (degree, length)
        if key not in self._rows:
            self._rows[key] = _vander_rows(degree, length)
        return self._rows[key]

    def _inverse(self, degree, width, span, dtype):
        key = (degree, round(width / span, 13), span, dtype)
        if key in self._inverses:
            return self._inverses[key]
        nd, p = self.J.shape[0], degree
        size = (p + 1) * nd
        A = np.zeros((size, size), dtype=dtype)
        # A[i*nd + r, j*nd + c] = (2/h) Dmat[i, j] [r == c] - [i == j] J[r, c]
        blocks = A.reshape(p + 1, nd, p + 1, nd)
        comp, node = np.arange(nd), np.arange(p + 1)
        blocks[:, comp, :, comp] = _colloc_dmat(p) * (2.0 / width)
        blocks[node, :, node, :] -= self.J
        A[:nd] = 0.0
        A[:nd, :nd] = np.eye(nd)
        try:
            self._inverses[key] = inv(A)
        except np.linalg.LinAlgError as exc:
            raise CollocationSingular(str(exc)) from exc
        return self._inverses[key]

    def _node_values(self, a, b, q_coef, v0, span, degree):
        """Collocant values at the degree's CGL nodes of [a, b], one row
        per node."""
        nd = self.J.shape[0]
        Q = self._vander(degree, q_coef.shape[0])[0] @ q_coef
        dtype = np.result_type(self.J.dtype, Q.dtype, np.asarray(v0).dtype, float)
        rhs = Q.astype(dtype).reshape(-1)
        rhs[:nd] = v0
        span = b - a if span is None else span
        return (self._inverse(degree, b - a, span, dtype) @ rhs).reshape(degree + 1, nd)

    def _resolved(self, a, b, q_coef, values, coef):
        """Acceptance test of a collocant: the last coefficient is
        negligible next to the piece's own largest one, and the residual
        of v' = J v + q at the grid midpoints is negligible next to
        ||J|| max|v| + max|q| there."""
        mags = np.max(np.abs(coef), axis=1, initial=0.0)
        if mags[-1] > TRIM_TOL * mags.max():
            return False
        p = values.shape[0] - 1
        _, I_m, D_m = _midpoint_mats(p)
        v_mid = I_m @ values
        q_mid = self._vander(p, q_coef.shape[0])[1] @ q_coef
        resid = (2.0 / (b - a)) * (D_m @ values) - v_mid @ self.J.T - q_mid
        scale = (self._J_norm * np.max(np.abs(v_mid), initial=0.0)
                 + np.max(np.abs(q_mid), initial=0.0))
        return np.max(np.abs(resid), initial=0.0) <= RESID_TOL * scale

    def solve_piece(self, a, b, q_coef, v0, span=None):
        """Chebyshev coefficients of v on [a, b] from those of q, by one
        collocation solve at the top degree.

        span is the length that widths are rounded against (default b - a,
        which keys on the exact width).
        """
        values = self._node_values(a, b, q_coef, v0, span, self.degree)
        return trim_coeffs(values_to_coeffs(values))

    def resolve_piece(self, a, b, q_coef, v0, span=None):
        """Chebyshev coefficients of v on [a, b]: the first-rung solve if
        it passes the acceptance test, else solve_piece at the top degree."""
        p = self.first_degree
        if p < self.degree:
            values = self._node_values(a, b, q_coef, v0, span, p)
            coef = values_to_coeffs(values)
            if self._resolved(a, b, q_coef, values, coef):
                return trim_coeffs(coef)
        return self.solve_piece(a, b, q_coef, v0, span)

    def integrate(self, forcing: PiecewisePolynomial, v0):
        """Piece-by-piece solve on the pieces of forcing, v(start) = v0."""
        span = forcing.end - forcing.start
        pieces = []
        for a, b, q_coef in forcing.pieces:
            coef = self.resolve_piece(a, b, q_coef, v0, span)
            pieces.append(Piece(a, b, coef))
            v0 = coef.sum(axis=0)  # T_k(1) = 1
        return forcing._with(pieces, self.J.shape[0])


def _vander_rows(degree, length):
    mids = _midpoint_mats(degree)[0]
    return (C.chebvander(cgl_nodes(degree), length - 1), C.chebvander(mids, length - 1))


def detect_jumps(
    left: SegmentSolution,
    right: SegmentSolution,
    k_max: int,
    knot_index: int,
    tau: float,
    order0_matched: bool | None = None,
) -> LedgerEntry:
    """Ledger entry comparing derivatives across the knot t = knot_index * tau
    between two segments.

    order0_matched=True records that the restart already passed the
    consistency test, so the value-level comparison is not re-run with a
    differently scaled tolerance (inconsistent_restart and matched_order
    = -1 are two views of the same decision).
    """
    avail = min(left.derivs_end.shape[0], right.derivs_start.shape[0]) - 1
    k_eff = min(k_max, avail)
    matched = agreement_order(left.derivs_end, right.derivs_start, k_eff, JUMP_TOL,
                              first=1 if order0_matched else 0)
    first = jump = norm = None
    if matched < k_eff:
        first = matched + 1
        jump = right.derivs_start[first] - left.derivs_end[first]
        norm = float(np.linalg.norm(jump))
    return LedgerEntry(
        knot_index=knot_index,
        time=knot_index * tau,
        matched_order=matched,
        first_jump_order=first,
        jump_vector=jump,
        jump_norm=norm,
        inconsistent_restart=matched == -1,
    )


def history_as_segment(sys: DdaeSystem, split: SplitCoefficients, orders: int):
    """The shifted history dressed up as segment number 0."""
    x0 = sys.phi.shift(sys.tau)
    return SegmentSolution(
        index=0,
        pieces=x0.to_chebyshev(),
        consistency_residual=0.0,
        derivs_start=x0.derivatives(0.0, orders, side="right"),
        derivs_end=x0.derivatives(sys.tau, orders, side="left"),
    )


class Sweep:
    """Every operator that segments first..last of one sweep apply.

    Each delay interval is the same DAE segment with new data, so the
    slow collocation (SlowCollocation), the fast part (FastPart), the
    windows of the transformed inhomogeneity S f on each segment in
    Chebyshev form and f's derivative tables at the knots are built here
    once, from the system, the split and the top degree, and go with the
    sweep.
    """

    def __init__(self, sys: DdaeSystem, split: SplitCoefficients, config: SolverConfig,
                 first, last):
        self.first, self.T = first, split.qwf.T
        self.colloc = SlowCollocation(split.qwf.J, config.degree)
        self.fast = FastPart(split.qwf.N, split.nu)
        self.SD = np.vstack([split.B_d, split.B_a])
        tau = sys.tau
        data = sys.f.apply_matrix(split.qwf.S)
        self.windows = [segment_window(data, i, tau).to_chebyshev()
                        for i in range(first, last + 1)]
        # knot times from the segments' own length tau; rows past f's degree are 0
        knots = np.arange(first - 1, last + 1) * tau
        d = sys.f.max_degree
        self.f_table = np.stack([sys.f.derivatives(knots[:-1], d, side="right"),
                                 sys.f.derivatives(knots[1:], d, side="left")], axis=1)

    def f_knots(self, i, count):
        """f's derivatives 0..count-1 at the start and at the end of
        segment i; the rows above the table's are zero."""
        rows = self.f_table[i - self.first, :, :count]
        out = np.zeros((2, count, rows.shape[2]), dtype=rows.dtype)
        out[:, : rows.shape[1]] = rows
        return out

    def recombine(self, v: PiecewisePolynomial, q_f: PiecewisePolynomial):
        """x = T [v; w] with w the fast part for q_f; v and q_f share their
        breakpoints, so each piece is one [v | w] T^T."""
        w = self.fast.solve(q_f)
        pieces = [Piece(a, b, _stacked(cv, cw) @ self.T.T)
                  for (a, b, cv), (_, _, cw) in zip(v.pieces, w.pieces)]
        return v._with(pieces, self.T.shape[0])


def solve_segment(
    split: SplitCoefficients,
    i: int,
    prev: SegmentSolution,
    config: SolverConfig,
    sweep: Sweep,
) -> SegmentSolution:
    """Solve segment i from the previous segment (or history, i = 1).

    Raises InconsistentRestart when the previous end value is not a
    consistent initial value for this segment (history.is_consistent);
    the error carries the order-0 jump to the consistent projection.
    sweep is the Sweep of split and config that holds segment i.
    """
    nu, n_d = split.nu, split.n_d
    R_prev = prev.derivs_start.shape[0]
    orders = max(R_prev - 1 - nu, 1)

    # inhomogeneity derivative streams at both segment ends
    f_left, f_right = sweep.f_knots(i, R_prev)
    q_left = prev.derivs_start @ split.D.T + f_left
    q_right = prev.derivs_end @ split.D.T + f_right

    x_req = prev.derivs_end[0]
    derivs_start, residual = solution_taylor(split, x_req, q_left, orders)
    if not is_consistent(residual, x_req, q_left[0]):
        raise InconsistentRestart(i, residual, jump=derivs_start[0] - x_req)

    # [q_d; q_f] = S D x(t - tau) + S f on the segment, in local time
    delayed = prev.pieces.apply_matrix(sweep.SD)
    q_d, q_f = delayed.split_sum(sweep.windows[i - sweep.first], n_d)
    v0 = (split.qwf.T_inv @ derivs_start[0])[:n_d]
    pieces = sweep.recombine(sweep.colloc.integrate(q_d, v0), q_f)

    x_end = pieces.pieces[-1].coef.sum(axis=0)  # T_k(1) = 1
    derivs_end = solution_taylor_from_value(split, x_end, q_right, orders)

    return SegmentSolution(index=i, pieces=pieces, consistency_residual=residual,
                           derivs_start=derivs_start, derivs_end=derivs_end)


def method_of_steps(
    sys: DdaeSystem,
    split: SplitCoefficients | None = None,
    config: SolverConfig = SolverConfig(),
):
    """Solve the initial value problem across all delay intervals.

    Returns (trajectory, ledger).  The history must be admissible; a
    restart inconsistency either ends the sweep with the breakdown
    recorded in the ledger (default) or raises, depending on
    config.on_inconsistent.
    """
    if split is None:
        split = build_split(sys)
    admissible, residual = check_admissible(sys, split)
    if not admissible:
        raise NotAdmissible(residual)
    nu = split.nu
    k_max = config.k_max if config.k_max is not None else nu + 2
    M = sys.horizon_intervals
    hist_orders = k_max + M * nu + max(nu, 1)
    if hist_orders > MAX_STREAM_ORDERS:
        raise DimensionMismatch(
            f"k_max + horizon_intervals * nu + max(nu, 1) = {hist_orders} derivative"
            f" orders exceed {MAX_STREAM_ORDERS}"
        )
    prev = history_as_segment(sys, split, hist_orders)

    sweep = Sweep(sys, split, config, 1, M)
    segments, entries = [], []
    # the top orders of a stiff stream may overflow; the recursion fences
    # them off (model._finite_rows), so numpy need not report them
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, M + 1):
            try:
                seg = solve_segment(split, i, prev, config, sweep)
            except InconsistentRestart as err:
                if config.on_inconsistent == "stop":
                    raise
                entries.append(LedgerEntry(
                    knot_index=i - 1, time=(i - 1) * sys.tau, matched_order=-1,
                    first_jump_order=0, jump_vector=err.jump,
                    jump_norm=float(np.linalg.norm(err.jump)), inconsistent_restart=True))
                break
            entries.append(detect_jumps(prev, seg, k_max, knot_index=i - 1, tau=sys.tau,
                                        order0_matched=True))
            segments.append(seg)
            prev = seg
    return Trajectory(segments, sys.tau, sys.n), JumpLedger(entries)

