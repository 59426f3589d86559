"""Method-of-steps solver with a derivative-jump ledger.

Each delay interval is one differential-algebraic segment driven by the
previous segment.  The algebraic (fast) part is obtained in closed form
from derivatives of the segment inhomogeneity; the differential (slow)
part is integrated by global Chebyshev collocation on each smooth piece,
at a low degree first and at the top degree only where the low degree
does not resolve the piece.  Every segment of a sweep is the same DAE
segment with new data, so one Sweep builds each operator a segment
applies once: the collocation inverses, the fast-part operators, the
data windows in Chebyshev form and f's own derivative tables at the
knots.
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

from .cheb import _vander_inv, cgl_nodes, trim_coeffs, values_to_coeffs
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
    solution_taylor,
    solution_taylor_from_value,
)
from .pencil import row_norms, vector_norm
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

    The degree ladder is (min(FIRST_DEGREE, degree), degree): each piece
    climbs it and keeps the first rung whose collocant passes a resolution
    test (the trim drops its last coefficient, and its residual between
    the nodes is small), the last rung unconditionally.

    The bordered operator (first block row [I 0 ... 0], the rest
    (2/h) D_p (x) I - I (x) J on the CGL nodes of a piece of width h)
    depends only on p, h and the dtype, so its inverse is computed once
    per (p, h, dtype), on first use, and every further piece of that
    degree and width costs one mat-vec.  Widths are compared relative to
    the span of the forcing (the delay tau), so cuts that differ only by
    roundoff, such as 0.3 and 1.0 - 0.7, share one inverse.  One instance
    lives for one sweep; its inverses go with it.
    """

    def __init__(self, J, degree):
        self.J = J
        self.ladder = tuple(dict.fromkeys((min(FIRST_DEGREE, degree), degree)))
        self._J_norm = float(np.abs(J).sum(axis=1).max(initial=0.0))
        self._inverses = {}

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
        Q = _vander_rows(degree, q_coef.shape[0])[0] @ q_coef
        dtype = np.result_type(self.J.dtype, Q.dtype, np.asarray(v0).dtype, float)
        rhs = Q.astype(dtype).reshape(-1)
        rhs[:nd] = v0
        return (self._inverse(degree, b - a, span, dtype) @ rhs).reshape(degree + 1, nd)

    def _resolved(self, a, b, q_coef, values):
        """Residual test of a collocant: the residual of v' = J v + q at the
        grid midpoints is negligible next to ||J|| max|v| + max|q| there."""
        p = values.shape[0] - 1
        _, I_m, D_m = _midpoint_mats(p)
        v_mid = I_m @ values
        q_mid = _vander_rows(p, q_coef.shape[0])[1] @ q_coef
        resid = (2.0 / (b - a)) * (D_m @ values) - v_mid @ self.J.T - q_mid
        scale = (self._J_norm * np.max(np.abs(v_mid), initial=0.0)
                 + np.max(np.abs(q_mid), initial=0.0))
        return np.max(np.abs(resid), initial=0.0) <= RESID_TOL * scale

    def integrate(self, forcing: PiecewisePolynomial, v0):
        """Piece-by-piece solve on the pieces of forcing, v(start) = v0."""
        span = forcing.end - forcing.start
        pieces = []
        for a, b, q_coef in forcing.pieces:
            for p in self.ladder:
                values = self._node_values(a, b, q_coef, v0, span, p)
                coef = trim_coeffs(values_to_coeffs(values))
                if p == self.ladder[-1] or (
                        len(coef) <= p and self._resolved(a, b, q_coef, values)):
                    break
            pieces.append(Piece(a, b, coef))
            v0 = coef.sum(axis=0)  # T_k(1) = 1
        return forcing._with(pieces, self.J.shape[0])


@cache
def _vander_rows(degree, length):
    """Chebyshev-Vandermonde rows of length coefficients at the degree's
    CGL nodes and at its grid midpoints."""
    mids = _midpoint_mats(degree)[0]
    return (C.chebvander(cgl_nodes(degree), length - 1), C.chebvander(mids, length - 1))


def detect_jumps(chain, k_max: int, tau: float):
    """Ledger entries for the knots between consecutive segments of chain,
    all measured by one agreement_order pass.

    chain is the history as segment 0 followed by segments 1, 2, ...: the
    knot between chain[j] and chain[j + 1] is t = chain[j].index * tau,
    where chain[j].derivs_end meets chain[j + 1].derivs_start, compared
    up to order k_max or the shorter stream's top, whichever is lower.
    Every restart in chain has passed the consistency test, so order 0
    matches and the comparison starts at order 1 (a restart that fails
    the test ends the sweep and is recorded by method_of_steps).
    """
    pairs = list(zip(chain, chain[1:]))
    if not pairs:
        return []
    tops = [min(k_max, len(l.derivs_end) - 1, len(r.derivs_start) - 1) for l, r in pairs]
    # both sides of every knot in one stack each, zero past a pair's top
    dtype = np.result_type(*(s.derivs_end for s in chain[:-1]),
                           *(s.derivs_start for s in chain[1:]))
    ends = np.zeros((len(pairs), max(tops) + 1, chain[0].derivs_end.shape[1]), dtype)
    starts = np.zeros_like(ends)
    for p, ((l, r), top) in enumerate(zip(pairs, tops)):
        ends[p, : top + 1] = l.derivs_end[: top + 1]
        starts[p, : top + 1] = r.derivs_start[: top + 1]
    matched = agreement_order(ends, starts, tops, JUMP_TOL, 1)
    jumped = np.flatnonzero(matched < tops)
    with np.errstate(over="ignore", invalid="ignore"):
        jumps = starts[jumped, matched[jumped] + 1] - ends[jumped, matched[jumped] + 1]
    found = dict(zip(jumped.tolist(), zip(jumps, row_norms(jumps).tolist())))
    entries = []
    for p, ((l, _), order) in enumerate(zip(pairs, matched.tolist())):
        jump, norm = found.get(p, (None, None))
        entries.append(LedgerEntry(
            knot_index=l.index,
            time=l.index * tau,
            matched_order=order,
            first_jump_order=None if jump is None else order + 1,
            jump_vector=jump,
            jump_norm=norm,
            inconsistent_restart=False,
        ))
    return entries


def history_as_segment(sys: DdaeSystem, orders: int):
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
    Chebyshev form (all cut and converted in one pass,
    PiecewisePolynomial.windows) and f's derivative tables at the knots
    are built here once, from the system, the split and the top degree,
    and go with the sweep.
    """

    def __init__(self, sys: DdaeSystem, split: SplitCoefficients, config: SolverConfig,
                 first, last):
        self.first, self.T = first, split.qwf.T
        self.colloc = SlowCollocation(split.qwf.J, config.degree)
        self.fast = FastPart(split.qwf.N, split.nu)
        self.SD = np.vstack([split.B_d, split.B_a])
        # knot times from the segments' own length tau; rows past f's degree are 0
        knots = np.arange(first - 1, last + 1) * sys.tau
        self.windows = sys.f.apply_matrix(split.qwf.S).windows(knots[:-1], knots[1:])
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
    chain, breakdown = [history_as_segment(sys, hist_orders)], []
    sweep = Sweep(sys, split, config, 1, M)
    # the top orders of a stiff stream may overflow; the recursion fences
    # them off (model._finite_rows), so numpy need not report them
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, M + 1):
            try:
                chain.append(solve_segment(split, i, chain[-1], config, sweep))
            except InconsistentRestart as err:
                if config.on_inconsistent == "stop":
                    raise
                breakdown.append(LedgerEntry(
                    knot_index=i - 1, time=(i - 1) * sys.tau, matched_order=-1,
                    first_jump_order=0, jump_vector=err.jump,
                    jump_norm=vector_norm(err.jump), inconsistent_restart=True))
                break
        # the ledger feeds no later segment: one pass over every knot
        entries = detect_jumps(chain, k_max, sys.tau)
    return Trajectory(chain[1:], sys.tau), JumpLedger(entries + breakdown)
