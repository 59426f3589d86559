"""Method-of-steps solver with a derivative-jump ledger.

Each delay interval is one differential-algebraic segment driven by the
previous segment.  The algebraic (fast) part is obtained in closed form
from derivatives of the segment inhomogeneity; the differential (slow)
part is integrated by global Chebyshev collocation on each smooth piece,
with the collocation operator inverted once per piece width and sweep.
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
from .history import check_admissible
from .model import (
    DdaeSystem,
    SplitCoefficients,
    build_split,
    fast_subsystem_solution,
    segment_window,
    solution_taylor,
    solution_taylor_from_value,
)
from .piecewise import CHEBYSHEV, Piece, PiecewisePolynomial

_dmat_cache = {}


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the stepping solver.

    degree: collocation degree per smooth piece.
    k_max: highest derivative order compared at knots (default index+2).
    tol_consistency: relative tolerance for accepting a restart value.
    tol_jump: relative tolerance for declaring a derivative jump.
    on_inconsistent: "record" stores the breakdown in the ledger and
        returns the partial trajectory; "stop" raises instead.
    """

    degree: int = 48
    k_max: int | None = None
    tol_consistency: float = 1e-7
    tol_jump: float = 1e-7
    on_inconsistent: str = "record"

    def __post_init__(self):
        if self.degree < 1:
            raise DimensionMismatch("collocation degree must be at least 1")
        if self.k_max is not None and self.k_max < 0:
            raise DimensionMismatch("k_max must be nonnegative")
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

    @property
    def t_end(self):
        return len(self.segments) * self.tau

    def evaluate(self, t, order=0, side="right"):
        if not self.segments:
            raise DimensionMismatch("empty trajectory")
        t = float(t)
        eps = 1e-12 * max(1.0, self.t_end)
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
        for e in self.entries:
            if e.knot_index == knot_index:
                return e
        return None


def _colloc_dmat(degree):
    """Node-space differentiation matrix on the CGL grid of [-1, 1]."""
    if degree not in _dmat_cache:
        V, Vinv = _vander_inv(degree)
        Dc = np.zeros((degree + 1, degree + 1))
        Dc[:degree] = C.chebder(np.eye(degree + 1), axis=0)
        _dmat_cache[degree] = V @ Dc @ Vinv
    return _dmat_cache[degree]


class SlowCollocation:
    """Collocation solver for v' = J v + q, v(start) = v0, piece by piece.

    The bordered operator (first block row [I 0 ... 0], the rest
    (2/h) D_p (x) I - I (x) J on the CGL nodes of a piece of width h)
    depends only on h and the dtype, so its inverse is computed once per
    (h, dtype) and every further piece of that width costs one mat-vec.
    One instance lives for one sweep; its inverses go with it.
    """

    def __init__(self, J, degree):
        self.J = J
        self.degree = degree
        self._inverses = {}
        self._work = None

    def _inverse(self, width, dtype):
        key = (width, dtype)
        if key in self._inverses:
            return self._inverses[key]
        nd, p = self.J.shape[0], self.degree
        size = (p + 1) * nd
        if self._work is None or self._work.dtype != dtype:
            self._work = np.empty((size, size), dtype=dtype)
        A = self._work
        A.fill(0.0)
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

    def solve_piece(self, a, b, q_coef, v0):
        """Chebyshev coefficients of v on [a, b] from those of q."""
        nd = self.J.shape[0]
        nodes = 0.5 * (a + b) + 0.5 * (b - a) * cgl_nodes(self.degree)
        Q = CHEBYSHEV.eval(q_coef, a, b, nodes).T
        dtype = np.result_type(self.J.dtype, Q.dtype, np.asarray(v0).dtype, float)
        rhs = Q.astype(dtype).reshape(-1)
        rhs[:nd] = v0
        values = (self._inverse(b - a, dtype) @ rhs).reshape(self.degree + 1, nd)
        return trim_coeffs(values_to_coeffs(values))

    def integrate(self, forcing: PiecewisePolynomial, v0):
        """Piece-by-piece solve on the pieces of forcing, v(start) = v0."""
        pieces = []
        for a, b, q_coef in forcing.pieces:
            coef = self.solve_piece(a, b, q_coef, v0)
            pieces.append(Piece(a, b, coef))
            v0 = CHEBYSHEV.eval(coef, a, b, b)
        return forcing._with(pieces, self.J.shape[0])


def _f_derivs_x(split, s, orders, side):
    """Derivatives of the original inhomogeneity at global time s."""
    gh = split.g.derivatives(s, orders, side=side)
    if split.n_a:
        gh = np.hstack([gh, split.h.derivatives(s, orders, side=side)])
    return gh @ split.qwf.S_inv.T


def _compare_endpoints(left, right, k_max, tol_jump, order0_matched=None):
    matched = -1
    for k in range(k_max + 1):
        if k == 0 and order0_matched is True:
            matched = 0
            continue
        l, r = left[k], right[k]
        scale = 1.0 + max(float(np.linalg.norm(l)), float(np.linalg.norm(r)))
        if np.linalg.norm(r - l) <= tol_jump * scale:
            matched = k
        else:
            break
    if matched == k_max:
        return matched, None, None, None
    jump = right[matched + 1] - left[matched + 1]
    return matched, matched + 1, jump, float(np.linalg.norm(jump))


def detect_jumps(
    left: SegmentSolution,
    right: SegmentSolution,
    k_max: int,
    tol_jump: float = 1e-7,
    knot_index: int | None = None,
    tau: float | None = None,
    order0_matched: bool | None = None,
) -> LedgerEntry:
    """Ledger entry comparing derivatives across the knot between two segments.

    order0_matched=True records that the restart already passed the
    consistency test, so the value-level comparison is not re-run with a
    differently scaled tolerance (inconsistent_restart and matched_order
    = -1 are two views of the same decision).
    """
    avail = min(left.derivs_end.shape[0], right.derivs_start.shape[0]) - 1
    k_eff = min(k_max, avail)
    matched, first, jump, norm = _compare_endpoints(
        left.derivs_end, right.derivs_start, k_eff, tol_jump, order0_matched
    )
    idx = right.index - 1 if knot_index is None else knot_index
    tau = left.pieces.end if tau is None else tau
    return LedgerEntry(
        knot_index=idx,
        time=idx * tau,
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


def solve_segment(
    split: SplitCoefficients,
    i: int,
    prev: SegmentSolution,
    config: SolverConfig = SolverConfig(),
    colloc: SlowCollocation | None = None,
) -> SegmentSolution:
    """Solve segment i from the previous segment (or history, i = 1).

    Raises InconsistentRestart when the previous end value is not a
    consistent initial value for this segment within tol_consistency;
    the error carries the order-0 jump to the consistent projection.
    colloc is the sweep's SlowCollocation for split.qwf.J at
    config.degree, so its inverses serve every segment (a fresh one is
    built when omitted).
    """
    if split.g is None or split.h is None:
        raise DimensionMismatch("split must carry transformed data functions")
    nu, n_d = split.nu, split.n_d
    tau = prev.pieces.end
    R_prev = prev.derivs_start.shape[0]
    orders = max(R_prev - 1 - nu, 1)

    # inhomogeneity derivative streams at both segment ends
    t_left = (i - 1) * tau
    t_right = i * tau
    f_left = _f_derivs_x(split, t_left, R_prev - 1, "right")
    f_right = _f_derivs_x(split, t_right, R_prev - 1, "left")
    q_left = prev.derivs_start @ split.D.T + f_left
    q_right = prev.derivs_end @ split.D.T + f_right

    x_req = prev.derivs_end[0]
    derivs_start, residual = solution_taylor(split, x_req, q_left, orders)
    scale = 1.0 + float(np.linalg.norm(x_req)) + float(np.linalg.norm(q_left[0]))
    if residual > config.tol_consistency * scale:
        raise InconsistentRestart(i, residual, jump=derivs_start[0] - x_req)

    # data windows in segment-local time
    g_i = segment_window(split.g, i, tau)
    h_i = segment_window(split.h, i, tau)
    q_d = prev.pieces.apply_matrix(split.B_d) + g_i.to_chebyshev()
    q_f = prev.pieces.apply_matrix(split.B_a) + h_i.to_chebyshev()
    q_d, q_f = q_d.aligned_with(q_f)

    w = fast_subsystem_solution(split.qwf.N, q_f, nu=nu)
    v0 = (split.qwf.T_inv @ derivs_start[0])[:n_d]
    if colloc is None:
        colloc = SlowCollocation(split.qwf.J, config.degree)
    v = colloc.integrate(q_d, v0)
    pieces = v.stack(w).apply_matrix(split.qwf.T)

    x_end = pieces.evaluate(tau, side="left")
    derivs_end = solution_taylor_from_value(split, x_end, q_right, orders)

    return SegmentSolution(
        index=i,
        pieces=pieces,
        consistency_residual=residual,
        derivs_start=derivs_start,
        derivs_end=derivs_end,
    )


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
    prev = history_as_segment(sys, split, hist_orders)

    colloc = SlowCollocation(split.qwf.J, config.degree)
    segments = []
    entries = []
    for i in range(1, M + 1):
        try:
            seg = solve_segment(split, i, prev, config, colloc=colloc)
        except InconsistentRestart as err:
            if config.on_inconsistent == "stop":
                raise
            entries.append(
                LedgerEntry(
                    knot_index=i - 1,
                    time=(i - 1) * sys.tau,
                    matched_order=-1,
                    first_jump_order=0,
                    jump_vector=err.jump,
                    jump_norm=float(np.linalg.norm(err.jump)),
                    inconsistent_restart=True,
                )
            )
            break
        entries.append(
            detect_jumps(prev, seg, k_max, config.tol_jump, knot_index=i - 1,
                         tau=sys.tau, order0_matched=True)
        )
        segments.append(seg)
        prev = seg
    return Trajectory(segments, sys.tau, sys.n), JumpLedger(entries)


def solve_hidden_delay_dde(expansion, sys: DdaeSystem, config: SolverConfig = SolverConfig()):
    """Integrate the reformulated retarded equation on the tau grid.

    The initial data (the slow component up to nu_D * tau) is taken from
    the direct method-of-steps solution; afterwards the multi-delay
    right-hand side only references segments at least one delay back, so
    each segment is again one collocation solve.  Returns the trajectory
    of the reformulated state (dimension n_d).
    """
    split = expansion.split
    n_d = split.n_d
    tau, M = sys.tau, sys.horizon_intervals
    nu_D = expansion.nu_D
    if M <= nu_D:
        raise DimensionMismatch("horizon must exceed nu_D intervals")

    P_slow = split.qwf.T_inv[:n_d]

    z_segments = []
    if nu_D:
        direct, ledger = method_of_steps(sys, split, config)
        if len(direct.segments) < nu_D:
            raise DimensionMismatch(
                "direct solve broke down before nu_D segments; "
                "expansion preconditions violated"
            )
        for seg in direct.segments[:nu_D]:
            z_segments.append(
                SegmentSolution(
                    index=seg.index,
                    pieces=seg.pieces.apply_matrix(P_slow),
                    consistency_residual=seg.consistency_residual,
                    derivs_start=seg.derivs_start @ P_slow.T,
                    derivs_end=seg.derivs_end @ P_slow.T,
                )
            )

    psi_seg = split.psi.shift(tau).to_chebyshev()
    colloc = SlowCollocation(expansion.J, config.degree)

    def z_piecewise(j):
        # segment j of z in local time; j = 0 is the shifted history psi
        if j == 0:
            return psi_seg
        return z_segments[j - 1].pieces

    for i in range(nu_D + 1, M + 1):
        theta_i = expansion.theta.restrict((i - 1) * tau, i * tau).shift(-(i - 1) * tau)
        forcing = theta_i.to_chebyshev()
        for k, Dk in enumerate(expansion.D_delays):
            lag = k + 1
            forcing = forcing + z_piecewise(i - lag).apply_matrix(Dk)
        if i == nu_D + 1:
            if nu_D:
                z0 = z_segments[-1].derivs_end[0]
            else:
                z0 = split.psi.evaluate(0.0, side="left")
        else:
            z0 = z_segments[-1].pieces.evaluate(tau, side="left")
        pieces = colloc.integrate(forcing, z0)
        z_segments.append(
            SegmentSolution(
                index=i,
                pieces=pieces,
                consistency_residual=0.0,
                derivs_start=pieces.evaluate(0.0)[None, :],
                derivs_end=pieces.evaluate(tau, side="left")[None, :],
            )
        )
    return Trajectory(z_segments, tau, n_d)
