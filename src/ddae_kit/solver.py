"""Method-of-steps solver with a derivative-jump ledger.

Each delay interval is one differential-algebraic segment driven by the
previous segment.  The algebraic (fast) part is obtained in closed form
from derivatives of the segment inhomogeneity; the differential (slow)
part is integrated by Chebyshev collocation on each smooth piece, and a
piece is kept only when its collocant passes a pointwise residual
certificate: a piece that fails climbs from the first degree to the top
degree and is then bisected.  Every segment of a sweep is the same DAE
segment with new data, so one Sweep builds each operator a segment
applies once: the collocation inverses, the fast-part operators, the
data windows in Chebyshev form and f's own derivative tables at the
knots.
A restart value that fails the consistency test is the de-smoothing
failure mode: it is reported, not repaired.  One that passes starts
its segment from its consistent projection.

One-sided derivatives at the knots i*tau are computed by exact recursion
through the inherent ODE rather than by differentiating interpolants, so
the ledger of derivative jumps stays accurate to roundoff for polynomial
data.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cache
from typing import ClassVar

import numpy as np
from numpy.linalg import inv
from numpy.polynomial import chebyshev as C

from .cheb import _vander_inv, cgl_nodes, cut_stack, trim_lengths, values_to_coeffs
from .errors import (
    CollocationSingular,
    DimensionMismatch,
    InconsistentRestart,
    NotAdmissible,
    OutOfDomain,
)
from .history import agreement_order, restart
from .model import (
    DdaeSystem,
    FastPart,
    SplitCoefficients,
    build_split,
    solution_taylor_from_value,
)
from .pencil import row_norms
from .piecewise import DOMAIN_RTOL, PiecewisePolynomial, _padded, _stacked, _width_groups

# relative tolerance for declaring a derivative jump at a knot
JUMP_TOL = 1e-7
# first collocation degree of every piece
FIRST_DEGREE = 16
# top collocation degree: a piece whose FIRST_DEGREE collocant fails its
# certificate is solved again at TOP_DEGREE, and bisected if that fails
TOP_DEGREE = 48
# residual v' - J v - q a certified collocant leaves at each grid
# midpoint, relative to |v'| + |J v| + |q| there (max norms)
RESID_RTOL = 1e-10
# rounding allowance of the midpoint derivative, in units of
# p eps (2/h) |D_m| |values|: what a (p+1)-term product may lose
ROUNDING_UNITS = 2.0
# |J| w (max-row-sum norm) at or below which a forcing piece of width w
# starts whole; a wider one starts in 2^ceil(log2(|J| w / STIFF_WIDTH))
# equal parts
STIFF_WIDTH = 8.0
# deepest bisection: no piece is narrower than span / 2**MAX_DEPTH
MAX_DEPTH = 10
# longest derivative stream a sweep may carry: the history holds
# k_max + M L + max(nu, 1) orders (stream_orders), each knot L fewer, so
# the sweep stores O(MAX_STREAM_ORDERS^2 n) numbers at most; the bound
# caps k_max (SolverConfig) and, for de-smoothing systems (L > 0), M
MAX_STREAM_ORDERS = 1024
# longest stream, m = (orders + 1) n numbers, whose knot map a sweep
# forms (Sweep.knot_map): the map's build and its product per knot
# (2 m^2 multiply-adds) grow as m^2, a lone knot's scan about as m, and
# on 32-knot sweeps (one BLAS thread) they break even near m = 130
MAX_KNOT_MAP = 128


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the stepping solver.

    k_max: highest derivative order compared at knots (default index+2),
        an integer (numpy's too), not a bool, below MAX_STREAM_ORDERS; the
        stream it sets (stream_orders) is bounded by method_of_steps.
    """

    # a constant, not a field: bench/spans.py reads it off solve_segment's config
    degree: ClassVar[int] = TOP_DEGREE
    k_max: int | None = None

    def __post_init__(self):
        if self.k_max is not None:
            if isinstance(self.k_max, bool) or not isinstance(self.k_max, numbers.Integral):
                raise DimensionMismatch(f"k_max must be an integer, not {self.k_max!r}")
            if not 0 <= self.k_max < MAX_STREAM_ORDERS:
                raise DimensionMismatch(f"k_max must be in 0..{MAX_STREAM_ORDERS - 1}")


@dataclass(eq=False)
class SegmentSolution:
    """Solution on one delay interval, in segment-local time [0, tau].

    pieces is a piecewise polynomial in the Chebyshev basis;
    derivs_start / derivs_end hold one-sided derivatives (rows = order)
    at the left and right segment ends; unresolved lists the (a, b) of
    the runs of pieces whose collocant failed its certificate at the
    width floor.  restart is (derivs_start, consistency_residual,
    consistent) of segment index + 1, formed with derivs_end at their
    common knot (history_as_segment for the history, segment 0, and
    _close, which builds every later segment, for the others), or None
    when no later segment of the sweep reads it.
    """

    index: int
    pieces: PiecewisePolynomial
    consistency_residual: float
    derivs_start: np.ndarray
    derivs_end: np.ndarray
    unresolved: list = field(default_factory=list)
    restart: tuple | None = None


@dataclass(eq=False)
class Trajectory:
    """Per-segment solutions; x(t) = segment[i](t - (i-1) tau)."""

    segments: list
    tau: float

    def evaluate(self, t, order=0, side="right"):
        """The order-th derivative of x at t in [0, M tau], M segments, to
        the tolerance of the segments' pieces (DOMAIN_RTOL tau), else
        OutOfDomain; a NaN t goes to the last segment and gives a NaN row,
        as in PiecewisePolynomial.evaluate."""
        count = len(self.segments)
        if not count:
            raise DimensionMismatch("empty trajectory")
        t, end, tol = float(t), count * self.tau, DOMAIN_RTOL * self.tau
        if t < -tol or t > end + tol:
            raise OutOfDomain(f"t={t} outside [0.0, {end}]")
        # within tol of a knot t is at the knot, as in each segment's _locate
        k = np.ceil((t - tol) / self.tau) if side == "left" else np.floor((t + tol) / self.tau) + 1
        i = count if k != k else min(max(int(k), 1), count)
        local = t - (i - 1) * self.tau
        return self.segments[i - 1].pieces.evaluate(local, order=order, side=side)


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
    """The knot entries, and unresolved_pieces: one (segment, start, end)
    per run of pieces whose collocant failed its certificate at the
    width floor, in global time."""

    entries: list
    unresolved_pieces: list = field(default_factory=list)

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
    """The node->midpoint derivative and value matrices of the degree-p
    interpolant on the CGL grid of [-1, 1], stacked [D_m; I_m], and |D_m|.

    The p midpoints cos((j + 1/2) pi / p) lie strictly between
    consecutive nodes, where an under-resolved collocant shows its
    residual.
    """
    _, Vinv = _vander_inv(degree)
    I_m = C.chebvander(_midpoints(degree), degree) @ Vinv
    D_m = I_m @ _colloc_dmat(degree)
    return np.vstack([D_m, I_m]), np.abs(D_m)


def _midpoints(degree):
    return np.cos((np.arange(degree) + 0.5) * np.pi / degree)


@cache
def _vander_rows(degree, length):
    """Chebyshev-Vandermonde rows of length coefficients at the degree's
    CGL nodes and at its grid midpoints."""
    return (C.chebvander(cgl_nodes(degree), length - 1),
            C.chebvander(_midpoints(degree), length - 1))


def _max_norms(x, axis=-1):
    """The max norm of each vector of x along axis, 0 for vectors of
    length 0."""
    return np.maximum.reduce(np.abs(x), axis=axis, initial=0.0)


def _chain(G, e, v0):
    """Start values of pieces in time order, piece k ending at
    G[k] s_k + e[k], where piece k + 1 starts: the prefix compositions of
    the affine end maps by doubling, log2(len(G)) stacked products (G and
    e are overwritten).  A chained start whose max norm is at most the
    format's floor tiny/eps starts its piece at zero, so that a decayed
    solution is exactly zero instead of subnormal."""
    s = 1
    while s < len(G):
        e[s:] += (G[s:] @ e[:-s, :, None])[..., 0]
        G[s:] = G[s:] @ G[:-s]
        s *= 2
    starts = np.empty_like(e)
    starts[0] = v0
    starts[1:] = (G[:-1] @ v0) + e[:-1]
    starts[1:][_max_norms(starts[1:]) <= _format(starts.dtype)[1]] = 0.0
    return starts


class SlowCollocation:
    """Certified collocation solver for v' = J v + q, v(start) = v0.

    The degree ladder is (FIRST_DEGREE, degree).  A collocant is
    certified when the trim drops its last coefficient (or that
    coefficient is at most the format's floor tiny/eps) and, at every
    grid midpoint, |v' - J v - q| <= RESID_RTOL (|v'| + |J v| + |q|) + rho
    in max norms over the components (the scale the max of the
    componentwise sum), rho the rounding bound ROUNDING_UNITS p eps (2/h)
    |D_m| |values| of the differentiated collocant; a midpoint whose
    scale is below the floor passes.  Both floors come from the float
    format, so the test is the same at every scale of the data above it.

    integrate starts a forcing piece of width w whole when
    ||J|| w <= STIFF_WIDTH and in 2^ceil(log2(||J|| w / STIFF_WIDTH))
    equal parts otherwise.  Each round solves every piece, one stacked
    product per (degree, width, forcing length); a piece that fails
    climbs the ladder, and at the top rung is halved, its halves starting
    again at the first rung, down to the width floor span / 2^MAX_DEPTH.
    The forcing is cut by its own split_at, once for the first layout
    and once per round that halves.
    The rounds end when no piece changes; a piece that still fails at
    the floor keeps its top-rung collocant and is reported unresolved.

    The solve is affine in the start value: values = G v0 + H Q, with G
    and H column blocks of the inverse of the bordered operator (first
    block row [I 0 ... 0], the rest (2/h) D_p (x) I - I (x) J on the CGL
    nodes of a piece of width h).  The end rows of G and H chain the
    start values through the pieces (_chain) before one product per
    group gives the values.  The inverse depends only on p, h and the
    dtype, so it is computed once per (p, h, dtype), on first use;
    widths are compared relative to the span of the forcing (the delay
    tau).  One instance lives for one sweep; its inverses go with it.
    """

    def __init__(self, J, degree):
        self.J = J
        self.ladder = tuple(dict.fromkeys((FIRST_DEGREE, degree)))
        self._J_norm = float(np.abs(J).sum(axis=1).max(initial=0.0))
        self._inverses = {}

    def _inverse(self, degree, width, span, dtype):
        key = (degree, round(float(width) / span, 13), span, dtype)
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

    def _first_layout(self, forcing, floor):
        """The forcing with each piece of width w cut into 2^level equal
        parts: level = ceil(log2(||J|| w / STIFF_WIDTH)) when ||J|| w >
        STIFF_WIDTH, no part narrower than floor."""
        a, b = forcing._stack[:2]
        w = b - a
        stiff = np.flatnonzero(self._J_norm * w > STIFF_WIDTH)
        if not stiff.size:
            return forcing
        levels = np.minimum(np.ceil(np.log2(self._J_norm * w[stiff] / STIFF_WIDTH)),
                            np.floor(np.log2(w[stiff] / floor * (1.0 + DOMAIN_RTOL))))
        cuts = []
        for k, level in zip(stiff.tolist(), np.maximum(levels, 0).astype(int).tolist()):
            cuts += (a[k] + w[k] * np.arange(1, 2**level) / 2**level).tolist()
        return forcing.split_at(cuts)

    def _round(self, a, b, q, lengths, rungs, v0, span):
        """Every piece [a[k], b[k]] with forcing coefficients q[k, :lengths[k]]
        solved at its rung, the start values chained from v0, one group of
        pieces of one (degree, width, forcing length) at a time: the
        coefficient stack of all pieces, zero past each trimmed length and
        cut to the longest, the trimmed lengths, and whether each piece is
        certified: a bool per piece, or True for all of them.

        A group's arrays are node-major, (p+1, nd K) with column r K + k
        for component r of piece k, so each operator is one product for
        the whole group.
        """
        nd, count, widths = len(self.J), len(q), b - a
        dtype = np.result_type(self.J, v0, q, float)
        G = np.empty((count, nd, nd), dtype=dtype)
        e = np.empty((count, nd), dtype=dtype)
        solving = []
        for (rung, length, _), ks in _width_groups(a, b, span, rungs.tolist(),
                                                   lengths.tolist()).items():
            p = self.ladder[rung]
            Ainv = self._inverse(p, widths[ks[0]], span, dtype)
            sel = slice(None) if len(ks) == count else ks
            qg = q[sel, :length].transpose(1, 2, 0).reshape(length, nd * len(ks))
            # rows i nd + r: component r of the forcing at node i
            rhs = (_vander_rows(p, length)[0] @ qg).astype(dtype).reshape(-1, len(ks))
            # the end rows: node p
            G[sel] = Ainv[p * nd :, :nd]
            e[sel] = (Ainv[p * nd :, nd:] @ rhs[nd:]).T
            solving.append((sel, len(ks), p, Ainv, qg, rhs))
        starts = _chain(G, e, v0)
        passed, keep = np.empty(count, dtype=bool), np.empty(count, dtype=int)
        coefs = np.zeros((count, max(self.ladder) + 1, nd), dtype=dtype)
        for sel, size, p, Ainv, qg, rhs in solving:
            rhs[:nd] = starts[sel].T
            values = (Ainv @ rhs).reshape(p + 1, nd * size)
            stack = values_to_coeffs(values).reshape(p + 1, nd, size).transpose(2, 0, 1)
            coefs[sel, : p + 1], keep[sel] = stack, trim_lengths(stack)
            passed[sel] = self._certified(widths[sel], qg, values, stack, keep[sel])
        return cut_stack(coefs, keep), keep, passed

    def _certified(self, widths, qg, values, stack, keep):
        """The certificate of a group of K degree-p collocants: node-major
        values (p+1, nd K) and forcing coefficients qg (L, nd K) (column
        r K + k for component r of piece k), the coefficient stack
        (K, p+1, nd) and its trimmed lengths, on pieces of the given
        widths."""
        p, (nd, count) = values.shape[0] - 1, (len(self.J), len(widths))
        eps, floor = _format(values.dtype)
        ok = True
        if max(keep.tolist()) > p:
            ok = (keep <= p) | (_max_norms(stack[:, p]) <= floor)
            if not ok.any():
                return ok
        # v', J v and q at the midpoints, (p, nd, K) each
        mats, abs_D = _midpoint_mats(p)
        dv, v = (mats @ values).reshape(2, p, nd, count)
        dv = dv * (2.0 / widths)
        Jv = self.J @ v
        qm = (_vander_rows(p, len(qg))[1] @ qg).reshape(p, nd, count)
        resid = _max_norms(dv - Jv - qm, axis=1)
        # |v'| alone is a smaller scale: what passes with it passes
        if (resid <= RESID_RTOL * _max_norms(dv, axis=1)).all():
            return ok
        size = _max_norms(np.abs(dv) + np.abs(Jv) + np.abs(qm), axis=1)
        met = resid <= RESID_RTOL * size
        if not met.all():  # the floors: rounding of v' and the format's
            rho = _max_norms((abs_D @ np.abs(values)).reshape(p, nd, count), axis=1) * (
                ROUNDING_UNITS * p * eps * 2.0 / widths)
            met = (resid <= RESID_RTOL * size + rho) | (size < floor)
        return ok & met.all(axis=0)

    def integrate(self, forcing, v0):
        """The certified collocant of v' = J v + q on the pieces of the
        forcing q, v(start) = v0, and the (a, b) of each run of pieces
        left uncertified at the width floor."""
        span = forcing.end - forcing.start
        floor = span / 2**MAX_DEPTH
        v0 = np.asarray(v0)
        if self._J_norm * span > STIFF_WIDTH:  # no piece is wider than the span
            forcing = self._first_layout(forcing, floor)
        a, b, q, lengths = forcing._stack
        rungs = np.zeros(len(q), dtype=int)
        while True:
            coefs, keep, passed = self._round(a, b, q, lengths, rungs, v0, span)
            certified = passed is True or passed.all()
            if certified:
                break
            top = rungs == len(self.ladder) - 1
            climb = ~passed & ~top
            halve = ~passed & top & (b - a >= 2.0 * floor * (1.0 - DOMAIN_RTOL))
            if halve.any():
                forcing = forcing.split_at((a + 0.5 * (b - a))[halve].tolist())
                a, b, q, lengths = forcing._stack
                # the halves start again at the first rung
                rungs = np.repeat(np.where(halve, 0, rungs + climb), np.where(halve, 2, 1))
            elif climb.any():
                rungs = rungs + climb
            else:
                break
        unresolved = [] if certified else _runs(a, b, ~passed)
        return forcing._with_stack((a, b, coefs, keep), len(self.J)), unresolved


def _runs(a, b, marked):
    """The (start, end) of each run of adjacent marked pieces [a[k], b[k]]."""
    runs = []
    for k in np.flatnonzero(marked).tolist():
        if runs and runs[-1][1] == a[k]:
            runs[-1] = (runs[-1][0], float(b[k]))
        else:
            runs.append((float(a[k]), float(b[k])))
    return runs


@cache
def _format(dtype):
    """eps and the floor tiny/eps of a float format."""
    info = np.finfo(dtype)
    return info.eps, info.tiny / info.eps


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
    ends = [l.derivs_end[: top + 1] for (l, _), top in zip(pairs, tops)]
    starts = [r.derivs_start[: top + 1] for (_, r), top in zip(pairs, tops)]
    dtype = np.result_type(*ends, *starts)
    (ends, _), (starts, _) = _padded(ends, dtype), _padded(starts, dtype)
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


def history_as_segment(sys: DdaeSystem, split: SplitCoefficients, orders: int, sweep: Sweep):
    """The shifted history dressed up as segment number 0, with the
    restart of segment 1: phi(0) and q = D phi(. - tau) + f at knot 0
    (sweep.q_knot) go through history.restart, as every later end value
    does at its knot (_close), but q's rows past the stream come from
    phi.  Raises NotAdmissible when phi(0) fails that test.
    """
    x, after = sys.phi.shift(sys.tau), max(orders - split.knot_loss, 1)
    derivs = x.derivatives(0.0, max(orders, after + split.nu - 1), side="right")
    derivs_end = x.derivatives(sys.tau, orders, side="left")
    q = sweep.q_knot(0, derivs[: after + split.nu], 1)
    x0, residual, consistent = restart(split, derivs_end[0], q)
    if not consistent:
        raise NotAdmissible(residual)
    start = solution_taylor_from_value(split, x0, q, after)
    return SegmentSolution(index=0, pieces=x.to_chebyshev(), consistency_residual=0.0,
                           derivs_start=derivs[: orders + 1], derivs_end=derivs_end,
                           restart=(start, residual, consistent))


class Sweep:
    """Every operator that segments 1..M of one sweep apply, M =
    sys.horizon_intervals (the sweep's last).

    Each delay interval is the same DAE segment with new data, so the
    slow collocation (SlowCollocation), the fast part (FastPart), the
    windows of the transformed inhomogeneity S f on each segment in
    Chebyshev form (all cut and converted in one pass,
    PiecewisePolynomial.windows) and f's derivative tables at the knots
    0 .. M tau are built here once, from the system, the split and
    TOP_DEGREE, and go with the sweep; so is the knot map of each stream
    depth a run of knots closes at (knot_map), on first use.
    """

    def __init__(self, sys: DdaeSystem, split: SplitCoefficients):
        self.last, self.T, self.split, self._maps = sys.horizon_intervals, split.qwf.T, split, {}
        self.colloc = SlowCollocation(split.qwf.J, TOP_DEGREE)
        self.fast = FastPart(split.qwf.N, split.nu)
        self.SD, self.D_T = np.vstack([split.B_d, split.B_a]), split.D.T
        # knot times from the segments' own length tau; rows past f's degree are 0
        knots = np.arange(self.last + 1) * sys.tau
        self.windows = sys.f.apply_matrix(split.qwf.S).windows(knots[:-1], knots[1:])
        d = sys.f.max_degree
        self.f_table = np.stack([sys.f.derivatives(knots, d, side="left"),
                                 sys.f.derivatives(knots, d, side="right")], axis=1)

    def q_knot(self, k, rows, side=slice(None)):
        """q = D x(. - tau) + f at the knot k tau from the derivative rows
        of x(. - tau) there: one side (0 from the left, 1 from the right)
        or both stacked (rows of shape (2, count, n)), k in 0..M, or a
        stack of such rows, one per knot of the slice k; f's rows are
        added only where the table holds them."""
        # f may be complex where the streams are real
        q = (rows @ self.D_T).astype(np.result_type(rows, self.D_T, self.f_table), copy=False)
        f = self.f_table[k, side, : q.shape[-2]]
        q[..., : f.shape[-2], :] += f
        return q

    def knot_map(self, orders):
        """The map G (2, m, m), m = (orders + 1) n, of a knot at knot_loss
        0 whose streams hold orders + 1 rows: with x(i tau) and f zero,
        _knots makes the end stream of segment i G[0] times that of
        segment i - 1, and the start stream of segment i + 1 G[1] times
        that of segment i (flattened; neither reads the other).  None
        when G is not finite or m > MAX_KNOT_MAP.  Built on first use for
        each depth by _knots' own arithmetic on the m unit streams, one
        stacked call, so it matches the code by construction."""
        if orders not in self._maps:
            split, n = self.split, self.split.n
            m = (orders + 1) * n
            G = None
            if m <= MAX_KNOT_MAP:
                # the streams zero past their ends or cut to q's rows, as in _knots
                rows = orders + split.nu
                top = min(orders + 1, rows)
                sides = np.zeros((m, 2, rows, n))
                sides[:, :, :top] = np.eye(m).reshape(m, 1, orders + 1, n)[:, :, :top]
                streams, _ = _knot_streams(split, np.zeros((m, n)), sides @ self.D_T,
                                           orders, orders)
                # column j of G[s]: side s's output for unit stream j
                G = np.array(streams).reshape(2, m, m).transpose(0, 2, 1)
                G = G if np.isfinite(G).all() else None
            self._maps[orders] = G
        return self._maps[orders]


def solve_segment(
    split: SplitCoefficients,
    i: int,
    prev: SegmentSolution,
    config: SolverConfig,
    sweep: Sweep,
) -> SegmentSolution:
    """Solve segment i from the previous segment (or history, i = 1).

    The start stream of segment i (split.knot_loss orders shorter than
    prev's) and its restart test come from prev.restart; a prev without
    one (the last segment, or a start stream too short to drive it) raises
    DimensionMismatch.  Raises InconsistentRestart when the previous end
    value is not a consistent initial value for this segment
    (history.restart); the error carries the order-0 jump to the
    consistent projection.  i must be in 1..M, M the sweep's last, prev
    segment i - 1 and sweep the Sweep of split, else DimensionMismatch;
    below M the segment carries segment i + 1's restart, formed at knot
    i (_close).  config is not read.
    """
    if not 1 <= i <= sweep.last:
        raise DimensionMismatch(f"the sweep holds segments 1..{sweep.last}, not {i}")
    if prev.index != i - 1:
        raise DimensionMismatch(f"segment {i} starts from segment {i - 1}, not {prev.index}")
    if prev.restart is None:
        raise DimensionMismatch(f"segment {i - 1} holds no restart for segment {i}")
    derivs_start, residual, consistent = prev.restart
    if not consistent:
        raise InconsistentRestart(i, residual, jump=derivs_start[0] - prev.derivs_end[0])

    # [q_d; q_f] = S D x(t - tau) + S f on the segment, in local time
    delayed = prev.pieces.apply_matrix(sweep.SD)
    q_d, q_f = delayed.split_sum(sweep.windows[i - 1], split.n_d)
    v0 = (split.qwf.T_inv @ derivs_start[0])[: split.n_d]
    v, unresolved = sweep.colloc.integrate(q_d, v0)
    # x = T [v; w], w for q_f cut at v's breakpoints: one product [v | w] T^T
    a, b, cv, lv = v._stack
    if not sweep.fast.N.size:  # no fast components: w has no columns
        cw, lw = np.zeros((len(a), 1, 0)), np.ones(len(a), dtype=int)
    else:
        if len(a) > len(q_f._stack[0]):
            q_f = q_f.split_at(v.breakpoints[1:-1])
        _, _, cw, lw = sweep.fast.solve(q_f)._stack
    pieces = v._with_stack((a, b, _stacked(cv, cw) @ sweep.T.T, np.maximum(lv, lw)), split.n)
    [segment] = _close(split, prev, sweep, [pieces])
    segment.unresolved = unresolved
    return segment


def _close(split, prev, sweep, pieces):
    """Segments i = prev.index + 1, ..., i + K - 1 on the K given pieces
    of x (one piecewise polynomial each), as every segment after the
    history is closed, up to the first whose restart is missing or
    inconsistent: the first call of _knots closes a run of them, and
    every later call one knot (from the first knot whose streams a run
    leaves non-finite, as _taylor_stack goes one order at a time from
    its first non-finite order)."""
    closed = _knots(split, prev, sweep, pieces)
    while len(closed) < len(pieces) and closed[-1].restart and closed[-1].restart[2]:
        closed += _knots(split, closed[-1], sweep, pieces[len(closed) : len(closed) + 1])
    return closed


def _knots(split, prev, sweep, pieces):
    """Segment i = prev.index + 1 on pieces[0] and, at knot_loss L = 0,
    a run of the following ones: each with its start stream and defect
    from the restart before it, its end stream from x's end value (the
    row sum of the last piece, T_k(1) = 1) and the next segment's
    restart (start stream, defect, verdict) below the sweep's last, else
    None.

    At a knot, q on both sides is one product, the streams zero past
    their ends (which drops only negligible terms: split.knot_loss), and
    the end stream and the start stream from the restart's projection
    (orders and max(orders - L, 1) orders) one stacked recursion; a start
    stream of at most L orders forms no restart, and segment i + 1
    rejects it (solve_segment).  In a run, knot j's streams are
    y_j = c_j + G y_{j-1} (Sweep.knot_map): one stacked pass of that
    arithmetic gives c_j, prev's streams driving the first knot (closed
    as a lone knot is) and zero streams the others; one product per knot
    adds G y_{j-1}, and one stacked restart gives the later verdicts.
    The run ends before the first knot whose y_j is not finite and after
    the first inconsistent restart."""
    i, (derivs_start, residual, _), prev_end = prev.index + 1, prev.restart, prev.derivs_end
    loss, orders, n = split.knot_loss, len(derivs_start) - 1, split.n
    after, rows = max(orders - loss, 1), orders + split.nu
    G = sweep.knot_map(orders) if len(pieces) > 1 and not loss and orders else None
    K = 1 if G is None else len(pieces)
    x_end = np.array([np.add.reduce(p._stack[2][-1, : p._stack[3][-1]]) for p in pieces[:K]])
    sides = np.zeros((K, 2, rows, n), dtype=np.result_type(prev_end, derivs_start))
    for side, stream in zip(sides[0], (prev_end, derivs_start)):
        side[: len(stream)] = stream[:rows]
    q = sweep.q_knot(slice(i, i + K), sides)
    if G is None and (i == sweep.last or after + loss > orders):
        derivs_end = solution_taylor_from_value(split, x_end[0], q[0, 0], orders)
        return [SegmentSolution(index=i, pieces=pieces[0], consistency_residual=residual,
                                derivs_start=derivs_start, derivs_end=derivs_end)]
    streams, (_, defects, verdicts) = _knot_streams(split, x_end, q, orders, after)
    ends, starts, count = streams[:K], streams[K:], 1
    if K > 1:
        # y[k] = [end stream; start stream] of knot k, flattened
        y = np.array(streams).reshape(2, K, -1).transpose(1, 0, 2).copy()
        G = G.astype(y.dtype, copy=False)
        for k in range(1, K):
            y[k] += (G @ y[k - 1, :, :, None])[..., 0]
        finite = np.isfinite(y).all(axis=(1, 2))
        count = K if finite.all() else max(int(finite.argmin()), 1)
        y = y.reshape(K, 2, orders + 1, n)
        ends, starts = list(y[:, 0]), list(y[:, 1])
        sides, top = np.zeros((count - 1, rows, n), dtype=y.dtype), min(orders + 1, rows)
        sides[:, :top] = y[: count - 1, 1, :top]
        _, defects[1:count], verdicts[1:count] = restart(
            split, x_end[1:count], sweep.q_knot(slice(i + 1, i + count), sides, 1))
    closed = []
    for k in range(count):
        closed.append(SegmentSolution(
            index=i + k, pieces=pieces[k],
            consistency_residual=defects[k - 1] if k else residual,
            derivs_start=starts[k - 1] if k else derivs_start, derivs_end=ends[k],
            restart=None if i + k == sweep.last else (starts[k], defects[k], verdicts[k])))
        if not verdicts[k]:
            break
    return closed


def _knot_streams(split, x_end, q, orders, after):
    """The arithmetic of K knots from x's end values x_end (K, n) and q on
    both sides (K, 2, rows, n): the restart of each end value, and the K
    end streams (orders) then the K start streams from the restart's
    projection (after orders), one stacked Taylor call."""
    K = len(x_end)
    restarted = restart(split, x_end, q[:, 1])
    streams = solution_taylor_from_value(split, np.concatenate([x_end, restarted[0]]),
                                         q.swapaxes(0, 1).reshape(2 * K, *q.shape[2:]),
                                         (orders,) * K + (after,) * K)
    return streams, restarted


def _recurrence(split, prev, sweep):
    """Pass 1 of a stretch, or None: the segments after prev, up to the
    sweep's last, whose delayed data and S f window are one Chebyshev
    piece each, on one domain, of m = FIRST_DEGREE + 1 coefficients at
    most, when prev's restart is consistent and ||J|| tau <= STIFF_WIDTH.

    Each segment is an affine map of the one before on (m, n) arrays:
    q = S D x + S f, each part's rows past its TRIM_TOL cut zeroed, the
    degree-16 collocant, the fast part and x = [v | w] T^T.  The first
    collocant starts at the slow part of prev's restart, each later one
    at the slow end (the rows summed) of the one before, which the
    restart's projection leaves as it is, so none waits for a knot.  The
    first is certified alone before the others are formed, the rest by
    one stacked _certified call (column r K + k for component r of
    segment k).  Returns the slow starts (K, n_d) and collocants
    (K, m, n_d) of the K segments formed, x (C, m, n) and the trimmed
    lengths of the C before the first failed certificate, and whether one
    failed.
    """
    a, b, x, _ = prev.pieces._stack
    span, m, colloc = float(b[-1]) - float(a[0]), FIRST_DEGREE + 1, sweep.colloc
    if (len(a) > 1 or x.shape[1] > m or not (prev.restart and prev.restart[2])
            or colloc._J_norm * span > STIFF_WIDTH):
        return None
    nd, n, T_inv = split.n_d, split.n, split.qwf.T_inv
    dtype = np.result_type(x, sweep.windows[0]._stack[2], sweep.SD, sweep.T, T_inv, colloc.J)
    q, count = np.zeros((sweep.last - prev.index, m, n), dtype=dtype), 0  # S f, then + S D x
    for window in sweep.windows[prev.index:]:
        wa, wb, cw, _ = window._stack
        if (len(wa) > 1 or cw.shape[1] > m
                or max(abs(wa[0] - a[0]), abs(wb[0] - b[0])) > DOMAIN_RTOL * span):
            break
        q[count, : cw.shape[1]], count = cw[0], count + 1
    if not count:
        return None
    values, vw, xs = (np.empty((count, m, c), dtype=dtype) for c in (nd, n, n))
    starts, x_prev = np.empty((count + 1, nd), dtype=dtype), np.zeros((m, n), dtype=dtype)
    starts[0], x_prev[: x.shape[1]] = (T_inv @ prev.restart[0][0])[:nd], x[0]
    Ainv = colloc._inverse(FIRST_DEGREE, b[0] - a[0], span, dtype)
    vander, [(width,)] = _vander_rows(FIRST_DEGREE, m)[0], _width_groups(a, b, span)
    for k in range(count):
        q[k] += x_prev @ sweep.SD.T
        for part in (q[k, :, :nd], q[k, :, nd:]):
            if part.size:
                part[trim_lengths(part):] = 0.0
        rhs = vander @ q[k, :, :nd]
        rhs[0] = starts[k]
        values[k] = (Ainv @ rhs.reshape(-1)).reshape(m, nd)
        vw[k, :, :nd] = values_to_coeffs(values[k])
        if not k and not colloc._certified(b - a, q[0, :, :nd], values[0], vw[:1, :, :nd],
                                           trim_lengths(vw[:1, :, :nd])):
            return starts[:1], vw[:1, :, :nd], xs[:0], np.zeros(0, dtype=int), True
        if n > nd:
            vw[k, :, nd:] = sweep.fast.solve_coefs(prev.pieces.basis, q[k : k + 1, :, nd:],
                                                   a[0], b[0], width, span)[0]
        x_prev = xs[k] = vw[k] @ sweep.T.T
        starts[k + 1] = vw[k, :, :nd].sum(axis=0)
    keep = trim_lengths(vw[:, :, :nd])
    lengths, passed = np.maximum(keep, trim_lengths(vw[:, :, nd:])), np.ones(count, dtype=bool)
    if count > 1:
        q, values = (part[1:count].transpose(1, 2, 0).reshape(m, nd * (count - 1))
                     for part in (q[:, :, :nd], values))
        passed[1:] = colloc._certified((b - a).repeat(count - 1), q, values,
                                       vw[1:, :, :nd], keep[1:])
    good = int(passed.argmin()) if not passed.all() else count
    return starts[:count], vw[:, :, :nd], xs[:good], lengths[:good], good < count


def _stretch(split, chain, sweep):
    """Extend chain by one stretch: pass 1 (_recurrence) forms and
    certifies its collocants, pass 2 closes the certified segments by one
    _close call, each on its view of pass 1's x, up to the first segment
    whose restart is missing or inconsistent, which solve_segment then
    reports.  Returns False when a certificate failed, chain then ending
    before its segment."""
    if (solved := _recurrence(split, chain[-1], sweep)) is None:
        return True
    _, _, x, lengths, failed = solved
    prev = chain[-1]
    a, b = prev.pieces._stack[:2]
    pieces = [prev.pieces._with_stack((a, b, x[k : k + 1, : lengths[k]], lengths[k : k + 1]),
                                      split.n) for k in range(len(x))]
    if pieces:
        chain += _close(split, prev, sweep, pieces)
    return not failed


def stream_orders(split, k_max, M):
    """Orders of the history's stream in a sweep of M segments comparing
    k_max orders at each knot: k_max + M L + max(nu, 1), L the knot_loss."""
    return k_max + M * split.knot_loss + max(split.nu, 1)


def method_of_steps(
    sys: DdaeSystem,
    split: SplitCoefficients | None = None,
    config: SolverConfig = SolverConfig(),
):
    """Solve the initial value problem across all delay intervals.

    Returns (trajectory, ledger).  Raises DimensionMismatch when the
    history's stream (stream_orders) would pass MAX_STREAM_ORDERS, and
    NotAdmissible for a history that is not admissible
    (history_as_segment).  A later restart that fails the consistency
    test (solve_segment's InconsistentRestart) ends the sweep: the
    trajectory holds the segments before it, and the ledger's last entry
    records the breakdown at its knot, with first_jump_order 0 and the
    jump to the consistent projection.
    """
    if split is None:
        split = build_split(sys)
    k_max = config.k_max if config.k_max is not None else split.nu + 2
    M = sys.horizon_intervals
    hist_orders = stream_orders(split, k_max, M)
    if hist_orders > MAX_STREAM_ORDERS:
        raise DimensionMismatch(
            f"k_max + horizon_intervals * L + max(nu, 1) = {hist_orders} derivative orders"
            f" exceed {MAX_STREAM_ORDERS} (L = {split.knot_loss}, the orders each knot loses)"
        )
    sweep, breakdown = Sweep(sys, split), []
    # the top orders of a stiff stream may overflow; from its first
    # non-finite order the scan's stream goes one order at a time
    # (model._taylor_stack), so numpy need not report them
    with np.errstate(over="ignore", invalid="ignore"):
        chain, stretching = [history_as_segment(sys, split, hist_orders, sweep)], True
        while True:
            # stretches until a certificate fails; all else by solve_segment
            stretching = stretching and _stretch(split, chain, sweep)
            i = len(chain)
            if i > M:
                break
            try:
                chain.append(solve_segment(split, i, chain[-1], config, sweep))
            except InconsistentRestart as err:
                breakdown.append(LedgerEntry(
                    knot_index=i - 1, time=(i - 1) * sys.tau, matched_order=-1,
                    first_jump_order=0, jump_vector=err.jump,
                    jump_norm=float(row_norms(err.jump[None])[0]), inconsistent_restart=True))
                break
        # the ledger feeds no later segment: one pass over every knot
        entries = detect_jumps(chain, k_max, sys.tau)
    unresolved = [(seg.index, (seg.index - 1) * sys.tau + a, (seg.index - 1) * sys.tau + b)
                  for seg in chain[1:] for a, b in seg.unresolved]
    return Trajectory(chain[1:], sys.tau), JumpLedger(entries + breakdown, unresolved)
