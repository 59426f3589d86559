"""History admissibility, splicing conditions, and probe construction.

The solution of the first segment is pinned down by the history's
derivative data at -tau (through the algebraic part) and by its value at
0 (through the differential part).  Admissibility asks that the history
endpoint is a consistent initial value; the splicing conditions ask that
the transition from history to solution is C^1 respectively C^2.  All
of them, and the observed smoothness order, read one Taylor stack of the
first segment at t = 0 (splicing_report).  The probe constructor
inverts this logic: it builds a history whose transition is smooth up to
a requested order and then misses by a prescribed vector, which turns
the worst-case statements of the classification into observable solver
behavior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .model import (
    DdaeSystem,
    SplitCoefficients,
    consistent_projection,
    solution_taylor_from_value,
    taylor_forcing,
)
from .pencil import negligible, norm2, powers, row_norms
from .piecewise import PiecewisePolynomial

FLAG_TOL = 1e-8
# relative tolerance for accepting a start value as consistent (consistency)
CONSISTENCY_TOL = 1e-7
# largest m + index a probe history is built for: from 7 on the monomial
# Hermite interpolant of degree 2 (m + index) + 1 misses its own contract
# on nearly every random smoothing system
MAX_PROBE_ORDER = 6


@dataclass(frozen=True)
class SplicingReport:
    """Residuals of the admissibility / splicing checks for one history.

    kappa_observed is the largest order (capped at nu+2) up to which the
    history derivatives at 0 agree with the solution's one-sided
    derivatives; -1 when even the values disagree.
    """

    admissible: bool
    admissible_residual: float
    smooth_c1: bool
    smooth_c1_residual: float
    smooth_c2: bool
    smooth_c2_residual: float
    kappa_observed: int


@dataclass(frozen=True)
class Index3Report:
    applicable: bool
    index_le_3: bool
    N_Ba2_zero: bool
    N2_Ba1_Bd2_zero: bool
    norm_N_Ba2: float
    norm_N2_Ba1_Bd2: float


def first_segment_q_derivs(sys: DdaeSystem, orders: int):
    """Derivatives of q = D phi(. - tau) + f at the left segment end."""
    phi_d = sys.phi.derivatives(-sys.tau, orders, side="right")
    f_d = sys.f.derivatives(0.0, orders, side="right")
    return phi_d @ sys.D.T + f_d


def consistency(x_request, x0, q0):
    """The one rule for a consistent start value: the defect
    ||x_request - x0|| between x_request and its consistent projection
    x0, and whether it is at most CONSISTENCY_TOL (1 + ||x_request|| +
    ||q0||), q0 the inhomogeneity q at the start.  One vector each gives
    a float and a bool; stacks (K, n) of K knots give a list of K defects
    and one of K verdicts, each bit for bit its knot's lone call.  The 3K
    norms come from one pencil.row_norms call."""
    rows = np.array([x_request - x0, x_request, q0])
    norms = row_norms(rows.reshape(-1, rows.shape[-1])).reshape(3, -1).tolist()
    consistent = [_within(r, CONSISTENCY_TOL, 1.0 + a + b) for r, a, b in zip(*norms)]
    return (norms[0][0], consistent[0]) if rows.ndim == 2 else (norms[0], consistent)


def restart(split: SplitCoefficients, x, q):
    """The start of a segment from the value x it is asked to take, q the
    inhomogeneity derivatives there: its consistent projection x0, the
    defect ||x - x0|| and the verdict of consistency.  Every start goes
    through here, the history's phi(0) and every later knot's end value.
    x (n,) and q (rows, n) are one knot; x (K, n) and q (K, rows, n) a
    stack of K knots, each bit for bit its lone call (consistency)."""
    x0 = consistent_projection(split, x, q)
    return (x0, *consistency(x, x0, q[..., 0, :]))


def _within(residual, tol, scale):
    """residual <= tol * scale for a finite residual; an overflowed or
    nan residual decides nothing, so it never passes."""
    return residual < np.inf and residual <= tol * scale


def check_admissible(sys: DdaeSystem, split: SplitCoefficients):
    """Whether phi(0) is a consistent start value (restart), and the
    residual between phi(0) and its consistent projection
    A_con phi(0) + sum_{k=1}^{nu} C_k q^{(k-1)}(0), q = D phi(. - tau) + f.
    """
    # rows 0..nu-1 enter the projection; the stack height also sets how the
    # product D phi rounds, and so the last bits of the reported residual
    q = first_segment_q_derivs(sys, max(split.nu, 1))
    _, residual, consistent = restart(split, sys.phi.evaluate(0.0, side="left"), q)
    return consistent, residual


def agreement_order(left, right, top, tol, first=0):
    """For each pair of derivative stacks, the largest k <= its top such
    that rows 0..k of the pair agree.

    left and right are stacks of pairs, shape (pairs, rows, n); top is
    one int for all pairs or one per pair.  Row k of a pair agrees when
    ||right[k] - left[k]|| <= tol (1 + max row norm), with norms from
    pencil.row_norms, so a row whose difference norm is not finite never
    agrees.  Rows below first are taken as agreeing without a test.  A
    pair whose row first already differs gives first - 1, so -1 means
    the values differ.  Every row from first to its pair's top is
    measured, also past the first that differs, so rows that overflowed
    are measured quietly.  Returns an int array, one order per pair, each
    the one its pair gives alone.
    """
    l, r = np.asarray(left), np.asarray(right)
    tops = np.broadcast_to(np.asarray(top, dtype=int), l.shape[:1])
    hi = int(tops.max(initial=first - 1)) + 1
    l, r = l[:, first:hi], r[:, first:hi]

    def norms(x):
        return row_norms(x.reshape(-1, x.shape[2])).reshape(x.shape[:2])

    with np.errstate(over="ignore", invalid="ignore"):
        scale = 1.0 + np.maximum(norms(l), norms(r))
        agree = norms(r - l) <= tol * scale
    # rows past a pair's top agree; a last column that never agrees stops
    # argmin on a pair whose measured rows all agree
    agree = np.column_stack([agree | (np.arange(first, hi) > tops[:, None]),
                             np.zeros(len(tops), dtype=bool)])
    k = agree.argmin(axis=1)
    return np.where(k < hi - first, first + k - 1, tops)


def splicing_report(sys: DdaeSystem, split: SplitCoefficients) -> SplicingReport:
    """Admissibility, the C^1 and C^2 splicing conditions and kappa, all
    from one Taylor stack of the first segment at t = 0.

    q = D phi(. - tau) + f and the history's left derivatives at 0 are
    formed once.  The C^(j+1) condition asks that phi^{(j+1)}(0) =
    A_diff phi^{(j)}(0) + r_j (r_j from taylor_forcing) within FLAG_TOL
    of 1 + the largest norm among both sides and q's rows 0..nu+j.
    kappa compares the history stack with the solution's derivatives
    from the consistent projection of phi(0); admissibility is
    check_admissible, the test the solver applies to phi(0) (restart).
    """
    nu = split.nu
    cap = nu + 2
    q = first_segment_q_derivs(sys, cap + max(nu, 1))
    hist = sys.phi.derivatives(0.0, cap, side="left")
    r = taylor_forcing(split, q, 2)
    splices = []
    for j in (0, 1):
        lhs, rhs = hist[j + 1], split.A_diff @ hist[j] + r[j]
        residual, *norms = row_norms(np.array([lhs - rhs, lhs, rhs, *q[: nu + j + 1]])).tolist()
        splices += [_within(residual, FLAG_TOL, 1.0 + max(norms)), residual]
    xs = solution_taylor_from_value(split, consistent_projection(split, hist[0], q), q, cap)
    # the fields in order: each verdict with its residual, then kappa
    return SplicingReport(*check_admissible(sys, split), *splices,
                          int(agreement_order(hist[None], xs[None], cap, FLAG_TOL)[0]))


def check_index3_uniqueness(split: SplitCoefficients) -> Index3Report:
    """Sufficient conditions for global unique solvability up to index 3.

    When the index is at most 3, N B_a2 = 0 and N^2 B_a1 B_d2 = 0, every
    admissible history meeting both splicing conditions yields a unique
    solution on the whole horizon, so the solver may proceed past
    de-smoothing warnings.  ||N|| and ||B_a2|| are read from the split's
    coupling_norms and ba2_power_norms.
    """
    N, B_a1, B_a2, B_d2 = split.qwf.N, split.B_a1, split.B_a2, split.B_d2
    norm_N, ba2_pows = split.coupling_norms[0], split.ba2_power_norms
    norm_Ba2 = ba2_pows[0] if ba2_pows else 0.0
    index_ok = split.nu <= 3
    with np.errstate(over="ignore", invalid="ignore"):  # norm2 raises on inf
        n1 = norm2(N @ B_a2)
        n2 = norm2(list(powers(N, 3))[2] @ B_a1 @ B_d2)
        z1 = negligible(n1, norm_N * norm_Ba2)
        z2 = negligible(n2, np.float64(norm_N) ** 2 * norm2(B_a1) * norm2(B_d2))
    return Index3Report(
        applicable=bool(index_ok and z1 and z2),
        index_le_3=bool(index_ok),
        N_Ba2_zero=bool(z1),
        N2_Ba1_Bd2_zero=bool(z2),
        norm_N_Ba2=n1,
        norm_N2_Ba1_Bd2=n2,
    )


def _hermite_two_point(vals_left, vals_right, length):
    """Polynomial (monomial coeffs in u = t - left end) with prescribed
    derivatives at both ends: p^{(j)}(0) = vals_left[j],
    p^{(j)}(length) = vals_right[j]."""
    K = vals_left.shape[0] - 1
    k = np.arange(2 * K + 2)
    j = np.arange(K + 1)[:, None]
    # F[j, k] = (d/du)^j u^k at u = length = k!/(k-j)! length^(k-j); 0 for k < j
    falling = np.cumprod(np.vstack([np.ones_like(k), k - j[:-1]]), axis=0)
    F = falling * float(length) ** np.maximum(k - j, 0)
    low = vals_left / np.diag(F)[:, None]
    high = np.linalg.solve(F[:, K + 1 :], vals_right - F[:, : K + 1] @ low)
    return np.vstack([low, high])


def construct_probe_history(
    sys: DdaeSystem,
    split: SplitCoefficients,
    m: int,
    target,
    side: str = "slow",
    rng: np.random.Generator | None = None,
):
    """History of sys whose transition to the solution first breaks at order m.

    Builds an analytic (single polynomial piece) history on [-tau, 0],
    from the system's f and tau and the split's decomposition, such that
    the transformed history derivatives match the first segment's
    solution derivatives up to order m-1 on the chosen side and miss by
    exactly `target` at order m; the other side matches
    through order m.  Free derivative values are zero unless an rng is
    supplied.  Requires side "slow" or "fast", m >= 1 and m + index <=
    MAX_PROBE_ORDER; raises ValueError otherwise, and when the
    interpolant's derivatives at 0 miss the requested ones by more than
    FLAG_TOL (Hermite conditioning).
    """
    nu, n_d, n_a = split.nu, split.n_d, split.n_a
    if side not in ("slow", "fast"):
        raise ValueError(f"side must be 'slow' or 'fast', not {side!r}")
    if m < 1:
        raise ValueError("probe order m must be at least 1")
    if m + nu > MAX_PROBE_ORDER:
        raise ValueError(f"m + index > {MAX_PROBE_ORDER}: "
                         "Hermite conditioning not acceptable")
    if side == "slow" and n_d == 0:
        raise DimensionMismatch("system has no differential part")
    if side == "fast" and n_a == 0:
        raise DimensionMismatch("system has no algebraic part")
    target = np.atleast_1d(np.asarray(target))
    want = n_d if side == "slow" else n_a
    if target.shape != (want,):
        raise DimensionMismatch(f"target must be a vector of length {want}")

    tau = sys.tau
    K = nu + m
    # transformed history derivatives [psi; eta] at -tau and psi(0)
    if rng is None:
        vals_left, psi0_free = np.zeros((K + 1, split.n)), np.zeros(n_d)
    else:
        vals_left = np.hstack([rng.standard_normal((K + 1, n_d)),
                               rng.standard_normal((K + 1, n_a))])
        psi0_free = rng.standard_normal(n_d)

    # first-segment solution derivatives at 0+ from the data at -tau
    T, T_inv = split.qwf.T, split.qwf.T_inv
    x0 = T @ np.concatenate([psi0_free, np.zeros(n_a)])
    q = (vals_left @ T.T) @ split.D.T + sys.f.derivatives(0.0, K, side="right")
    xs = solution_taylor_from_value(split, consistent_projection(split, x0, q), q, m)

    vals_right = np.zeros((K + 1, split.n), dtype=np.result_type(xs, target))
    vals_right[: m + 1] = xs @ T_inv.T
    block = slice(0, n_d) if side == "slow" else slice(n_d, None)
    vals_right[m, block] += target
    coeffs = _hermite_two_point(vals_left, vals_right, tau)
    phi = PiecewisePolynomial([(-tau, 0.0, coeffs)]).apply_matrix(T)
    # the monomial interpolant loses digits at its right end as m + nu grows
    want = vals_right[:m] @ T.T
    got = phi.derivatives(0.0, m - 1, side="left")
    if agreement_order(want[None], got[None], m - 1, FLAG_TOL)[0] < m - 1:
        raise ValueError("probe history misses its derivatives at 0: "
                         "Hermite conditioning not acceptable")
    return phi
