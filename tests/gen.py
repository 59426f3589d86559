"""Shared construction helpers for the test suite: random pencils and
systems with known ground truth, plus the worked examples used across
modules."""

from dataclasses import replace

import numpy as np

import ddae_kit as dk
from ddae_kit.history import FLAG_TOL
from ddae_kit.pencil import norm2
from ddae_kit.piecewise import Piece
from ddae_kit.stability import NEWTON_MAX_ITER, _char_matrix


def well_conditioned(rng, n):
    """Random invertible matrix with condition number bounded by ~16."""
    Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.uniform(0.5, 2.0, size=n)
    return Q1 @ np.diag(d) @ Q2


def shift_nilpotent(n_a, nu):
    """Nilpotent matrix of size n_a with nilpotency index exactly nu."""
    N = np.zeros((n_a, n_a))
    if nu <= 1:
        return N
    for i in range(nu - 1):
        N[i, i + 1] = 1.0
    return N


def random_regular_pencil(rng, n, n_d=None, nu=None):
    """Pencil built from a known block form by random equivalence.

    Returns (E, A, truth) with truth = dict(n_d, n_a, nu).
    """
    if n_d is None:
        n_d = int(rng.integers(0, n + 1))
    n_a = n - n_d
    if n_a == 0:
        nu = 0
    elif nu is None:
        nu = int(rng.integers(1, n_a + 1))
    J = rng.standard_normal((n_d, n_d))
    N = shift_nilpotent(n_a, nu)
    E0 = np.zeros((n, n))
    E0[:n_d, :n_d] = np.eye(n_d)
    E0[n_d:, n_d:] = N
    A0 = np.zeros((n, n))
    A0[:n_d, :n_d] = J
    A0[n_d:, n_d:] = np.eye(n_a)
    S_inv = well_conditioned(rng, n)
    T_inv = well_conditioned(rng, n)
    E = S_inv @ E0 @ T_inv
    A = S_inv @ A0 @ T_inv
    return E, A, {"n_d": n_d, "n_a": n_a, "nu": nu}


def taylor_per_order(split, x_value, q_derivs, orders):
    """Reference Taylor recursion: x^(j+1) = A_diff x^(j) + sum_k C_k q^(k+j),
    one order at a time with nu+2 mat-vecs per order."""
    xs = [np.asarray(x_value)]
    for j in range(orders):
        nxt = split.A_diff @ xs[j]
        for k in range(split.nu + 1):
            nxt = nxt + split.C[k] @ q_derivs[k + j]
        xs.append(nxt)
    return np.stack(xs)


def transition_residual_per_term(sys, split, order):
    """Reference for the C^order rows of history.splicing_report, order 1
    or 2: with j = order - 1, phi^(j+1)(0) must equal A_diff phi^(j)(0)
    + sum_k (C_k D phi^(k+j)(-tau) + C_k f^(k+j)(0)), term by term, within
    FLAG_TOL of 1 + the largest norm among both sides and the rows of
    phi(. - tau) and of f.  Returns (holds, residual)."""
    nu, j = split.nu, order - 1
    phi_tau = sys.phi.derivatives(-sys.tau, nu + j, side="right")
    f0 = sys.f.derivatives(0.0, nu + j, side="right")
    rhs = split.A_diff @ sys.phi.evaluate(0.0, order=j, side="left")
    for k in range(nu + 1):
        rhs = rhs + (split.C[k] @ sys.D) @ phi_tau[k + j] + split.C[k] @ f0[k + j]
    lhs = sys.phi.evaluate(0.0, order=order, side="left")
    residual = float(np.linalg.norm(lhs - rhs))
    scale = 1.0 + max(float(np.linalg.norm(v)) for v in (lhs, rhs, *phi_tau, *f0))
    return residual <= FLAG_TOL * scale, residual


def fast_per_order(N, q_f, nu):
    """Reference fast part w = -sum_{k<nu} N^k q_f^(k): each piece
    differentiates once per order from the previous order and is tidied
    once, after all terms are summed."""
    N = np.atleast_2d(np.asarray(N)) if np.size(N) else np.zeros((0, 0))
    m = N.shape[0]
    if m == 0:
        return dk.PiecewisePolynomial.zero(0, q_f.start, q_f.end, basis=q_f.basis)
    pieces = []
    for a, b, c in q_f.pieces:
        w = np.zeros((c.shape[0], m), dtype=np.result_type(c, N))
        N_pow = np.eye(m, dtype=N.dtype)
        for k in range(min(nu, c.shape[0])):
            if k:
                c = q_f.basis.der(c, a, b, 1)
            w[: c.shape[0]] += c @ -N_pow.T
            N_pow = N_pow @ N
        pieces.append(Piece(a, b, q_f.basis.tidy(w)))
    return q_f._with(pieces, m)


def hidden_delay_residual(exp, sys, traj, theta=None):
    """Relative residual of the hidden-delay form on the direct solution.

    The expansion is equivalent to the system iff z = T^{-1}[:n_d] x, the
    slow state of the method-of-steps trajectory traj (of phi for t < 0),
    satisfies z' = J z + sum_k D_k z(t - (k+1) tau) + theta(t) on
    [nu_D tau, M tau].  Returns the largest ||z' - J z - sum_k D_k
    z(t - (k+1) tau) - theta(t)|| over the sum of the term norms, at four
    off-node fractions of every delay interval there.  theta defaults to
    hidden_delay_forcing(exp, sys).
    """
    assert len(traj.segments) == sys.horizon_intervals
    P = exp.split.qwf.T_inv[: exp.split.n_d]
    tau = sys.tau
    theta = dk.hidden_delay_forcing(exp, sys) if theta is None else theta

    def z(t, order=0):
        return P @ (sys.phi.evaluate(t, order) if t < 0 else traj.evaluate(t, order))

    worst = 0.0
    for i in range(exp.nu_D, sys.horizon_intervals):
        for frac in (0.137, 0.391, 0.618, 0.873):
            t = (i + frac) * tau
            terms = [z(t, 1), -exp.J @ z(t), -theta.evaluate(t)]
            terms += [-Dk @ z(t - (k + 1) * tau) for k, Dk in enumerate(exp.D_delays)]
            scale = sum(np.linalg.norm(v) for v in terms)
            if scale:
                worst = max(worst, np.linalg.norm(sum(terms)) / scale)
    return worst


def coupling_norms_per_loop(split):
    """Reference for SplitCoefficients.coupling_norms: the three norm loops
    the classification ran separately, each forming its own powers.

    propagation: ||N^k B_a|| for 1 <= k < nu, from N^1 = N (with ||N||,
    ||B_a|| and the legacy test's ||N B_a||); evidence: ||N^k B_a|| for
    k < max(nu, 1), from N^0 = I, and ||B_a2^k|| for 1 <= k <= n_a.
    """
    nu, n_a = split.nu, split.n_a
    N, B_a, B_a2 = split.qwf.N, split.B_a, split.B_a2
    propagation = []
    N_pow = N.copy() if N.size else N
    for _ in range(1, nu):
        propagation.append(norm2(N_pow @ B_a))
        N_pow = N_pow @ N
    n_pow_ba = []
    P = np.eye(n_a, dtype=N.dtype) if n_a else N
    for _ in range(max(nu, 1)):
        n_pow_ba.append(norm2(P @ B_a))
        if n_a:
            P = P @ N
    ba2_pows = []
    Q = np.array(B_a2)
    for _ in range(1, n_a + 1):
        ba2_pows.append(norm2(Q))
        Q = Q @ B_a2
    return {"norm_N": norm2(N), "norm_Ba": norm2(B_a), "norm_NBa": norm2(N @ B_a),
            "propagation": propagation, "N_pow_Ba": n_pow_ba, "Ba2_pow": ba2_pows}


def newton_per_seed(E, A, D, tau, lam):
    """Reference for stability._newton: Newton from one seed alone, one
    scalar solve per iteration, the log-derivative's exp(-lambda tau)
    taken in Python complex arithmetic.

    Returns the final iterate and why it stopped: "singular" (the solve
    raised), "logderiv" (zero or non-finite log-derivative), "step" (step
    below 1e-13 relative to |lambda|) or "max_iter".
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            M = _char_matrix(E, A, D, tau, lam)
            try:
                logderiv = complex(np.trace(np.linalg.solve(M, E + tau * np.exp(-lam * tau) * D)))
            except np.linalg.LinAlgError:
                return lam, "singular"
            if abs(logderiv) == 0.0 or not np.isfinite(abs(logderiv)):
                return lam, "logderiv"
            step = 1.0 / logderiv
            lam = lam - step
            if abs(step) <= 1e-13 * (1.0 + abs(lam)):
                return lam, "step"
    return lam, "max_iter"


def random_system_from_blocks(
    rng, n_d, n_a, nu, B_blocks, horizon=5, tau=1.0, mix=True, f_degree=2, J=None
):
    """System assembled from prescribed quasi-Weierstrass blocks.

    B_blocks = (B_d1, B_d2, B_a1, B_a2); J, the slow block, is random
    unless given; the coefficient matrices are
    conjugated by random well-conditioned transforms when mix is True.
    The history is a probe of order 1 with zero target, which makes it
    admissible by construction.
    """
    n = n_d + n_a
    J = 0.5 * rng.standard_normal((n_d, n_d)) if J is None else np.atleast_2d(J)
    N = shift_nilpotent(n_a, nu) if n_a else np.zeros((0, 0))
    B_d1, B_d2, B_a1, B_a2 = [np.atleast_2d(np.asarray(b)) for b in B_blocks]
    E0 = np.zeros((n, n))
    E0[:n_d, :n_d] = np.eye(n_d)
    E0[n_d:, n_d:] = N
    A0 = np.zeros((n, n))
    A0[:n_d, :n_d] = J
    A0[n_d:, n_d:] = np.eye(n_a)
    SDT = np.block([[B_d1, B_d2], [B_a1, B_a2]])
    if mix:
        S_inv = well_conditioned(rng, n)
        T_inv = well_conditioned(rng, n)
    else:
        S_inv = np.eye(n)
        T_inv = np.eye(n)
    E = S_inv @ E0 @ T_inv
    A = S_inv @ A0 @ T_inv
    D = S_inv @ SDT @ T_inv
    coeffs = rng.standard_normal((f_degree + 1, n)) * 0.3
    f = dk.PiecewisePolynomial([(0.0, horizon * tau, coeffs)])
    phi0 = dk.PiecewisePolynomial.zero(n, -tau, 0.0)
    sys0 = dk.DdaeSystem(
        E=E, A=A, D=D, tau=tau, horizon_intervals=horizon, f=f, phi=phi0
    )
    split0 = dk.build_split(sys0)
    side = "slow" if n_d else "fast"
    dim = n_d if n_d else n_a
    phi = dk.construct_probe_history(sys0, split0, m=1, target=np.zeros(dim), side=side)
    sys = dk.DdaeSystem(
        E=E, A=A, D=D, tau=tau, horizon_intervals=horizon, f=f, phi=phi
    )
    return sys, dk.build_split(sys, qwf=split0.qwf)


def random_smoothing_blocks(rng, n_d, n_a, nu):
    """Coupling blocks satisfying the smoothing-type conditions.

    N B_a = 0 requires rows nu-1..n_a-1 of [B_a1 B_a2] ... rows below
    the top of each shift chain; with the single-chain N used here the
    rows 1..nu-1 of the algebraic coupling must vanish, and B_a2 is made
    strictly upper triangular (nilpotent).
    """
    B_d1 = 0.6 * rng.standard_normal((n_d, n_d))
    B_d2 = 0.6 * rng.standard_normal((n_d, n_a))
    B_a1 = np.zeros((n_a, n_d))
    B_a2 = np.zeros((n_a, n_a))
    if n_a:
        B_a1[0] = 0.6 * rng.standard_normal(n_d)
        for j in range(1, n_a):
            B_a2[0, j] = 0.6 * rng.standard_normal()
        # rows >= 1 must vanish when the shift block has index >= 2
        if nu <= 1:
            B_a1 = 0.6 * rng.standard_normal((n_a, n_d))
            B_a2 = np.triu(0.6 * rng.standard_normal((n_a, n_a)), 1)
    return B_d1, B_d2, B_a1, B_a2


def kinked_dae(basis, horizon=4):
    """Index-2 smoothing system whose inhomogeneity has breakpoints at
    0.3, 1.5 and 2.7 (none at a knot), in the given basis, with an
    admissible probe history."""
    rng = np.random.default_rng(21)
    n_d, n_a, nu = 1, 3, 2
    sys0, split0 = random_system_from_blocks(
        rng, n_d, n_a, nu, random_smoothing_blocks(rng, n_d, n_a, nu), horizon=horizon
    )
    cuts = [0.0, 0.3, 1.5, 2.7, float(horizon)]
    f = dk.PiecewisePolynomial(
        [(a, b, 0.3 * rng.standard_normal((4, n_d + n_a))) for a, b in zip(cuts, cuts[1:])],
        basis=basis,
    )
    sys1 = replace(sys0, f=f)
    phi = dk.construct_probe_history(sys1, dk.build_split(sys1, qwf=split0.qwf), m=1,
                                     target=np.zeros(n_d), side="slow")
    return replace(sys1, phi=phi)


# -- worked examples -------------------------------------------------


def example_neutral(horizon=4):
    """Scalar system: 0 = x + x(t-1) + 1 with history t."""
    phi = dk.PiecewisePolynomial([(-1.0, 0.0, np.array([[-1.0], [1.0]]))])
    f = dk.PiecewisePolynomial([(0.0, float(horizon), np.array([[1.0]]))])
    return dk.DdaeSystem(
        E=[[0.0]], A=[[1.0]], D=[[1.0]], tau=1.0, horizon_intervals=horizon,
        f=f, phi=phi,
    )


def example_advanced(horizon=4):
    """Index-2 system whose second component follows x2(t) = x2'(t-1)."""
    coeffs = np.array(
        [[1.0 / 3.0, -1.0 / 3.0], [0.0, -1.0], [-1.0, 0.0], [1.0 / 3.0, 1.0 / 3.0]]
    )
    phi = dk.PiecewisePolynomial([(-1.0, 0.0, coeffs)])
    f = dk.PiecewisePolynomial.zero(2, 0.0, float(horizon))
    return dk.DdaeSystem(
        E=np.diag([1.0, 0.0]),
        A=[[0.0, 1.0], [1.0, 0.0]],
        D=np.diag([0.0, -1.0]),
        tau=1.0,
        horizon_intervals=horizon,
        f=f,
        phi=phi,
    )


def example_slow_smoothing(horizon=5):
    """Index-1 system hiding the delay 2*tau: v'(t) = v(t-2)."""
    phi = dk.PiecewisePolynomial([(-1.0, 0.0, np.array([[-1.0, -1.0], [1.0, 0.0]]))])
    f = dk.PiecewisePolynomial.zero(2, 0.0, float(horizon))
    return dk.DdaeSystem(
        E=np.diag([1.0, 0.0]),
        A=np.diag([0.0, 1.0]),
        D=[[0.0, 1.0], [-1.0, 0.0]],
        tau=1.0,
        horizon_intervals=horizon,
        f=f,
        phi=phi,
    )


def example_backward_desmoothing(horizon=3):
    """Index-2 system (E D != 0) whose backward companion also de-smooths."""
    phi = dk.PiecewisePolynomial.zero(2, -1.0, 0.0)
    f = dk.PiecewisePolynomial.zero(2, 0.0, float(horizon))
    return dk.DdaeSystem(
        E=[[0.0, 1.0], [0.0, 0.0]],
        A=np.eye(2),
        D=[[1.0, 1.0], [0.0, 1.0]],
        tau=1.0,
        horizon_intervals=horizon,
        f=f,
        phi=phi,
    )


def weak_desmoothing_system(rng=None, horizon=6):
    """Index-3 de-smoothing system meeting the unique-solvability conditions.

    Built in quasi-Weierstrass coordinates: N B_a2 = 0, N B_a != 0,
    N^2 B_a = 0, N^2 B_a1 B_d2 = 0.
    """
    n_d, n_a = 1, 3
    N = shift_nilpotent(n_a, 3)
    J = np.array([[0.25]])
    B_d1 = np.array([[0.4]])
    B_d2 = np.array([[1.0, 0.0, 0.0]])
    B_a1 = np.array([[0.0], [1.0], [0.0]])
    B_a2 = np.zeros((3, 3))
    B_a2[0, 0] = 0.5
    n = n_d + n_a
    E = np.zeros((n, n))
    E[:n_d, :n_d] = np.eye(n_d)
    E[n_d:, n_d:] = N
    A = np.zeros((n, n))
    A[:n_d, :n_d] = J
    A[n_d:, n_d:] = np.eye(n_a)
    D = np.block([[B_d1, B_d2], [B_a1, B_a2]])
    f = dk.PiecewisePolynomial.zero(n, 0.0, float(horizon))
    phi = dk.PiecewisePolynomial.zero(n, -1.0, 0.0)
    return dk.DdaeSystem(
        E=E, A=A, D=D, tau=1.0, horizon_intervals=horizon, f=f, phi=phi
    )
