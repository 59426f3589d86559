"""Shared construction helpers for the test suite: random pencils and
systems with known ground truth, plus the worked examples used across
modules."""

from dataclasses import replace

import numpy as np
from numpy.polynomial import chebyshev as C
from numpy.polynomial import polynomial as P

import ddae_kit as dk
from ddae_kit.cheb import cgl_nodes, trim_coeffs, values_to_coeffs
from ddae_kit.history import FLAG_TOL
from ddae_kit.model import FastPart
from ddae_kit.pencil import norm2
from ddae_kit.piecewise import CHEBYSHEV, DOMAIN_RTOL, Piece, _interpolants, _padded, _shift_coeffs
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


def block_form(J, n_a, nu, dtype=float):
    """(E0, A0) = (blockdiag(I, N), blockdiag(J, I)) with N one shift
    chain of length nu (shift_nilpotent)."""
    n_d = len(J)
    n = n_d + n_a
    E0, A0 = np.zeros((n, n), dtype=dtype), np.zeros((n, n), dtype=dtype)
    E0[:n_d, :n_d] = np.eye(n_d)
    E0[n_d:, n_d:] = shift_nilpotent(n_a, nu)
    A0[:n_d, :n_d] = J
    A0[n_d:, n_d:] = np.eye(n_a)
    return E0, A0


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
    E0, A0 = block_form(rng.standard_normal((n_d, n_d)), n_a, nu)
    S_inv = well_conditioned(rng, n)
    T_inv = well_conditioned(rng, n)
    E = S_inv @ E0 @ T_inv
    A = S_inv @ A0 @ T_inv
    return E, A, {"n_d": n_d, "n_a": n_a, "nu": nu}


def taylor_per_order(split, x_value, q_derivs, orders):
    """Reference Taylor recursion: x^(j+1) = A_diff x^(j) + sum_k C_k q^(k+j),
    one order at a time with nu+2 mat-vecs per order.  A stack of streams
    (x_value (S, n), q_derivs (S, K, n), one orders per stream) gives a
    list, each stream recursed alone."""
    if np.ndim(x_value) == 2:
        return [taylor_per_order(split, x, q, k) for x, q, k in zip(x_value, q_derivs, orders)]
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


def tidy(basis, c):
    """The trim of a sum of pieces, per piece: trim_coeffs for Chebyshev
    pieces, none for monomial ones."""
    return trim_coeffs(c) if basis is CHEBYSHEV else c


def fast_part_per_loop(N, q_f, nu):
    """Reference for FastPart(N, nu).solve(q_f) with its old power loops:
    (N^T)^k and -D^k each the matrix times the last power, a left product
    where pencil.powers multiplies on the right, so the two agree bit for
    bit while no power has three factors (nu <= 3)."""
    N = np.atleast_2d(np.asarray(N)) if np.size(N) else np.zeros((0, 0))
    NT = [np.eye(N.shape[0], dtype=N.dtype)]
    for _ in range(1, nu):
        NT.append(N.T @ NT[-1])
    pieces = []
    for a, b, c in q_f.pieces:
        m = len(c)
        D = np.zeros((m, m))
        D[: m - 1] = q_f.basis.der(np.eye(m), a, b, 1)[: m - 1]
        ops = [-np.eye(m)]
        for _ in range(1, min(nu, m)):
            ops.append(D @ ops[-1])
        w = ((np.array(ops) @ c) @ np.array(NT)[: len(ops)]).sum(axis=0)
        pieces.append(Piece(a, b, tidy(q_f.basis, w)))
    return dk.PiecewisePolynomial(pieces, N.shape[0], basis=q_f.basis)


def c_chain_per_loop(qwf):
    """Reference for split_matrices' C_k = -T_a N^(k-1) S[n_d:], 1 <= k <= nu,
    each N power the last one times N, from N^0 = I."""
    n_d, S, T, N = qwf.n_d, qwf.S, qwf.T, qwf.N
    C_list = [T[:, :n_d] @ S[:n_d]]
    N_pow = np.eye(qwf.n_a, dtype=N.dtype)
    for _ in range(qwf.nu):
        C_list.append(-(T[:, n_d:] @ N_pow @ S[n_d:]))
        N_pow = N_pow @ N
    return C_list


def hidden_delays_per_loop(split, nu_D):
    """Reference for expand_hidden_delays' D_0 = B_d1 and D_k = (-1)^k
    B_d2 B_a2^(k-1) B_a1, each B_a2 power the last one times B_a2."""
    D_list = [np.array(split.B_d1)]
    if split.n_a:
        Ba2_pow = np.eye(split.n_a, dtype=split.B_a2.dtype)
        for k in range(1, nu_D + 1):
            D_list.append(((-1.0) ** k) * (split.B_d2 @ Ba2_pow @ split.B_a1))
            Ba2_pow = Ba2_pow @ split.B_a2
    return D_list


def hidden_delay_forcing_per_loop(exp, sys):
    """Reference for hidden_delay_forcing with its old loop over the
    matrices (-1)^(k+1) B_d2 B_a2^k, each B_a2 power the last one times
    B_a2."""
    split, nu_D, tau = exp.split, exp.nu_D, exp.tau
    Sf = sys.f.apply_matrix(split.qwf.S)
    window = (nu_D * tau, sys.horizon_intervals * tau)
    theta = Sf.components(range(split.n_d)).restrict(*window)
    if split.n_a:
        h = Sf.components(range(split.n_d, split.n))
        h_acc = -1.0 * FastPart(split.qwf.N, split.nu).solve(h)
        Ba2_pow = np.eye(split.n_a, dtype=split.B_a2.dtype)
        for k in range(nu_D):
            shifted = h_acc.shift((k + 1) * tau).restrict(*window)
            theta = theta + shifted.apply_matrix(((-1.0) ** (k + 1)) * (split.B_d2 @ Ba2_pow))
            Ba2_pow = Ba2_pow @ split.B_a2
    return theta


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
        pieces.append(Piece(a, b, tidy(q_f.basis, w)))
    return dk.PiecewisePolynomial(pieces, m, basis=q_f.basis)


def shift_per_row(c, delta):
    """Reference Taylor shift: p(u + delta), one row update at a time."""
    out = np.array(c)
    if delta == 0.0:
        return out
    m = out.shape[0]
    for j in range(m - 1):
        for k in range(m - 2, j - 1, -1):
            out[k] = out[k] + delta * out[k + 1]
    return out


def value_per_order(pp, t, order, side="right"):
    """Reference for pp.evaluate(t, order, side) from numpy's own kernels
    on the piece holding t: polyder then polyval (monomial), chebder then
    chebval (Chebyshev); the zero vector above the piece's degree."""
    a, b, c = pp.pieces[pp._locate(t, side=side)]
    if order >= len(c):
        return np.zeros(pp.n, dtype=c.dtype)
    if pp.basis is CHEBYSHEV:
        c = C.chebder(c, m=order, scl=2.0 / (b - a), axis=0)
        return C.chebval((2.0 * t - a - b) / (b - a), c)
    return P.polyval(t - a, P.polyder(c, m=order, axis=0))


def interpolants(pieces, windows):
    """_interpolants of a list of pieces (a, b, coef) on their windows, as
    a list of trimmed coefficient arrays."""
    a, b, coefs = zip(*pieces)
    stack = (np.array(a), np.array(b), *_padded(coefs, np.result_type(*coefs)))
    coefs, lengths = _interpolants(stack, windows)
    return [c[:m] for c, m in zip(coefs, lengths.tolist())]


def cut_per_piece(pp, j, lo, hi):
    """Reference cut: piece j of pp re-expanded on [lo, hi] alone, by
    _shift_coeffs of a stack of one for a monomial piece and by
    interpolants([(a, b, c)], [(lo, hi)]) for a Chebyshev one."""
    a, b, c = pp.pieces[j]
    if pp.basis is CHEBYSHEV:
        return interpolants([(a, b, c)], [(lo, hi)])[0]
    return _shift_coeffs(c[None], [lo - a])[0]


def restrict_per_piece(pp, lo_w, hi_w):
    """Reference for pp.restrict(lo_w, hi_w).pieces: every part of a piece
    inside the window longer than the tolerance, cut alone."""
    tol = DOMAIN_RTOL * (pp.end - pp.start)
    pieces = []
    for j, (pa, pb, _) in enumerate(pp.pieces):
        lo, hi = max(pa, lo_w), min(pb, hi_w)
        if hi - lo > tol:
            pieces.append(Piece(lo, hi, cut_per_piece(pp, j, lo, hi)))
    return pieces


def split_at_per_piece(pp, points):
    """Reference for pp.split_at(points).pieces: a piece that no point cuts
    more than the tolerance inside its ends stays as it is; each part of
    a cut one is cut alone."""
    tol = DOMAIN_RTOL * (pp.end - pp.start)
    pieces = []
    for j, (pa, pb, c) in enumerate(pp.pieces):
        edges = [pa] + sorted(t for t in points if pa + tol < t < pb - tol) + [pb]
        if len(edges) == 2:
            pieces.append(Piece(pa, pb, c))
            continue
        pieces += [Piece(lo, hi, cut_per_piece(pp, j, lo, hi))
                   for lo, hi in zip(edges, edges[1:])]
    return pieces


def segment_window(pp, i, tau):
    """Reference: the restriction of pp to segment i in local time, in
    Chebyshev form, cut and converted piece by piece with one polyval and
    one V^-1 product per monomial piece."""
    lo_w, hi_w, move = (i - 1) * tau, i * tau, -(i - 1) * tau
    if pp.basis is CHEBYSHEV:
        return [(a + move, b + move, c) for a, b, c in restrict_per_piece(pp, lo_w, hi_w)]
    tol = DOMAIN_RTOL * (pp.end - pp.start)
    pieces = []
    for pa, pb, c in pp.pieces:
        lo, hi = max(pa, lo_w), min(pb, hi_w)
        if hi - lo <= tol:
            continue
        a, b, c = lo + move, hi + move, shift_per_row(c, lo - pa)
        vals = P.polyval((b - a) * 0.5 * (cgl_nodes(c.shape[0] - 1) + 1.0), c).T
        pieces.append((a, b, trim_coeffs(values_to_coeffs(vals))))
    return pieces


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


def grid_per_row(E, A, D, tau, res, ims):
    """Reference for stability._grid_magnitudes: |det M| on the grid one
    row (fixed real part) at a time, each row's matrices formed
    elementwise by _char_matrix, bit for bit the determinant of
    _char_matrix at each lambda alone."""
    mag = np.empty((len(res), len(ims)))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, x in enumerate(res):
            det = np.linalg.det(_char_matrix(E, A, D, tau, x + 1j * ims))
            mag[i] = np.hypot(det.real, det.imag)
    return mag


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
            # moduli by np.abs, as _newton takes them: Python's abs may
            # round the last bit apart
            if not 0.0 < np.abs(logderiv) < np.inf:
                return lam, "logderiv"
            step = 1.0 / logderiv
            lam = lam - step
            if np.abs(step) <= 1e-13 * (1.0 + np.abs(lam)):
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
    return sys, dk.split_matrices(split0.qwf, sys.D)


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
    phi = dk.construct_probe_history(sys1, dk.split_matrices(split0.qwf, sys1.D), m=1,
                                     target=np.zeros(n_d), side="slow")
    return replace(sys1, phi=phi)


def straddling_system(field, horizon=6):
    """Index-2 system on tau = 0.1, where i * tau - (i - 1) * tau != tau
    for some i, whose inhomogeneity has pieces of several degrees that
    straddle the knots (all of them at horizon 6, the default)."""
    rng = np.random.default_rng(17)
    tau, M = 0.1, horizon
    sys0, _ = random_system_from_blocks(rng, 1, 3, 2, random_smoothing_blocks(rng, 1, 3, 2),
                                        horizon=M)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if field is complex else x

    end = round(M * tau, 12)
    cuts = [c for c in (0.0, 0.05, 0.23, 0.37, 0.45) if c < end] + [end]
    f = dk.PiecewisePolynomial([(a, b, draw(1 + k % 4, 4))
                                for k, (a, b) in enumerate(zip(cuts, cuts[1:]))])
    sys1 = dk.DdaeSystem(E=sys0.E, A=sys0.A, D=sys0.D, tau=tau, horizon_intervals=M,
                         f=f, phi=dk.PiecewisePolynomial.zero(4, -tau, 0.0))
    phi = dk.construct_probe_history(sys1, dk.build_split(sys1), m=1, target=np.zeros(1),
                                     rng=rng)
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


def certified_per_piece(colloc, forcing, v0):
    """Reference for SlowCollocation.integrate, one piece at a time: each
    forcing piece, cut for stiffness into its first 2^level parts, climbs
    colloc's ladder until its collocant passes the certificate and is
    halved at the top rung, depth first, down to the width floor; each
    piece starts at the end node value of the collocant before it.  The
    certificate is written out per piece: the trim drops the last
    coefficient (or it is below tiny/eps), and at every grid midpoint
    ||v' - J v - q|| <= RESID_RTOL max_i(|v'_i| + |(J v)_i| + |q_i|) +
    rho, or that scale is below tiny/eps (max norms over the
    components)."""
    from ddae_kit import solver

    J, nd = colloc.J, colloc.J.shape[0]
    span = forcing.end - forcing.start
    floor = span / 2**solver.MAX_DEPTH
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    out, unresolved, start = [], [], np.asarray(v0)

    def solve(a, b, q, v0, p):
        dtype = np.result_type(J, v0, q, float)
        rhs = (C.chebvander(cgl_nodes(p), len(q) - 1) @ q).astype(dtype)
        rhs[0] = v0
        values = (colloc._inverse(p, b - a, span, dtype) @ rhs.reshape(-1)).reshape(p + 1, nd)
        return values, values_to_coeffs(values)

    def certified(a, b, q, values, coef):
        p = len(values) - 1
        if len(trim_coeffs(coef)) > p and np.max(np.abs(coef[p]), initial=0.0) > tiny / eps:
            return False
        mids = np.cos((np.arange(p) + 0.5) * np.pi / p)
        I_m = C.chebvander(mids, p) @ np.linalg.inv(C.chebvander(cgl_nodes(p), p))
        D_m = I_m @ solver._colloc_dmat(p)
        dv = (2.0 / (b - a)) * (D_m @ values)
        Jv = (I_m @ values) @ J.T
        qm = C.chebvander(mids, len(q) - 1) @ q
        resid = np.max(np.abs(dv - Jv - qm), axis=1, initial=0.0)
        size = np.max(np.abs(dv) + np.abs(Jv) + np.abs(qm), axis=1, initial=0.0)
        rho = (solver.ROUNDING_UNITS * p * eps * 2.0 / (b - a)) * np.max(
            np.abs(D_m) @ np.abs(values), axis=1, initial=0.0)
        return bool(np.all((resid <= solver.RESID_RTOL * size + rho) | (size < tiny / eps)))

    def piece(a, b, q, v0, rung=0):
        for p in colloc.ladder[rung:]:
            values, coef = solve(a, b, q, v0, p)
            if certified(a, b, q, values, coef):
                out.append(Piece(a, b, trim_coeffs(coef)))
                return values[-1]
        if (b - a) / 2 < floor * (1.0 - DOMAIN_RTOL):
            out.append(Piece(a, b, trim_coeffs(coef)))
            unresolved.append((a, b))
            return values[-1]
        m = a + 0.5 * (b - a)
        halves = interpolants([(a, b, q)] * 2, [(a, m), (m, b)])
        return piece(m, b, halves[1], piece(a, m, halves[0], v0))

    for a, b, q in forcing.pieces:
        stiffness = colloc._J_norm * (b - a)
        level = 0 if stiffness <= solver.STIFF_WIDTH else int(min(
            np.ceil(np.log2(stiffness / solver.STIFF_WIDTH)),
            np.floor(np.log2((b - a) / floor * (1.0 + DOMAIN_RTOL)))))
        cuts = a + (b - a) * np.arange(2**level + 1) / 2**level
        cuts[-1] = b
        parts = interpolants([(a, b, q)] * 2**level, list(zip(cuts[:-1], cuts[1:])))
        for lo, hi, qk in zip(cuts[:-1].tolist(), cuts[1:].tolist(), parts):
            start = piece(lo, hi, qk, start)
    return dk.PiecewisePolynomial(out, nd, basis=forcing.basis), unresolved
