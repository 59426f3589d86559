"""Problem container and the derived coefficient matrices of the split system.

Given a regular pencil with decomposition S E T = blockdiag(I, N),
S A T = blockdiag(J, I), the delayed system

    E x'(t) = A x(t) + D x(t - tau) + f(t)

splits into a slow ODE part and a fast algebraic part.  This module owns
every matrix derived from that split (projector pair, the C_k chain, the
delay blocks); the data f and phi stay on the system and are transformed
where they are used.  It also provides the pointwise machinery used by
the history checks and the stepping solver: Taylor data of a segment
solution at an endpoint, computed by exact recursion instead of
numerical differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch
from .pencil import (
    MatrixPencil,
    QuasiWeierstrassForm,
    compute_qwf,
    norm2,
    power_norms,
)
from .piecewise import DOMAIN_RTOL, Piece, PiecewisePolynomial

# orders the Taylor recursion advances per block (SplitCoefficients.taylor_blocks)
TAYLOR_BLOCK = 16


@dataclass(frozen=True, eq=False)
class DdaeSystem:
    """The delayed initial value problem on [0, M*tau].

    Fields:
        E, A, D: n x n coefficient matrices ((E, A) must be regular).
        tau: positive delay.
        horizon_intervals: number M of delay intervals to solve.
        f: inhomogeneity on [0, M*tau].
        phi: history function on [-tau, 0].

    Construction decomposes the pencil once: qwf is its quasi-Weierstrass
    form, and a singular pencil or a failed decomposition raises here.
    """

    E: np.ndarray
    A: np.ndarray
    D: np.ndarray
    tau: float
    horizon_intervals: int
    f: PiecewisePolynomial
    phi: PiecewisePolynomial
    qwf: QuasiWeierstrassForm = field(init=False, repr=False)

    def __post_init__(self):
        pencil = MatrixPencil(self.E, self.A)
        object.__setattr__(self, "E", pencil.E)
        object.__setattr__(self, "A", pencil.A)
        D = np.atleast_2d(np.asarray(self.D))
        if D.shape != pencil.E.shape:
            raise DimensionMismatch("D must match the shape of E")
        D = np.array(D, dtype=complex if np.iscomplexobj(D) else float)
        D.setflags(write=False)
        object.__setattr__(self, "D", D)
        if not self.tau > 0:
            raise DimensionMismatch("tau must be positive")
        if self.horizon_intervals < 1:
            raise DimensionMismatch("horizon_intervals must be at least 1")
        object.__setattr__(self, "qwf", compute_qwf(pencil))
        n = pencil.n
        if self.f.n != n or self.phi.n != n:
            raise DimensionMismatch("data functions must have value dimension n")
        tol = DOMAIN_RTOL * self.t_final
        if abs(self.phi.start + self.tau) > tol or abs(self.phi.end) > tol:
            raise DimensionMismatch("phi must be defined exactly on [-tau, 0]")
        if (
            abs(self.f.start) > tol
            or abs(self.f.end - self.horizon_intervals * self.tau) > tol
        ):
            raise DimensionMismatch("f must be defined exactly on [0, M*tau]")

    @property
    def n(self):
        return self.E.shape[0]

    @property
    def regularity(self):
        return self.qwf.regularity

    @property
    def t_final(self):
        return self.horizon_intervals * self.tau

    @property
    def is_complex(self):
        return (
            np.iscomplexobj(self.E)
            or np.iscomplexobj(self.D)
            or self.f.is_complex
            or self.phi.is_complex
        )


@dataclass(frozen=True, eq=False)
class SplitCoefficients:
    """The matrices derived from a quasi-Weierstrass form and a delay matrix.

    The C_k chain drives the inherent ODE x' = A_diff x + sum C_k q^{(k)},
    q = D x(. - tau) + f the segment inhomogeneity.  The blocks of S D T
    couple slow and fast parts of the delayed argument.  No data function
    is held here: the transformed inhomogeneity S f and history
    T^{-1} phi are formed from the system by the code that reads them,
    and f's own derivatives are read from f.
    """

    qwf: QuasiWeierstrassForm
    D: np.ndarray
    A_diff: np.ndarray
    A_con: np.ndarray
    C: tuple
    B_d: np.ndarray
    B_a: np.ndarray
    B_d1: np.ndarray
    B_d2: np.ndarray
    B_a1: np.ndarray
    B_a2: np.ndarray

    @property
    def n(self):
        return self.qwf.n

    @property
    def nu(self):
        return self.qwf.nu

    @property
    def n_d(self):
        return self.qwf.n_d

    @property
    def n_a(self):
        return self.qwf.n_a

    @cached_property
    def coupling_norms(self):
        """The norms every classification reads, each formed once per split.

        (||N||, (||N^k B_a|| for k < max(nu, 2)), (||B_a2^k|| for
        1 <= k <= n_a)), with N^k and B_a2^k each the last power times
        the matrix.  Built on first use.
        """
        N, B_a = self.qwf.N, self.B_a
        n_pow_ba = []
        P = np.eye(self.n_a, dtype=N.dtype)
        with np.errstate(over="ignore", invalid="ignore"):  # norm2 raises on inf
            for _ in range(max(self.nu, 2)):
                n_pow_ba.append(norm2(P @ B_a))
                P = P @ N
        return norm2(N), tuple(n_pow_ba), tuple(power_norms(self.B_a2, self.n_a))

    @cached_property
    def taylor_blocks(self):
        """Block propagators (P, L) of x^{(j+1)} = A_diff x^{(j)} + r_j.

        With B = TAYLOR_BLOCK, P stacks A_diff, A_diff^2, ..., A_diff^B
        (shape (B n, n)) and L is the lower block-Toeplitz matrix whose
        block (a, i) is A_diff^(a-i) for i <= a (shape (B n, B n)), so
        the k <= B orders after x^{(j)} are
        P[:k n] @ x^{(j)} + L[:k n, :k n] @ r[j:j+k].ravel().  Built on
        first use from log2(B) stacked products and one strided copy;
        they belong to this split and are freed with it.
        """
        A, B = self.A_diff, TAYLOR_BLOCK
        n = A.shape[0]
        pows = np.empty((B + 1, n, n), dtype=A.dtype)  # A^0 .. A^B
        pows[0] = np.eye(n)
        pows[1] = A
        m = 1
        while m < B:
            top = min(2 * m, B)
            pows[m + 1 : top + 1] = pows[1 : top - m + 1] @ pows[m]
            m = top
        # H = [A^(B-1) ... A^1 A^0 0 ... 0] side by side: block row a of L
        # is the window of H that starts at block B-1-a
        H = np.zeros((n, 2 * B - 1, n), dtype=A.dtype)
        H[:, :B] = pows[B - 1 :: -1].transpose(1, 0, 2)
        windows = sliding_window_view(H.reshape(n, -1), B * n, axis=1)
        L = windows[:, (B - 1) * n :: -n].transpose(1, 0, 2).reshape(B * n, B * n)
        P = pows[1:].reshape(B * n, n)
        P.setflags(write=False)
        L.setflags(write=False)
        return P, L


def split_matrices(qwf: QuasiWeierstrassForm, D) -> SplitCoefficients:
    """Derived matrices of the split system with delay matrix D."""
    n_d, n_a, nu = qwf.n_d, qwf.n_a, qwf.nu
    S, T, J, N = qwf.S, qwf.T, qwf.J, qwf.N
    n = n_d + n_a
    T_inv = qwf.T_inv

    P_d = np.zeros((n, n), dtype=T.dtype)
    P_d[:n_d, :n_d] = np.eye(n_d)
    J_big = np.zeros((n, n), dtype=np.result_type(T.dtype, J.dtype))
    J_big[:n_d, :n_d] = J

    A_diff = T @ J_big @ T_inv
    A_con = T @ P_d @ T_inv

    C_list = [T @ P_d @ S]
    N_pow = np.eye(n_a, dtype=N.dtype)
    for _ in range(1, nu + 1):
        blk = np.zeros((n, n), dtype=np.result_type(T.dtype, N.dtype))
        blk[n_d:, n_d:] = N_pow
        C_list.append(-(T @ blk @ S))
        N_pow = N_pow @ N

    D = np.asarray(D)
    SD = S @ D
    SDT = SD @ T
    return SplitCoefficients(
        qwf=qwf,
        D=D,
        A_diff=A_diff,
        A_con=A_con,
        C=tuple(C_list),
        B_d=SD[:n_d, :],
        B_a=SD[n_d:, :],
        B_d1=SDT[:n_d, :n_d],
        B_d2=SDT[:n_d, n_d:],
        B_a1=SDT[n_d:, :n_d],
        B_a2=SDT[n_d:, n_d:],
    )


def build_split(
    sys: DdaeSystem, qwf: QuasiWeierstrassForm | None = None
) -> SplitCoefficients:
    """Split of a system: split_matrices of its decomposition and D.

    The decomposition defaults to the system's own; another one may be
    passed in to pin a specific choice of S, T.
    """
    return split_matrices(sys.qwf if qwf is None else qwf, sys.D)


class FastPart:
    """Solver of N w' = w + q_f piece by piece, nu the nilpotency index of N.

    The operators -D^k, k < nu, D the basis's differentiation matrix on a
    piece, are stacked once per (basis, coefficient length, width) and the
    powers (N^k)^T once, so a piece costs two stacked products, a sum and
    one trim.  An instance keeps its operators for every q_f it solves.
    """

    def __init__(self, N, nu):
        N = np.atleast_2d(np.asarray(N)) if np.size(N) else np.zeros((0, 0))
        NT = [np.eye(N.shape[0], dtype=N.dtype)]
        for _ in range(1, nu):
            NT.append(N.T @ NT[-1])
        self.N, self.nu, self._NT, self._ops = N, nu, np.array(NT), {}

    def solve(self, q_f: PiecewisePolynomial):
        pieces = []
        for a, b, c in q_f.pieces:
            key = (q_f.basis.name, len(c), b - a)
            if key not in self._ops:
                self._ops[key] = _fast_operator(q_f.basis, len(c), a, b, self.nu)
            ops = self._ops[key]
            w = ((ops @ c) @ self._NT[: len(ops)]).sum(axis=0)
            pieces.append(Piece(a, b, q_f.basis.tidy(w)))
        return q_f._with(pieces, self.N.shape[0])


def _fast_operator(basis, length, a, b, nu):
    """-D^k for k < max(min(nu, length), 1), D the matrix of basis.der on [a, b]."""
    D = np.zeros((length, length))
    D[: length - 1] = basis.der(np.eye(length), a, b, 1)[: length - 1]
    ops = [-np.eye(length)]
    for _ in range(1, min(nu, length)):
        ops.append(D @ ops[-1])
    return np.array(ops)


def solution_taylor(split: SplitCoefficients, x_request, q_derivs, orders):
    """Taylor data of the segment solution at an endpoint.

    Arguments:
        x_request: requested state value at the endpoint (the attained
            value is its consistent projection).
        q_derivs: array (K+1, n) of inhomogeneity derivatives at the
            endpoint with K >= orders + nu.
        orders: highest solution derivative to produce.

    Returns (xs, residual) where xs has shape (orders+1, n) with
    xs[j] = x^{(j)} at the endpoint and residual is the consistency
    defect ||x_request - xs[0]||.
    """
    q_derivs = np.asarray(q_derivs)
    x0 = split.A_con @ x_request
    # a short stack truncates this sum; solution_taylor_from_value rejects it
    for Ck, qk in zip(split.C[1:], q_derivs):
        x0 = x0 + Ck @ qk
    residual = float(np.linalg.norm(x_request - x0))
    return solution_taylor_from_value(split, x0, q_derivs, orders), residual


def solution_taylor_from_value(split: SplitCoefficients, x_value, q_derivs, orders):
    """Like solution_taylor but trusts x_value as the order-0 entry.

    x^{(j+1)} = A_diff x^{(j)} + r_j with r_j from taylor_forcing.  The
    recursion advances in blocks of up to TAYLOR_BLOCK orders through
    split.taylor_blocks: one product applies L to the forcing of every
    block at once, and each block adds P x^{(j)}, with x^{(j)} the last
    order before the block.
    Orders past the first non-finite forcing row, or past a block's first
    non-finite order, go one at a time.
    """
    nu = split.nu
    q_derivs = np.asarray(q_derivs)
    if q_derivs.shape[0] < orders + nu:
        raise DimensionMismatch(
            f"need {orders + nu} inhomogeneity derivatives, got {q_derivs.shape[0]}"
        )
    x_value = np.asarray(x_value)
    if not orders:
        return x_value[None].copy()
    r = taylor_forcing(split, q_derivs, orders)
    xs = np.empty(
        (orders + 1,) + x_value.shape, dtype=np.result_type(x_value, r, split.A_diff)
    )
    xs[0] = x_value
    # L mixes all orders of a block and 0 * inf is NaN, so the blocks stop
    # at the first forcing row that is not finite; from there, and from
    # the first order a block left non-finite, the loop goes one order at
    # a time, as the unblocked recursion would
    top = _finite_rows(r)
    if top:
        P, L = split.taylor_blocks
        n = split.n
        width = min(top, TAYLOR_BLOCK)
        blocks = -(-top // width)
        # column b holds the forcing r_j of block b, zero-padded past top
        R = np.zeros((blocks * width, n), dtype=r.dtype)
        R[:top] = r[:top]
        LR = L[: width * n, : width * n] @ R.reshape(blocks, width * n).T
        for b, j in enumerate(range(0, top, width)):
            k = min(width, top - j)
            xs[j + 1 : j + k + 1] = (P[: k * n] @ xs[j] + LR[: k * n, b]).reshape(k, n)
        top = _finite_rows(xs[1 : top + 1])
    for j in range(top, orders):
        xs[j + 1] = split.A_diff @ xs[j] + r[j]
    return xs


def taylor_forcing(split: SplitCoefficients, q_derivs, orders):
    """Forcing rows r_0..r_{orders-1} of the Taylor recursion,
    r_j = sum_{k=0}^{nu} C_k q^{(k+j)}, from nu+1 stacked products."""
    return sum(q_derivs[k : k + orders] @ split.C[k].T for k in range(split.nu + 1))


def _finite_rows(X):
    """Number of leading rows of X whose entries are all finite."""
    finite = np.isfinite(X).all(axis=1)
    return len(X) if finite.all() else int(finite.argmin())


def segment_window(pp: PiecewisePolynomial, i: int, tau: float) -> PiecewisePolynomial:
    """Restriction of a function on [0, M tau] to segment i in local time."""
    return pp.restrict((i - 1) * tau, i * tau).shift(-(i - 1) * tau)
