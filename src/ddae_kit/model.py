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

from .errors import DimensionMismatch
from .pencil import (
    MatrixPencil,
    QuasiWeierstrassForm,
    compute_qwf,
    frozen,
    norm2,
    power_norms,
    powers,
    spectral_norms,
)
from .piecewise import DOMAIN_RTOL, PiecewisePolynomial, _width_groups


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
        object.__setattr__(self, "D", frozen(D))
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
        1 <= k <= n_a)), with N^k and B_a2^k from pencil.powers and the
        norms of each chain from one stacked SVD (pencil.spectral_norms).
        Built on first use.
        """
        N, B_a = self.qwf.N, self.B_a
        with np.errstate(over="ignore", invalid="ignore"):  # spectral_norms raises on inf
            n_pow_ba = np.array(list(powers(N, max(self.nu, 2)))) @ B_a
        return (norm2(N), tuple(spectral_norms(n_pow_ba)),
                tuple(power_norms(self.B_a2, self.n_a)))

    @cached_property
    def taylor_squares(self):
        """The steps of the Taylor scan (_taylor_stack): entry m is
        (A_diff^T)^(2^m), overflowing quietly to inf.  Built on first use
        with entry 0 alone; a scan appends the squares it needs, so they
        belong to this split and are freed with it."""
        return [frozen(self.A_diff.T)]


def split_matrices(qwf: QuasiWeierstrassForm, D) -> SplitCoefficients:
    """Derived matrices of the split system with delay matrix D.

    Block products of the column blocks T_d = T[:, :n_d], T_a = T[:, n_d:]:
    A_diff = T_d J T^-1[:n_d], A_con = T_d T^-1[:n_d], C_0 = T_d S[:n_d]
    and C_k = -T_a N^(k-1) S[n_d:] for 1 <= k <= nu.
    """
    n_d, S, T, N = qwf.n_d, qwf.S, qwf.T, qwf.N
    T_d, T_a, T_inv_d = T[:, :n_d], T[:, n_d:], qwf.T_inv[:n_d]
    C_list = [T_d @ S[:n_d]] + [-(T_a @ P @ S[n_d:]) for P in powers(N, qwf.nu)]
    D = np.asarray(D)
    SD = S @ D
    SDT = SD @ T
    return SplitCoefficients(
        qwf=qwf,
        D=D,
        A_diff=T_d @ qwf.J @ T_inv_d,
        A_con=T_d @ T_inv_d,
        C=tuple(C_list),
        B_d=SD[:n_d, :],
        B_a=SD[n_d:, :],
        B_d1=SDT[:n_d, :n_d],
        B_d2=SDT[:n_d, n_d:],
        B_a1=SDT[n_d:, :n_d],
        B_a2=SDT[n_d:, n_d:],
    )


def build_split(sys: DdaeSystem) -> SplitCoefficients:
    """Split of a system: split_matrices of its own decomposition and D.
    Code that pins another choice of S, T calls split_matrices(qwf, sys.D).
    """
    return split_matrices(sys.qwf, sys.D)


class FastPart:
    """Solver of N w' = w + q_f, nu the nilpotency index of N.

    The operators -D^k, k < nu, D the basis's differentiation matrix on a
    piece, are stacked once per (basis, width, length), and the powers
    (N^k)^T once: the pieces of one length and width cost two stacked
    products and a sum together, and all pieces one trim.  Widths are
    compared relative to the span of q_f (piecewise._width_groups).  An
    instance keeps its operators, so an answer does not depend on what
    it solved before.
    """

    def __init__(self, N, nu):
        N = np.atleast_2d(np.asarray(N)) if np.size(N) else np.zeros((0, 0))
        NT = np.array(list(powers(N.T, max(nu, 1))))
        self.N, self.nu, self._NT, self._ops = N, nu, NT, {}

    def solve(self, q_f: PiecewisePolynomial):
        a, b, c, lengths = q_f._stack
        span = q_f.end - q_f.start
        w = np.zeros(c.shape[:2] + self.N.shape[:1], dtype=np.result_type(c, self._NT, float))
        for (length, width), ks in _width_groups(a, b, span, lengths.tolist()).items():
            w[ks, :length] = self.solve_coefs(q_f.basis, c[ks, :length], a[ks[0]], b[ks[0]],
                                              width, span)
        return q_f._with_stack((a, b, *q_f.basis.trim(w, lengths)), self.N.shape[0])

    def solve_coefs(self, basis, c, a, b, width, span):
        """Untrimmed w for a stack c (K, length, n_a) of q_f pieces on [a, b]
        of one length and width, width their _width_groups key in span."""
        key = (basis.name, width, span, c.shape[1])
        if key not in self._ops:
            self._ops[key] = _fast_operator(basis, c.shape[1], a, b, self.nu)
        ops = self._ops[key]
        return ((ops @ c[:, None]) @ self._NT[: len(ops)]).sum(axis=1)


def _fast_operator(basis, length, a, b, nu):
    """-D^k for k < max(min(nu, length), 1), D the matrix of basis.der on [a, b]."""
    D = np.zeros((length, length))
    D[: length - 1] = basis.der(np.eye(length), a, b, 1)[: length - 1]
    return -np.array(list(powers(D, max(min(nu, length), 1))))


def consistent_projection(split: SplitCoefficients, x_request, q_derivs):
    """The consistent value A_con x_request + sum_{k=1}^{nu} C_k q^{(k-1)}
    of a state at an endpoint whose inhomogeneity derivatives are q_derivs."""
    x0 = split.A_con @ x_request
    # a short stack truncates this sum; solution_taylor_from_value rejects it
    for Ck, qk in zip(split.C[1:], q_derivs):
        x0 = x0 + Ck @ qk
    return x0


def solution_taylor_from_value(split: SplitCoefficients, x_value, q_derivs, orders):
    """Taylor data x^{(0)}..x^{(orders)} of the segment solution at an
    endpoint from its value x_value there, trusted as the order-0 entry
    (a start value comes projected from history.restart), and the
    inhomogeneity derivatives q_derivs there.

    One stream is x_value (n,), q_derivs (K, n) and an int orders, and
    gives xs (orders+1, n).  A stack of S streams is x_value (S, n),
    q_derivs (S, K, n) and one orders per stream, and gives one xs per
    stream, in a list, all of one dtype; stream s reads only its first
    orders[s] + nu rows of q_derivs, so a shorter stream may be
    zero-padded to K.

    x^{(j+1)} = A_diff x^{(j)} + r_j with r_j from taylor_forcing, so
    x^{(j)} = sum_{i <= j} A_diff^(j-i) e_i with e = [x^{(0)}, r_0, r_1,
    ...]: an inclusive prefix scan (_taylor_stack).  Each stream keeps
    its own frontier: its orders from the first one the scan leaves
    non-finite go one at a time.  A stream's rows take the steps they
    take alone, so they match its lone scan to roundoff, if not bit for
    bit: BLAS may round a one-row product (2^k orders alone) apart.
    """
    nu = split.nu
    x_value, q_derivs = np.asarray(x_value), np.asarray(q_derivs)
    single = x_value.ndim == 1
    if single:
        x_value, q_derivs, orders = x_value[None], q_derivs[None], (orders,)
    top_order = max(orders)
    if q_derivs.shape[1] < top_order + nu:
        raise DimensionMismatch(
            f"need {top_order + nu} inhomogeneity derivatives, got {q_derivs.shape[1]}"
        )
    if not top_order:
        xs = list(x_value[:, None].copy())
    else:
        xs = _taylor_stack(split, x_value, taylor_forcing(split, q_derivs, top_order), orders)
    return xs[0] if single else xs


def _taylor_stack(split, x_value, r, orders):
    """Orders 0..orders[s] of each stream s from its value x_value[s] and
    forcing rows r[s], one array per stream.

    e is stacked order-major, (top+1, S, n), and scanned in place: for
    s = 1, 2, 4, ... <= top, row j gains row j - s times (A_diff^T)^s
    (split.taylor_squares), one product for every stream.  Every such s
    must run, or the last orders of a stream of 2^k orders lose their
    A_diff^(2^k) x^{(0)} term.
    """
    top, S, n = int(max(orders)), len(r), split.n
    xs = np.empty((top + 1, S, n), dtype=np.result_type(x_value, r, split.A_diff))
    xs[0] = x_value
    xs[1:] = r[:, :top].transpose(1, 0, 2)
    flat, squares = xs.reshape(-1, n), split.taylor_squares
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(top.bit_length()):
            if m == len(squares):
                squares.append(frozen(squares[-1] @ squares[-1]))
            step = S << m  # the rows of 2^m orders
            flat[step:] += flat[:-step] @ squares[m]
    xs = xs.transpose(1, 0, 2)
    # a square past the float range may put inf * 0 into an order the
    # loop leaves finite, as an overflow spoils the orders after it: from
    # the first order the scan leaves non-finite, a stream goes one order
    # at a time, as the per-order recursion would
    for x, rs, k, stop in zip(xs, r, _finite_rows(xs[:, 1:], orders), orders):
        for j in range(k, stop):
            x[j + 1] = split.A_diff @ x[j] + rs[j]
    return [x[: k + 1] for x, k in zip(xs, orders)]


def taylor_forcing(split: SplitCoefficients, q_derivs, orders):
    """Forcing rows r_0..r_{orders-1} of the Taylor recursion,
    r_j = sum_{k=0}^{nu} C_k q^{(k+j)}, from nu+1 stacked products; for a
    stack of streams q_derivs (S, K, n), one product per C_k for all."""
    r = q_derivs[..., :orders, :] @ split.C[0].T
    for k in range(1, split.nu + 1):
        r += q_derivs[..., k : k + orders, :] @ split.C[k].T
    return r


def _finite_rows(X, caps):
    """For each stream s of the stack X, the number of leading rows of
    X[s, :caps[s]] whose entries are all finite."""
    X = X[:, : max(caps)]
    if np.isfinite(X).all():
        return list(caps)
    finite = np.isfinite(X).all(axis=2)
    return [k if f[:k].all() else int(f[:k].argmin()) for f, k in zip(finite, caps)]
