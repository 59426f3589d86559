"""Matrix pencil analysis: regularity, Wong sequences, quasi-Weierstrass form.

The decomposition splits a regular pencil (E, A) into a differential part
(dimension n_d, governed by a matrix J) and an algebraic part (dimension
n_a, governed by a nilpotent matrix N):

    S E T = blockdiag(I, N),    S A T = blockdiag(J, I).

Subspace computations use rank-revealing SVDs.  One rule decides every
rank, nilpotency and classification question: rank_threshold for singular
values and negligible for matrix norms, both from RANK_RTOL and RANK_ATOL.
Real input stays real: no complexification is ever required.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DecompositionFailure, DimensionMismatch, SingularPencil

RECONSTRUCTION_TOL = 1e-8


# the one rule for numerical rank and for numerically zero matrices
RANK_RTOL = 1e-10
RANK_ATOL = 1e-14


def rank_threshold(sigma_max):
    """Rank threshold for a scalar or an array of sigma_max: a singular
    value sigma counts as nonzero iff sigma > max(RANK_ATOL, RANK_RTOL sigma_max)."""
    return np.fmax(RANK_ATOL, RANK_RTOL * sigma_max)


def negligible(norm, scale):
    """Whether a matrix norm is numerically zero for data of the given scale:
    norm <= max(RANK_ATOL, RANK_RTOL (1 + scale))."""
    return norm <= max(RANK_ATOL, RANK_RTOL * (1.0 + scale))


def norm2(M):
    """Spectral norm as a float; 0 for an empty matrix.

    The largest singular value, bit for bit what np.linalg.norm(M, 2)
    returns, without its generic dispatch.  A norm past the float range
    decides nothing and raises DecompositionFailure.
    """
    norm = float(np.linalg.svd(M, compute_uv=False)[0]) if M.size else 0.0
    if not norm < np.inf:  # inf or nan
        raise DecompositionFailure("a matrix norm is not finite; rescaling the data may help")
    return norm


@dataclass(frozen=True, eq=False)
class MatrixPencil:
    """Square matrix pencil (E, A) over the reals or complexes."""

    E: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        E = np.atleast_2d(np.asarray(self.E))
        A = np.atleast_2d(np.asarray(self.A))
        if E.ndim != 2 or E.shape[0] != E.shape[1]:
            raise DimensionMismatch("E must be square")
        if A.shape != E.shape:
            raise DimensionMismatch("A must match the shape of E")
        if E.shape[0] < 1:
            raise DimensionMismatch("pencil dimension must be at least 1")
        if np.iscomplexobj(E) or np.iscomplexobj(A):
            E = E.astype(complex)
            A = A.astype(complex)
        else:
            E = E.astype(float)
            A = A.astype(float)
        E.setflags(write=False)
        A.setflags(write=False)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "A", A)

    @property
    def n(self):
        return self.E.shape[0]

    @property
    def is_complex(self):
        return np.iscomplexobj(self.E)

    @cached_property
    def norm_E(self):
        """||E||_2, computed once per pencil."""
        return norm2(self.E)

    @cached_property
    def norm_A(self):
        """||A||_2, computed once per pencil."""
        return norm2(self.A)


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    witness: float | complex | None
    det_magnitude: float | None
    sample_points: tuple
    det_values: tuple

    def __bool__(self):
        return self.regular


@dataclass(frozen=True, eq=False)
class WongResult:
    V_star: np.ndarray
    W_star: np.ndarray
    rank_ambiguous: bool
    regularity: RegularityVerdict


@dataclass(frozen=True, eq=False)
class QuasiWeierstrassForm:
    """Decomposition data of a regular pencil.

    S E T = blockdiag(I_{n_d}, N) and S A T = blockdiag(J, I_{n_a}) hold
    within the reconstruction tolerance; N is nilpotent with index nu
    (nu = 0 exactly when n_a = 0).  regularity is the verdict that
    admitted the pencil (None for a hand-built form).
    """

    S: np.ndarray
    T: np.ndarray
    J: np.ndarray
    N: np.ndarray
    n_d: int
    n_a: int
    nu: int
    rank_ambiguous: bool = field(default=False)
    regularity: RegularityVerdict | None = field(default=None)

    def __post_init__(self):
        n = self.n_d + self.n_a
        shapes = {"S": (n, n), "T": (n, n), "J": (self.n_d, self.n_d),
                  "N": (self.n_a, self.n_a)}
        for name, shape in shapes.items():
            arr = np.asarray(getattr(self, name))
            try:
                arr = arr.reshape(shape)
            except ValueError as exc:
                raise DimensionMismatch(f"{name} must have shape {shape}") from exc
            arr = np.array(arr, dtype=complex if np.iscomplexobj(arr) else float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self):
        return self.n_d + self.n_a

    @cached_property
    def T_inv(self):
        return _frozen(np.linalg.inv(self.T))

    @cached_property
    def S_inv(self):
        return _frozen(np.linalg.inv(self.S))


def _frozen(arr):
    arr.setflags(write=False)
    return arr


def _svd_rank(M, context):
    """SVD factors U, Vh of M with its numerical rank and an ambiguity flag.

    Rank decisions are made relative to max(sigma_max, context), so a
    product that is numerically zero is not mistaken for a rank-one
    matrix of pure roundoff.  A singular value within a factor 10 of the
    threshold makes the decision ambiguous.
    """
    U, s, Vh = np.linalg.svd(M)
    if s.size == 0:
        return U, Vh, 0, False
    thr = rank_threshold(max(s[0], context))
    ambiguous = bool(np.any((s > thr / 10) & (s < thr * 10)))
    return U, Vh, int(np.sum(s > thr)), ambiguous


def _orthonormal_range(M, context=0.0):
    """Orthonormal basis of range(M) plus an ambiguity flag."""
    U, _, rank, ambiguous = _svd_rank(M, context)
    return U[:, :rank], ambiguous


def _kernel(M, context=0.0):
    """Orthonormal basis of ker(M) plus an ambiguity flag."""
    _, Vh, rank, ambiguous = _svd_rank(M, context)
    return Vh[rank:].conj().T, ambiguous


def _preimage(M, target_basis, norm_M):
    """Orthonormal basis of {x : M x in range(target_basis)}; norm_M = ||M||_2."""
    n = M.shape[0]
    Q = target_basis
    P_perp = np.eye(n, dtype=np.result_type(M.dtype, Q.dtype)) - Q @ Q.conj().T
    return _kernel(P_perp @ M, context=norm_M)


def _wong_limit(X, P, Q, norm_P, norm_Q):
    """Limit of X_{i+1} = preimage under P of range(Q X_i), plus an
    ambiguity flag; norm_P, norm_Q are the spectral norms of P and Q."""
    ambiguous = False
    for _ in range(X.shape[0] + 1):
        QX, amb1 = _orthonormal_range(Q @ X, context=norm_Q)
        X_next, amb2 = _preimage(P, QX, norm_P)
        ambiguous = ambiguous or amb1 or amb2
        converged = X_next.shape[1] == X.shape[1]
        X = X_next
        if converged:
            break
    return X, ambiguous


def check_regularity(pencil: MatrixPencil):
    """Test det(lambda E - A) != 0 at n+1 deterministic sample points.

    The sample points are lambda_j = j * s for j = 0..n with the scale
    s = (1 + ||A||) / (1 + ||E||).  Since det(lambda E - A) is a
    polynomial of degree at most n, a regular pencil passes at one of
    the n+1 points in exact arithmetic.  Nonsingularity of each sample
    matrix is decided by rank_threshold (scale invariant); the reported
    determinant magnitude is informational.
    """
    E, A, n = pencil.E, pencil.A, pencil.n
    s = (1.0 + pencil.norm_A) / (1.0 + pencil.norm_E)
    lams = np.arange(n + 1) * s
    M = lams[:, None, None] * E - A
    sig = np.linalg.svd(M, compute_uv=False)
    dets = np.abs(np.linalg.det(M))
    thr = rank_threshold(np.where(sig[:, 0] > 0, sig[:, 0], 1.0))
    passing = np.flatnonzero(sig[:, -1] > thr)
    first = passing[0] if passing.size else None
    return RegularityVerdict(
        regular=first is not None,
        witness=None if first is None else lams[first],
        det_magnitude=None if first is None else float(dets[first]),
        sample_points=tuple(lams),
        det_values=tuple(dets.tolist()),
    )


def wong_sequences(pencil: MatrixPencil):
    """Limits of the Wong subspace sequences of a regular pencil.

    V_0 = F^n,  V_{i+1} = preimage under A of (E V_i)   (decreasing),
    W_0 = {0},  W_{i+1} = preimage under E of (A W_i)   (increasing).

    Returns orthonormal bases of the limits; dim V* = n_d, dim W* = n_a
    and V* + W* spans F^n for regular pencils.  This is where regularity
    is decided: a singular pencil raises SingularPencil with the verdict.
    """
    verdict = check_regularity(pencil)
    if not verdict.regular:
        raise SingularPencil(verdict)
    E, A, n = pencil.E, pencil.A, pencil.n
    norm_E, norm_A = pencil.norm_E, pencil.norm_A
    V, amb_V = _wong_limit(np.eye(n, dtype=E.dtype), A, E, norm_A, norm_E)
    W, amb_W = _wong_limit(np.zeros((n, 0), dtype=E.dtype), E, A, norm_E, norm_A)
    if V.shape[1] + W.shape[1] != n:
        raise DecompositionFailure(
            f"Wong subspace dimensions {V.shape[1]} + {W.shape[1]} != {n}; "
            "rank thresholds likely misjudged; rescaling the data may help"
        )
    return WongResult(V_star=V, W_star=W, rank_ambiguous=amb_V or amb_W,
                      regularity=verdict)


def power_norms(N, count):
    """||N^k|| for k = 1..count, lazily; each power is the last one times N."""
    power = N
    for _ in range(count):
        yield norm2(power)
        with np.errstate(over="ignore", invalid="ignore"):
            power = power @ N


def first_negligible_power(norms):
    """Smallest k >= 1 whose ||N^k|| = norms[k-1] (norms may be lazy) is
    negligible at the scale ||N||^k = norms[0]^k; None if there is none."""
    with np.errstate(over="ignore"):  # numpy's ** gives inf where Python's raises
        for k, norm in enumerate(norms, 1):
            norm_N = norm if k == 1 else norm_N
            if negligible(norm, np.float64(norm_N) ** k):
                return k
    return None


def nilpotency_index(Nmat):
    """Smallest k with N^k numerically zero, or (False, None).

    N^k is zero when negligible(||N^k||, ||N||^k), with ||.|| the
    spectral norm.  An m x m matrix is nilpotent iff N^m = 0, so at most
    m powers are formed; the empty 0 x 0 matrix has index 0.
    """
    N = np.atleast_2d(np.asarray(Nmat))
    if N.size == 0:
        return True, 0
    if N.shape[0] != N.shape[1]:
        raise DimensionMismatch("nilpotency test needs a square matrix")
    k = first_negligible_power(power_norms(N, N.shape[0]))
    return k is not None, k


def compute_qwf(pencil: MatrixPencil):
    """Quasi-Weierstrass decomposition of a regular pencil.

    With V*, W* the Wong limits, T = [V* W*] and S = [E V*, A W*]^{-1}
    give S E T = blockdiag(I, N) and S A T = blockdiag(J, I).  The
    off-diagonal blocks of both products are checked against the
    reconstruction tolerance and the nilpotency of N is verified.
    """
    wong = wong_sequences(pencil)
    E, A, n = pencil.E, pencil.A, pencil.n
    V, W = wong.V_star, wong.W_star
    n_d = V.shape[1]
    n_a = W.shape[1]

    T = np.hstack([V, W])
    S_inv = np.hstack([E @ V, A @ W])
    sig = np.linalg.svd(S_inv, compute_uv=False)
    if sig.size == 0 or sig[-1] <= rank_threshold(sig[0]):
        raise DecompositionFailure(
            "[E V*, A W*] is numerically singular; rank thresholds likely "
            "misjudged; rescaling the data may help"
        )
    S = np.linalg.inv(S_inv)

    SET = S @ E @ T
    SAT = S @ A @ T
    scale = 1.0 + pencil.norm_E + pencil.norm_A
    tol = RECONSTRUCTION_TOL * scale
    defects = [
        SET[:n_d, n_d:], SET[n_d:, :n_d],
        SAT[:n_d, n_d:], SAT[n_d:, :n_d],
        SET[:n_d, :n_d] - np.eye(n_d), SAT[n_d:, n_d:] - np.eye(n_a),
    ]
    worst = max((norm2(d) for d in defects if d.size), default=0.0)
    if worst > tol:
        raise DecompositionFailure(
            f"block structure defect {worst:.3e} exceeds tolerance {tol:.3e}"
        )

    J = SAT[:n_d, :n_d]
    N = SET[n_d:, n_d:]
    if n_a == 0:
        nu = 0
    else:
        nilpotent, nu = nilpotency_index(N)
        if not nilpotent:
            raise DecompositionFailure(
                "algebraic block N is not numerically nilpotent; "
                "rank thresholds likely misjudged"
            )
    return QuasiWeierstrassForm(
        S=S, T=T, J=J, N=N, n_d=n_d, n_a=n_a, nu=nu,
        rank_ambiguous=wong.rank_ambiguous, regularity=wong.regularity,
    )
