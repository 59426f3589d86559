"""Matrix pencil analysis: regularity, Wong sequences, quasi-Weierstrass form.

The decomposition splits a regular pencil (E, A) into a differential part
(dimension n_d, governed by a matrix J) and an algebraic part (dimension
n_a, governed by a nilpotent matrix N):

    S E T = blockdiag(I, N),    S A T = blockdiag(J, I).

T's columns span the limits V* and W* of the Wong sequences, which are
those of (E, A - lambda E) for any lambda that is not an eigenvalue, so
with one resolvent K = (lambda E - A)^{-1} E at a well-conditioned
regularity sample, V_i = im K^i and W_i = ker K^i (Campbell, Meyer & Rose
1976; Berger, Ilchmann & Trenn 2012).  With no finite eigenvalue,
det(lambda E - A) = det(-A), and sample 0 decides regularity.

Subspace computations use rank-revealing SVDs.  One rule decides every
rank, nilpotency and classification question: rank_threshold for singular
values and negligible for matrix norms, both from RANK_RTOL and RANK_ATOL.
Real input stays real: no complexification is ever required.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

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


def _nonsingular(sig):
    """Whether a square matrix with singular values sig (one row per
    matrix of a stack) is numerically nonsingular: sigma_min >
    rank_threshold(sigma_max)."""
    return sig[..., -1] > rank_threshold(sig[..., 0])


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
    return _finite(float(np.linalg.svd(M, compute_uv=False)[0]) if M.size else 0.0)


def spectral_norms(stack):
    """The spectral norm of each matrix of a stack, lazily: bit for bit
    norm2 of each, from one stacked SVD.  Reading a norm that is not
    finite (a member holding inf or nan, or one whose norm leaves the
    float range) raises DecompositionFailure, as norm2 does; a norm
    never read never raises."""
    if not stack.size:
        norms = [0.0] * len(stack)
    else:
        try:
            norms = np.linalg.svd(stack, compute_uv=False)[:, 0].tolist()
        except np.linalg.LinAlgError:  # a member holding nan: the others alone
            finite = np.isfinite(stack).all(axis=(1, 2))
            norms = np.full(len(stack), np.nan)
            norms[finite] = np.linalg.svd(stack[finite], compute_uv=False)[:, 0]
            norms = norms.tolist()
    return (_finite(norm) for norm in norms)


def _finite(norm):
    """norm, when it is finite; a norm past the float range decides
    nothing and raises DecompositionFailure."""
    if not norm < np.inf:  # inf or nan
        raise DecompositionFailure("a matrix norm is not finite; rescaling the data may help")
    return norm


def row_norms(rows):
    """Euclidean norm of each row of a 2-D stack, without warnings.

    Bit for bit np.linalg.norm(row) wherever that is finite: a row times
    itself through matmul reaches the same BLAS dot.  A row of finite
    entries whose squares overflow is measured again divided by its
    largest magnitude, so its norm is inf only when the norm itself
    leaves the float range; a row holding inf or nan keeps inf or nan.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(_dots(rows.real) + _dots(rows.imag) if np.iscomplexobj(rows)
                        else _dots(rows))
        over = norms == np.inf
        if over.any():
            over = np.flatnonzero(over)
            big = np.abs(rows[over]).max(axis=1)
            over, big = over[big < np.inf], big[big < np.inf]
            norms[over] = big * row_norms(rows[over] / big[:, None])
    return norms


def _dots(p):
    """Each row of a real 2-D stack times itself, through matmul."""
    return (p[:, None, :] @ p[:, :, None])[:, 0, 0]


def frozen(x, dtype=None):
    """A read-only copy of x as float, or as complex when x is complex;
    a given dtype overrides that choice."""
    if dtype is None:
        dtype = complex if np.iscomplexobj(x) else float
    x = np.array(x, dtype=dtype)
    x.setflags(write=False)
    return x


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
        dtype = complex if np.iscomplexobj(E) or np.iscomplexobj(A) else float
        object.__setattr__(self, "E", frozen(E, dtype))
        object.__setattr__(self, "A", frozen(A, dtype))

    @property
    def n(self):
        return self.E.shape[0]

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
    # one row per sample tested, for the choice of K's sample (_resolvent)
    singular_values: np.ndarray | None = field(default=None, compare=False, repr=False)

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
            object.__setattr__(self, name, frozen(arr))

    @property
    def n(self):
        return self.n_d + self.n_a

    @cached_property
    def T_inv(self):
        return frozen(np.linalg.inv(self.T))


def _svd_rank(M, context):
    """SVD factors U, Vh of M, its numerical rank and an ambiguity flag
    (a singular value within a factor 10 of the threshold), decided at
    the scale top = max(sigma_max, context), which is returned too: a
    product that is numerically zero is not taken for a rank-one matrix
    of pure roundoff."""
    U, s, Vh = np.linalg.svd(M)
    thr = rank_threshold(top := max(s[0], context))
    ambiguous = bool(np.any((s > thr / 10) & (s < thr * 10)))
    return U, Vh, int(np.sum(s > thr)), ambiguous, top


def check_regularity(pencil: MatrixPencil, count=None):
    """Test det(lambda E - A) != 0 at deterministic sample points.

    The sample points are lambda_j = j * s for j = 0..count-1 (all n+1
    by default) with the scale s = (1 + ||A||) / (1 + ||E||).  Since
    det(lambda E - A) is a polynomial of degree at most n, a regular
    pencil passes at one of the n+1 points in exact arithmetic.
    Nonsingularity of a sample matrix is decided by _nonsingular (scale
    invariant), and the witness is the first sample that passes: sample
    0 is tested alone, and the others, as one stack, only when it fails.
    The witness's determinant magnitude is informational.
    """
    E, A, n = pencil.E, pencil.A, pencil.n
    s = (1.0 + pencil.norm_A) / (1.0 + pencil.norm_E)
    lams = np.arange(n + 1 if count is None else count) * s
    M = lams[:, None, None] * E - A
    sig = np.linalg.svd(M[:1], compute_uv=False)
    if not _nonsingular(sig[0]) and len(M) > 1:
        sig = np.vstack([sig, np.linalg.svd(M[1:], compute_uv=False)])
    passing = np.flatnonzero(_nonsingular(sig))
    first = passing[0] if passing.size else None
    return RegularityVerdict(
        regular=first is not None,
        witness=None if first is None else lams[first],
        det_magnitude=None if first is None else float(np.abs(np.linalg.det(M[first]))),
        sample_points=tuple(lams),
        singular_values=sig,
    )


def _admitted(pencil: MatrixPencil, count=None):
    """check_regularity's verdict on a regular pencil; a singular pencil
    raises SingularPencil with the verdict."""
    verdict = check_regularity(pencil, count)
    if not verdict.regular:
        raise SingularPencil(verdict)
    return verdict


def _resolvent(pencil: MatrixPencil, verdict):
    """K = (lambda E - A)^{-1} E at a well-conditioned regularity sample:
    the witness when its sigma_min > sqrt(RANK_RTOL) sigma_max (the
    solve's roundoff, about 1e5 eps ||K||, then stays a tenth of the
    rank threshold RANK_RTOL ||K||), else the sample of largest
    sigma_min / sigma_max, the ones check_regularity did not test taken
    from one stacked SVD."""
    lams, sig = np.array(verdict.sample_points), verdict.singular_values
    j = verdict.sample_points.index(verdict.witness)
    if not sig[j, -1] > np.sqrt(RANK_RTOL) * sig[j, 0]:
        rest = lams[len(sig):, None, None] * pencil.E - pencil.A
        sig = np.vstack([sig, np.linalg.svd(rest, compute_uv=False)])
        j = int(np.argmax(sig[:, -1] / np.fmax(sig[:, 0], RANK_ATOL)))
    return np.linalg.solve(lams[j] * pencil.E - pencil.A, pencil.E)


def wong_sequences(pencil: MatrixPencil):
    """Limits of the Wong subspace sequences of a regular pencil.

    V_0 = F^n,  V_{i+1} = preimage under A of (E V_i)   (decreasing),
    W_0 = {0},  W_{i+1} = preimage under E of (A W_i)   (increasing).

    With K from _resolvent, V_i = im K^i and W_i = ker K^i.  The SVD of
    K gives V_1, W_1 and ||K||, the scale of every rank decision; W_{i+1}
    = ker(Y_i K), Y_i the rows of the last Vh spanning W_i's complement,
    until dim W stops growing or is n; V_{i+1} = range(K V_i) until dim V
    = n - dim W*: 2 nu + 1 SVDs at most.

    Returns orthonormal bases of the limits; dim V* = n_d, dim W* = n_a
    and V* + W* spans F^n for regular pencils.  This is where regularity
    is decided: a singular pencil raises SingularPencil with the verdict.
    """
    verdict = _admitted(pencil)
    K, n = _resolvent(pencil, verdict), pencil.n
    U, Vh, rank, ambiguous, top = _svd_rank(K, 0.0)
    V, dim_V, dim_W = U[:, :rank], n, 0
    while dim_W < n - rank < n:  # W grew and is not yet F^n
        dim_W = n - rank
        _, Vh, rank, amb, _ = _svd_rank(Vh[:rank] @ K, top)
        ambiguous = ambiguous or amb
    W = Vh[rank:].conj().T
    while dim_V > V.shape[1] > n - W.shape[1]:  # V shrank and is not yet n - dim W*
        dim_V = V.shape[1]
        U, _, rank, amb, _ = _svd_rank(K @ V, top)
        V, ambiguous = U[:, :rank], ambiguous or amb
    if V.shape[1] + W.shape[1] != n:
        raise DecompositionFailure(
            f"Wong subspace dimensions {V.shape[1]} + {W.shape[1]} != {n}; "
            "rank thresholds likely misjudged; rescaling the data may help"
        )
    return WongResult(V_star=V, W_star=W, rank_ambiguous=ambiguous, regularity=verdict)


def powers(M, count):
    """M^0 .. M^(count-1) of a square matrix, lazily: M^0 = I, M^1 = M and
    each later power the last one times M, overflowing quietly to inf or
    nan.  Every power of a matrix in the package comes from here, except
    the squares of model's Taylor scan (SplitCoefficients.taylor_squares)."""
    power = np.eye(len(M), dtype=M.dtype)
    for k in range(count):
        if k:
            with np.errstate(over="ignore", invalid="ignore"):
                power = M if k == 1 else power @ M
        yield power


def power_norms(N, count):
    """||N^k|| for k = 1..count, lazily: the powers in chunks of 2, 2, 4,
    8, ... (each chunk as long as the chain before it), each chunk's
    norms from one stacked SVD (spectral_norms), so a reader that stops
    at k forms at most 2k powers and takes about log2(k) SVDs."""
    chain = islice(powers(N, count + 1), 1, None)
    read = 0
    while chunk := list(islice(chain, max(read, 2))):
        read += len(chunk)
        yield from spectral_norms(np.array(chunk))


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
    m powers are read (power_norms); the empty 0 x 0 matrix has index 0.
    """
    N = np.atleast_2d(np.asarray(Nmat))
    if N.size == 0:
        return True, 0
    if N.shape[0] != N.shape[1]:
        raise DimensionMismatch("nilpotency test needs a square matrix")
    k = first_negligible_power(power_norms(N, N.shape[0]))
    return k is not None, k


def compute_qwf(pencil: MatrixPencil):
    """Quasi-Weierstrass decomposition of a regular pencil: wong_sequences
    decides regularity and finds V*, W*; _qwf_from_limits builds the form."""
    return _qwf_from_limits(pencil, wong_sequences(pencil))


def compute_qwf_infinite(pencil: MatrixPencil):
    """Quasi-Weierstrass form of a pencil with no finite eigenvalue.

    det(lambda E - A) is then the constant det(-A), V* = {0} and W* =
    F^n, so the Wong iteration is skipped: T = I, S = A^{-1}, N = A^{-1}
    E, and check_regularity tests sample 0 alone; [E V*, A W*] is then A,
    and sample 0, -A, has its singular values.  Every check of the
    build still runs: a pencil with a finite eigenvalue raises
    DecompositionFailure rather than getting a wrong form.
    """
    verdict = _admitted(pencil, count=1)
    n, dtype = pencil.n, pencil.E.dtype
    limits = WongResult(V_star=np.zeros((n, 0), dtype=dtype), W_star=np.eye(n, dtype=dtype),
                        rank_ambiguous=False, regularity=verdict)
    return _qwf_from_limits(pencil, limits, verdict.singular_values[0])


def _qwf_from_limits(pencil: MatrixPencil, wong: WongResult, sigma=None):
    """The quasi-Weierstrass form built from the Wong limits, checked.

    T = [V* W*] and S = [E V*, A W*]^{-1} give S E T = blockdiag(I, N)
    and S A T = blockdiag(J, I).  Unless [E V*, A W*], with the singular
    values sigma (a values-only SVD when not given), is numerically
    nonsingular, the block defects of both products are within the
    reconstruction tolerance and N is nilpotent, DecompositionFailure.
    The defects' spectral norms are taken only when a Frobenius norm,
    which bounds the spectral norm, exceeds the tolerance.
    """
    E, A = pencil.E, pencil.A
    V, W = wong.V_star, wong.W_star
    n_d = V.shape[1]
    n_a = W.shape[1]

    T = np.hstack([V, W])
    S_inv = np.hstack([E @ V, A @ W])
    if not _nonsingular(np.linalg.svd(S_inv, compute_uv=False) if sigma is None else sigma):
        raise DecompositionFailure(
            "[E V*, A W*] is numerically singular; rank thresholds likely "
            "misjudged; rescaling the data may help"
        )
    S = np.linalg.inv(S_inv)

    SET = S @ E @ T
    SAT = S @ A @ T
    scale = 1.0 + pencil.norm_E + pencil.norm_A
    tol = RECONSTRUCTION_TOL * scale
    defects = [d for d in (
        SET[:n_d, n_d:], SET[n_d:, :n_d],
        SAT[:n_d, n_d:], SAT[n_d:, :n_d],
        SET[:n_d, :n_d] - np.eye(n_d), SAT[n_d:, n_d:] - np.eye(n_a),
    ) if d.size]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan fails the screen
        screened = all(np.linalg.norm(d) <= tol for d in defects)
    worst = 0.0 if screened else max(norm2(d) for d in defects)
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
