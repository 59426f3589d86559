"""Discontinuity-propagation and legacy classification of a delayed system.

The propagation taxonomy describes what happens to the derivative jump
between history and solution as it travels across the knots i*tau:

* smoothing: the jump moves to ever higher derivative orders,
* discontinuity invariant: it stays at the same order forever,
* de-smoothing: it descends until the solution itself breaks.

The legacy taxonomy (retarded / neutral / advanced) grades the smoothness
demanded of a function parameter replacing the delayed argument.  Both
are decided purely from the split matrices; the report carries the norm
evidence so borderline calls can be audited.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularPencil
from .model import DdaeSystem, SplitCoefficients, split_matrices
from .pencil import (
    DEFAULT_POLICY,
    MatrixPencil,
    RankPolicy,
    compute_qwf,
    nilpotency_index,
    norm2,
)
from .piecewise import PiecewisePolynomial


class PropagationKind(enum.Enum):
    SMOOTHING = "smoothing"
    DISCONTINUITY_INVARIANT = "discontinuity_invariant"
    DE_SMOOTHING = "de_smoothing"


class LegacyKind(enum.Enum):
    RETARDED = "retarded"
    NEUTRAL = "neutral"
    ADVANCED = "advanced"


@dataclass(frozen=True)
class PropagationClass:
    kind: PropagationKind
    nu_D: int | None
    first_violating_k: int | None
    horizon_dependent_note: bool

    def __post_init__(self):
        if (self.kind is PropagationKind.DE_SMOOTHING) != (
            self.first_violating_k is not None
        ):
            raise DimensionMismatch("first_violating_k is a de-smoothing witness")


@dataclass(frozen=True)
class LegacyClass:
    kind: LegacyKind


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    propagation: PropagationClass
    legacy: LegacyClass
    evidence: dict
    consistency_flag: bool


def classify_propagation(
    split: SplitCoefficients, M: int, policy: RankPolicy = DEFAULT_POLICY
) -> PropagationClass:
    """Propagation class from the split matrices at horizon M.

    De-smoothing as soon as some N^k B_a (k >= 1) is nonzero; smoothing
    when additionally B_a2 is nilpotent with index below the horizon;
    discontinuity invariant otherwise.  A nonsingular E (index zero)
    always smooths.  Nilpotency with index >= M is reported via the
    horizon note: the algebraic property holds but the window is too
    short to observe the smoothing.
    """
    if M < 1:
        raise DimensionMismatch("horizon M must be at least 1")
    nu = split.nu
    N, B_a = split.qwf.N, split.B_a
    norm_N, norm_Ba = norm2(N), norm2(B_a)

    first_violating = None
    N_pow = N.copy() if N.size else N
    for k in range(1, nu):
        if not policy.negligible(norm2(N_pow @ B_a), norm_N**k * norm_Ba):
            first_violating = k
            break
        N_pow = N_pow @ N
    if first_violating is not None:
        return PropagationClass(
            kind=PropagationKind.DE_SMOOTHING,
            nu_D=nilpotency_index(split.B_a2, policy)[1],
            first_violating_k=first_violating,
            horizon_dependent_note=False,
        )

    nilpotent, nu_D = nilpotency_index(split.B_a2, policy)
    if nilpotent and nu_D < M:
        return PropagationClass(
            kind=PropagationKind.SMOOTHING,
            nu_D=nu_D,
            first_violating_k=None,
            horizon_dependent_note=False,
        )
    return PropagationClass(
        kind=PropagationKind.DISCONTINUITY_INVARIANT,
        nu_D=nu_D if nilpotent else None,
        first_violating_k=None,
        horizon_dependent_note=bool(nilpotent and nu_D >= M),
    )


def classify_legacy(
    split: SplitCoefficients, policy: RankPolicy = DEFAULT_POLICY
) -> LegacyClass:
    """Retarded iff B_a = 0; neutral iff B_a != 0 but N B_a = 0; else advanced."""
    N, B_a = split.qwf.N, split.B_a
    norm_N, norm_Ba = norm2(N), norm2(B_a)
    if policy.negligible(norm_Ba, norm_Ba):
        return LegacyClass(LegacyKind.RETARDED)
    if policy.negligible(norm2(N @ B_a), norm_N * norm_Ba):
        return LegacyClass(LegacyKind.NEUTRAL)
    return LegacyClass(LegacyKind.ADVANCED)


def classification_evidence(split: SplitCoefficients):
    """Norms behind the verdicts: ||N^k B_a|| and ||B_a2^k||."""
    nu, n_a = split.nu, split.n_a
    N, B_a, B_a2 = split.qwf.N, split.B_a, split.B_a2
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
    return {"N_pow_Ba": n_pow_ba, "Ba2_pow": ba2_pows}


def classify(
    split: SplitCoefficients, M: int, policy: RankPolicy = DEFAULT_POLICY
) -> ClassificationReport:
    """Both classifications plus the cross-check of their equivalence."""
    prop = classify_propagation(split, M, policy)
    legacy = classify_legacy(split, policy)
    flag = (legacy.kind is LegacyKind.ADVANCED) == (
        prop.kind is PropagationKind.DE_SMOOTHING
    )
    return ClassificationReport(
        propagation=prop,
        legacy=legacy,
        evidence=classification_evidence(split),
        consistency_flag=flag,
    )


@dataclass(frozen=True, eq=False)
class BackwardSystem:
    """Time-reversed companion system in doubled dimension.

    E_b zeta'(t) = A_b zeta(t) + D_b zeta(t - tau) + F(t); its pencil
    (E_b, A_b) is regular exactly when det(D) != 0 for the original
    delay matrix D.
    """

    E: np.ndarray
    A: np.ndarray
    D: np.ndarray
    regularity: object
    det_D: float | complex
    system: DdaeSystem | None


def build_backward_system(sys: DdaeSystem) -> BackwardSystem:
    """Assemble the backward system and report its pencil regularity.

    The classification of the backward system is independent of the
    inhomogeneity, so its data functions are zero.  The system is built
    under the rank policy of sys; an irregular backward pencil is a
    verdict, not an error.
    """
    n = sys.n
    dtype = complex if sys.is_complex else float
    Z = np.zeros((n, n), dtype=dtype)
    I = np.eye(n, dtype=dtype)
    E_b = np.block([[Z, sys.E], [Z, Z]])
    A_b = np.block([[-sys.D, Z], [Z, I]])
    D_b = np.block([[-sys.A, Z], [-I, Z]])
    det_D = np.linalg.det(sys.D)
    zero = PiecewisePolynomial.zero
    try:
        system = DdaeSystem(
            E=E_b,
            A=A_b,
            D=D_b,
            tau=sys.tau,
            horizon_intervals=sys.horizon_intervals,
            f=zero(2 * n, 0.0, sys.t_final, complex_field=sys.is_complex),
            phi=zero(2 * n, -sys.tau, 0.0, complex_field=sys.is_complex),
            policy=sys.policy,
        )
        verdict = system.regularity
    except SingularPencil as exc:
        system, verdict = None, exc.verdict
    return BackwardSystem(
        E=E_b, A=A_b, D=D_b, regularity=verdict, det_D=det_D, system=system
    )


def classify_matrices(E, A, D, M: int, policy: RankPolicy = DEFAULT_POLICY):
    """Classification straight from coefficient matrices (no data needed)."""
    qwf = compute_qwf(MatrixPencil(E, A), policy)
    split = split_matrices(qwf, E, A, D)
    return classify(split, M, policy)
