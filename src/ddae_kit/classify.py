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
    MatrixPencil,
    QuasiWeierstrassForm,
    compute_qwf,
    compute_qwf_infinite,
    first_negligible_power,
    negligible,
)


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


def classify_propagation(split: SplitCoefficients, M: int) -> PropagationClass:
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
    first_violating = next(iter(split.desmoothing_orders), None)
    ba2_pows = split.ba2_power_norms
    # nilpotency index of B_a2 (None if it is not nilpotent)
    nu_D = first_negligible_power(ba2_pows) if ba2_pows else 0
    if first_violating is not None:
        kind = PropagationKind.DE_SMOOTHING
    elif nu_D is not None and nu_D < M:
        kind = PropagationKind.SMOOTHING
    else:
        kind = PropagationKind.DISCONTINUITY_INVARIANT
    return PropagationClass(
        kind=kind,
        nu_D=nu_D,
        first_violating_k=first_violating,
        horizon_dependent_note=(kind is PropagationKind.DISCONTINUITY_INVARIANT
                                and nu_D is not None),
    )


def classify_legacy(split: SplitCoefficients) -> LegacyClass:
    """Retarded iff B_a = 0; neutral iff B_a != 0 but N B_a = 0; else advanced."""
    norm_N, (norm_Ba, norm_NBa, *_) = split.coupling_norms
    if negligible(norm_Ba, norm_Ba):
        return LegacyClass(LegacyKind.RETARDED)
    if negligible(norm_NBa, norm_N * norm_Ba):
        return LegacyClass(LegacyKind.NEUTRAL)
    return LegacyClass(LegacyKind.ADVANCED)


def classify(split: SplitCoefficients, M: int) -> ClassificationReport:
    """Both classifications plus the cross-check of their equivalence.

    The evidence is the split's norm chain: ||N^k B_a|| for k < max(nu, 1)
    and ||B_a2^k|| for 1 <= k <= n_a.
    """
    prop = classify_propagation(split, M)
    legacy = classify_legacy(split)
    flag = (legacy.kind is LegacyKind.ADVANCED) == (
        prop.kind is PropagationKind.DE_SMOOTHING
    )
    return ClassificationReport(
        propagation=prop,
        legacy=legacy,
        evidence={"N_pow_Ba": list(split.coupling_norms[1][: max(split.nu, 1)]),
                  "Ba2_pow": list(split.ba2_power_norms)},
        consistency_flag=flag,
    )


@dataclass(frozen=True, eq=False)
class BackwardSystem:
    """Time-reversed companion system in doubled dimension.

    E_b zeta'(t) = A_b zeta(t) + D_b zeta(t - tau) + F(t); its pencil
    (E_b, A_b) is regular exactly when det(D) != 0 for the original
    delay matrix D.  qwf is the pencil's quasi-Weierstrass form, or None
    when the pencil is singular (regularity then holds the verdict).
    """

    E: np.ndarray
    A: np.ndarray
    D: np.ndarray
    regularity: object
    det_D: float | complex
    qwf: QuasiWeierstrassForm | None


def build_backward_system(sys: DdaeSystem) -> BackwardSystem:
    """Assemble the backward system and decompose its pencil.

    The classification of the backward system is independent of the
    inhomogeneity, so only the coefficients are built.  The pencil
    (E_b, A_b) has det(lambda E_b - A_b) = (-1)^n det(D) for every
    lambda, so it has no finite eigenvalue and compute_qwf_infinite
    decomposes it without the Wong iteration.  Its samples lambda E_b -
    A_b = [[D, lambda E], [0, -I]] are block triangular, so none is better
    conditioned than sample 0, blockdiag(D, -I), which alone decides its
    regularity.  An irregular backward pencil is a verdict, not an error.
    """
    n = sys.n
    dtype = complex if sys.is_complex else float
    Z = np.zeros((n, n), dtype=dtype)
    I = np.eye(n, dtype=dtype)
    E_b = np.block([[Z, sys.E], [Z, Z]])
    A_b = np.block([[-sys.D, Z], [Z, I]])
    D_b = np.block([[-sys.A, Z], [-I, Z]])
    det_D = np.linalg.det(sys.D)
    try:
        qwf = compute_qwf_infinite(MatrixPencil(E_b, A_b))
        verdict = qwf.regularity
    except SingularPencil as exc:
        qwf, verdict = None, exc.verdict
    return BackwardSystem(E=E_b, A=A_b, D=D_b, regularity=verdict, det_D=det_D, qwf=qwf)


def classify_matrices(E, A, D, M: int):
    """Classification straight from coefficient matrices (no data needed)."""
    qwf = compute_qwf(MatrixPencil(E, A))
    split = split_matrices(qwf, D)
    return classify(split, M)
