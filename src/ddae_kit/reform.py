"""Hidden-delay reformulation and embeddings of delayed equations.

For smoothing-type systems the algebraic part can be eliminated by a
finite Neumann-type inversion: the delayed fast state feeds back into
the slow equation only through powers of the coupling block, which
surfaces effective delays 2*tau, 3*tau, ... that are invisible in the
original form.  The result is an equivalent retarded multi-delay
equation in the slow state, suitable for spectral stability analysis.
Its delay matrices come from the split matrices alone; its forcing is
formed from the system's inhomogeneity only where that equation is
solved (hidden_delay_forcing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSmoothingType
from .classify import PropagationKind, classify_propagation
from .model import DdaeSystem, SplitCoefficients, fast_subsystem_solution
from .piecewise import PiecewisePolynomial


@dataclass(frozen=True, eq=False)
class HiddenDelayExpansion:
    """Retarded multi-delay form z'(t) = J z + sum_k D_k z(t-(k+1)tau) + theta.

    D_delays holds D_0..D_{nu_D}; tau is the delay, so the effective
    delays are (k+1) tau.  The matrices come from split alone; theta
    depends on the inhomogeneity and is assembled by hidden_delay_forcing.
    """

    J: np.ndarray
    D_delays: tuple
    nu_D: int
    split: SplitCoefficients
    tau: float

    @property
    def delays(self):
        return [float((k + 1) * self.tau) for k in range(self.nu_D + 1)]


def expand_hidden_delays(sys: DdaeSystem, split: SplitCoefficients) -> HiddenDelayExpansion:
    """Eliminate the algebraic part of a smoothing-type system.

    D_0 = B_d1 and D_k = (-1)^k B_d2 B_a2^{k-1} B_a1 for k = 1..nu_D,
    with the propagation class taken at the system's horizon.
    """
    prop = classify_propagation(split, sys.horizon_intervals)
    if prop.kind is not PropagationKind.SMOOTHING:
        raise NotSmoothingType(
            f"hidden-delay expansion needs a smoothing-type system, got {prop.kind.value}"
        )
    nu_D = prop.nu_D
    D_list = [np.array(split.B_d1)]
    if split.n_a:
        Ba2_pow = np.eye(split.n_a, dtype=split.B_a2.dtype)
        for k in range(1, nu_D + 1):
            D_list.append(((-1.0) ** k) * (split.B_d2 @ Ba2_pow @ split.B_a1))
            Ba2_pow = Ba2_pow @ split.B_a2
    return HiddenDelayExpansion(
        J=split.qwf.J, D_delays=tuple(D_list), nu_D=nu_D, split=split, tau=sys.tau,
    )


def hidden_delay_forcing(expansion: HiddenDelayExpansion,
                         sys: DdaeSystem) -> PiecewisePolynomial:
    """The forcing theta of the expansion on its solve window [nu_D tau, M tau].

    With [g; h] = S f, for index above one the fast solution formula is
    applied first, so the inhomogeneity entering the inversion is
    h~ = sum_j N^j h^{(j)};
    theta(t) = g(t) + sum_{k=0}^{nu_D-1} (-1)^{k+1} B_d2 B_a2^k
    h~(t - (k+1) tau), assembled exactly.
    """
    split, nu_D, tau = expansion.split, expansion.nu_D, expansion.tau
    n_d, n_a = split.n_d, split.n_a
    Sf = sys.f.apply_matrix(split.qwf.S)
    window = (nu_D * tau, sys.horizon_intervals * tau)
    theta = Sf.components(range(n_d)).restrict(*window)
    if n_a:
        # accumulated fast inhomogeneity: h~ = sum_{j<nu} N^j h^{(j)} = -w(h)
        h = Sf.components(range(n_d, split.n))
        h_acc = -1.0 * fast_subsystem_solution(split.qwf.N, h, nu=split.nu)
        Ba2_pow = np.eye(n_a, dtype=split.B_a2.dtype)
        for k in range(nu_D):
            shifted = h_acc.shift((k + 1) * tau).restrict(*window)
            theta = theta + shifted.apply_matrix(
                ((-1.0) ** (k + 1)) * (split.B_d2 @ Ba2_pow)
            )
            Ba2_pow = Ba2_pow @ split.B_a2
    return theta


def embed_neutral_dde(Ahat, Dhat, Bhat, f: PiecewisePolynomial, tau, horizon_intervals,
                      phi: PiecewisePolynomial | None = None) -> DdaeSystem:
    """Doubled-dimension delayed DAE for x' = A x + D x(.-tau) + B x'(.-tau) + f.

    The shifted variable y(t) = x(t - tau) turns the derivative delay
    into an algebraic coupling; the embedded system smooths exactly when
    B is nilpotent.
    """
    Ahat = np.atleast_2d(np.asarray(Ahat))
    Dhat = np.atleast_2d(np.asarray(Dhat))
    Bhat = np.atleast_2d(np.asarray(Bhat))
    n = Ahat.shape[0]
    dtype = np.result_type(Ahat.dtype, Dhat.dtype, Bhat.dtype, float)
    Z = np.zeros((n, n), dtype=dtype)
    I = np.eye(n, dtype=dtype)
    E2 = np.block([[I, -Bhat], [Z, Z]])
    A2 = np.block([[Ahat, Z], [Z, I]])
    D2 = np.block([[Dhat, Z], [-I, Z]])
    zero_col = PiecewisePolynomial.zero(n, f.start, f.end, complex_field=f.is_complex)
    f2 = f.stack(zero_col)
    if phi is None:
        phi2 = PiecewisePolynomial.zero(2 * n, -tau, 0.0,
                                        complex_field=np.iscomplexobj(E2))
    else:
        phi2 = phi
    return DdaeSystem(
        E=E2, A=A2, D=D2, tau=tau, horizon_intervals=horizon_intervals,
        f=f2, phi=phi2,
    )


def embed_pure_delay(Dmat, Bmat, f: PiecewisePolynomial, tau, horizon_intervals,
                     phi: PiecewisePolynomial | None = None) -> DdaeSystem:
    """Doubled-dimension delayed DAE for x = D x(.-tau) + B x'(.-tau) + f.

    With the shifted variable z(t) = x(t - tau) the equation becomes
    purely algebraic in the doubled state; it de-smooths exactly when
    B is nonzero.
    """
    Dmat = np.atleast_2d(np.asarray(Dmat))
    Bmat = np.atleast_2d(np.asarray(Bmat))
    n = Dmat.shape[0]
    dtype = np.result_type(Dmat.dtype, Bmat.dtype, float)
    Z = np.zeros((n, n), dtype=dtype)
    I = np.eye(n, dtype=dtype)
    E2 = np.block([[Z, Bmat], [Z, Z]])
    A2 = np.eye(2 * n, dtype=dtype)
    D2 = np.block([[-Dmat, Z], [-I, Z]])
    zero_col = PiecewisePolynomial.zero(n, f.start, f.end, complex_field=f.is_complex)
    f2 = (-1.0 * f).stack(zero_col)
    if phi is None:
        phi2 = PiecewisePolynomial.zero(2 * n, -tau, 0.0,
                                        complex_field=np.iscomplexobj(E2))
    else:
        phi2 = phi
    return DdaeSystem(
        E=E2, A=A2, D=D2, tau=tau, horizon_intervals=horizon_intervals,
        f=f2, phi=phi2,
    )
