"""Property suites: verdicts that must not depend on how a system is written.

Systems are built in quasi-Weierstrass coordinates from couplings that are
clearly zero or clearly nonzero (entries of magnitude 0.5..2), so every
verdict is known from the construction and lies far from the rank
threshold.  The draws are derandomized and bounded, so the suite is
deterministic and fast.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ddae_kit as dk

from gen import shift_nilpotent, well_conditioned

HORIZON = 5  # above every nu_D drawn, so a nilpotent B_a2 smooths


def clear(rng, shape):
    """Entries of random sign and magnitude in [0.5, 2]."""
    return rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.5, 2.0, size=shape)


@st.composite
def clear_systems(draw):
    """(E, A, D, truth) with truth the verdicts the construction fixes.

    N is one shift chain of length nu, so N^k [B_a1 B_a2] = 0 exactly when
    rows k..nu-1 of the algebraic coupling vanish.  B_a2 is zero (nu_D = 1),
    strictly upper triangular with a clear superdiagonal (nu_D = n_a) or
    upper triangular with a clear diagonal (not nilpotent).
    """
    n_a = draw(st.integers(0, 4))
    n_d = draw(st.integers(0 if n_a else 1, 3))
    nu = draw(st.integers(1, n_a)) if n_a else 0
    ba1_rows = draw(st.lists(st.booleans(), min_size=n_a, max_size=n_a))
    ba2_kind = draw(st.sampled_from(["zero", "strict", "diagonal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = n_d + n_a
    B_a1 = clear(rng, (n_a, n_d)) * np.array(ba1_rows, dtype=float)[:, None]
    B_a2 = {"zero": np.zeros((n_a, n_a)), "strict": np.triu(clear(rng, (n_a, n_a)), 1),
            "diagonal": np.triu(clear(rng, (n_a, n_a)))}[ba2_kind]
    E0, A0 = np.zeros((n, n)), np.zeros((n, n))
    E0[:n_d, :n_d] = np.eye(n_d)
    E0[n_d:, n_d:] = shift_nilpotent(n_a, nu)
    A0[:n_d, :n_d] = 0.5 * rng.standard_normal((n_d, n_d))
    A0[n_d:, n_d:] = np.eye(n_a)
    SDT = np.block([[clear(rng, (n_d, n_d)), clear(rng, (n_d, n_a))], [B_a1, B_a2]])
    S_inv, T_inv = well_conditioned(rng, n), well_conditioned(rng, n)

    nonzero_rows = [r for r in range(n_a) if np.any(B_a1[r]) or np.any(B_a2[r])]
    de_smoothing = any(1 <= r < nu for r in nonzero_rows)
    nu_D = 0 if not n_a else {"zero": 1, "strict": n_a, "diagonal": None}[ba2_kind]
    if de_smoothing:
        kind = "de_smoothing"
    else:
        kind = "smoothing" if nu_D is not None else "discontinuity_invariant"
    legacy = ("retarded" if not nonzero_rows
              else "advanced" if de_smoothing else "neutral")
    truth = (nu, n_d, n_a, kind, legacy, nu_D)
    return S_inv @ E0 @ T_inv, S_inv @ A0 @ T_inv, S_inv @ SDT @ T_inv, truth


def verdicts(E, A, D):
    split = dk.split_matrices(dk.compute_qwf(dk.MatrixPencil(E, A)), D)
    report = dk.classify(split, HORIZON)
    prop = report.propagation
    return (split.nu, split.n_d, split.n_a, prop.kind.value, report.legacy.kind.value,
            prop.nu_D)


def bounded_condition(seed, n):
    """Random matrix with condition number at most 10."""
    rng = np.random.default_rng(seed)
    Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q1 @ np.diag(rng.uniform(1.0, 10.0, size=n)) @ Q2


PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


class TestClassificationInvariance:
    @PROPERTY
    @given(clear_systems(), st.floats(-3.0, 3.0))
    def test_uniform_rescaling(self, system, s):
        E, A, D, truth = system
        assert verdicts(E, A, D) == truth
        c = 10.0**s
        assert verdicts(c * E, c * A, c * D) == truth

    @PROPERTY
    @given(clear_systems(), st.integers(0, 2**32 - 1))
    def test_left_and_right_transforms(self, system, seed):
        E, A, D, truth = system
        S = bounded_condition(seed, E.shape[0])
        assert np.linalg.cond(S) <= 10.0 + 1e-9
        assert verdicts(S @ E, S @ A, S @ D) == truth
        # x = S y, the same system in other coordinates
        assert verdicts(E @ S, A @ S, D @ S) == truth
