from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddae_kit as dk
from ddae_kit import pencil
from ddae_kit.cli import main
from ddae_kit.history import CONSISTENCY_TOL, consistency
from ddae_kit.pencil import negligible, norm2, rank_threshold, row_norms

from gen import block_form, random_regular_pencil, well_conditioned


def one_row_norm(x):
    """||x|| as row_norms measures x as one row."""
    return row_norms(np.asarray(x)[None])[0]


def subspace(basis):
    """Orthogonal projector onto the column span."""
    if basis.shape[1] == 0:
        return np.zeros((basis.shape[0], basis.shape[0]))
    return basis @ basis.conj().T


class TestVectorNorms:
    @pytest.mark.parametrize("field", [float, complex])
    def test_bit_identical_to_numpy_where_finite(self, field):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 7, 16, 33):
            rows = rng.standard_normal((6, n)) * 10.0 ** rng.integers(-150, 150, size=(6, 1))
            if field is complex:
                rows = rows + 1j * rng.standard_normal((6, n))
            expected = [float(np.linalg.norm(row)) for row in rows]
            assert row_norms(rows).tolist() == expected
            assert [one_row_norm(row) for row in rows] == expected

    @pytest.mark.parametrize("field", [float, complex])
    def test_overflowing_squares_give_the_scaled_norm(self, field):
        # the squares overflow, the norm does not: no warning (an error
        # under this suite's filter) and a finite, correctly scaled value
        x = np.array([3e200, -4e200]) * (1j if field is complex else 1)
        assert one_row_norm(x) == pytest.approx(5e200, rel=1e-15)
        rows = np.stack([x, np.array([3.0, 4.0]) + 0 * x])
        assert row_norms(rows) == pytest.approx([5e200, 5.0], rel=1e-15)

    def test_non_finite_stays_non_finite(self):
        assert one_row_norm(np.array([np.inf, 1.0])) == np.inf
        assert np.isnan(one_row_norm(np.array([np.nan, 1.0])))
        assert one_row_norm(np.full(3, 1.7e308)) == np.inf  # beyond the float range
        assert one_row_norm(np.zeros(0)) == 0.0

    def test_overflowed_residual_is_never_consistent(self):
        big, zero = np.array([1e300, 1e300]), np.zeros(2)
        beyond = np.full(2, 1.7e308)  # finite, with a norm past the float range
        assert consistency(beyond, zero, zero) == (np.inf, False)
        residual, consistent = consistency(big, np.array([np.nan, 0.0]), big)
        assert np.isnan(residual) and not consistent
        assert consistency(zero, np.array([CONSISTENCY_TOL, 0.0]), zero) == (CONSISTENCY_TOL, True)
        assert not consistency(big, zero, zero)[1]

    @pytest.mark.parametrize("field", [float, complex])
    def test_consistency_norms_bit_identical_to_vector_norm(self, field):
        rng = np.random.default_rng(12)
        for n in (1, 3, 8):
            x, x0, q0 = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-100, 100, size=(3, 1))
            if field is complex:
                x0 = x0 + 1j * rng.standard_normal(n)
            residual, _ = consistency(x, x0, q0)
            assert residual == one_row_norm(x - x0)
            scale = 1.0 + one_row_norm(x) + one_row_norm(q0)
            assert consistency(x, x0, q0)[1] == (residual <= CONSISTENCY_TOL * scale)


class TestNorm2:
    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (1, 1), (0, 0), (0, 3)])
    @pytest.mark.parametrize("field", [float, complex])
    def test_bit_identical_to_numpy(self, shape, field):
        rng = np.random.default_rng(len(shape) + shape[0])
        for _ in range(50):
            M = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8)
            if field is complex:
                M = M + 1j * rng.standard_normal(shape)
            got = norm2(M)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(np.linalg.norm(M, 2)).tobytes()


class TestSpectralNorms:
    @pytest.mark.parametrize("field", [float, complex])
    def test_power_chains_bit_identical_to_norm2(self, field):
        rng = np.random.default_rng(13)
        for _ in range(150):
            n = int(rng.integers(1, 13))
            N = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
            if field is complex:
                N = N + 1j * rng.standard_normal((n, n))
            got = list(pencil.power_norms(N, n))
            ref = [norm2(P) for P in list(pencil.powers(N, n + 1))[1:]]
            assert np.array(got).tobytes() == np.array(ref).tobytes()

    def test_empty_members_have_norm_zero(self):
        assert list(pencil.spectral_norms(np.zeros((3, 0, 4)))) == [0.0] * 3
        assert list(pencil.power_norms(np.zeros((0, 0)), 0)) == []

    def test_a_non_finite_norm_raises_only_when_read(self):
        # N = [[0, 1e200], [1e-40, 0]]: N^2 = 1e160 I is negligible at the
        # overflowed scale ||N||^2, and N^3 holds an inf; the early exit
        # at k = 2 never reads ||N^3||, a full read raises
        N = np.array([[0.0, 1e200], [1e-40, 0.0]])
        assert pencil.first_negligible_power(pencil.power_norms(N, 3)) == 2
        with pytest.raises(dk.DecompositionFailure, match="not finite"):
            list(pencil.power_norms(N, 3))
        norms = pencil.spectral_norms(np.stack([np.eye(2), np.full((2, 2), np.nan)]))
        assert next(norms) == 1.0
        with pytest.raises(dk.DecompositionFailure, match="not finite"):
            next(norms)


class TestRegularity:
    def test_identity_pencil_regular(self):
        p = dk.MatrixPencil(np.eye(2), np.zeros((2, 2)))
        verdict = dk.check_regularity(p)
        assert verdict.regular
        # lambda = 0 gives det(0*E - 0) = 0, so the witness is the second sample
        s = (1.0 + 0.0) / (1.0 + 1.0)
        assert verdict.witness == pytest.approx(s)
        assert verdict.det_magnitude == pytest.approx(s**2)

    def test_constant_determinant_pencil(self):
        # det(lambda E - A) = -1 for all lambda
        p = dk.MatrixPencil(np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        verdict = dk.check_regularity(p)
        assert verdict.regular
        assert verdict.witness == 0.0
        assert verdict.det_magnitude == pytest.approx(1.0)

    def test_singular_pencil(self):
        E = np.array([[0.0, 1.0], [0.0, 0.0]])
        verdict = dk.check_regularity(dk.MatrixPencil(E, E))
        assert not verdict.regular
        assert verdict.witness is None

    def test_stacked_samples_match_per_sample_loop(self):
        # reference: one sample matrix at a time; singular E and singular
        # pencils (a shared zero column) included
        rng = np.random.default_rng(12)
        for trial in range(24):
            n = int(rng.integers(1, 7))
            E, A = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            if trial % 2:
                E = E + 1j * rng.standard_normal((n, n))
            E[:, -1] *= trial % 4 < 2
            A[:, -1] *= trial % 8 < 6
            pencil = dk.MatrixPencil(E, A)
            E, A = pencil.E, pencil.A
            verdict = dk.check_regularity(pencil)
            s = (1.0 + np.linalg.norm(A, 2)) / (1.0 + np.linalg.norm(E, 2))
            witness = det = None
            for j in range(n + 1):
                M = (j * s) * E - A
                sig = np.linalg.svd(M, compute_uv=False)
                assert verdict.sample_points[j] == j * s
                top = sig[0] if sig[0] > 0 else 1.0
                if witness is None and sig[-1] > rank_threshold(top):
                    witness, det = j * s, float(np.abs(np.linalg.det(M)))
            assert verdict.witness == witness
            assert verdict.det_magnitude == det
            assert verdict.regular == (witness is not None)

    def test_first_witness_matches_all_samples(self):
        # reference: every sample's singular values from one stacked SVD,
        # the witness the first that passes; regular pencils with a
        # nonsingular or singular A (witness at sample 0 or later), and
        # singular pencils
        def all_samples(p):
            E, A, n = p.E, p.A, p.n
            lams = np.arange(n + 1) * ((1.0 + p.norm_A) / (1.0 + p.norm_E))
            M = lams[:, None, None] * E - A
            sig = np.linalg.svd(M, compute_uv=False)
            thr = rank_threshold(np.where(sig[:, 0] > 0, sig[:, 0], 1.0))
            passing = np.flatnonzero(sig[:, -1] > thr)
            first = passing[0] if passing.size else None
            return pencil.RegularityVerdict(
                regular=first is not None,
                witness=None if first is None else lams[first],
                det_magnitude=None if first is None else float(np.abs(np.linalg.det(M[first]))),
                sample_points=tuple(lams))

        rng = np.random.default_rng(24)
        witnesses = set()
        for trial in range(60):
            n = int(rng.integers(1, 9))
            E, A, _ = random_regular_pencil(rng, n)
            if trial % 3 == 1:  # A singular: det(lambda E - A) vanishes at 0
                A = A @ np.diag(np.r_[0.0, np.ones(n - 1)])
            elif trial % 3 == 2:  # a shared zero column: a singular pencil
                E, A = E * np.r_[0.0, np.ones(n - 1)], A * np.r_[0.0, np.ones(n - 1)]
            if trial % 2:
                A = A * np.exp(1j * rng.uniform(0, 2 * np.pi))
            p = dk.MatrixPencil(E, A)
            verdict = dk.check_regularity(p)
            assert verdict == all_samples(p)
            assert type(verdict.witness) is type(all_samples(p).witness)
            witnesses.add(None if verdict.witness is None else verdict.witness > 0)
        assert witnesses == {None, False, True}

    def test_dimension_mismatch(self):
        with pytest.raises(dk.DimensionMismatch):
            dk.MatrixPencil(np.eye(2), np.eye(3))
        with pytest.raises(dk.DimensionMismatch):
            dk.MatrixPencil(np.ones((2, 3)), np.ones((2, 3)))

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_scale_invariant_verdicts(self, c):
        rng = np.random.default_rng(7)
        for _ in range(20):
            E, A, _ = random_regular_pencil(rng, 4)
            assert dk.check_regularity(dk.MatrixPencil(c * E, c * A)).regular
        E = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not dk.check_regularity(dk.MatrixPencil(c * E, c * E)).regular

    def test_degree_of_determinant_matches_n_d(self):
        # det(lambda E - A) has degree n_d; recover it from the samples
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            E, A, truth = random_regular_pencil(rng, n)
            p = dk.MatrixPencil(E, A)
            verdict = dk.check_regularity(p)
            lams = np.array(verdict.sample_points)
            dets = np.array(
                [np.linalg.det(lam * E - A) for lam in lams]
            )
            s = lams[1] if len(lams) > 1 else 1.0
            V = np.vander(lams / max(s, 1e-300), N=n + 1, increasing=True)
            coeffs = np.linalg.solve(V, dets)
            mags = np.abs(coeffs)
            degree = int(np.max(np.nonzero(mags > 1e-6 * mags.max())[0]))
            assert degree == truth["n_d"]


class TestWongSequences:
    def test_ode_case(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3))
        wong = dk.wong_sequences(dk.MatrixPencil(np.eye(3), A))
        assert wong.V_star.shape[1] == 3
        assert wong.W_star.shape[1] == 0
        assert np.allclose(subspace(wong.V_star), np.eye(3))

    def test_fully_algebraic(self):
        # V_1 = span{e2}, V_2 = {0}; W* = full space
        p = dk.MatrixPencil(np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        wong = dk.wong_sequences(p)
        assert wong.V_star.shape[1] == 0
        assert wong.W_star.shape[1] == 2

    def test_split_case(self):
        p = dk.MatrixPencil(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        wong = dk.wong_sequences(p)
        assert np.allclose(subspace(wong.V_star), np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(subspace(wong.W_star), np.diag([0.0, 1.0]), atol=1e-12)

    def test_direct_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            E, A, truth = random_regular_pencil(rng, n)
            wong = dk.wong_sequences(dk.MatrixPencil(E, A))
            assert wong.V_star.shape[1] == truth["n_d"]
            assert wong.W_star.shape[1] == truth["n_a"]
            T = np.hstack([wong.V_star, wong.W_star])
            assert np.linalg.matrix_rank(T) == n

    def test_singular_raises(self):
        E = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(dk.SingularPencil):
            dk.wong_sequences(dk.MatrixPencil(E, E))

    @pytest.mark.parametrize("n_d, n_a, nu", [(3, 0, 0), (2, 2, 1), (2, 3, 2), (1, 5, 3),
                                              (2, 4, 4), (0, 4, 4)])
    def test_svd_count(self, monkeypatch, n_d, n_a, nu):
        # the SVD of K, one more per step of W's growth and one that finds
        # it stopped (none once W = F^n), one per step of V after V_1: 2 nu
        # at index nu >= 1 (2 nu - 1 when n_d = 0), 1 at index 0
        rng = np.random.default_rng(41)
        E, A, _ = random_regular_pencil(rng, n_d + n_a, n_d=n_d, nu=nu)
        shapes, svd_rank = [], pencil._svd_rank
        monkeypatch.setattr(pencil, "_svd_rank",
                            lambda M, context: shapes.append(M.shape) or svd_rank(M, context))
        wong = dk.wong_sequences(dk.MatrixPencil(E, A))
        assert (wong.V_star.shape[1], wong.W_star.shape[1]) == (n_d, n_a)
        assert len(shapes) == (2 * nu - (n_d == 0) if nu else 1) <= 2 * nu + 1

    def test_ill_conditioned_witness_is_not_the_shift(self, monkeypatch):
        # J = diag(1e-9, 1.5) and orthogonal transforms: sample 0, -A, passes
        # the regularity test with sigma_min / sigma_max = 1e-9 and stays
        # the witness, but K = (-A)^{-1} E would carry roundoff of about
        # 1e9 eps ||K||, far above the rank threshold; K comes from the
        # best-conditioned other sample, and the limits are the
        # construction's
        rng = np.random.default_rng(31)
        n_d, n_a, nu = 2, 3, 3
        E0, A0 = block_form(np.diag([1e-9, 1.5]), n_a, nu)
        Q1, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        Q2, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        p = dk.MatrixPencil(Q1 @ E0 @ Q2, Q1 @ A0 @ Q2)
        sig = np.linalg.svd(p.A, compute_uv=False)
        assert rank_threshold(sig[0]) < sig[-1] < 2e-9 * sig[0]
        qwf = dk.compute_qwf(p)
        assert (qwf.n_d, qwf.n_a, qwf.nu, qwf.rank_ambiguous) == (n_d, n_a, nu, False)
        assert qwf.regularity.witness == 0.0
        shifts = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda M, B: shifts.append(M) or solve(M, B))
        wong = dk.wong_sequences(p)
        assert_limits_match(wong, Q2.T, n_d)
        lams = wong.regularity.sample_points
        conds = [np.linalg.cond(lam * p.E - p.A) for lam in lams]
        assert len(shifts) == 1
        assert np.array_equal(shifts[0], lams[int(np.argmin(conds))] * p.E - p.A)


def assert_limits_match(wong, T0, n_d):
    """V* and W* span the first n_d and the other columns of T0, the
    transform of the pencil S0 (E0, A0) T0^{-1} built from block form."""
    for basis, cols in ((wong.V_star, T0[:, :n_d]), (wong.W_star, T0[:, n_d:])):
        Q, _ = np.linalg.qr(cols)
        assert np.linalg.norm(subspace(basis) - subspace(Q), 2) <= 1e-8


class TestDecompositionProperty:
    """The decomposition against its construction, on pencils built in
    block form (tests/gen.py's classes: index 0-4, one shift chain, real
    and complex) and mixed by well-conditioned transforms."""

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n_d=st.integers(0, 3), nu=st.integers(0, 4),
           extra=st.integers(0, 1), field=st.sampled_from([float, complex]))
    def test_limits_and_blocks_match_the_construction(self, seed, n_d, nu, extra, field):
        n_a = nu + extra if nu else 0
        if n_d + n_a == 0:
            n_d = 1
        rng = np.random.default_rng(seed)
        J = 0.5 * rng.standard_normal((n_d, n_d))
        if field is complex:
            J = J + 0.5j * rng.standard_normal((n_d, n_d))
        E0, A0 = block_form(J, n_a, nu, field)
        n = n_d + n_a
        S0, T_inv = well_conditioned(rng, n), well_conditioned(rng, n)
        if field is complex:
            T_inv = T_inv * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        E, A = S0 @ E0 @ T_inv, S0 @ A0 @ T_inv
        p = dk.MatrixPencil(E, A)
        wong = dk.wong_sequences(p)
        assert_limits_match(wong, np.linalg.inv(T_inv), n_d)
        qwf = dk.compute_qwf(p)
        assert (qwf.n_d, qwf.n_a, qwf.nu, qwf.rank_ambiguous) == (n_d, n_a, nu, False)
        assert np.iscomplexobj(qwf.T) == (field is complex)
        # J is similar to the construction's
        eig = np.sort_complex(np.linalg.eigvals(qwf.J))
        assert np.allclose(eig, np.sort_complex(np.linalg.eigvals(J)), atol=1e-7)


class TestNilpotencyIndex:
    def test_shift_block(self):
        assert dk.nilpotency_index(np.array([[0.0, 1.0], [0.0, 0.0]])) == (True, 2)

    def test_not_nilpotent(self):
        assert dk.nilpotency_index(np.array([[1.0]])) == (False, None)

    def test_zero_and_empty(self):
        assert dk.nilpotency_index(np.zeros((1, 1))) == (True, 1)
        assert dk.nilpotency_index(np.zeros((0, 0))) == (True, 0)

    def test_fast_coupling_block_of_slow_smoothing_example(self):
        # the 1x1 zero block B_a2 of the hidden-delay example
        assert dk.nilpotency_index(np.zeros((1, 1))) == (True, 1)


class TestQuasiWeierstrass:
    def test_ode_pencil(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4))
        qwf = dk.compute_qwf(dk.MatrixPencil(np.eye(4), A))
        assert (qwf.n_d, qwf.n_a, qwf.nu) == (4, 0, 0)
        # J is similar to A
        eig_J = np.sort_complex(np.linalg.eigvals(qwf.J))
        eig_A = np.sort_complex(np.linalg.eigvals(A))
        assert np.allclose(eig_J, eig_A, atol=1e-8)

    def test_index_two_pencil(self):
        p = dk.MatrixPencil(np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        qwf = dk.compute_qwf(p)
        assert (qwf.n_d, qwf.n_a, qwf.nu) == (0, 2, 2)
        assert np.linalg.matrix_rank(qwf.N) == 1
        assert np.allclose(qwf.N @ qwf.N, 0.0, atol=1e-12)

    def test_scalar_zero_E(self):
        qwf = dk.compute_qwf(dk.MatrixPencil([[0.0]], [[1.0]]))
        assert (qwf.n_d, qwf.n_a, qwf.nu) == (0, 1, 1)
        assert np.allclose(qwf.N, 0.0)

    def test_real_input_stays_real(self):
        rng = np.random.default_rng(9)
        E, A, _ = random_regular_pencil(rng, 5)
        qwf = dk.compute_qwf(dk.MatrixPencil(E, A))
        for arr in (qwf.S, qwf.T, qwf.J, qwf.N):
            assert not np.iscomplexobj(arr)

    def test_complex_pencil(self):
        rng = np.random.default_rng(13)
        E, A, truth = random_regular_pencil(rng, 4, n_d=2, nu=2)
        U = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(4, 4))) * 0.3 + np.eye(4)
        qwf = dk.compute_qwf(dk.MatrixPencil(U @ E, U @ A))
        assert (qwf.n_d, qwf.n_a, qwf.nu) == (2, 2, 2)

    def test_reconstruction_and_nilpotency_on_random_pencils(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            E, A, truth = random_regular_pencil(rng, n)
            qwf = dk.compute_qwf(dk.MatrixPencil(E, A))
            assert (qwf.n_d, qwf.n_a, qwf.nu) == (
                truth["n_d"], truth["n_a"], truth["nu"],
            )
            scale = 1 + np.linalg.norm(E, 2) + np.linalg.norm(A, 2)
            SET = qwf.S @ E @ qwf.T
            SAT = qwf.S @ A @ qwf.T
            E_block = np.zeros((n, n))
            E_block[: qwf.n_d, : qwf.n_d] = np.eye(qwf.n_d)
            E_block[qwf.n_d :, qwf.n_d :] = qwf.N
            A_block = np.zeros((n, n))
            A_block[: qwf.n_d, : qwf.n_d] = qwf.J
            A_block[qwf.n_d :, qwf.n_d :] = np.eye(qwf.n_a)
            assert np.linalg.norm(SET - E_block, 2) <= 1e-8 * scale
            assert np.linalg.norm(SAT - A_block, 2) <= 1e-8 * scale
            if qwf.nu >= 1:
                powers = [np.eye(qwf.n_a)]
                for _k in range(qwf.nu):
                    powers.append(powers[-1] @ qwf.N)
                assert np.linalg.norm(powers[qwf.nu], 2) <= 1e-9 * (
                    1 + np.linalg.norm(qwf.N, 2) ** qwf.nu
                )
                assert np.linalg.norm(powers[qwf.nu - 1], 2) > 1e-9

    def test_projector_idempotent(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            E, A, _ = random_regular_pencil(rng, 6)
            qwf = dk.compute_qwf(dk.MatrixPencil(E, A))
            P = np.zeros((6, 6))
            P[: qwf.n_d, : qwf.n_d] = np.eye(qwf.n_d)
            A_con = qwf.T @ P @ np.linalg.inv(qwf.T)
            assert np.linalg.norm(A_con @ A_con - A_con, 2) <= 1e-8

    def test_rank_threshold_counts(self):
        assert rank_threshold(1.0) == 1e-10
        assert rank_threshold(0.0) == 1e-14
        assert rank_threshold(np.array([0.0, 1.0])).tolist() == [1e-14, 1e-10]
        # a norm is negligible up to RANK_RTOL (1 + scale)
        assert negligible(2e-10, 1.0) and not negligible(2.1e-10, 1.0)
        assert negligible(1e-10, 0.0) and not negligible(1.1e-10, 0.0)


def _drop_a_kernel_vector(svd_rank):
    # Vh without its last row: every kernel basis read off it, W* too,
    # lacks a column
    def dropped(M, context):
        U, Vh, rank, ambiguous, top = svd_rank(M, context)
        return U, Vh[:-1], rank, ambiguous, top
    return dropped


def _w_star_from_v_star(wong_sequences):
    def swapped(p):
        wong = wong_sequences(p)
        return replace(wong, W_star=wong.V_star)
    return swapped


class TestDecompositionGuards:
    """Each DecompositionFailure guard of the decomposition, forced on the
    index-1 pencil (diag(1, 0), I) by breaking one step, raises with its
    message, and the CLI reports it with exit 4."""

    @pytest.mark.parametrize("name, patch, message", [
        ("_svd_rank", _drop_a_kernel_vector, "Wong subspace dimensions 1 + 0 != 2"),
        ("wong_sequences", _w_star_from_v_star, "[E V*, A W*] is numerically singular"),
        ("RECONSTRUCTION_TOL", lambda _: -1.0, "block structure defect 0.000e+00 exceeds"),
        ("first_negligible_power", lambda _: lambda norms: None,
         "algebraic block N is not numerically nilpotent"),
    ])
    def test_guard_raises_and_exits_malformed(self, tmp_path, capsys, monkeypatch,
                                              name, patch, message):
        E, A = np.diag([1.0, 0.0]), np.eye(2)
        problem = str(tmp_path / "p.json")
        dk.dump_problem(dk.DdaeSystem(
            E=E, A=A, D=np.zeros((2, 2)), tau=1.0, horizon_intervals=1,
            f=dk.PiecewisePolynomial.zero(2, 0.0, 1.0),
            phi=dk.PiecewisePolynomial.zero(2, -1.0, 0.0)), problem)
        monkeypatch.setattr(pencil, name, patch(getattr(pencil, name)))
        with pytest.raises(dk.DecompositionFailure) as info:
            dk.compute_qwf(dk.MatrixPencil(E, A))
        assert str(info.value).startswith(message)
        assert main(["analyze", problem, str(tmp_path / "a.json")]) == 4
        assert capsys.readouterr().err == f"error: {info.value}\n"


class TestDefectScreen:
    """The block defect check on the pencil (diag(1, 1, 0, 0), I), given
    the limits V* = [e1 + a e3, e2 + b e4] and W* = [e3 e4]: then S = I,
    and S A T = T has the one defect diag(a, b), of spectral norm
    max(|a|, |b|) and Frobenius norm hypot(a, b), against the tolerance
    3e-8."""

    @pytest.mark.parametrize("a, b, spectral_norms", [
        (1e-12, 1e-12, 0),  # the Frobenius screen passes: no spectral norm taken
        (2.4e-8, 2.4e-8, 6),  # Frobenius above the tolerance, spectral below
        (3e-8 * (1 + 1e-6), 3e-8 * (1 + 1e-6), None),  # just above: raises
        (3e-8 * (1 + 1e-6), 0.0, None),
        (1e300, 1e300, None),  # squares overflow, without a warning
    ])
    def test_spectral_norm_decides(self, monkeypatch, a, b, spectral_norms):
        I = np.eye(4)
        limits = pencil.WongResult(V_star=I[:, :2] + I[:, 2:] * [a, b], W_star=I[:, 2:],
                                   rank_ambiguous=False, regularity=None)
        monkeypatch.setattr(pencil, "wong_sequences", lambda p: limits)
        p = dk.MatrixPencil(np.diag([1.0, 1.0, 0.0, 0.0]), I)
        tol = pencil.RECONSTRUCTION_TOL * (1.0 + p.norm_E + p.norm_A)
        shapes = []
        monkeypatch.setattr(pencil, "norm2", lambda M: shapes.append(M.shape) or norm2(M))
        if spectral_norms is None:
            with pytest.raises(dk.DecompositionFailure) as info:
                dk.compute_qwf(p)
            assert str(info.value) == (
                f"block structure defect {max(a, b):.3e} exceeds tolerance {tol:.3e}")
        else:
            assert dk.compute_qwf(p).nu == 1
            # the defects' spectral norms; the nilpotency check takes ||N^k||
            # from stacked SVDs (pencil.power_norms)
            assert shapes == [(2, 2)] * spectral_norms
