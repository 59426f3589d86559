import numpy as np
import pytest

import ddae_kit as dk
from ddae_kit.pencil import negligible, norm2, rank_threshold

from gen import random_regular_pencil


def subspace(basis):
    """Orthogonal projector onto the column span."""
    if basis.shape[1] == 0:
        return np.zeros((basis.shape[0], basis.shape[0]))
    return basis @ basis.conj().T


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
            witness = None
            for j in range(n + 1):
                M = (j * s) * E - A
                sig = np.linalg.svd(M, compute_uv=False)
                assert verdict.sample_points[j] == j * s
                assert verdict.det_values[j] == float(np.abs(np.linalg.det(M)))
                top = sig[0] if sig[0] > 0 else 1.0
                if witness is None and sig[-1] > rank_threshold(top):
                    witness = j * s
            assert verdict.witness == witness
            assert verdict.regular == (witness is not None)

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
