from dataclasses import replace

import numpy as np
import pytest

import ddae_kit as dk
from ddae_kit.classify import PropagationKind

from gen import (
    example_slow_smoothing,
    hidden_delay_forcing_per_loop,
    hidden_delay_residual,
    hidden_delays_per_loop,
    random_smoothing_blocks,
    random_system_from_blocks,
)


class TestExpandHiddenDelays:
    def test_slow_smoothing_example(self):
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        exp = dk.expand_hidden_delays(sys, split)
        assert exp.nu_D == 1
        assert len(exp.D_delays) == 2
        assert np.allclose(exp.J, [[0.0]], atol=1e-12)
        assert np.allclose(exp.D_delays[0], [[0.0]], atol=1e-12)
        assert np.allclose(exp.D_delays[1], [[1.0]], atol=1e-12)
        # zero inhomogeneity propagates to theta
        assert dk.hidden_delay_forcing(exp, sys).sup_bound() <= 1e-14

    def test_zero_delay_matrix(self):
        rng = np.random.default_rng(0)
        n = 3
        A = 0.4 * rng.standard_normal((n, n))
        f = dk.PiecewisePolynomial.zero(n, 0.0, 3.0)
        phi = dk.PiecewisePolynomial.zero(n, -1.0, 0.0)
        sys = dk.DdaeSystem(E=np.eye(n), A=A, D=np.zeros((n, n)), tau=1.0,
                            horizon_intervals=3, f=f, phi=phi)
        split = dk.build_split(sys)
        exp = dk.expand_hidden_delays(sys, split)
        assert exp.nu_D == 0
        assert len(exp.D_delays) == 1
        assert np.allclose(exp.D_delays[0], np.zeros((n, n)), atol=1e-10)

    def test_characteristic_function_identity(self):
        # for a smoothing system, det(lambda E - A - e^{-lambda tau} D) is
        # a constant times det(lambda I - J - sum_k e^{-lambda (k+1) tau}
        # D_k): 12 random lambda on each of 60 systems, n_d = 1..3 and
        # (n_a, nu, nu_D) from cases
        cases = [(0, 0, 0), (1, 1, 1), (2, 1, 2), (3, 1, 3), (2, 2, 2), (3, 3, 2)]
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n_a, nu, nu_D = cases[seed % 6]
            n_d = 1 + (seed // 6) % 3
            blocks = random_smoothing_blocks(rng, n_d, n_a, nu)
            sys, split = random_system_from_blocks(rng, n_d, n_a, nu, blocks)
            exp = dk.expand_hidden_delays(sys, split)
            assert (split.nu, exp.nu_D) == (nu, nu_D)
            ratios = []
            for lam in rng.uniform(-1.0, 1.0, 12) + 1j * rng.uniform(-5.0, 5.0, 12):
                full = sys.E * lam - sys.A - np.exp(-lam * sys.tau) * sys.D
                slow = lam * np.eye(n_d) - exp.J - sum(
                    np.exp(-lam * d) * D_k for d, D_k in zip(exp.delays, exp.D_delays))
                ratios.append(np.linalg.det(full) / np.linalg.det(slow))
            ratios = np.array(ratios)
            assert np.max(np.abs(ratios - ratios[0])) <= 1e-9 * abs(ratios[0])

    @pytest.mark.parametrize("nu_D", [0, 1, 2, 3, 4])
    def test_matrices_match_power_loops(self, nu_D):
        # D_k and theta's matrices from pencil.powers, bit for bit the
        # loops that formed each B_a2 power as the last one times B_a2
        for seed in range(4):
            rng = np.random.default_rng(100 * nu_D + seed)
            n_d = 1 + seed % 2
            blocks = random_smoothing_blocks(rng, n_d, nu_D, min(nu_D, 1))
            sys, split = random_system_from_blocks(rng, n_d, nu_D, min(nu_D, 1), blocks,
                                                   horizon=nu_D + 2)
            exp = dk.expand_hidden_delays(sys, split)
            assert exp.nu_D == nu_D
            ref = hidden_delays_per_loop(split, nu_D)
            assert [Dk.tobytes() for Dk in exp.D_delays] == [Dk.tobytes() for Dk in ref]
            theta = dk.hidden_delay_forcing(exp, sys)
            ref = hidden_delay_forcing_per_loop(exp, sys)
            assert [(a, b, c.tobytes()) for a, b, c in theta.pieces] == \
                [(a, b, c.tobytes()) for a, b, c in ref.pieces]

    def test_rejects_non_smoothing(self):
        from gen import example_neutral

        sys = example_neutral()
        split = dk.build_split(sys)
        with pytest.raises(dk.NotSmoothingType):
            dk.expand_hidden_delays(sys, split)

    def test_delay_count_and_window(self):
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        exp = dk.expand_hidden_delays(sys, split)
        assert len(exp.D_delays) == exp.nu_D + 1
        theta = dk.hidden_delay_forcing(exp, sys)
        assert theta.start == pytest.approx(exp.nu_D * 1.0)
        assert theta.end == pytest.approx(5.0)


class TestNeutralEmbedding:
    def embed(self, B, n=2, horizon=4):
        rng = np.random.default_rng(42)
        A = 0.3 * rng.standard_normal((n, n))
        D = 0.3 * rng.standard_normal((n, n))
        f = dk.PiecewisePolynomial.zero(n, 0.0, float(horizon))
        return A, D, dk.embed_neutral_dde(A, D, B, f, 1.0, horizon)

    def test_zero_B_smooths(self):
        _, _, sys = self.embed(np.zeros((2, 2)))
        split = dk.build_split(sys)
        assert dk.classify_propagation(split, 4).kind is PropagationKind.SMOOTHING

    def test_nilpotent_B_smooths(self):
        B = np.array([[0.0, 1.0], [0.0, 0.0]])
        _, _, sys = self.embed(B)
        split = dk.build_split(sys)
        prop = dk.classify_propagation(split, 4)
        assert prop.kind is PropagationKind.SMOOTHING
        assert prop.nu_D == 2

    def test_identity_B_does_not_smooth(self):
        _, _, sys = self.embed(np.eye(2))
        split = dk.build_split(sys)
        assert dk.classify_propagation(split, 4).kind is not PropagationKind.SMOOTHING

    def test_expansion_matches_closed_form(self):
        # nilpotent derivative coupling: the delay matrices follow
        # D_0 = D + A B and D_k = (D + A B) B^k (k >= 1), modulo the
        # similarity freedom of the slow coordinates
        B = np.array([[0.0, 1.0], [0.0, 0.0]])
        A, D, sys = self.embed(B)
        split = dk.build_split(sys)
        exp = dk.expand_hidden_delays(sys, split)
        assert exp.nu_D == 2
        # compare spectra of the delay matrices (similarity invariant)
        base = D + A @ B
        expected = [A, base, base @ B, base @ B @ B]
        got = [exp.J] + list(exp.D_delays)
        # J ~ A
        assert np.allclose(
            np.sort_complex(np.linalg.eigvals(exp.J)),
            np.sort_complex(np.linalg.eigvals(A)),
            atol=1e-8,
        )
        # traces are similarity invariant and sign sensitive
        for Dk, Ek in zip(exp.D_delays, expected[1:]):
            assert np.trace(Dk) == pytest.approx(np.trace(Ek), abs=1e-8)
            assert np.allclose(
                np.sort(np.abs(np.linalg.eigvals(Dk))),
                np.sort(np.abs(np.linalg.eigvals(Ek))),
                atol=1e-8,
            )

    def test_embedding_equivalence_validates_expansion_signs(self):
        # the direct solution must satisfy the reformulated equation; this
        # pins down the signs of D_k = (D+AB)B^k and of theta
        rng = np.random.default_rng(11)
        n = 2
        A = 0.3 * rng.standard_normal((n, n))
        D = 0.3 * rng.standard_normal((n, n))
        B = np.array([[0.0, 1.0], [0.0, 0.0]])
        f = dk.PiecewisePolynomial(
            [(0.0, 5.0, 0.2 * rng.standard_normal((3, n)))]
        )
        base = dk.embed_neutral_dde(A, D, B, f, 1.0, 5)
        split0 = dk.build_split(base)
        phi = dk.construct_probe_history(
            base, split0, m=1, target=np.zeros(split0.n_d), side="slow"
        )
        sys = dk.DdaeSystem(E=base.E, A=base.A, D=base.D, tau=1.0,
                            horizon_intervals=5, f=base.f, phi=phi)
        split = dk.split_matrices(split0.qwf, sys.D)
        exp = dk.expand_hidden_delays(sys, split)
        assert exp.nu_D == 2
        traj, ledger = dk.method_of_steps(sys, split)
        assert not ledger.has_inconsistent
        assert hidden_delay_residual(exp, sys, traj) <= 1e-10

    def test_embedding_trajectory_matches_scalar_neutral_recursion(self):
        # scalar neutral equation with nilpotent coupling impossible in 1d:
        # use B = 0 so x' = a x + d x(t-tau) + f, solvable by steps directly
        a, d = -0.5, 0.25
        f = dk.PiecewisePolynomial.constant([1.0], 0.0, 3.0)
        sys = dk.embed_neutral_dde([[a]], [[d]], [[0.0]], f, 1.0, 3)
        n = 1
        # history for the embedded state [x; x(t-tau)]: start from x = 0
        split = dk.build_split(sys)
        traj, ledger = dk.method_of_steps(sys, split)
        assert not ledger.has_inconsistent
        # reference: scalar retarded solve
        phi = dk.PiecewisePolynomial.zero(1, -1.0, 0.0)
        fs = dk.PiecewisePolynomial.constant([1.0], 0.0, 3.0)
        ref_sys = dk.DdaeSystem(E=[[1.0]], A=[[a]], D=[[d]], tau=1.0,
                                horizon_intervals=3, f=fs, phi=phi)
        ref_traj, _ = dk.method_of_steps(ref_sys, dk.build_split(ref_sys))
        ts = np.linspace(0.1, 3.0, 16)
        x_emb = np.array([traj.evaluate(t)[0] for t in ts])
        x_ref = np.array([ref_traj.evaluate(t)[0] for t in ts])
        assert np.max(np.abs(x_emb - x_ref)) <= 1e-9


class TestHiddenDelayResidual:
    # gen.hidden_delay_residual must see a wrong expansion: an index-2
    # system with nu_D = 2 whose delayed terms and fast forcing both count
    def case(self):
        rng = np.random.default_rng(2)
        blocks = random_smoothing_blocks(rng, 2, 3, 2)
        sys, split = random_system_from_blocks(rng, 2, 3, 2, blocks, horizon=5)
        exp = dk.expand_hidden_delays(sys, split)
        assert exp.nu_D == 2
        traj, ledger = dk.method_of_steps(sys, split)
        assert not ledger.has_inconsistent
        assert hidden_delay_residual(exp, sys, traj) <= 1e-10
        return sys, exp, traj

    def test_flipped_delay_sign_is_seen(self):
        sys, exp, traj = self.case()
        D0, D1, *rest = exp.D_delays
        flipped = replace(exp, D_delays=(D0, -D1, *rest))
        assert hidden_delay_residual(flipped, sys, traj) >= 1e-2

    def test_missing_fast_forcing_is_seen(self):
        # theta without the delayed feedback of the fast inhomogeneity
        sys, exp, traj = self.case()
        split = exp.split
        g = sys.f.apply_matrix(split.qwf.S).components(range(split.n_d))
        theta = g.restrict(exp.nu_D * sys.tau, sys.t_final)
        assert hidden_delay_residual(exp, sys, traj, theta=theta) >= 1e-2


class TestPureDelayEmbedding:
    def embed(self, B, D=None, n=2, horizon=3):
        rng = np.random.default_rng(5)
        if D is None:
            D = 0.3 * rng.standard_normal((n, n))
        f = dk.PiecewisePolynomial.zero(n, 0.0, float(horizon))
        return dk.embed_pure_delay(D, B, f, 1.0, horizon)

    def test_zero_B_not_desmoothing(self):
        sys = self.embed(np.zeros((2, 2)))
        split = dk.build_split(sys)
        assert (
            dk.classify_propagation(split, 3).kind
            is not PropagationKind.DE_SMOOTHING
        )

    def test_rank_one_B_desmooths(self):
        B = np.zeros((2, 2))
        B[0, 1] = 1.0
        sys = self.embed(B)
        split = dk.build_split(sys)
        assert dk.classify_propagation(split, 3).kind is PropagationKind.DE_SMOOTHING

    def test_trivial_equation(self):
        sys = self.embed(np.zeros((2, 2)), D=np.zeros((2, 2)))
        split = dk.build_split(sys)
        prop = dk.classify_propagation(split, 3)
        assert prop.kind is PropagationKind.SMOOTHING
        legacy = dk.classify_legacy(split)
        assert legacy.kind.value in ("retarded", "neutral")
