import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import ddae_kit as dk
from ddae_kit.history import first_segment_q_derivs
from ddae_kit.model import (
    TAYLOR_BLOCK,
    FastPart,
    solution_taylor,
    solution_taylor_from_value,
    taylor_forcing,
)
from ddae_kit.piecewise import CHEBYSHEV, MONOMIAL
from ddae_kit.solver import Sweep

from gen import (
    example_advanced,
    example_neutral,
    example_slow_smoothing,
    fast_per_order,
    kinked_dae,
    random_regular_pencil,
    shift_nilpotent,
    taylor_per_order,
    well_conditioned,
)


def identity_qwf(n_d, n_a, J, N):
    n = n_d + n_a
    return dk.QuasiWeierstrassForm(
        S=np.eye(n), T=np.eye(n), J=J, N=N, n_d=n_d, n_a=n_a,
        nu=dk.nilpotency_index(N)[1] if n_a else 0,
    )


class TestBuildSplit:
    def test_slow_smoothing_blocks(self):
        sys = example_slow_smoothing()
        qwf = identity_qwf(1, 1, np.zeros((1, 1)), np.zeros((1, 1)))
        split = dk.build_split(sys, qwf=qwf)
        assert split.B_d1 == pytest.approx(np.zeros((1, 1)))
        assert split.B_d2 == pytest.approx(np.ones((1, 1)))
        assert split.B_a1 == pytest.approx(-np.ones((1, 1)))
        assert split.B_a2 == pytest.approx(np.zeros((1, 1)))

    def test_scalar_neutral_blocks(self):
        sys = example_neutral()
        split = dk.build_split(sys)
        assert split.n_d == 0
        assert split.B_a == pytest.approx(np.ones((1, 1)))
        assert split.B_a2 == pytest.approx(np.ones((1, 1)))

    def test_ode_case_blocks(self):
        rng = np.random.default_rng(0)
        n = 3
        A = rng.standard_normal((n, n))
        D = rng.standard_normal((n, n))
        f = dk.PiecewisePolynomial.zero(n, 0.0, 2.0)
        phi = dk.PiecewisePolynomial.zero(n, -1.0, 0.0)
        sys = dk.DdaeSystem(E=np.eye(n), A=A, D=D, tau=1.0, horizon_intervals=2,
                            f=f, phi=phi)
        split = dk.build_split(sys)
        assert split.n_a == 0
        assert len(split.C) == 1
        assert np.allclose(split.B_d, split.qwf.S @ D, atol=1e-12)
        assert split.B_a.shape == (0, n)

    def test_projector_relations(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            E, A, _ = random_regular_pencil(rng, 5)
            D = rng.standard_normal((5, 5))
            f = dk.PiecewisePolynomial.zero(5, 0.0, 2.0)
            phi = dk.PiecewisePolynomial.zero(5, -1.0, 0.0)
            sys = dk.DdaeSystem(E=E, A=A, D=D, tau=1.0, horizon_intervals=2,
                                f=f, phi=phi)
            split = dk.build_split(sys)
            assert np.linalg.norm(split.A_con @ split.A_con - split.A_con, 2) <= 1e-8
            assert np.linalg.norm(split.A_con @ split.A_diff - split.A_diff, 2) <= 1e-8
            assert np.linalg.norm(split.A_diff @ split.A_con - split.A_diff, 2) <= 1e-8

    def test_round_trip_reconstruction(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            E, A, _ = random_regular_pencil(rng, 4)
            qwf = dk.compute_qwf(dk.MatrixPencil(E, A))
            n = 4
            E_block = np.zeros((n, n))
            E_block[: qwf.n_d, : qwf.n_d] = np.eye(qwf.n_d)
            E_block[qwf.n_d :, qwf.n_d :] = qwf.N
            back = np.linalg.inv(qwf.S) @ E_block @ np.linalg.inv(qwf.T)
            scale = 1 + np.linalg.norm(E, 2) + np.linalg.norm(A, 2)
            assert np.linalg.norm(back - E, 2) <= 1e-8 * scale

    def test_history_transform_round_trip(self):
        # [psi; eta] = T^{-1} phi, psi the slow history that
        # gen.hidden_delay_residual reads, maps back to phi through T
        sys = example_advanced()
        qwf = sys.qwf
        psi = sys.phi.apply_matrix(qwf.T_inv[: qwf.n_d])
        eta = sys.phi.apply_matrix(qwf.T_inv[qwf.n_d :])
        stacked = psi.stack(eta).apply_matrix(qwf.T)
        for t in [-1.0, -0.5, 0.0]:
            side = "left" if t == 0.0 else "right"
            assert np.allclose(
                stacked.evaluate(t, side=side),
                sys.phi.evaluate(t, side=side),
                atol=1e-12,
            )


class TestUnderlyingEquations:
    def test_ode_forcing_identity_case(self):
        # E = I, A = D = 0: x' = q, so A_diff = 0 and the forcing is q
        n = 2
        f = dk.PiecewisePolynomial.zero(n, 0.0, 2.0)
        phi = dk.PiecewisePolynomial.zero(n, -1.0, 0.0)
        sys = dk.DdaeSystem(E=np.eye(n), A=np.zeros((n, n)), D=np.zeros((n, n)),
                            tau=1.0, horizon_intervals=2, f=f, phi=phi)
        split = dk.build_split(sys)
        q = dk.PiecewisePolynomial.constant([1.0, -2.0], 0.0, 1.0)
        r = taylor_forcing(split, q.derivatives(0.5, 0), 1)
        assert np.allclose(split.A_diff, 0.0, atol=1e-12)
        assert np.allclose(r[0], [1.0, -2.0], atol=1e-12)

    def test_scalar_neutral_forcing(self):
        # q(t) = t gives forcing C_0 q + C_1 q' = 0 - 1 = -1
        sys = example_neutral()
        split = dk.build_split(sys)
        q = dk.PiecewisePolynomial([(0.0, 1.0, np.array([[0.0], [1.0]]))])
        r = taylor_forcing(split, q.derivatives(0.3, split.nu), 1)
        assert r[0][0] == pytest.approx(-1.0)

    def test_dde_coeff_chain(self):
        # the recursion's forcing applies C_k to q = D phi(. - tau) + f: per
        # term, the delayed chain C_k D on phi^(k)(-tau) plus C_k on f^(k)(0)
        sys = example_advanced()
        split = dk.build_split(sys)
        assert len(split.C) == split.nu + 1 == 3
        phi_tau = sys.phi.derivatives(-sys.tau, 4, side="right")
        f0 = sys.f.derivatives(0.0, 4, side="right")
        r = taylor_forcing(split, first_segment_q_derivs(sys, 4), 2)
        for j in range(2):
            per_term = sum(Ck @ sys.D @ phi_tau[k + j] + Ck @ f0[k + j]
                           for k, Ck in enumerate(split.C))
            assert np.allclose(r[j], per_term, rtol=1e-12, atol=1e-12)
        assert np.linalg.norm(split.C[2] @ sys.D, 2) > 0.5  # nonzero top coefficient

    def test_zero_delay_kills_B(self):
        # with D = 0 the delayed chain C_k D vanishes and q is f itself
        rng = np.random.default_rng(4)
        E, A, _ = random_regular_pencil(rng, 3)
        f = dk.PiecewisePolynomial([(0.0, 2.0, rng.standard_normal((3, 3)))])
        phi = dk.PiecewisePolynomial([(-1.0, 0.0, rng.standard_normal((4, 3)))])
        sys = dk.DdaeSystem(E=E, A=A, D=np.zeros((3, 3)), tau=1.0,
                            horizon_intervals=2, f=f, phi=phi)
        split = dk.build_split(sys)
        for Ck in split.C:
            assert np.linalg.norm(Ck @ sys.D, 2) <= 1e-12
        assert np.array_equal(first_segment_q_derivs(sys, 5),
                              f.derivatives(0.0, 5, side="right"))


class TestFastSubsystem:
    def test_solves_the_fast_equation_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n_a = int(rng.integers(1, 5))
            nu = int(rng.integers(1, n_a + 1))
            from gen import shift_nilpotent

            perm = np.linalg.qr(rng.standard_normal((n_a, n_a)))[0]
            N = perm @ shift_nilpotent(n_a, nu) @ perm.T
            deg = int(rng.integers(0, 6))
            q = dk.PiecewisePolynomial(
                [(0.0, 1.0, rng.standard_normal((deg + 1, n_a)))]
            )
            w = FastPart(N, nu).solve(q)
            # residual N w' - w - q must vanish at coefficient level
            resid = w.derivative().apply_matrix(N) - w - q
            scale = max(w.sup_bound(), q.sup_bound(), 1.0)
            assert resid.sup_bound() <= 1e-12 * scale

    @pytest.mark.parametrize("basis", [MONOMIAL, CHEBYSHEV], ids=["monomial", "chebyshev"])
    @pytest.mark.parametrize("nu", [0, 1, 2, 3])
    def test_sweep_operators_on_mixed_pieces(self, nu, basis):
        # one FastPart serves pieces of mixed widths and degrees: each
        # piece solves N w' - w - q_f = 0 at coefficient level, one
        # operator serves each (length, width), and a repeated solve
        # through the cached operators gives the same bytes
        rng = np.random.default_rng(70 + nu)
        n_a = nu + 1 if nu else 0
        perm = np.linalg.qr(rng.standard_normal((n_a, n_a)))[0]
        N = perm @ shift_nilpotent(n_a, nu) @ perm.T
        cuts = [0.0, 0.3, 0.7, 1.0, 1.3, 2.5]
        degrees = [0, 5, 5, 5, 12]
        q = dk.PiecewisePolynomial(
            [(a, b, rng.standard_normal((d + 1, n_a)))
             for a, b, d in zip(cuts, cuts[1:], degrees)], n=n_a, basis=basis)
        fast = FastPart(N, nu)
        w = fast.solve(q)
        assert w.basis is basis and w.breakpoints == q.breakpoints and w.n == n_a
        keys = {(len(c), b - a) for a, b, c in q.pieces}
        assert len(fast._ops) == len(keys) < len(q.pieces)
        assert [c.tobytes() for _, _, c in fast.solve(q).pieces] == \
            [c.tobytes() for _, _, c in w.pieces]
        if n_a:
            resid = w.derivative().apply_matrix(N) - w - q
            scale = max(w.sup_bound(), q.sup_bound(), 1.0)
            assert resid.sup_bound() <= 1e-12 * scale
            ref = fast_per_order(N, q, nu)
            for (_, _, c), (_, _, c_ref) in zip(w.pieces, ref.pieces):
                assert c.shape == c_ref.shape
                assert np.max(np.abs(c - c_ref)) <= 1e-13 * max(np.max(np.abs(c_ref)), 1.0)

    def test_empty_algebraic_part(self):
        q = dk.PiecewisePolynomial.zero(0, 0.0, 1.0)
        w = FastPart(np.zeros((0, 0)), 0).solve(q)
        assert w.n == 0


class TestSolutionTaylor:
    @pytest.mark.parametrize("field", [float, complex])
    @pytest.mark.parametrize("nu", [0, 1, 2, 3])
    def test_stacked_recursion_matches_per_order_loop(self, nu, field):
        # the summation order differs from the loop, so agreement is to a
        # tolerance: 1e-12 of each order's norm, far above the roundoff
        rng = np.random.default_rng(60 + nu)
        n = 6
        E, A, _ = random_regular_pencil(rng, n, n_d=n if nu == 0 else n - nu - 1, nu=nu)
        if field is complex:
            U = well_conditioned(rng, n) + 0.5j * well_conditioned(rng, n)
            E, A = U @ E, U @ A
        split = dk.split_matrices(dk.compute_qwf(dk.MatrixPencil(E, A)), 0 * E)
        assert split.nu == nu
        # unit-norm A_diff keeps 128 orders from being swamped by A_diff^j x0
        split = replace(split, A_diff=split.A_diff / np.linalg.norm(split.A_diff, 2))
        for orders in (0, 1, 2, 17, 128):
            q = rng.standard_normal((orders + nu, n))  # the fewest accepted
            x0 = rng.standard_normal(n)
            if field is complex:
                q = q + 1j * rng.standard_normal(q.shape)
            got = solution_taylor_from_value(split, x0, q, orders)
            ref = taylor_per_order(split, x0, q, orders)
            assert got.shape == ref.shape == (orders + 1, n)
            assert got.dtype == ref.dtype
            assert got[0].tobytes() == ref[0].tobytes()
            err = np.linalg.norm(got - ref, axis=1)
            assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=1))

    @pytest.mark.parametrize("field", ["real", "complex-stream", "complex-pencil"])
    @pytest.mark.parametrize("nu", [0, 1, 2, 3])
    def test_blocked_recursion_matches_per_order_loop(self, nu, field):
        # blocks of TAYLOR_BLOCK orders sum in another order than the loop:
        # each order j agrees to 1e-12 of ||A_diff|| ||x^(j-1)|| + ||r_j||,
        # on low-rank A_diff (n_d < n) of norm up to 10
        rng = np.random.default_rng(70 + nu)
        n, rank = 6, 2
        E, A, _ = random_regular_pencil(rng, n, n_d=n if nu == 0 else n - nu - 1, nu=nu)
        if field == "complex-pencil":
            U = well_conditioned(rng, n) + 0.5j * well_conditioned(rng, n)
            E, A = U @ E, U @ A
        split = dk.split_matrices(dk.compute_qwf(dk.MatrixPencil(E, A)), 0 * E)
        for norm_A in (0.5, 10.0):
            low_rank = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
            if field == "complex-pencil":
                low_rank = low_rank + 1j * low_rank @ well_conditioned(rng, n)
            low_rank = low_rank * (norm_A / np.linalg.norm(low_rank, 2))
            blocked = replace(split, A_diff=low_rank)
            for orders in (0, 1, 15, 16, 17, 33, 130):
                q = rng.standard_normal((orders + nu, n))
                x0 = rng.standard_normal(n)
                if field != "real":
                    q = q + 1j * rng.standard_normal(q.shape)
                got = solution_taylor_from_value(blocked, x0, q, orders)
                ref = taylor_per_order(blocked, x0, q, orders)
                assert got.shape == ref.shape == (orders + 1, n)
                assert got.dtype == ref.dtype
                assert got[0].tobytes() == ref[0].tobytes()
                r = [sum(blocked.C[k] @ q[k + j] for k in range(nu + 1))
                     for j in range(orders)]
                bound = (norm_A * np.linalg.norm(ref[:-1], axis=1)
                         + np.linalg.norm(np.reshape(r, (orders, n)), axis=1))
                err = np.linalg.norm(got[1:] - ref[1:], axis=1)
                assert np.all(err <= 1e-12 * bound)

    @pytest.mark.parametrize("nu", [0, 1, 3])
    def test_non_finite_forcing_stays_above_its_order(self, nu):
        # L mixes every order of a block and 0 * inf is NaN: an infinite
        # q^(20) may reach only the orders the per-order loop lets it reach
        rng = np.random.default_rng(80 + nu)
        n = 5
        E, A, _ = random_regular_pencil(rng, n, n_d=n if nu == 0 else n - nu - 1, nu=nu)
        split = dk.split_matrices(dk.compute_qwf(dk.MatrixPencil(E, A)), 0 * E)
        orders = 40
        q = rng.standard_normal((orders + nu, n))
        q[20] = np.inf
        x0 = rng.standard_normal(n)
        with np.errstate(invalid="ignore"):
            got = solution_taylor_from_value(split, x0, q, orders)
            ref = taylor_per_order(split, x0, q, orders)
        assert (np.isfinite(got) == np.isfinite(ref)).all()
        assert np.isfinite(ref[: 21 - nu]).all() and not np.isfinite(ref[21 - nu]).all()
        scale = np.linalg.norm(ref[: 21 - nu], axis=1).max()
        assert np.abs(got[: 21 - nu] - ref[: 21 - nu]).max() <= 1e-12 * scale

    def test_overflow_frontier_matches_per_order_loop(self):
        # ||A_diff|| up to 3000 and data up to 1e200 overflow part-way
        # through a block; from a block's first non-finite order the
        # recursion goes one order at a time, so exactly the entries the
        # loop leaves finite stay finite
        rng = np.random.default_rng(90)
        for _ in range(40):
            nu, n, orders = int(rng.integers(0, 3)), 4, 130
            E, A, _ = random_regular_pencil(rng, n, n_d=n if nu == 0 else n - nu - 1, nu=nu)
            split = dk.split_matrices(dk.compute_qwf(dk.MatrixPencil(E, A)), 0 * E)
            norm_A = rng.uniform(100.0, 3000.0)
            stiff = replace(split, A_diff=split.A_diff * (norm_A / np.linalg.norm(split.A_diff, 2)))
            q = rng.standard_normal((orders + nu, n)) * 10.0 ** rng.uniform(0, 200)
            x0 = rng.standard_normal(n) * 10.0 ** rng.uniform(0, 200)
            with np.errstate(over="ignore", invalid="ignore"):
                got = solution_taylor_from_value(stiff, x0, q, orders)
                ref = taylor_per_order(stiff, x0, q, orders)
            assert not np.isfinite(ref[-1]).all()
            assert (np.isfinite(got) == np.isfinite(ref)).all()

    def test_power_blocks(self):
        # P stacks A_diff^1..B; block (a, i) of L is A_diff^(a-i) below the
        # diagonal and exactly zero above it
        rng = np.random.default_rng(9)
        E, A, _ = random_regular_pencil(rng, 5, n_d=3, nu=2)
        split = dk.split_matrices(dk.compute_qwf(dk.MatrixPencil(E, A)), 0 * E)
        P, L = split.taylor_blocks
        B, n = TAYLOR_BLOCK, 5
        assert P.shape == (B * n, n) and L.shape == (B * n, B * n)
        powers = [np.eye(n)]
        for _ in range(B):
            powers.append(powers[-1] @ split.A_diff)
        scale = 1.0 + np.linalg.norm(split.A_diff, 2)

        def close(got, k):
            return np.linalg.norm(got - powers[k], 2) <= 1e-12 * scale**k

        blocks = L.reshape(B, n, B, n).transpose(0, 2, 1, 3)
        for a in range(B):
            assert close(P[a * n : (a + 1) * n], a + 1)
            assert all(close(blocks[a, i], a - i) for i in range(a + 1))
            assert not blocks[a, a + 1 :].any()
        assert split.taylor_blocks[1] is L

    def test_power_blocks_die_with_the_split(self):
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        dk.method_of_steps(sys, split)
        assert "taylor_blocks" in vars(split)  # the solve built them
        P, L = split.taylor_blocks
        refs = [weakref.ref(P), weakref.ref(P.base), weakref.ref(L)]
        del P, L, split
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_matches_polynomial_solution(self):
        # scalar neutral example: segment 1 solution is x(t) = -t
        sys = example_neutral()
        split = dk.build_split(sys)
        q = np.array([[0.0], [1.0], [0.0], [0.0]])  # q(t) = t at t=0
        xs, residual = solution_taylor(split, np.array([0.0]), q, 2)
        assert residual == pytest.approx(0.0, abs=1e-14)
        assert xs[0][0] == pytest.approx(0.0)
        assert xs[1][0] == pytest.approx(-1.0)
        assert xs[2][0] == pytest.approx(0.0)

    def test_consistency_defect_reported(self):
        sys = example_neutral()
        split = dk.build_split(sys)
        q = np.array([[0.0], [1.0], [0.0]])
        xs, residual = solution_taylor(split, np.array([3.0]), q, 1)
        assert residual == pytest.approx(3.0)
        assert xs[0][0] == pytest.approx(0.0)


class TestKnotTable:
    @pytest.mark.parametrize("basis", [MONOMIAL, CHEBYSHEV], ids=["monomial", "chebyshev"])
    def test_rows_bit_identical_to_f_derivatives(self, basis):
        # the sweep tabulates f's own derivatives at both ends of every
        # segment: rows 0..d bit for bit those of f.derivatives, every
        # higher row zero, and within rounding of S^-1 (S f)
        sys = kinked_dae(basis)
        split = dk.build_split(sys)
        M, d = sys.horizon_intervals, sys.f.max_degree
        sweep = Sweep(sys, split, dk.SolverConfig(), 1, M)
        assert sweep.f_table.shape == (M, 2, d + 1, sys.n)
        data = sys.f.apply_matrix(split.qwf.S)
        for i in range(1, M + 1):
            ends = sweep.f_knots(i, 3 * d + 6)  # orders 0..3d+5
            for rows, t, side in zip(ends, ((i - 1) * sys.tau, i * sys.tau), ("right", "left")):
                full = sys.f.derivatives(t, 3 * d + 5, side=side)
                assert rows.tobytes() == full.tobytes()
                assert full[d + 1 :].tobytes() == np.zeros_like(full[d + 1 :]).tobytes()
                via_S = data.derivatives(t, d, side=side) @ split.qwf.S_inv.T
                assert np.allclose(rows[: d + 1], via_S, rtol=1e-12, atol=1e-12)


class TestSystemValidation:
    def test_rejects_singular_pencil(self):
        f = dk.PiecewisePolynomial.zero(2, 0.0, 1.0)
        phi = dk.PiecewisePolynomial.zero(2, -1.0, 0.0)
        E = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(dk.SingularPencil):
            dk.DdaeSystem(E=E, A=E, D=np.eye(2), tau=1.0, horizon_intervals=1,
                          f=f, phi=phi)

    def test_rejects_bad_domains(self):
        f = dk.PiecewisePolynomial.zero(1, 0.0, 2.0)
        phi_bad = dk.PiecewisePolynomial.zero(1, -2.0, 0.0)
        with pytest.raises(dk.DimensionMismatch):
            dk.DdaeSystem(E=[[1.0]], A=[[1.0]], D=[[0.0]], tau=1.0,
                          horizon_intervals=2, f=f, phi=phi_bad)
