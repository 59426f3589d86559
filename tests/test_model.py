import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import ddae_kit as dk
from ddae_kit.history import first_segment_q_derivs, restart
from ddae_kit.model import (
    FastPart,
    solution_taylor_from_value,
    taylor_forcing,
)
from ddae_kit.piecewise import CHEBYSHEV, MONOMIAL
from ddae_kit.solver import Sweep

from gen import (
    c_chain_per_loop,
    example_advanced,
    example_neutral,
    example_slow_smoothing,
    fast_part_per_loop,
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
        split = dk.split_matrices(qwf, sys.D)
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

    @pytest.mark.parametrize("field", [float, complex])
    @pytest.mark.parametrize("nu", [0, 1, 2, 3, 4])
    def test_coefficient_chain_matches_power_loop(self, nu, field):
        rng = np.random.default_rng(60 + nu)
        for trial in range(6):
            n_a = nu + int(rng.integers(0, 2)) if nu else 0
            n = int(rng.integers(0 if n_a else 1, 3)) + n_a
            E, A, _ = random_regular_pencil(rng, n, n_d=n - n_a, nu=nu)
            if field is complex:
                E = E * np.exp(1j * rng.uniform(0, np.pi))
            qwf = dk.compute_qwf(dk.MatrixPencil(E, A))
            assert qwf.nu == nu
            split = dk.split_matrices(qwf, np.zeros((n, n)))
            ref = c_chain_per_loop(qwf)
            assert len(split.C) == len(ref) == nu + 1
            for Ck, ref_k in zip(split.C, ref):
                assert Ck.tobytes() == ref_k.tobytes()

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


def long_stack_case(nu):
    """A nilpotent N of index nu (n_a = nu + 1) in a random basis, a
    (2, 49, n_a) stack of q_f coefficients, and the generator."""
    rng = np.random.default_rng(110 + nu)
    n_a = nu + 1
    perm = np.linalg.qr(rng.standard_normal((n_a, n_a)))[0]
    N = perm @ shift_nilpotent(n_a, nu) @ perm.T
    return N, rng.standard_normal((2, 49, n_a)), rng


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
        # operator serves each (width, length), and a repeated solve
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
        keys = {(round(b - a, 13), len(c)) for a, b, c in q.pieces}
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

    @pytest.mark.parametrize("basis", [MONOMIAL, CHEBYSHEV], ids=["monomial", "chebyshev"])
    @pytest.mark.parametrize("nu", [0, 1, 2, 3, 4])
    def test_matches_power_loops(self, nu, basis):
        # pencil.powers multiplies on the right where the old loops
        # multiplied on the left: the same bits up to nu = 3, the last
        # bits from nu = 4 on
        rng = np.random.default_rng(80 + nu)
        n_a = nu + 1 if nu else 0
        perm = np.linalg.qr(rng.standard_normal((n_a, n_a)))[0]
        N = perm @ shift_nilpotent(n_a, nu) @ perm.T
        q = dk.PiecewisePolynomial(
            [(a, b, rng.standard_normal((d + 1, n_a)))
             for a, b, d in zip([0.0, 0.4, 1.1], [0.4, 1.1, 2.0], [0, 3, 7])],
            n=n_a, basis=basis)
        got, ref = FastPart(N, nu).solve(q), fast_part_per_loop(N, q, nu)
        for (_, _, c), (_, _, c_ref) in zip(got.pieces, ref.pieces, strict=True):
            if nu <= 3:
                assert c.tobytes() == c_ref.tobytes()
            else:
                assert c.shape == c_ref.shape
                assert np.max(np.abs(c - c_ref)) <= 1e-13 * max(np.max(np.abs(c_ref)), 1.0)

    @pytest.mark.parametrize("basis", [MONOMIAL, CHEBYSHEV], ids=["monomial", "chebyshev"])
    @pytest.mark.parametrize("nu", [1, 2, 3, 4])
    def test_leading_block_matches_a_build_per_length(self, nu, basis):
        # one operator per (width, length): after the longest length, a
        # shorter stack gets its own build, which the leading block of the
        # longest (D is upper triangular) matches up to the rounding of D^k
        N, c, _ = long_stack_case(nu)
        grown = FastPart(N, nu)
        grown.solve_coefs(basis, c, 0.0, 0.7, 1.0, 0.7)
        (longest,) = grown._ops.values()
        for length in range(1, 50):
            got = grown.solve_coefs(basis, c[:, :length], 0.0, 0.7, 1.0, 0.7)
            ops = longest[: max(min(nu, length), 1), :length, :length]
            ref = ((ops @ c[:, None, :length]) @ grown._NT[: len(ops)]).sum(axis=1)
            assert got.shape == ref.shape == (2, length, nu + 1)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert [ops.shape for ops in grown._ops.values()] == \
            [(max(min(nu, length), 1), length, length) for length in (49, *range(1, 49))]

    @pytest.mark.parametrize("basis", [MONOMIAL, CHEBYSHEV], ids=["monomial", "chebyshev"])
    @pytest.mark.parametrize("nu", [1, 2, 3, 4])
    @pytest.mark.parametrize("order", ["longest-first", "shortest-first", "shuffled"])
    def test_answer_does_not_depend_on_request_order(self, order, nu, basis):
        # every length's answer is, bit for bit, a fresh instance's,
        # whichever lengths the instance served before
        N, c, rng = long_stack_case(nu)
        lengths = {"longest-first": range(49, 0, -1), "shortest-first": range(1, 50),
                   "shuffled": rng.permutation(np.arange(1, 50)).tolist()}[order]
        served = FastPart(N, nu)
        for length in lengths:
            got = served.solve_coefs(basis, c[:, :length], 0.0, 0.7, 1.0, 0.7)
            ref = FastPart(N, nu).solve_coefs(basis, c[:, :length], 0.0, 0.7, 1.0, 0.7)
            assert got.tobytes() == ref.tobytes(), length

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
        for orders in (0, 1, 2, 17, 128, 300):  # 300: nine steps of the scan
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
        # the scan sums in another order than the loop: each order j
        # agrees to 1e-12 of ||A_diff|| ||x^(j-1)|| + ||r_j||, on low-rank
        # A_diff (n_d < n) of norm up to 10
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
        # 0 * inf is NaN: an infinite q^(20) may reach only the orders the
        # per-order loop lets it reach
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
        # through the scan; from its first non-finite order the recursion
        # goes one order at a time, so exactly the entries the loop leaves
        # finite stay finite
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

    @pytest.mark.parametrize("field", [float, complex])
    @pytest.mark.parametrize("nu", [0, 1, 2, 3, 4])
    def test_stream_pairs_match_each_stream_alone(self, nu, field):
        # two streams of unequal orders in one stacked recursion: each
        # within 1e-13 of its per-order norm of the stream alone; the scan
        # takes the same steps for it alone as in the stack, but a product
        # may round a row differently, so the bits may differ
        pairs = ((40, 40 - nu), (17, 130), (5, 0), (16, 3), (33, 32))
        for split, x, q, orders in stream_pair_draws(100 + nu, nu, field, pairs):
            assert_pair_matches_each_stream_alone(split, x, q, orders)

    def test_a_one_row_product_may_round_apart(self):
        # a pinned draw: alone, the stream of 16 orders takes its last
        # scan step (2^4) as a one-row product, which BLAS may round apart
        # from the same row in the stack's two-row product (row 16, by
        # about 1e-18 where it was found); the clause is roundoff agreement
        (draw,) = stream_pair_draws(102, 4, complex, [(16, 3)])
        assert_pair_matches_each_stream_alone(*draw)

    def test_stream_stack_checks_its_rows(self):
        split = dk.build_split(example_slow_smoothing())
        with pytest.raises(dk.DimensionMismatch):
            solution_taylor_from_value(split, np.zeros((2, 2)), np.zeros((2, 4, 2)), (3, 5))

    @pytest.mark.parametrize("nu", [0, 1, 3])
    def test_non_finite_forcing_of_one_stream_of_a_pair(self, nu):
        # an infinite q^(20) in one stream of a pair stops only that
        # stream's scan: the other stays bit for bit its lone result,
        # and the failing one keeps the per-order loop's frontier
        rng = np.random.default_rng(110 + nu)
        n = 5
        E, A, _ = random_regular_pencil(rng, n, n_d=n if nu == 0 else n - nu - 1, nu=nu)
        split = dk.split_matrices(dk.compute_qwf(dk.MatrixPencil(E, A)), 0 * E)
        orders = (40, 37)
        for bad in (0, 1):
            q = rng.standard_normal((2, 40 + nu, n))
            q[bad, 20] = np.inf
            x = rng.standard_normal((2, n))
            with np.errstate(invalid="ignore"):
                got = solution_taylor_from_value(split, x, q, orders)
                ref = taylor_per_order(split, x, q, orders)
            good = 1 - bad
            alone = solution_taylor_from_value(split, x[good], q[good], orders[good])
            assert got[good].tobytes() == alone.tobytes()
            assert (np.isfinite(got[bad]) == np.isfinite(ref[bad])).all()
            assert np.isfinite(ref[bad][: 21 - nu]).all()
            assert not np.isfinite(ref[bad][21 - nu]).all()
            scale = np.linalg.norm(ref[bad][: 21 - nu], axis=1).max()
            assert np.abs(got[bad][: 21 - nu] - ref[bad][: 21 - nu]).max() <= 1e-12 * scale

    def test_overflow_frontier_of_pairs_matches_per_order_loop(self):
        # two streams of unlike scale overflow at different orders: each
        # leaves non-finite exactly the entries the loop does for it
        rng = np.random.default_rng(91)
        for _ in range(30):
            nu, n = int(rng.integers(0, 3)), 4
            E, A, _ = random_regular_pencil(rng, n, n_d=n if nu == 0 else n - nu - 1, nu=nu)
            split = dk.split_matrices(dk.compute_qwf(dk.MatrixPencil(E, A)), 0 * E)
            norm_A = rng.uniform(100.0, 3000.0)
            stiff = replace(split, A_diff=split.A_diff * (norm_A / np.linalg.norm(split.A_diff, 2)))
            orders = (130, 130 - max(nu, 1))
            scales = 10.0 ** rng.uniform(0, 200, size=(2, 1, 1))
            q = rng.standard_normal((2, 130 + nu, n)) * scales
            x = rng.standard_normal((2, n)) * scales[:, 0]
            with np.errstate(over="ignore", invalid="ignore"):
                got = solution_taylor_from_value(stiff, x, q, orders)
                ref = taylor_per_order(stiff, x, q, orders)
            for g, r in zip(got, ref):
                assert not np.isfinite(r[-1]).all()
                assert (np.isfinite(g) == np.isfinite(r)).all()

    def test_taylor_squares(self):
        # entry m is (A_diff^T)^(2^m), grown on demand by a scan of 2^m
        # orders or more
        rng = np.random.default_rng(9)
        E, A, _ = random_regular_pencil(rng, 5, n_d=3, nu=2)
        split = dk.split_matrices(dk.compute_qwf(dk.MatrixPencil(E, A)), 0 * E)
        assert len(split.taylor_squares) == 1
        solution_taylor_from_value(split, np.zeros(5), np.zeros((300 + 2, 5)), 300)
        squares = split.taylor_squares
        assert len(squares) == 9  # 2^8 <= 300 < 2^9
        power, k = np.eye(5), 0
        scale = 1.0 + np.linalg.norm(split.A_diff, 2)
        for m, square in enumerate(squares):
            while k < 2**m:
                power, k = power @ split.A_diff, k + 1
            assert not square.flags.writeable
            assert np.linalg.norm(square - power.T, 2) <= 1e-12 * scale**k
        assert split.taylor_squares is squares

    def test_taylor_squares_die_with_the_split(self):
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        dk.method_of_steps(sys, split)
        assert "taylor_squares" in vars(split)  # the solve built them
        refs = [weakref.ref(square) for square in split.taylor_squares]
        del split
        gc.collect()
        assert all(ref() is None for ref in refs)

    @pytest.mark.parametrize("field", [float, complex])
    def test_streams_of_2_to_the_k_orders_take_every_step(self, field):
        # an orthogonal A_diff keeps every order of unit scale: the last
        # order of a stream of 1024 orders needs the step s = 1024 for its
        # A_diff^1024 x^(0) term
        rng = np.random.default_rng(12)
        n = 4
        E, A, _ = random_regular_pencil(rng, n, n_d=n, nu=0)
        split = dk.split_matrices(dk.compute_qwf(dk.MatrixPencil(E, A)), 0 * E)
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        if field is complex:
            Q = Q @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        split = replace(split, A_diff=Q)
        x = rng.standard_normal((2, n))
        q = rng.standard_normal((2, 1024, n)) * 1e-3
        pair = solution_taylor_from_value(split, x, q, (1023, 1024))
        for s, orders in enumerate((1023, 1024)):
            ref = taylor_per_order(split, x[s], q[s], orders)
            for got in (solution_taylor_from_value(split, x[s], q[s], orders), pair[s]):
                assert got.shape == ref.shape
                assert np.all(np.linalg.norm(got - ref, axis=1)
                              <= 1e-11 * np.linalg.norm(ref, axis=1))

    def test_matches_polynomial_solution(self):
        # scalar neutral example: segment 1 solution is x(t) = -t
        sys = example_neutral()
        split = dk.build_split(sys)
        q = np.array([[0.0], [1.0], [0.0], [0.0]])  # q(t) = t at t=0
        x0, residual, _ = restart(split, np.array([0.0]), q)
        xs = solution_taylor_from_value(split, x0, q, 2)
        assert residual == pytest.approx(0.0, abs=1e-14)
        assert xs[0][0] == pytest.approx(0.0)
        assert xs[1][0] == pytest.approx(-1.0)
        assert xs[2][0] == pytest.approx(0.0)

    def test_consistency_defect_reported(self):
        sys = example_neutral()
        split = dk.build_split(sys)
        q = np.array([[0.0], [1.0], [0.0]])
        x0, residual, _ = restart(split, np.array([3.0]), q)
        xs = solution_taylor_from_value(split, x0, q, 1)
        assert residual == pytest.approx(3.0)
        assert xs[0][0] == pytest.approx(0.0)


class TestKnotTable:
    @pytest.mark.parametrize("basis", [MONOMIAL, CHEBYSHEV], ids=["monomial", "chebyshev"])
    def test_rows_bit_identical_to_f_derivatives(self, basis):
        # the sweep tabulates f's own derivatives on both sides of every
        # knot: rows 0..d bit for bit those of f.derivatives, every
        # higher row zero, and within rounding of S^-1 (S f)
        sys = kinked_dae(basis)
        split = dk.build_split(sys)
        M, d = sys.horizon_intervals, sys.f.max_degree
        sweep = Sweep(sys, split)
        assert sweep.f_table.shape == (M + 1, 2, d + 1, sys.n)
        data = sys.f.apply_matrix(split.qwf.S)
        for k in range(M + 1):
            # q = D x + f at the knot with x = 0: f's rows, zero above d
            sides = sweep.q_knot(k, np.zeros((2, 3 * d + 6, sys.n)))  # orders 0..3d+5
            for rows, table, side in zip(sides, sweep.f_table[k], ("left", "right")):
                t = k * sys.tau
                full = sys.f.derivatives(t, 3 * d + 5, side=side)
                assert table.tobytes() == full[: d + 1].tobytes()
                assert rows.tobytes() == full.tobytes()
                assert full[d + 1 :].tobytes() == np.zeros_like(full[d + 1 :]).tobytes()
                via_S = data.derivatives(t, d, side=side) @ np.linalg.inv(split.qwf.S).T
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


def stream_pair_draws(seed, nu, field, pairs):
    """(split, x, q, orders) for each pair of orders: a pencil of index nu
    and n = 7 with ||A_diff|| = 1, and per pair two start values and two
    forcing stacks, the shorter stream's padded with zeros."""
    rng = np.random.default_rng(seed)
    n = 7
    E, A, _ = random_regular_pencil(rng, n, n_d=n if nu == 0 else n - nu - 1, nu=nu)
    if field is complex:
        U = well_conditioned(rng, n) + 0.5j * well_conditioned(rng, n)
        E, A = U @ E, U @ A
    split = dk.split_matrices(dk.compute_qwf(dk.MatrixPencil(E, A)), 0 * E)
    assert split.nu == nu
    split = replace(split, A_diff=split.A_diff / np.linalg.norm(split.A_diff, 2))
    draws = []
    for orders in pairs:
        rows = max(orders) + nu
        q = rng.standard_normal((2, rows, n))
        x = rng.standard_normal((2, n))
        if field is complex:
            q = q + 1j * rng.standard_normal(q.shape)
        # the shorter stream holds only the rows it reads
        short = int(np.argmin(orders))
        q[short, orders[short] + nu :] = 0.0
        draws.append((split, x, q, orders))
    return draws


def assert_pair_matches_each_stream_alone(split, x, q, orders):
    got = solution_taylor_from_value(split, x, q, orders)
    assert len(got) == 2
    for s in (0, 1):
        alone = solution_taylor_from_value(split, x[s], q[s], orders[s])
        ref = taylor_per_order(split, x[s], q[s], orders[s])
        assert got[s].shape == alone.shape == (orders[s] + 1, split.n)
        # a stack's streams share one dtype; alone, a stream of no orders
        # keeps its value's
        assert got[s].dtype == (alone.dtype if orders[s] else got[1 - s].dtype)
        assert got[s][0].tobytes() == alone[0].astype(got[s].dtype).tobytes()
        err = np.linalg.norm(got[s] - alone, axis=1)
        assert np.all(err <= 1e-13 * np.linalg.norm(ref, axis=1))
