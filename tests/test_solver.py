import gc
import weakref

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

import ddae_kit as dk
from ddae_kit import solver
from ddae_kit.cheb import cgl_nodes, values_to_coeffs

from gen import (
    example_advanced,
    example_neutral,
    example_slow_smoothing,
    random_smoothing_blocks,
    random_system_from_blocks,
    weak_desmoothing_system,
)


def neutral_oracle(t):
    """x(t) = -x(t-1) - 1 with x = t on [-1, 0]."""
    while t > 0:
        return -neutral_oracle(t - 1) - 1.0
    return t


def advanced_x2(t):
    if t < 1.0:
        return t * t - 1.0
    if t < 2.0:
        return 2.0 * t - 2.0
    if t < 3.0:
        return 2.0
    return 0.0


class TestSolveSegment:
    def test_neutral_first_segment(self):
        sys = example_neutral()
        split = dk.build_split(sys)
        from ddae_kit.solver import history_as_segment, solve_segment

        hist = history_as_segment(sys, split, orders=8)
        seg = solve_segment(split, 1, hist)
        for t in np.linspace(0, 1, 7):
            side = "left" if t == 1.0 else "right"
            assert seg.pieces.evaluate(t, side=side)[0] == pytest.approx(-t, abs=1e-13)

    def test_advanced_first_segment(self):
        sys = example_advanced()
        split = dk.build_split(sys)
        from ddae_kit.solver import history_as_segment, solve_segment

        hist = history_as_segment(sys, split, orders=12)
        seg = solve_segment(split, 1, hist)
        for t in np.linspace(0, 1, 5):
            side = "left" if t == 1.0 else "right"
            assert seg.pieces.evaluate(t, side=side)[1] == pytest.approx(
                t * t - 1.0, abs=1e-12
            )

    def test_advanced_breakdown_at_segment_four(self):
        sys = example_advanced()
        split = dk.build_split(sys)
        config = dk.SolverConfig(on_inconsistent="stop")
        with pytest.raises(dk.InconsistentRestart) as err:
            dk.method_of_steps(sys, split, config)
        assert err.value.segment_index == 4
        assert err.value.residual == pytest.approx(2.0, abs=1e-8)


class TestMethodOfSteps:
    def test_neutral_zigzag_and_ledger(self):
        sys = example_neutral()
        split = dk.build_split(sys)
        traj, ledger = dk.method_of_steps(sys, split)
        assert len(traj.segments) == 4
        ts = np.linspace(0.0, 4.0, 41)
        vals = traj.evaluate_many(ts)[:, 0]
        expected = np.array([neutral_oracle(t) for t in ts])
        assert np.max(np.abs(vals - expected)) <= 1e-12
        for i in (1, 2, 3):
            entry = ledger.entry_at(i)
            assert entry.first_jump_order == 1
            assert entry.jump_norm == pytest.approx(2.0, abs=1e-10)
            assert not entry.inconsistent_restart

    def test_advanced_partial_with_recorded_breakdown(self):
        sys = example_advanced()
        split = dk.build_split(sys)
        traj, ledger = dk.method_of_steps(sys, split)
        assert len(traj.segments) == 3
        assert ledger.has_inconsistent
        # the de-smoothing staircase: the matched order drops by one per
        # knot until the values themselves disagree
        assert [e.matched_order for e in ledger.entries] == [2, 1, 0, -1]
        last = ledger.entries[-1]
        assert last.knot_index == 3
        assert last.inconsistent_restart
        assert last.matched_order == -1
        assert last.first_jump_order == 0
        assert last.jump_norm == pytest.approx(2.0, abs=1e-10)
        ts = np.linspace(0.0, 3.0, 31)[:-1]
        vals = traj.evaluate_many(ts)[:, 1]
        expected = np.array([advanced_x2(t) for t in ts])
        assert np.max(np.abs(vals - expected)) <= 1e-12

    def test_slow_smoothing_ledger_staircase(self):
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        _, ledger = dk.method_of_steps(sys, split)
        assert ledger.entry_at(1).matched_order == 0
        assert ledger.entry_at(2).matched_order >= 1

    def test_smoothing_orders_increase_along_subsequence(self):
        # smoothing type: the solution becomes arbitrarily smooth over time
        sys = example_slow_smoothing(horizon=8)
        split = dk.build_split(sys)
        config = dk.SolverConfig(k_max=6)
        _, ledger = dk.method_of_steps(sys, split, config)
        orders = [e.matched_order for e in ledger.entries]
        increasing = [orders[0]]
        for o in orders[1:]:
            if o > increasing[-1]:
                increasing.append(o)
        assert len(increasing) >= 4
        assert increasing == sorted(increasing)

    def test_retarded_smoothing_pattern(self):
        # classic scalar retarded equation: jump order climbs by one per knot
        phi = dk.PiecewisePolynomial([(-1.0, 0.0, np.array([[1.0], [1.0]]))])
        f = dk.PiecewisePolynomial.zero(1, 0.0, 4.0)
        sys = dk.DdaeSystem(E=[[1.0]], A=[[-1.0]], D=[[1.0]], tau=1.0,
                            horizon_intervals=4, f=f, phi=phi)
        split = dk.build_split(sys)
        config = dk.SolverConfig(k_max=5)
        _, ledger = dk.method_of_steps(sys, split, config)
        for i in range(4):
            assert ledger.entry_at(i).matched_order == i

    def test_invariant_type_preserves_splicing_order(self):
        # for a discontinuity-invariant system a history spliced to order
        # kappa keeps the ledger at matched_order >= kappa at every knot
        sys = example_neutral(horizon=5)
        split = dk.build_split(sys)
        phi = dk.construct_probe_history(split, m=2, target=np.array([1.0]),
                                         side="fast")
        sys2 = dk.DdaeSystem(E=sys.E, A=sys.A, D=sys.D, tau=1.0,
                             horizon_intervals=5, f=sys.f, phi=phi)
        split2 = dk.build_split(sys2, qwf=split.qwf)
        from ddae_kit.history import observed_kappa

        kappa = observed_kappa(sys2, split2)
        assert kappa == 1
        _, ledger = dk.method_of_steps(sys2, split2, dk.SolverConfig(k_max=4))
        for entry in ledger.entries:
            assert entry.matched_order >= kappa
            assert not entry.inconsistent_restart

    def test_complex_field_solution(self):
        # pure ODE with complex coefficient: compare with the closed form
        a = -0.4 + 1.1j
        c = 0.7 - 0.2j
        x0 = 1.0 + 0.5j
        f = dk.PiecewisePolynomial.constant([c], 0.0, 2.0)
        phi = dk.PiecewisePolynomial.constant([x0], -1.0, 0.0)
        sys = dk.DdaeSystem(E=[[1.0 + 0j]], A=[[a]], D=[[0.0j]], tau=1.0,
                            horizon_intervals=2, f=f, phi=phi)
        split = dk.build_split(sys)
        traj, _ = dk.method_of_steps(sys, split)
        for t in np.linspace(0.1, 2.0, 9):
            expected = np.exp(a * t) * (x0 + c / a) - c / a
            got = traj.evaluate(t)[0]
            assert abs(got - expected) <= 1e-12

    def test_complex_algebraic_chain(self):
        # purely algebraic complex recursion x(t) = c x(t-1) + 1 with the
        # admissible affine history phi(t) = t + 1
        c = 0.5 + 0.5j
        f = dk.PiecewisePolynomial.constant([1.0 + 0j], 0.0, 3.0)
        phi = dk.PiecewisePolynomial([(-1.0, 0.0, np.array([[0.0j], [1.0 + 0j]]))])
        sys = dk.DdaeSystem(E=[[0.0j]], A=[[-1.0 + 0j]], D=[[c]], tau=1.0,
                            horizon_intervals=3, f=f, phi=phi)
        split = dk.build_split(sys)
        traj, ledger = dk.method_of_steps(sys, split)
        assert not ledger.has_inconsistent

        def oracle(t):
            if t <= 0:
                return t + 1.0
            return c * oracle(t - 1.0) + 1.0

        for t in np.linspace(0.25, 3.0, 12):
            assert abs(traj.evaluate(t)[0] - oracle(t)) <= 1e-13

    def test_piecewise_inhomogeneity_subdivides_segments(self):
        # a kink of f inside a delay interval becomes a collocation break;
        # the solution stays continuous and satisfies the equation on both
        # sides of the kink
        f = dk.PiecewisePolynomial(
            [
                (0.0, 0.4, np.array([[0.0], [1.0]])),
                (0.4, 2.0, np.array([[0.4]])),
            ]
        )
        phi = dk.PiecewisePolynomial.constant([1.0], -1.0, 0.0)
        sys = dk.DdaeSystem(E=[[1.0]], A=[[-1.0]], D=[[0.5]], tau=1.0,
                            horizon_intervals=2, f=f, phi=phi)
        split = dk.build_split(sys)
        traj, ledger = dk.method_of_steps(sys, split)
        seg = traj.segments[0]
        assert len(seg.pieces.pieces) == 2
        left = seg.pieces.evaluate(0.4, side="left")
        right = seg.pieces.evaluate(0.4, side="right")
        assert abs(left[0] - right[0]) <= 1e-12
        for t in [0.1, 0.3, 0.5, 0.9]:
            x = seg.pieces.evaluate(t)
            dx = seg.pieces.evaluate(t, order=1)
            resid = dx - (-x + 0.5 * sys.phi.evaluate(t - 1.0) + f.evaluate(t))
            assert abs(resid[0]) <= 1e-11
        assert not ledger.has_inconsistent

    def test_collocation_node_residual_tolerance(self):
        # spectral accuracy: for polynomial data of modest degree the
        # equation residual at the collocation nodes is at roundoff level
        rng = np.random.default_rng(21)
        blocks = random_smoothing_blocks(rng, 2, 1, 1)
        sys, split = random_system_from_blocks(rng, 2, 1, 1, blocks, horizon=2,
                                               f_degree=4)
        traj, _ = dk.method_of_steps(sys, split)
        from ddae_kit.cheb import cgl_nodes

        scale = 1.0 + max(seg.pieces.sup_bound() for seg in traj.segments)
        for seg in traj.segments:
            prev = traj.segments[seg.index - 2] if seg.index > 1 else None
            for piece in seg.pieces.pieces:
                nodes = 0.5 * (piece.a + piece.b) + 0.5 * (
                    piece.b - piece.a
                ) * cgl_nodes(8)
                for t in nodes[1:-1]:
                    x = seg.pieces.evaluate(t)
                    dx = seg.pieces.evaluate(t, order=1)
                    if prev is None:
                        xd = sys.phi.evaluate(t - sys.tau)
                    else:
                        xd = prev.pieces.evaluate(t)
                    fval = sys.f.evaluate((seg.index - 1) * sys.tau + t)
                    resid = sys.E @ dx - sys.A @ x - sys.D @ xd - fval
                    assert np.linalg.norm(resid) <= 1e-9 * scale

    def test_not_admissible_raises(self):
        sys = example_advanced()
        bump = dk.PiecewisePolynomial.constant([1.0, 0.0], -1.0, 0.0)
        bad = dk.DdaeSystem(E=sys.E, A=sys.A, D=sys.D, tau=1.0,
                            horizon_intervals=4, f=sys.f, phi=sys.phi + bump)
        with pytest.raises(dk.NotAdmissible):
            dk.method_of_steps(bad)

    def test_dae_residual_at_collocation_nodes(self):
        rng = np.random.default_rng(8)
        blocks = random_smoothing_blocks(rng, 2, 2, 1)
        sys, split = random_system_from_blocks(rng, 2, 2, 1, blocks, horizon=3)
        traj, _ = dk.method_of_steps(sys, split)
        scale = 1.0 + max(seg.pieces.sup_bound() for seg in traj.segments)
        for seg in traj.segments:
            prev = traj.segments[seg.index - 2] if seg.index > 1 else None
            for t in np.linspace(0.05, 0.95, 7):
                x = seg.pieces.evaluate(t)
                dx = seg.pieces.evaluate(t, order=1)
                if prev is None:
                    xd = sys.phi.evaluate(t - sys.tau)
                else:
                    xd = prev.pieces.evaluate(t)
                fval = sys.f.evaluate((seg.index - 1) * sys.tau + t)
                resid = sys.E @ dx - sys.A @ x - sys.D @ xd - fval
                assert np.linalg.norm(resid) <= 1e-8 * scale

    def test_interior_consistency_identity(self):
        # the solved segment satisfies the projector identity not just at
        # the restart point but along the whole segment
        sys = example_advanced()
        split = dk.build_split(sys)
        traj, _ = dk.method_of_steps(sys, split)
        seg = traj.segments[1]
        t = 0.5
        q_derivs = []
        prev = traj.segments[0]
        for k in range(split.nu + 1):
            qk = sys.D @ prev.pieces.evaluate(t, order=k) + sys.f.evaluate(
                (seg.index - 1) * sys.tau + t, order=k
            )
            q_derivs.append(qk)
        x = seg.pieces.evaluate(t)
        rhs = split.A_con @ x
        for k in range(1, split.nu + 1):
            rhs = rhs + split.C[k] @ q_derivs[k - 1]
        assert np.linalg.norm(x - rhs) <= 1e-7 * (1 + np.linalg.norm(x))


class TestDetectJumps:
    def test_identical_segments_match_everywhere(self):
        sys = example_neutral()
        split = dk.build_split(sys)
        from ddae_kit.solver import history_as_segment

        hist = history_as_segment(sys, split, orders=6)
        entry = dk.detect_jumps(hist, hist_copy(hist), k_max=4)
        assert entry.matched_order == 4
        assert entry.first_jump_order is None
        assert not entry.inconsistent_restart

    def test_neutral_knot_jump_vector(self):
        sys = example_neutral()
        split = dk.build_split(sys)
        traj, ledger = dk.method_of_steps(sys, split)
        entry = ledger.entry_at(1)
        # slope switches from -1 to +1
        assert entry.jump_vector[0] == pytest.approx(2.0, abs=1e-12)


def hist_copy(seg):
    # a pseudo-segment that continues `seg` with exactly matching data
    from ddae_kit.solver import SegmentSolution

    return SegmentSolution(
        index=seg.index + 1,
        pieces=seg.pieces,
        consistency_residual=0.0,
        derivs_start=seg.derivs_end.copy(),
        derivs_end=seg.derivs_end,
    )


class TestWeakDesmoothing:
    def test_smooth_probe_survives_whole_horizon(self):
        sys = weak_desmoothing_system(horizon=6)
        split = dk.build_split(sys)
        phi = dk.construct_probe_history(split, m=2, target=np.zeros(1), side="slow")
        sys2 = dk.DdaeSystem(E=sys.E, A=sys.A, D=sys.D, tau=1.0,
                             horizon_intervals=6, f=sys.f, phi=phi)
        split2 = dk.build_split(sys2, qwf=split.qwf)
        traj, ledger = dk.method_of_steps(sys2, split2)
        assert len(traj.segments) == 6
        assert not ledger.has_inconsistent

    def test_generic_probe_breaks_down(self):
        sys = weak_desmoothing_system(horizon=6)
        split = dk.build_split(sys)
        phi = dk.construct_probe_history(split, m=1, target=np.array([1.0]),
                                         side="slow")
        sys2 = dk.DdaeSystem(E=sys.E, A=sys.A, D=sys.D, tau=1.0,
                             horizon_intervals=6, f=sys.f, phi=phi)
        split2 = dk.build_split(sys2, qwf=split.qwf)
        traj, ledger = dk.method_of_steps(sys2, split2)
        assert ledger.has_inconsistent
        assert len(traj.segments) < 6


class TestHiddenDelaySolver:
    def test_slow_smoothing_equivalence(self):
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        exp = dk.expand_hidden_delays(split, sys.horizon_intervals)
        traj, _ = dk.method_of_steps(sys, split)
        z = dk.solve_hidden_delay_dde(exp, sys)
        T_inv = np.linalg.inv(split.qwf.T)
        ts = np.linspace(1.0, 5.0, 33)
        v_direct = np.array([(T_inv @ traj.evaluate(t))[: split.n_d] for t in ts])
        v_reform = z.evaluate_many(ts)
        assert np.max(np.abs(v_direct - v_reform)) <= 1e-10

    def test_zero_delay_matrices_gives_plain_ode(self):
        rng = np.random.default_rng(9)
        n = 2
        J = 0.3 * rng.standard_normal((n, n))
        f = dk.PiecewisePolynomial.constant(rng.standard_normal(n), 0.0, 3.0)
        phi = dk.PiecewisePolynomial.constant(rng.standard_normal(n), -1.0, 0.0)
        sys = dk.DdaeSystem(E=np.eye(n), A=J, D=np.zeros((n, n)), tau=1.0,
                            horizon_intervals=3, f=f, phi=phi)
        split = dk.build_split(sys)
        exp = dk.expand_hidden_delays(split, 3)
        assert exp.nu_D == 0
        z = dk.solve_hidden_delay_dde(exp, sys)
        traj, _ = dk.method_of_steps(sys, split)
        ts = np.linspace(0.1, 3.0, 17)
        T_inv = np.linalg.inv(split.qwf.T)
        v_direct = np.array([(T_inv @ traj.evaluate(t)) for t in ts])
        v_reform = z.evaluate_many(ts)
        assert np.max(np.abs(v_direct - v_reform)) <= 1e-9

    def test_random_smoothing_equivalence(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(10):
            n_d = int(rng.integers(1, 4))
            n_a = int(rng.integers(1, 4))
            nu = int(rng.integers(1, min(n_a, 2) + 1))
            blocks = random_smoothing_blocks(rng, n_d, n_a, nu)
            sys, split = random_system_from_blocks(rng, n_d, n_a, nu, blocks,
                                                   horizon=5)
            exp = dk.expand_hidden_delays(split, 5)
            traj, ledger = dk.method_of_steps(sys, split)
            assert not ledger.has_inconsistent
            z = dk.solve_hidden_delay_dde(exp, sys)
            T_inv = np.linalg.inv(split.qwf.T)
            ts = np.linspace(exp.nu_D * 1.0, 5.0, 23)
            v_direct = np.array(
                [(T_inv @ traj.evaluate(t))[: split.n_d] for t in ts]
            )
            v_reform = z.evaluate_many(ts)
            scale = 1.0 + np.max(np.abs(v_direct))
            worst = max(worst, np.max(np.abs(v_direct - v_reform)) / scale)
        assert worst <= 1e-6


def kron_piece_solve(J, a, b, q_coef, v0, degree):
    """Node values of the collocation solve on [a, b], assembled with kron
    and solved by LU: the direct form of the bordered operator."""
    nd = J.shape[0]
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * cgl_nodes(degree)
    Q = C.chebval((2.0 * nodes - a - b) / (b - a), q_coef).T
    dtype = np.result_type(J.dtype, Q.dtype, v0.dtype, float)
    Dmat = solver._colloc_dmat(degree) * (2.0 / (b - a))
    A_sys = (np.kron(Dmat, np.eye(nd)) - np.kron(np.eye(degree + 1), J)).astype(dtype)
    rhs = Q.astype(dtype).reshape(-1)
    A_sys[:nd, :] = 0.0
    A_sys[:nd, :nd] = np.eye(nd)
    rhs[:nd] = v0
    return np.linalg.solve(A_sys, rhs).reshape(degree + 1, nd)


def retarded_ode(rng, n, M, breakpoints=()):
    """Index-0 system E x' = A x + D x(t - 1) + f with invertible E; with
    breakpoints (fractions of tau) f has a kink inside every interval."""
    E = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    D = 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
    cuts = sorted({0.0, float(M)} | {i + b for i in range(M) for b in breakpoints})
    f = dk.PiecewisePolynomial(
        [(a, b, 0.5 * rng.standard_normal((2, n))) for a, b in zip(cuts, cuts[1:])]
    )
    phi = dk.PiecewisePolynomial([(-1.0, 0.0, 0.5 * rng.standard_normal((3, n)))])
    return dk.DdaeSystem(E=E, A=A, D=D, tau=1.0, horizon_intervals=M, f=f, phi=phi)


def count_inverses(monkeypatch):
    """Record every inverse the solver computes (weak references only)."""
    made = []

    def counted(A):
        out = np.linalg.inv(A)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(solver, "inv", counted)
    return made


def _collocation_cases():
    rng = np.random.default_rng(31)
    cases = []
    for nd in (1, 3, 8):
        J = rng.standard_normal((nd, nd))
        cases.append(pytest.param(J, id=f"real-nd{nd}"))
        cases.append(pytest.param(J + 1j * rng.standard_normal((nd, nd)),
                                  id=f"complex-nd{nd}"))
    for lam in (-1000, -200, 30):
        cases.append(pytest.param(np.array([[float(lam)]]), id=f"scalar{lam}"))
    return cases


class TestSlowCollocation:
    @pytest.mark.parametrize("width", [1.0, 0.3, 0.4])
    @pytest.mark.parametrize("J", _collocation_cases())
    def test_matches_direct_solve(self, J, width):
        rng = np.random.default_rng(5)
        nd, degree = J.shape[0], 48
        colloc = solver.SlowCollocation(J, degree)
        a = 0.25
        for _ in range(2):  # the second piece reuses the inverse
            q_coef = rng.standard_normal((6, nd))
            v0 = rng.standard_normal(nd)
            ref = kron_piece_solve(J, a, a + width, q_coef, v0, degree)
            coef = colloc.solve_piece(a, a + width, q_coef, v0)
            full = np.zeros((degree + 1, nd), dtype=coef.dtype)
            full[: coef.shape[0]] = coef
            err = np.max(np.abs(full - values_to_coeffs(ref)))
            assert err <= 1e-12 * np.max(np.abs(ref))
        assert len(colloc._inverses) == 1

    def test_one_inverse_per_uniform_sweep(self, monkeypatch):
        made = count_inverses(monkeypatch)
        sys = retarded_ode(np.random.default_rng(2), 8, 10)
        traj, ledger = dk.method_of_steps(sys)
        assert len(traj.segments) == 10 and not ledger.has_inconsistent
        assert len(made) == 1

    def test_at_most_one_inverse_per_width(self, monkeypatch):
        made = count_inverses(monkeypatch)
        sys = retarded_ode(np.random.default_rng(3), 4, 10, breakpoints=(0.3, 0.7))
        traj, _ = dk.method_of_steps(sys)
        pieces = [p for seg in traj.segments for p in seg.pieces.pieces]
        widths = {p.b - p.a for p in pieces}
        assert len(pieces) == 30
        assert 3 <= len(made) <= len(widths) < len(pieces)

    def test_no_operator_outlives_the_sweep(self, monkeypatch):
        made = count_inverses(monkeypatch)
        sys = retarded_ode(np.random.default_rng(4), 3, 4, breakpoints=(0.5,))
        traj, _ = dk.method_of_steps(sys)
        gc.collect()
        assert made and all(ref() is None for ref in made)
        size = (dk.SolverConfig().degree + 1) * 3
        for value in vars(solver).values():
            if isinstance(value, dict):
                assert all(np.shape(v) != (size, size) for v in value.values())
