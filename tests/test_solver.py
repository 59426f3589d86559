import gc
import weakref
from collections import Counter

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

import ddae_kit as dk
from ddae_kit import model, solver
from ddae_kit.cheb import cgl_nodes, trim_coeffs, values_to_coeffs

from gen import (
    example_advanced,
    example_neutral,
    example_slow_smoothing,
    fast_per_order,
    hidden_delay_residual,
    kinked_dae,
    random_smoothing_blocks,
    random_system_from_blocks,
    taylor_per_order,
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
        from ddae_kit.solver import Sweep, history_as_segment, solve_segment

        hist = history_as_segment(sys, split, orders=8)
        config = dk.SolverConfig()
        seg = solve_segment(split, 1, hist, config, Sweep(sys, split, config, 1, 1))
        for t in np.linspace(0, 1, 7):
            side = "left" if t == 1.0 else "right"
            assert seg.pieces.evaluate(t, side=side)[0] == pytest.approx(-t, abs=1e-13)

    def test_advanced_first_segment(self):
        sys = example_advanced()
        split = dk.build_split(sys)
        from ddae_kit.solver import Sweep, history_as_segment, solve_segment

        hist = history_as_segment(sys, split, orders=12)
        config = dk.SolverConfig()
        seg = solve_segment(split, 1, hist, config, Sweep(sys, split, config, 1, 1))
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

    @pytest.mark.parametrize("basis", [dk.MONOMIAL, dk.CHEBYSHEV],
                             ids=["monomial", "chebyshev"])
    def test_knot_table_changes_no_byte(self, basis):
        # the sweep reads f's knot derivatives from its table; segments
        # solved one by one, each in a one-segment sweep, give equal bytes
        sys = kinked_dae(basis)
        split = dk.build_split(sys)
        traj, _ = dk.method_of_steps(sys, split)
        assert len(traj.segments) == sys.horizon_intervals
        k_max = split.nu + 2
        prev = solver.history_as_segment(
            sys, split, k_max + sys.horizon_intervals * split.nu + max(split.nu, 1))
        config = dk.SolverConfig()
        for i, seg in enumerate(traj.segments, start=1):
            alone = solver.solve_segment(split, i, prev, config,
                                         solver.Sweep(sys, split, config, i, i))
            for name in ("derivs_start", "derivs_end"):
                assert getattr(alone, name).tobytes() == getattr(seg, name).tobytes()
            assert len(alone.pieces.pieces) == len(seg.pieces.pieces) > 1
            for (a, b, c), (a2, b2, c2) in zip(alone.pieces.pieces, seg.pieces.pieces):
                assert (a, b, c.tobytes()) == (a2, b2, c2.tobytes())
            prev = alone

    @pytest.mark.parametrize("seed", [0, 1])
    def test_stiff_sweep_keeps_the_per_order_frontier(self, seed, monkeypatch):
        # a slow eigenvalue of -1000 in an index-3 system overflows the top
        # orders of most streams; the sweep must leave non-finite exactly
        # the orders the per-order loop does, so the ledger's low orders
        # and the trajectory stay finite segment after segment
        rng = np.random.default_rng(seed)
        blocks = random_smoothing_blocks(rng, 1, 3, 3)
        sys, split = random_system_from_blocks(rng, 1, 3, 3, blocks, horizon=40, J=-1000.0)

        def sweep():
            with np.errstate(over="ignore", invalid="ignore"):
                traj, ledger = dk.method_of_steps(sys, split)
            finite = [[np.isfinite(d).all(axis=1).tolist()
                       for d in (seg.derivs_start, seg.derivs_end)] for seg in traj.segments]
            return traj, ledger, finite

        traj, ledger, finite = sweep()
        with monkeypatch.context() as m:
            m.setattr(model, "solution_taylor_from_value", taylor_per_order)
            m.setattr(solver, "solution_taylor_from_value", taylor_per_order)
            ref_traj, ref_ledger, ref_finite = sweep()
        assert finite == ref_finite
        assert sum(not all(rows) for seg in finite for rows in seg) > 10
        assert all(np.isfinite(c).all() for seg in traj.segments for _, _, c in seg.pieces.pieces)
        # order 3 of a ||A_diff||^3 = 1e9 system is at its rounding floor:
        # a decision may differ only where both jump measures are within
        # a factor 30 of JUMP_TOL
        for ours, ref in zip(ledger.entries, ref_ledger.entries, strict=True):
            assert ours.matched_order >= 1
            if ours.matched_order == ref.matched_order:
                continue
            k, i = min(ours.matched_order, ref.matched_order) + 1, ref.knot_index
            for t in (traj, ref_traj):
                left, right = t.segments[i - 1].derivs_end[k], t.segments[i].derivs_start[k]
                scale = 1.0 + max(np.linalg.norm(left), np.linalg.norm(right))
                measure = np.linalg.norm(right - left) / scale
                assert solver.JUMP_TOL / 30 <= measure <= 30 * solver.JUMP_TOL

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
        phi = dk.construct_probe_history(sys, split, m=2, target=np.array([1.0]),
                                         side="fast")
        sys2 = dk.DdaeSystem(E=sys.E, A=sys.A, D=sys.D, tau=1.0,
                             horizon_intervals=5, f=sys.f, phi=phi)
        split2 = dk.build_split(sys2, qwf=split.qwf)
        kappa = dk.splicing_report(sys2, split2).kappa_observed
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
        entry = dk.detect_jumps(hist, hist_copy(hist), k_max=4, knot_index=0, tau=sys.tau)
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
        phi = dk.construct_probe_history(sys, split, m=2, target=np.zeros(1), side="slow")
        sys2 = dk.DdaeSystem(E=sys.E, A=sys.A, D=sys.D, tau=1.0,
                             horizon_intervals=6, f=sys.f, phi=phi)
        split2 = dk.build_split(sys2, qwf=split.qwf)
        traj, ledger = dk.method_of_steps(sys2, split2)
        assert len(traj.segments) == 6
        assert not ledger.has_inconsistent

    def test_generic_probe_breaks_down(self):
        sys = weak_desmoothing_system(horizon=6)
        split = dk.build_split(sys)
        phi = dk.construct_probe_history(sys, split, m=1, target=np.array([1.0]),
                                         side="slow")
        sys2 = dk.DdaeSystem(E=sys.E, A=sys.A, D=sys.D, tau=1.0,
                             horizon_intervals=6, f=sys.f, phi=phi)
        split2 = dk.build_split(sys2, qwf=split.qwf)
        traj, ledger = dk.method_of_steps(sys2, split2)
        assert ledger.has_inconsistent
        assert len(traj.segments) < 6


class TestHiddenDelaySolver:
    # the expansion is equivalent to the system iff the direct solution
    # satisfies it: gen.hidden_delay_residual reads its relative residual
    def test_slow_smoothing_equivalence(self):
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        exp = dk.expand_hidden_delays(sys, split)
        traj, _ = dk.method_of_steps(sys, split)
        assert hidden_delay_residual(exp, sys, traj) <= 1e-10

    def test_zero_delay_matrices_gives_plain_ode(self):
        rng = np.random.default_rng(9)
        n = 2
        J = 0.3 * rng.standard_normal((n, n))
        f = dk.PiecewisePolynomial.constant(rng.standard_normal(n), 0.0, 3.0)
        phi = dk.PiecewisePolynomial.constant(rng.standard_normal(n), -1.0, 0.0)
        sys = dk.DdaeSystem(E=np.eye(n), A=J, D=np.zeros((n, n)), tau=1.0,
                            horizon_intervals=3, f=f, phi=phi)
        split = dk.build_split(sys)
        exp = dk.expand_hidden_delays(sys, split)
        assert exp.nu_D == 0
        traj, _ = dk.method_of_steps(sys, split)
        assert hidden_delay_residual(exp, sys, traj) <= 1e-10

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
            exp = dk.expand_hidden_delays(sys, split)
            traj, ledger = dk.method_of_steps(sys, split)
            assert not ledger.has_inconsistent
            worst = max(worst, hidden_delay_residual(exp, sys, traj))
        assert worst <= 1e-10


def kron_piece_solve(J, a, b, q_coef, v0, degree, by_inverse=False):
    """Node values of the collocation solve on [a, b], assembled with kron
    and solved by LU: the direct form of the bordered operator.  With
    by_inverse the operator is inverted and applied instead, the
    arithmetic of a one-degree solver."""
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
    if by_inverse:
        return (np.linalg.inv(A_sys) @ rhs).reshape(degree + 1, nd)
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
    """Record every inverse the solver computes: (weak reference, shape)."""
    made = []

    def counted(A):
        out = np.linalg.inv(A)
        made.append((weakref.ref(out), out.shape))
        return out

    monkeypatch.setattr(solver, "inv", counted)
    return made


def stiff_ode(n, M=2):
    """E x' = A x + D x(t - 1) + f with one stiff mode (lambda = -200),
    whose pieces the first collocation degree does not resolve."""
    rng = np.random.default_rng(6)
    A = np.diag([-200.0] + [-1.0] * (n - 1))
    f = dk.PiecewisePolynomial([(0.0, float(M), 0.5 * rng.standard_normal((2, n)))])
    phi = dk.PiecewisePolynomial([(-1.0, 0.0, 0.5 * rng.standard_normal((3, n)))])
    return dk.DdaeSystem(E=np.eye(n), A=A, D=0.3 * np.eye(n), tau=1.0,
                         horizon_intervals=M, f=f, phi=phi)


def rung_degrees(colloc):
    return sorted({key[0] for key in colloc._inverses})


class TestSweep:
    def test_one_operator_per_key_in_a_uniform_sweep(self, monkeypatch):
        # every segment of a one-piece sweep has the same width, so the
        # fast part builds one operator per (length, width) and the
        # collocation one Vandermonde pair per (degree, forcing length),
        # each once for the whole sweep
        fast_keys, vander_keys = [], []
        fast_op, vander_rows = model._fast_operator, solver._vander_rows

        def fast_counted(basis, length, a, b, nu):
            fast_keys.append((basis.name, length, b - a))
            return fast_op(basis, length, a, b, nu)

        def vander_counted(degree, length):
            vander_keys.append((degree, length))
            return vander_rows(degree, length)

        monkeypatch.setattr(model, "_fast_operator", fast_counted)
        monkeypatch.setattr(solver, "_vander_rows", vander_counted)
        rng = np.random.default_rng(12)
        blocks = random_smoothing_blocks(rng, 2, 3, 2)
        sys, split = random_system_from_blocks(rng, 2, 3, 2, blocks, horizon=12)
        traj, ledger = dk.method_of_steps(sys, split)
        assert len(traj.segments) == 12 and not ledger.has_inconsistent
        pieces = sum(len(seg.pieces.pieces) for seg in traj.segments)
        assert pieces == 12
        for keys in (fast_keys, vander_keys):
            assert keys and max(Counter(keys).values()) == 1
            assert len(keys) < pieces

    @pytest.mark.parametrize("seed", range(4))
    def test_fast_operators_match_per_order_loop(self, seed, monkeypatch):
        # the stacked fast-part operators change only the rounding of the
        # per-order loop: trajectories agree to 1e-13 relative and every
        # ledger decision is the same
        rng = np.random.default_rng(90 + seed)
        n_d, n_a = int(rng.integers(1, 3)), int(rng.integers(2, 5))
        nu = int(rng.integers(2, n_a + 1))
        blocks = random_smoothing_blocks(rng, n_d, n_a, nu)
        sys, split = random_system_from_blocks(rng, n_d, n_a, nu, blocks, horizon=10,
                                               f_degree=4)
        traj, ledger = dk.method_of_steps(sys, split)
        with monkeypatch.context() as m:
            m.setattr(model.FastPart, "solve",
                      lambda self, q_f: fast_per_order(self.N, q_f, self.nu))
            ref_traj, ref_ledger = dk.method_of_steps(sys, split)
        assert len(traj.segments) == len(ref_traj.segments) == 10
        for seg, ref in zip(traj.segments, ref_traj.segments):
            assert seg.pieces.breakpoints == ref.pieces.breakpoints
            for (_, _, c), (_, _, c_ref) in zip(seg.pieces.pieces, ref.pieces.pieces):
                scale = np.max(np.abs(c_ref))
                full = np.zeros((max(len(c), len(c_ref)), c.shape[1]))
                full[: len(c)] += c
                full[: len(c_ref)] -= c_ref
                assert np.max(np.abs(full)) <= 1e-13 * scale
        decisions = [[(e.knot_index, e.matched_order, e.first_jump_order,
                       e.inconsistent_restart) for e in led.entries]
                     for led in (ledger, ref_ledger)]
        assert decisions[0] == decisions[1]
        for e, e_ref in zip(ledger.entries, ref_ledger.entries):
            if e_ref.jump_norm is not None:
                assert e.jump_norm == pytest.approx(e_ref.jump_norm, rel=1e-10)


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

    def test_smooth_piece_accepted_at_first_degree(self):
        rng = np.random.default_rng(7)
        nd, p = 3, solver.FIRST_DEGREE
        J = rng.standard_normal((nd, nd))
        colloc = solver.SlowCollocation(J, 48)
        q_coef = rng.standard_normal((6, nd))
        v0 = rng.standard_normal(nd)
        coef = colloc.resolve_piece(0.25, 1.25, q_coef, v0)
        assert rung_degrees(colloc) == [p] and coef.shape[0] <= p + 1
        ref = values_to_coeffs(kron_piece_solve(J, 0.25, 1.25, q_coef, v0, p))
        full = np.zeros_like(ref)
        full[: coef.shape[0]] = coef
        assert np.max(np.abs(full - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_stiff_piece_falls_back_bit_identical(self):
        J = np.array([[-200.0]])
        q_coef, v0 = np.array([[0.5], [0.25]]), np.array([1.0])
        colloc = solver.SlowCollocation(J, 48)
        coef = colloc.resolve_piece(0.0, 1.0, q_coef, v0)
        assert rung_degrees(colloc) == [solver.FIRST_DEGREE, 48]
        one_rung = solver.SlowCollocation(J, 48).solve_piece(0.0, 1.0, q_coef, v0)
        ref = trim_coeffs(values_to_coeffs(
            kron_piece_solve(J, 0.0, 1.0, q_coef, v0, 48, by_inverse=True)))
        assert coef.tobytes() == one_rung.tobytes() == ref.tobytes()

    def test_aliased_forcing_falls_back(self):
        # q = T_40 equals T_8 on the 17 nodes of degree 16, so the
        # degree-16 collocant has a short tail; only the midpoint
        # residual sees the forcing it missed
        colloc = solver.SlowCollocation(np.array([[0.0]]), 48)
        coef = colloc.resolve_piece(0.0, 1.0, np.eye(41)[40][:, None], np.array([1.0]))
        assert rung_degrees(colloc) == [solver.FIRST_DEGREE, 48]
        assert coef.shape[0] == 42

    @pytest.mark.parametrize("lam,q_coef,rungs", [
        (-200.0, [[0.5], [0.25]], 2),
        (-1.0, [[0.5], [0.25]], 1),
        # v = T_16 on [0, 1] solves v' = q exactly at degree 16, but its
        # last coefficient is its largest: only a tail test on the piece's
        # own scale (not a 1e-14 absolute floor) rejects it at 1e-20
        (0.0, 2.0 * C.chebder(np.eye(17)[16])[:, None], 2),
    ])
    def test_tiny_piece_judged_on_its_own_scale(self, lam, q_coef, rungs):
        # values far below TRIM_TOL take the same rung as at unit scale
        J = np.array([[lam]])
        for scale in (1.0, 1e-20):
            colloc = solver.SlowCollocation(J, 48)
            colloc.resolve_piece(0.0, 1.0, scale * np.asarray(q_coef),
                                 scale * np.array([1.0]))
            assert len(rung_degrees(colloc)) == rungs

    def test_one_inverse_per_uniform_sweep(self, monkeypatch):
        made = count_inverses(monkeypatch)
        sys = retarded_ode(np.random.default_rng(2), 8, 10)
        traj, ledger = dk.method_of_steps(sys)
        assert len(traj.segments) == 10 and not ledger.has_inconsistent
        assert len(made) == 1

    def test_at_most_one_inverse_per_width(self, monkeypatch):
        # widths 0.3 and 1.0 - 0.7 = 0.30000000000000004 share one inverse
        made = count_inverses(monkeypatch)
        sys = retarded_ode(np.random.default_rng(3), 4, 10, breakpoints=(0.3, 0.7))
        traj, _ = dk.method_of_steps(sys)
        pieces = [p for seg in traj.segments for p in seg.pieces.pieces]
        widths = {p.b - p.a for p in pieces}
        assert len(pieces) == 30
        assert len(made) == 2 < len(widths)

    def test_no_operator_outlives_the_sweep(self, monkeypatch):
        # both rungs: the smooth sweep inverts at the first degree only,
        # the stiff one at the top degree as well
        made = count_inverses(monkeypatch)
        sys = retarded_ode(np.random.default_rng(4), 3, 4, breakpoints=(0.5,))
        dk.method_of_steps(sys)
        dk.method_of_steps(stiff_ode(3))
        gc.collect()
        assert made and all(ref() is None for ref, _ in made)
        sizes = {(p + 1) * 3 for p in (solver.FIRST_DEGREE, dk.SolverConfig().degree)}
        assert {shape[0] for _, shape in made} == sizes
        for value in vars(solver).values():
            if isinstance(value, dict):
                for v in value.values():
                    for arr in v if isinstance(v, tuple) else (v,):
                        assert np.shape(arr) not in {(s, s) for s in sizes}
