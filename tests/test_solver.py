import gc
import json
import re
import weakref
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as C

import ddae_kit as dk
from ddae_kit import cli, history, model, solver
from ddae_kit.cheb import cgl_nodes, trim_coeffs, values_to_coeffs
from ddae_kit.piecewise import DOMAIN_RTOL

from gen import (
    certified_per_piece,
    example_advanced,
    example_neutral,
    example_slow_smoothing,
    fast_per_order,
    hidden_delay_residual,
    kinked_dae,
    random_smoothing_blocks,
    random_system_from_blocks,
    segment_window,
    straddling_system,
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

        config = dk.SolverConfig()
        sweep = Sweep(sys, split)
        hist = history_as_segment(sys, split, 8, sweep)
        seg = solve_segment(split, 1, hist, config, sweep)
        for t in np.linspace(0, 1, 7):
            side = "left" if t == 1.0 else "right"
            assert seg.pieces.evaluate(t, side=side)[0] == pytest.approx(-t, abs=1e-13)

    def test_advanced_first_segment(self):
        sys = example_advanced()
        split = dk.build_split(sys)
        from ddae_kit.solver import Sweep, history_as_segment, solve_segment

        config = dk.SolverConfig()
        sweep = Sweep(sys, split)
        hist = history_as_segment(sys, split, 12, sweep)
        seg = solve_segment(split, 1, hist, config, sweep)
        for t in np.linspace(0, 1, 5):
            side = "left" if t == 1.0 else "right"
            assert seg.pieces.evaluate(t, side=side)[1] == pytest.approx(
                t * t - 1.0, abs=1e-12
            )

    def test_advanced_breakdown_at_segment_four(self):
        # the sweep records the breakdown at knot 3 and ends; segment 4
        # solved directly from segment 3 raises it
        sys = example_advanced()
        split = dk.build_split(sys)
        traj, ledger = dk.method_of_steps(sys, split)
        last = ledger.entries[-1]
        assert len(traj.segments) == 3 and last.inconsistent_restart
        assert (last.knot_index, last.first_jump_order) == (3, 0)
        assert last.jump_norm == pytest.approx(2.0, abs=1e-8)
        with pytest.raises(dk.InconsistentRestart) as err:
            solver.solve_segment(split, 4, traj.segments[-1], dk.SolverConfig(),
                                 solver.Sweep(sys, split))
        assert err.value.segment_index == 4
        assert err.value.residual == pytest.approx(2.0, abs=1e-8)

    @staticmethod
    def _second_segment_inputs():
        # x' = -x + 0.5 x(t - 1) + 1 + t + 0.3 t^2, phi = 1, M = 4: segment
        # 1 solved through the whole sweep, so it holds segment 2's restart
        PP = dk.PiecewisePolynomial
        sys = dk.DdaeSystem(E=[[1.0]], A=[[-1.0]], D=[[0.5]], tau=1.0, horizon_intervals=4,
                            f=PP([(0.0, 4.0, [[1.0], [1.0], [0.3]])]),
                            phi=PP([(-1.0, 0.0, [[1.0]])]))
        split, config = dk.build_split(sys), dk.SolverConfig()
        whole = solver.Sweep(sys, split)
        seg1 = solver.solve_segment(split, 1, solver.history_as_segment(sys, split, 8, whole),
                                    config, whole)
        seg2 = solver.solve_segment(split, 2, seg1, config, whole)
        assert seg2.derivs_end[0][0] == pytest.approx(3.2128906, abs=1e-6)
        return sys, split, config, seg1

    def test_segment_before_the_sweep_is_rejected(self):
        # segment 0 is the history: its index would read the last
        # segment's window (-1)
        sys, split, config, seg1 = self._second_segment_inputs()
        with pytest.raises(dk.DimensionMismatch, match="segments 1..4, not 0"):
            solver.solve_segment(split, 0, seg1, config, solver.Sweep(sys, split))

    def test_segment_after_the_sweep_is_rejected(self):
        sys, split, config, seg1 = self._second_segment_inputs()
        with pytest.raises(dk.DimensionMismatch, match="segments 1..4, not 5"):
            solver.solve_segment(split, 5, seg1, config, solver.Sweep(sys, split))

    def test_prev_other_than_the_segment_before_is_rejected(self):
        # segment 3 driven by segment 1 ended at 4.635 instead of 5.528
        sys, split, config, seg1 = self._second_segment_inputs()
        with pytest.raises(dk.DimensionMismatch, match="from segment 2, not 1"):
            solver.solve_segment(split, 3, seg1, config, solver.Sweep(sys, split))


class TestKnotZero:
    @pytest.mark.parametrize("example", [example_slow_smoothing, example_neutral,
                                         example_advanced, lambda: kinked_dae(dk.MONOMIAL)])
    def test_history_stores_the_restart_of_segment_one(self, example):
        # knot 0 is formed as every later knot: history.restart of phi(0)
        # with q = D phi(. - tau) + f from the sweep's table, then the
        # recursion from the projection, bit for bit; segment 1 starts
        # from that stream
        sys = example()
        split = dk.build_split(sys)
        config = dk.SolverConfig()
        sweep = solver.Sweep(sys, split)
        orders = 12
        hist = solver.history_as_segment(sys, split, orders, sweep)
        phi0 = hist.derivs_end[0]
        assert np.allclose(phi0, sys.phi.evaluate(0.0, side="left"), rtol=1e-14, atol=1e-14)
        q = sweep.q_knot(0, hist.derivs_start, 1)
        x0, residual, consistent = history.restart(split, phi0, q)
        start = model.solution_taylor_from_value(split, x0, q, max(orders - split.nu, 1))
        stored, stored_residual, stored_consistent = hist.restart
        assert stored.tobytes() == start.tobytes() and stored.shape == start.shape
        assert (stored_residual, stored_consistent) == (residual, consistent) and consistent
        seg = solver.solve_segment(split, 1, hist, config, sweep)
        assert seg.derivs_start is stored and seg.consistency_residual == residual

    def test_segment_without_a_stored_restart_is_rejected(self):
        # segment M of a sweep (M = 1 here) holds no restart: a longer
        # sweep cannot start its next segment from it
        short = example_neutral(horizon=1)
        split, config = dk.build_split(short), dk.SolverConfig()
        sweep = solver.Sweep(short, split)
        hist = solver.history_as_segment(short, split, 8, sweep)
        seg = solver.solve_segment(split, 1, hist, config, sweep)
        assert seg.restart is None  # segment 2 is not in its sweep
        sys = example_neutral()
        with pytest.raises(dk.DimensionMismatch, match="no restart"):
            solver.solve_segment(split, 2, seg, config, solver.Sweep(sys, dk.build_split(sys)))


class TestMethodOfSteps:
    def test_neutral_zigzag_and_ledger(self):
        sys = example_neutral()
        split = dk.build_split(sys)
        traj, ledger = dk.method_of_steps(sys, split)
        assert len(traj.segments) == 4
        ts = np.linspace(0.0, 4.0, 41)
        vals = np.array([traj.evaluate(t)[0] for t in ts])
        expected = np.array([neutral_oracle(t) for t in ts])
        assert np.max(np.abs(vals - expected)) <= 1e-12
        for i in (1, 2, 3):
            entry = ledger.entry_at(i)
            assert entry.first_jump_order == 1
            assert entry.jump_norm == pytest.approx(2.0, abs=1e-10)
            assert not entry.inconsistent_restart

    def test_one_sided_values_at_knots(self):
        # x' = -1 on odd and +1 on even segments: at knot k side="left"
        # reads segment k's end and side="right" segment k + 1's start;
        # between knots both sides are the same point
        sys = example_neutral()
        traj, _ = dk.method_of_steps(sys)
        segs = traj.segments
        for k in (1, 2, 3):
            t = k * sys.tau
            left = traj.evaluate(t, order=1, side="left")
            right = traj.evaluate(t, order=1, side="right")
            assert left.tobytes() == segs[k - 1].pieces.evaluate(
                sys.tau, order=1, side="left").tobytes()
            assert right.tobytes() == segs[k].pieces.evaluate(0.0, order=1).tobytes()
            assert left[0] == pytest.approx((-1.0) ** k, abs=1e-12)
            assert right[0] == pytest.approx(-((-1.0) ** k), abs=1e-12)
        for t in (0.37, 1.5, 2.25, 3.9):
            for order in (0, 1):
                assert (traj.evaluate(t, order, side="left").tobytes()
                        == traj.evaluate(t, order, side="right").tobytes())

    def test_evaluate_outside_names_the_global_domain(self):
        sys = example_slow_smoothing(horizon=3)
        traj, _ = dk.method_of_steps(sys)
        assert len(traj.segments) == 3 and traj.tau == 1.0
        for t in (3.5, -0.5, 3.0 + 1e-6):
            with pytest.raises(dk.OutOfDomain, match=re.escape(f"t={t} outside [0.0, 3.0]")):
                traj.evaluate(t)
        # within the segments' tolerance of an end: that end segment
        for t, seg, local in ((3.0 + 1e-10, -1, 1.0 + 1e-10), (-1e-10, 0, -1e-10)):
            want = traj.segments[seg].pieces.evaluate(local)
            assert np.allclose(traj.evaluate(t), want, rtol=1e-15, atol=0)
        # NaN goes to the last segment, as in PiecewisePolynomial.evaluate
        for side in ("left", "right"):
            row = traj.evaluate(np.nan, side=side)
            assert row.shape == (sys.n,) and np.isnan(row).all()

    def test_knot_snap_is_the_pieces_tolerance(self):
        # within DOMAIN_RTOL tau of a knot a time is at the knot, as inside
        # a segment: side="left" reads the end of the segment before it,
        # side="right" the start of the segment after it
        sys = example_slow_smoothing(horizon=3)
        traj, _ = dk.method_of_steps(sys)
        segs, near = traj.segments, 0.5 * DOMAIN_RTOL * sys.tau
        for k in (1, 2):
            for t in (k * sys.tau - near, k * sys.tau + near):
                left = segs[k - 1].pieces.evaluate(t - (k - 1) * sys.tau, order=1, side="left")
                right = segs[k].pieces.evaluate(t - k * sys.tau, order=1)
                assert traj.evaluate(t, order=1, side="left").tobytes() == left.tobytes()
                assert traj.evaluate(t, order=1, side="right").tobytes() == right.tobytes()

    @pytest.mark.xfail(strict=True, reason="the restart and agreement tests scale by "
                       "1 + norm, an absolute floor in the units of x")
    def test_ledger_decisions_do_not_depend_on_units(self):
        # the system is linear, so scaling phi and f by c scales every jump
        # by c; at c = 1e-8 the absolute floor hides the breakdown at knot 3
        def decisions(c):
            ex = example_advanced()
            _, ledger = dk.method_of_steps(dk.DdaeSystem(
                E=ex.E, A=ex.A, D=ex.D, tau=ex.tau, horizon_intervals=ex.horizon_intervals,
                f=ex.f * c, phi=ex.phi * c))
            return [(e.knot_index, e.first_jump_order, e.inconsistent_restart)
                    for e in ledger.entries]

        assert decisions(1.0)[-1] == (3, 0, True)
        assert decisions(1e-8) == decisions(1.0)

    @pytest.mark.parametrize("basis", [dk.MONOMIAL, dk.CHEBYSHEV],
                             ids=["monomial", "chebyshev"])
    def test_knot_table_changes_no_byte(self, basis):
        # the sweep reads f's knot derivatives from its table; segments
        # solved one by one by solve_segment, each end knot formed with
        # the successor's start, give the bytes of method_of_steps
        sys = kinked_dae(basis)
        split = dk.build_split(sys)
        traj, _ = dk.method_of_steps(sys, split)
        M = sys.horizon_intervals
        assert len(traj.segments) == M
        k_max = split.nu + 2
        config, sweep = dk.SolverConfig(), solver.Sweep(sys, split)
        prev = solver.history_as_segment(sys, split, k_max + M * split.nu + max(split.nu, 1),
                                         sweep)
        for i, seg in enumerate(traj.segments, start=1):
            alone = solver.solve_segment(split, i, prev, config, sweep)
            assert (alone.restart is None) == (i == M)
            for name in ("derivs_start", "derivs_end"):
                assert getattr(alone, name).tobytes() == getattr(seg, name).tobytes()
            assert len(alone.pieces.pieces) == len(seg.pieces.pieces) > 1
            for (a, b, c), (a2, b2, c2) in zip(alone.pieces.pieces, seg.pieces.pieces):
                assert (a, b, c.tobytes()) == (a2, b2, c2.tobytes())
            prev = alone

    @pytest.mark.parametrize("example", [example_slow_smoothing, example_neutral,
                                         lambda: kinked_dae(dk.MONOMIAL)])
    def test_stored_restart_matches_solution_taylor(self, example):
        # segment i forms the start stream and restart residual of segment
        # i + 1 at their knot; history.restart from segment i's end value
        # and q = D x(. - tau) + f on the right of the knot, then the
        # recursion from the projection, gives the same
        sys = example()
        split = dk.build_split(sys)
        traj, _ = dk.method_of_steps(sys, split)
        segs = traj.segments
        assert segs[-1].restart is None
        for prev, seg in zip(segs, segs[1:]):
            start, residual, consistent = prev.restart
            assert start is seg.derivs_start and consistent
            assert residual == seg.consistency_residual
            rows = len(prev.derivs_start)
            q = (prev.derivs_start @ split.D.T
                 + sys.f.derivatives(prev.index * sys.tau, rows - 1, side="right"))
            x_end = prev.derivs_end[0]
            x0, ref, _ = history.restart(split, x_end, q)
            xs = model.solution_taylor_from_value(split, x0, q, len(start) - 1)
            # a defect at rounding level: equal up to the rounding of q
            size = 1.0 + np.linalg.norm(x_end) + np.linalg.norm(q[0])
            assert abs(residual - ref) <= 1e-14 * size
            scale = np.linalg.norm(xs, axis=1)
            assert np.all(np.linalg.norm(start - xs, axis=1) <= 1e-13 * scale)

    def test_advanced_breakdown_jump_from_the_stored_restart(self):
        # the inconsistent restart of the advanced example is formed at the
        # end of segment 3 and raised by segment 4, with the jump its lone
        # projection gives
        sys = example_advanced()
        split = dk.build_split(sys)
        traj, ledger = dk.method_of_steps(sys, split)
        last, entry = traj.segments[-1], ledger.entries[-1]
        assert (last.index, entry.knot_index, entry.inconsistent_restart) == (3, 3, True)
        start, residual, consistent = last.restart
        assert not consistent and residual == pytest.approx(2.0, abs=1e-10)
        q = (last.derivs_start @ split.D.T
             + sys.f.derivatives(3 * sys.tau, len(last.derivs_start) - 1, side="right"))
        x0, ref, _ = history.restart(split, last.derivs_end[0], q)
        xs = model.solution_taylor_from_value(split, x0, q, len(start) - 1)
        assert residual == pytest.approx(ref, rel=1e-14)
        assert np.allclose(entry.jump_vector, xs[0] - last.derivs_end[0], rtol=0, atol=1e-14)
        assert entry.jump_norm == pytest.approx(np.linalg.norm(xs[0] - last.derivs_end[0]))

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
        vals = np.array([traj.evaluate(t)[1] for t in ts])
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
        split2 = dk.split_matrices(split.qwf, sys2.D)
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
        with pytest.raises(dk.NotAdmissible) as err:
            dk.method_of_steps(bad)
        ok, residual = dk.check_admissible(bad, dk.build_split(bad))
        assert not ok and residual == pytest.approx(1.0, abs=1e-10)
        # the solver's q stack at knot 0 is taller than check_admissible's,
        # which rounds D phi differently: equal up to that rounding
        assert err.value.residual == pytest.approx(residual, rel=1e-14)

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
        from ddae_kit.solver import Sweep, history_as_segment

        hist = history_as_segment(sys, split, 6, Sweep(sys, split))
        entry, = dk.detect_jumps([hist, hist_copy(hist)], k_max=4, tau=sys.tau)
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
        split2 = dk.split_matrices(split.qwf, sys2.D)
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
        split2 = dk.split_matrices(split.qwf, sys2.D)
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
    arithmetic of a one-degree solver.  The forcing at the nodes is one
    Chebyshev-Vandermonde product, as in the solver."""
    nd = J.shape[0]
    Q = C.chebvander(cgl_nodes(degree), len(q_coef) - 1) @ q_coef
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


def integrate_one_piece(colloc, a, b, q_coef, v0):
    """Chebyshev coefficients of integrate's solution on a forcing of one
    Chebyshev piece q on [a, b] that stays one piece."""
    forcing = dk.PiecewisePolynomial([(a, b, q_coef)], basis=dk.CHEBYSHEV)
    v, unresolved = colloc.integrate(forcing, v0)
    assert len(v.pieces) == 1 and not unresolved
    return v.pieces[0].coef


def solve_at_rung(colloc, a, b, q_coef, v0, span, rung):
    """The trimmed Chebyshev coefficients of one piece [a, b] solved at
    the given rung of colloc's ladder, certified or not."""
    q_coef = np.asarray(q_coef)
    stack, keep, _ = colloc._round(np.array([a]), np.array([b]), q_coef[None],
                                   np.array([len(q_coef)]), np.array([rung]), v0, span)
    return stack[0, : keep[0]]


class TestSweep:
    def test_one_operator_per_key_in_a_uniform_sweep(self, monkeypatch):
        # every segment of a one-piece sweep has the same width, so the
        # fast part builds one operator per (length, width), once for the
        # whole sweep; the collocation's Vandermonde pairs depend on
        # (degree, forcing length) only and are cached for the process,
        # so a sweep builds fewer than one per piece and reuses them
        fast_keys = []
        fast_op = model._fast_operator

        def fast_counted(basis, length, a, b, nu):
            fast_keys.append((basis.name, length, b - a))
            return fast_op(basis, length, a, b, nu)

        monkeypatch.setattr(model, "_fast_operator", fast_counted)
        solver._vander_rows.cache_clear()
        rng = np.random.default_rng(12)
        blocks = random_smoothing_blocks(rng, 2, 3, 2)
        sys, split = random_system_from_blocks(rng, 2, 3, 2, blocks, horizon=12)
        traj, ledger = dk.method_of_steps(sys, split)
        assert len(traj.segments) == 12 and not ledger.has_inconsistent
        pieces = sum(len(seg.pieces.pieces) for seg in traj.segments)
        assert pieces == 12
        assert fast_keys and max(Counter(fast_keys).values()) == 1
        assert len(fast_keys) < pieces
        vander = solver._vander_rows.cache_info()
        assert 0 < vander.misses < pieces and vander.hits > 0

    @pytest.mark.parametrize("field", [float, complex])
    @pytest.mark.parametrize("horizon", [1, 3, 6])
    def test_windows_match_per_segment_conversion(self, field, horizon):
        # S f cut into every segment window of a sweep at once, bit for bit
        # the per-segment restriction and conversion; tau = 0.1 rounds the
        # window widths apart and pieces of f straddle the knots
        sys = straddling_system(field, horizon)
        split = dk.build_split(sys)
        sweep = solver.Sweep(sys, split)
        data = sys.f.apply_matrix(split.qwf.S)
        assert len(sweep.windows) == horizon
        for i, window in enumerate(sweep.windows, start=1):
            ref = segment_window(data, i, sys.tau)
            assert len(window.pieces) == len(ref)
            for (a, b, c), (ra, rb, rc) in zip(window.pieces, ref):
                assert (a, b, c.dtype, c.shape) == (ra, rb, rc.dtype, rc.shape)
                assert c.tobytes() == rc.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_fast_operators_match_per_order_loop(self, seed, monkeypatch):
        # the stacked fast-part operators change only the rounding of the
        # per-order loop: trajectories agree to 1e-13 relative and every
        # ledger decision is the same; the stretch and FastPart.solve both
        # apply them through solve_coefs, which the reference replaces
        def per_order(self, basis, c, a, b, width, span):
            w = np.zeros(c.shape[:2] + self.N.shape[:1], dtype=np.result_type(c, self.N, float))
            for k, ck in enumerate(c):
                piece = dk.PiecewisePolynomial([(a, b, ck)], basis=basis)
                ref = fast_per_order(self.N, piece, self.nu).pieces[0].coef
                w[k, : len(ref)] = ref
            return w

        rng = np.random.default_rng(90 + seed)
        n_d, n_a = int(rng.integers(1, 3)), int(rng.integers(2, 5))
        nu = int(rng.integers(2, n_a + 1))
        blocks = random_smoothing_blocks(rng, n_d, n_a, nu)
        sys, split = random_system_from_blocks(rng, n_d, n_a, nu, blocks, horizon=10,
                                               f_degree=4)
        traj, ledger = dk.method_of_steps(sys, split)
        with monkeypatch.context() as m:
            m.setattr(model.FastPart, "solve_coefs", per_order)
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


def per_segment_sweep(sys, split, config=dk.SolverConfig()):
    """Reference for method_of_steps: a hand loop of solve_segment over
    the sweep of segments 1..M, ended by an inconsistent restart.  The
    segments, the knot entries and the breakdown (knot, jump) or None."""
    M, nu = sys.horizon_intervals, split.nu
    k_max = nu + 2 if config.k_max is None else config.k_max
    sweep, breakdown = solver.Sweep(sys, split), None
    with np.errstate(over="ignore", invalid="ignore"):
        chain = [solver.history_as_segment(sys, split, k_max + M * nu + max(nu, 1), sweep)]
        for i in range(1, M + 1):
            try:
                chain.append(solver.solve_segment(split, i, chain[-1], config, sweep))
            except dk.InconsistentRestart as err:
                breakdown = (i - 1, err.jump)
                break
        entries = solver.detect_jumps(chain, k_max, sys.tau)
    return chain[1:], entries, breakdown


def assert_close(got, want, scale):
    """got equal to want within 1e-12 scale: the same shape and the same
    non-finite entries, the finite ones within the bound."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * scale)


def largest(*arrays):
    return max(float(np.max(np.abs(a), initial=0.0, where=np.isfinite(a))) for a in arrays)


def stretch_against_per_segment(sys, monkeypatch, knots=None):
    """method_of_steps on sys against the per-segment reference: the same
    ledger decisions, breakdown knot, unresolved runs, trimmed piece
    lengths and restart verdicts, and coefficients, streams, jumps and
    residuals within 1e-12 of the segment's largest entry of each (the
    stretch starts a collocant at the slow end of the one before, not at
    the projected restart).  Returns the indices of the segments whose
    collocant a stretch formed (_recurrence), certified or not, of those
    it kept, and of those solve_segment solved; knots, when given, counts
    the _close calls of method_of_steps by the segment they close."""
    split = dk.build_split(sys)
    formed, taken, alone = [], [], []
    recurrence, stretch, segment = solver._recurrence, solver._stretch, solver.solve_segment
    close = solver._close

    def counted_recurrence(split, prev, sweep):
        out = recurrence(split, prev, sweep)
        formed.extend([] if out is None else range(prev.index + 1, prev.index + 1 + len(out[0])))
        return out

    def counted_stretch(split, chain, sweep):
        first = len(chain)
        out = stretch(split, chain, sweep)
        taken.extend(range(first, len(chain)))
        return out

    def counted_segment(split, i, *args):
        alone.append(i)
        return segment(split, i, *args)

    def counted_close(split, prev, *args):
        knots[prev.index + 1] += 1
        return close(split, prev, *args)

    with monkeypatch.context() as m:
        if knots is not None:
            m.setattr(solver, "_close", counted_close)
        m.setattr(solver, "_recurrence", counted_recurrence)
        m.setattr(solver, "_stretch", counted_stretch)
        m.setattr(solver, "solve_segment", counted_segment)
        traj, ledger = dk.method_of_steps(sys, split)
    segs, entries, breakdown = per_segment_sweep(sys, split)
    assert len(traj.segments) == len(segs)
    for seg, ref in zip(traj.segments, segs):
        (a, b, x, lengths), (ra, rb, rx, r_lengths) = seg.pieces._stack, ref.pieces._stack
        assert (seg.index, seg.unresolved, a.tolist(), b.tolist(), lengths.tolist()) == \
            (ref.index, ref.unresolved, ra.tolist(), rb.tolist(), r_lengths.tolist())
        assert_close(x, rx, largest(rx))
        assert_close(seg.consistency_residual, ref.consistency_residual, largest(rx))
        for stream, r_stream in ((seg.derivs_start, ref.derivs_start),
                                 (seg.derivs_end, ref.derivs_end)):
            assert_close(stream, r_stream, largest(r_stream))
        assert (seg.restart is None) == (ref.restart is None)
        if ref.restart is not None:
            (start, residual, consistent), (r_start, r_residual, r_consistent) = \
                seg.restart, ref.restart
            assert consistent == r_consistent
            assert_close(start, r_start, largest(r_start))
            assert_close(residual, r_residual, largest(rx))
    ours = ledger.entries[:-1] if breakdown else ledger.entries
    assert len(ours) == len(entries)
    chain = [None, *segs]
    for e, ref in zip(ours, entries):
        assert (e.knot_index, e.time, e.matched_order, e.first_jump_order,
                e.inconsistent_restart, e.jump_vector is None) == \
            (ref.knot_index, ref.time, ref.matched_order, ref.first_jump_order,
             ref.inconsistent_restart, ref.jump_vector is None)
        if ref.jump_vector is not None:
            # the streams compared at the knot, up to the default k_max
            top = split.nu + 3
            scale = largest(chain[ref.knot_index + 1].derivs_start[:top],
                            *([] if ref.knot_index == 0 else
                              [chain[ref.knot_index].derivs_end[:top]]))
            assert_close(e.jump_vector, ref.jump_vector, scale)
            assert_close(e.jump_norm, ref.jump_norm, scale)
    if breakdown:
        last = ledger.entries[-1]
        assert last.knot_index == breakdown[0]
        assert_close(last.jump_vector, breakdown[1], largest(segs[-1].derivs_end[:1]))
    assert ledger.unresolved_pieces == [
        (seg.index, (seg.index - 1) * sys.tau + a, (seg.index - 1) * sys.tau + b)
        for seg in segs for a, b in seg.unresolved]
    # every segment (and the one a breakdown stops) is solved once, by a
    # stretch or alone
    assert sorted(taken + alone) == list(range(1, len(segs) + 1 + bool(breakdown)))
    assert set(taken) <= set(formed)
    return formed, taken, alone


def one_piece_system(n_d, n_a, nu, field, seed=40, horizon=8):
    rng = np.random.default_rng(seed + 10 * nu + n_a)
    blocks = random_smoothing_blocks(rng, n_d, n_a, nu)
    sys, _ = random_system_from_blocks(rng, n_d, n_a, nu, blocks, horizon=horizon, f_degree=3)
    c = 1.0 + 0.5j if field is complex else 1.0
    return replace(sys, f=sys.f * c, phi=sys.phi * c)


def with_f_kink(sys, at):
    """sys with f kinked at the time at: the second piece gets a constant."""
    (a, b, c1), (_, _, c2) = sys.f.split_at([at]).pieces
    c2 = c2.copy()
    c2[0] += 0.5
    return replace(sys, f=dk.PiecewisePolynomial([(a, b, c1), (b, sys.t_final, c2)]))


def exit_cases():
    sys, ode = one_piece_system(1, 3, 2, float), one_piece_system(2, 0, 0, float)
    two_piece_phi = replace(sys, phi=sys.phi.split_at([-0.5]))
    return [
        pytest.param(with_f_kink(sys, 3.5), (1, 2, 3), id="f-breakpoint-mid-horizon"),
        pytest.param(kinked_dae(dk.CHEBYSHEV), (), id="kinked_dae"),
        pytest.param(example_advanced(), (1, 2, 3), id="advanced-breakdown"),
        pytest.param(two_piece_phi, (), id="multi-piece-history"),
        pytest.param(stiff_ode(2, M=3), (), id="stiff"),
        pytest.param(replace(ode, f=dk.PiecewisePolynomial(
            [(0.0, ode.t_final, 0.3 * np.random.default_rng(3).standard_normal((19, 2)))])),
            (), id="long-forcing"),
    ]


class TestStretch:
    @pytest.mark.parametrize("field", [float, complex])
    @pytest.mark.parametrize("n_d, n_a, nu", [(2, 0, 0), (2, 2, 1), (1, 3, 2), (2, 4, 3)],
                             ids=["index0", "index1", "index2", "index3"])
    def test_one_piece_sweeps_match_per_segment(self, n_d, n_a, nu, field, monkeypatch):
        sys = one_piece_system(n_d, n_a, nu, field)
        formed, taken, alone = stretch_against_per_segment(sys, monkeypatch)
        assert formed == taken == list(range(1, 9)) and not alone

    @pytest.mark.parametrize("example", [example_neutral, example_slow_smoothing,
                                         lambda: retarded_ode(np.random.default_rng(8), 3, 6)],
                             ids=["neutral-nd0", "slow-smoothing", "retarded-na0"])
    def test_worked_examples_match_per_segment(self, example, monkeypatch):
        sys = example()
        formed, taken, alone = stretch_against_per_segment(sys, monkeypatch)
        assert formed == taken == list(range(1, sys.horizon_intervals + 1)) and not alone

    @pytest.mark.parametrize("sys, stretched", exit_cases())
    def test_each_exit_matches_per_segment(self, sys, stretched, monkeypatch):
        # the segments after an exit go by solve_segment: a breakpoint
        # or a second history piece is inherited by every later segment;
        # a stretch may form collocants past an inconsistent restart,
        # which it finds only at its knots, and keeps none of them
        formed, taken, alone = stretch_against_per_segment(sys, monkeypatch)
        assert tuple(taken) == stretched
        assert alone == list(range(len(stretched) + 1, len(taken) + len(alone) + 1))

    def test_failed_first_certificate_ends_stretching(self, monkeypatch):
        # x' = -6x + 0.1 x(t - 1): every segment's collocant fails at the
        # first degree, so the stretch forms the first one only, and every
        # segment is solved by solve_segment alone
        sys = dk.DdaeSystem(E=[[1.0]], A=[[-6.0]], D=[[0.1]], tau=1.0, horizon_intervals=40,
                            f=dk.PiecewisePolynomial([(0.0, 40.0, [[1.0]])]),
                            phi=dk.PiecewisePolynomial([(-1.0, 0.0, [[1.0], [0.5]])]))
        formed, taken, alone = stretch_against_per_segment(sys, monkeypatch)
        assert formed == [1] and not taken and alone == list(range(1, 41))

    def test_failed_stacked_certificate_ends_stretching(self, monkeypatch):
        # the history starts segment 1 on the polynomial solution of
        # x' = -6x + 0.1 x(t - 1), so it passes at the first degree; its
        # end value starts segment 2 with a transient that fails there,
        # and the stacked certificate sends segments 2..4 back
        c0 = -361.0 / 354.0
        sys = dk.DdaeSystem(E=[[1.0]], A=[[-6.0]], D=[[0.1]], tau=1.0, horizon_intervals=4,
                            f=dk.PiecewisePolynomial.zero(1, 0.0, 4.0),
                            phi=dk.PiecewisePolynomial([(-1.0, 0.0, [[c0], [1.0]])]))
        knots = Counter()
        formed, taken, alone = stretch_against_per_segment(sys, monkeypatch, knots)
        assert formed == [1, 2, 3, 4] and taken == [1] and alone == [2, 3, 4]
        # certification comes before the knots: segments 2..4 are knotted
        # by solve_segment alone
        assert knots == {1: 1, 2: 1, 3: 1, 4: 1}

    @pytest.mark.parametrize("field", [float, complex])
    @pytest.mark.parametrize("n_d, n_a, nu", [(2, 0, 0), (2, 2, 1), (1, 3, 2), (2, 4, 3)],
                             ids=["index0", "index1", "index2", "index3"])
    def test_slow_start_is_the_previous_slow_end(self, n_d, n_a, nu, field, monkeypatch):
        # the first collocant of a stretch starts at the slow part of the
        # stored restart; each later one at the sum of the Chebyshev rows
        # of the collocant before it, bit for bit
        sys = one_piece_system(n_d, n_a, nu, field)
        calls, recurrence = [], solver._recurrence

        def recorded(split, prev, sweep):
            out = recurrence(split, prev, sweep)
            calls.append((split, prev, out))
            return out

        monkeypatch.setattr(solver, "_recurrence", recorded)
        traj, _ = dk.method_of_steps(sys)
        [(split, prev, (starts, collocants, x, _, failed))] = calls
        assert not failed and len(starts) == len(x) == len(traj.segments) == 8
        assert starts[0].tobytes() == (split.qwf.T_inv @ prev.restart[0][0])[:n_d].tobytes()
        for k in range(1, len(starts)):
            assert starts[k].tobytes() == collocants[k - 1].sum(axis=0).tobytes()


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
        # the top-degree operator against the kron assembly, at each width
        rng = np.random.default_rng(5)
        nd, degree = J.shape[0], 48
        colloc = solver.SlowCollocation(J, degree)
        a = 0.25
        for _ in range(2):  # the second piece reuses the inverse
            q_coef = rng.standard_normal((6, nd))
            v0 = rng.standard_normal(nd)
            ref = kron_piece_solve(J, a, a + width, q_coef, v0, degree)
            coef = solve_at_rung(colloc, a, a + width, q_coef, v0, width, 1)
            full = np.zeros((degree + 1, nd), dtype=coef.dtype)
            full[: coef.shape[0]] = coef
            err = np.max(np.abs(full - values_to_coeffs(ref)))
            assert err <= 1e-12 * np.max(np.abs(ref))
        assert len(colloc._inverses) == 1

    def test_ladder(self):
        # each piece climbs (FIRST_DEGREE, degree), one rung when the two
        # coincide; a sweep's top degree is TOP_DEGREE, which no config sets
        J, p = np.array([[-1.0]]), solver.FIRST_DEGREE
        assert solver.SlowCollocation(J, 48).ladder == (p, 48)
        assert solver.SlowCollocation(J, p).ladder == (p,)
        assert dk.SolverConfig().degree == solver.TOP_DEGREE == 48
        assert "degree" not in {f.name for f in fields(dk.SolverConfig)}
        with pytest.raises(TypeError, match="degree"):
            dk.SolverConfig(degree=p)

    def test_config_takes_integers_only(self):
        # a float k_max would fail only later, inside numpy, when the
        # streams are cut; bools are refused although they are ints
        for knob in ({"k_max": 2.5}, {"k_max": 2.0}, {"k_max": False}):
            with pytest.raises(dk.DimensionMismatch, match="must be an integer"):
                dk.SolverConfig(**knob)
        # numpy integers are integers: x' = -8x climbs to the top rung
        config = dk.SolverConfig(k_max=np.int32(3))
        traj, ledger = dk.method_of_steps(scalar_row(-8.0), config=config)
        assert layout(traj) == layout(dk.method_of_steps(scalar_row(-8.0))[0])
        assert [e.knot_index for e in ledger.entries] == [0, 1]

    def test_smooth_piece_accepted_at_first_degree(self):
        rng = np.random.default_rng(7)
        nd, p = 3, solver.FIRST_DEGREE
        J = rng.standard_normal((nd, nd))
        colloc = solver.SlowCollocation(J, 48)
        q_coef = rng.standard_normal((6, nd))
        v0 = rng.standard_normal(nd)
        coef = integrate_one_piece(colloc, 0.25, 1.25, q_coef, v0)
        assert rung_degrees(colloc) == [p] and coef.shape[0] <= p + 1
        ref = values_to_coeffs(kron_piece_solve(J, 0.25, 1.25, q_coef, v0, p))
        full = np.zeros_like(ref)
        full[: coef.shape[0]] = coef
        assert np.max(np.abs(full - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_stiff_piece_falls_back_bit_identical(self):
        # the stiffest piece that starts whole (||J|| w = STIFF_WIDTH):
        # the first rung does not resolve it, so it is solved again at
        # the top rung, where it is certified, with the arithmetic of a
        # lone top-degree solve
        J = np.array([[-solver.STIFF_WIDTH]])
        q_coef, v0 = np.array([[0.5], [0.25]]), np.array([1.0])
        colloc = solver.SlowCollocation(J, 48)
        coef = integrate_one_piece(colloc, 0.0, 1.0, q_coef, v0)
        assert rung_degrees(colloc) == [solver.FIRST_DEGREE, 48]
        first = solve_at_rung(solver.SlowCollocation(J, 48), 0.0, 1.0, q_coef, v0, 1.0, 0)
        assert len(first) == solver.FIRST_DEGREE + 1
        top_rung = solve_at_rung(solver.SlowCollocation(J, 48), 0.0, 1.0, q_coef, v0, 1.0, 1)
        ref = trim_coeffs(values_to_coeffs(
            kron_piece_solve(J, 0.0, 1.0, q_coef, v0, 48, by_inverse=True)))
        assert len(coef) < 49
        assert coef.tobytes() == top_rung.tobytes() == ref.tobytes()

    def test_aliased_forcing_falls_back(self):
        # q = T_40 equals T_8 on the 17 nodes of degree 16, so the
        # degree-16 collocant has a short tail; only the midpoint
        # residual sees the forcing it missed
        colloc = solver.SlowCollocation(np.array([[0.0]]), 48)
        coef = integrate_one_piece(colloc, 0.0, 1.0, np.eye(41)[40][:, None],
                                   np.array([1.0]))
        assert rung_degrees(colloc) == [solver.FIRST_DEGREE, 48]
        assert coef.shape[0] == 42

    def test_pieces_on_both_rungs_come_back_as_one_stack(self, monkeypatch):
        # the smooth pieces pass at the first rung and the T_40 piece only
        # at the top one; integrate returns the last round's one stack,
        # zero past each piece's length, as it is
        colloc = solver.SlowCollocation(np.array([[-1.0]]), solver.TOP_DEGREE)
        forcing = dk.PiecewisePolynomial(
            [(0.0, 0.3, [[1.0]]), (0.3, 0.6, np.eye(41)[40][:, None]),
             (0.6, 1.0, [[0.5], [0.2]])], basis=dk.CHEBYSHEV)
        rounds, round_ = [], colloc._round

        def recorded(a, b, q, lengths, rungs, v0, span):
            rounds.append((rungs.copy(), round_(a, b, q, lengths, rungs, v0, span)))
            return rounds[-1][1]

        monkeypatch.setattr(colloc, "_round", recorded)
        v, unresolved = colloc.integrate(forcing, np.array([1.0]))
        rungs, (stack, keep, _) = rounds[-1]
        assert [colloc.ladder[r] for r in rungs.tolist()] == \
            [solver.FIRST_DEGREE, solver.TOP_DEGREE, solver.FIRST_DEGREE]
        _, _, coefs, lengths = v._stack
        assert coefs is stack and lengths is keep and not unresolved
        assert max(lengths[[0, 2]]) <= solver.FIRST_DEGREE + 1 < lengths[1]
        assert coefs.shape == (3, lengths[1], 1)
        for k, m in enumerate(lengths.tolist()):
            assert not coefs[k, m:].any()
            assert v.pieces[k].coef.tobytes() == coefs[k, :m].tobytes()

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
        layouts = []
        for scale in (1.0, 1e-20):
            colloc = solver.SlowCollocation(J, 48)
            forcing = dk.PiecewisePolynomial([(0.0, 1.0, scale * np.asarray(q_coef))],
                                             basis=dk.CHEBYSHEV)
            v, unresolved = colloc.integrate(forcing, scale * np.array([1.0]))
            assert len(rung_degrees(colloc)) == rungs and not unresolved
            layouts.append([(a, b, len(c)) for a, b, c in v.pieces])
        assert layouts[0] == layouts[1]

    def test_tiny_solution_keeps_its_shape(self):
        # v' = -v, v(0) = 1e-20: the trim is relative to the piece's own
        # size, so a solution far below 1 keeps its coefficients and ends
        # at 1e-20 e^-1, not at a flattened constant
        colloc = solver.SlowCollocation(np.array([[-1.0]]), 48)
        v, _ = colloc.integrate(dk.PiecewisePolynomial.zero(1, 0.0, 1.0, basis=dk.CHEBYSHEV),
                                np.array([1e-20]))
        end, exact = v.pieces[-1].coef.sum(), 1e-20 * np.exp(-1.0)
        assert len(v.pieces[-1].coef) > 1
        assert abs(end - exact) <= 1e-12 * exact

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
        sizes = {(p + 1) * 3 for p in (solver.FIRST_DEGREE, solver.TOP_DEGREE)}
        assert {shape[0] for _, shape in made} == sizes
        for value in vars(solver).values():
            if isinstance(value, dict):
                for v in value.values():
                    for arr in v if isinstance(v, tuple) else (v,):
                        assert np.shape(arr) not in {(s, s) for s in sizes}


def write_problem(tmp_path, sys_, name="problem.json"):
    path = tmp_path / name
    dk.dump_problem(sys_, path)
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def scalar_row(lam, scale=1.0, M=2):
    """x' = lam x, x = scale on [-1, 0]: x = scale e^(lam t)."""
    return dk.DdaeSystem(E=[[1.0]], A=[[float(lam)]], D=[[0.0]], tau=1.0,
                         horizon_intervals=M, f=dk.PiecewisePolynomial.zero(1, 0.0, float(M)),
                         phi=dk.PiecewisePolynomial.constant([scale], -1.0, 0.0))


def layout(traj):
    return [[(a, b, len(c)) for a, b, c in seg.pieces.pieces] for seg in traj.segments]


class TestCertifiedLadder:
    # off-node fractions of each delay interval: multiples of the golden
    # section, none a dyadic cut or a CGL node of a dyadic piece
    FRACTIONS = (np.arange(1, 8) * (np.sqrt(5.0) - 1.0) / 2.0) % 1.0

    @pytest.mark.parametrize("lam", [-1000.0, -200.0, 30.0])
    def test_stiff_rows_meet_the_residual(self, lam):
        # the rows fixed-degree collocation got wrong (0, 0 and 4.7
        # digits): |x' - lam x| <= 1e-8 (|x'| + |lam x|) off the nodes
        traj, ledger = dk.method_of_steps(scalar_row(lam))
        assert not ledger.unresolved_pieces and not ledger.has_inconsistent
        worst = 0.0
        for i in range(1, 3):
            for frac in self.FRACTIONS:
                t = i - 1 + frac
                x, xp = traj.evaluate(t)[0], traj.evaluate(t, order=1)[0]
                scale = abs(xp) + abs(lam * x)
                if scale > 0.0:
                    worst = max(worst, abs(xp - lam * x) / scale)
        assert worst <= 1e-8
        # stiff pieces start cut: ||J|| w = |lam| / 2^level <= STIFF_WIDTH
        widths = [b - a for a, b, _ in traj.segments[0].pieces.pieces]
        assert max(widths) == 2.0 ** -np.ceil(np.log2(abs(lam) / solver.STIFF_WIDTH))

    @pytest.mark.parametrize("eps, rungs", [(1e-6, 2), (1e-13, 1)])
    def test_midpoint_residual_rejects_what_the_trim_misses(self, eps, rungs):
        # v' = 1 + eps T_40: on the 17 nodes of degree 16, T_40 equals
        # T_8, so the degree-16 collocant has a short tail whatever eps;
        # only its residual, about eps against |v'| + |q| = 2 at the
        # midpoints, tells RESID_RTOL = 1e-10 whether it is good enough
        colloc = solver.SlowCollocation(np.array([[0.0]]), 48)
        q = np.zeros((41, 1))
        q[0, 0], q[40, 0] = 1.0, eps
        integrate_one_piece(colloc, 0.0, 1.0, q, np.array([0.0]))
        assert len(rung_degrees(colloc)) == rungs

    def test_unit_invariant_above_the_floor(self):
        # scaled by 1e-20 the solution stays far above tiny/eps (it ends
        # near 1e-194), so every piece keeps its place and its length
        traj, _ = dk.method_of_steps(scalar_row(-200.0))
        tiny, _ = dk.method_of_steps(scalar_row(-200.0, scale=1e-20))
        assert layout(tiny) == layout(traj)
        end = traj.segments[-1].pieces.pieces[-1].coef.sum()
        assert tiny.segments[-1].pieces.pieces[-1].coef.sum() == pytest.approx(1e-20 * end)

    def test_width_floor_reports_unresolved(self, tmp_path, capsys):
        # lambda = -1e7: a piece at the width floor tau / 2^MAX_DEPTH still
        # has |lambda| h near 1e4, which no rung certifies; the runs are
        # recorded as [segment, start, end], one warning goes to stderr,
        # and the exit code does not change
        problem = write_problem(tmp_path, scalar_row(-1e7))
        out_csv, out_ledger = str(tmp_path / "traj.csv"), str(tmp_path / "ledger.json")
        assert cli.main(["solve", problem, out_csv, out_ledger]) == 0
        err = capsys.readouterr().err
        assert err.count("warning") == 1 and "unresolved_pieces" in err
        runs = read_json(out_ledger)["unresolved_pieces"]
        assert runs and all(len(r) == 3 and r[0] in (1, 2) and r[1] < r[2] for r in runs)
        assert min(r[2] - r[1] for r in runs) >= 2.0 ** -solver.MAX_DEPTH * (1 - 1e-9)
        # a certified solve writes the key too, empty
        problem = write_problem(tmp_path, scalar_row(-1.0), "smooth.json")
        assert cli.main(["solve", problem, out_csv, out_ledger]) == 0
        assert read_json(out_ledger)["unresolved_pieces"] == []
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("lam", [-1000.0, -200.0, 30.0])
    @pytest.mark.parametrize("delayed", [False, True], ids=["D0", "D1"])
    def test_stiff_layouts_match_per_piece_reference(self, lam, delayed):
        # the first layout (2^level equal parts of each stiff piece) and
        # the bisections at the top rung: the breakpoints and the ledger
        # are the per-piece ladder's, and the coefficients agree within
        # 1e-12 of each segment's largest, since the chain flushes decayed
        # starts to zero and the reference does not
        sys = scalar_row(lam)
        if delayed:  # x' = lam x + x(t - 1) + 0.5, quadratic history, M = 3
            sys = dk.DdaeSystem(
                E=[[1.0]], A=[[lam]], D=[[1.0]], tau=1.0, horizon_intervals=3,
                f=dk.PiecewisePolynomial.constant([0.5], 0.0, 3.0),
                phi=dk.PiecewisePolynomial([(-1.0, 0.0, [[1.0], [0.5], [-0.25]])]))
        split = dk.build_split(sys)
        traj, ledger = dk.method_of_steps(sys, split)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(solver.SlowCollocation, "integrate", certified_per_piece)
            ref_traj, ref_ledger = dk.method_of_steps(sys, split)
        decisions = [[(e.knot_index, e.matched_order, e.first_jump_order,
                       e.inconsistent_restart) for e in led.entries]
                     for led in (ledger, ref_ledger)]
        assert decisions[0] == decisions[1]
        assert ledger.unresolved_pieces == ref_ledger.unresolved_pieces
        for seg, ref in zip(traj.segments, ref_traj.segments, strict=True):
            assert seg.pieces.breakpoints == ref.pieces.breakpoints
            scale = max(np.max(np.abs(c)) for _, _, c in ref.pieces.pieces)
            for (_, _, c), (_, _, c_ref) in zip(seg.pieces.pieces, ref.pieces.pieces):
                full = np.zeros((max(len(c), len(c_ref)), 1))
                full[: len(c)] += c
                full[: len(c_ref)] -= c_ref
                assert np.max(np.abs(full)) <= 1e-12 * scale

    @settings(derandomize=True, max_examples=12, deadline=None, database=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 3),
           breaks=st.sampled_from([(), (0.3,), (0.3, 0.7)]))
    def test_stacked_ladder_matches_per_piece_reference(self, seed, n, breaks):
        # level-0 pieces (||J|| tau <= STIFF_WIDTH): the stacked rounds
        # give the ledger and, within 1e-13, the pieces of the ladder run
        # one piece at a time
        sys = retarded_ode(np.random.default_rng(seed), n, 3, breakpoints=breaks)
        split = dk.build_split(sys)
        assert np.abs(split.qwf.J).sum(axis=1).max() * sys.tau <= solver.STIFF_WIDTH
        traj, ledger = dk.method_of_steps(sys, split)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(solver.SlowCollocation, "integrate", certified_per_piece)
            ref_traj, ref_ledger = dk.method_of_steps(sys, split)
        decisions = [[(e.knot_index, e.matched_order, e.first_jump_order,
                       e.inconsistent_restart) for e in led.entries]
                     for led in (ledger, ref_ledger)]
        assert decisions[0] == decisions[1]
        assert ledger.unresolved_pieces == ref_ledger.unresolved_pieces == []
        for seg, ref in zip(traj.segments, ref_traj.segments, strict=True):
            assert seg.pieces.breakpoints == ref.pieces.breakpoints
            for (_, _, c), (_, _, c_ref) in zip(seg.pieces.pieces, ref.pieces.pieces):
                full = np.zeros((max(len(c), len(c_ref)), c.shape[1]))
                full[: len(c)] += c
                full[: len(c_ref)] -= c_ref
                assert np.max(np.abs(full)) <= 1e-13 * np.max(np.abs(c_ref))
