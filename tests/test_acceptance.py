"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import ddae_kit as dk
from ddae_kit import solver
from ddae_kit.classify import LegacyKind, PropagationKind
from ddae_kit.model import FastPart
from ddae_kit.stability import StabilityVerdict

from gen import (
    example_advanced,
    example_backward_desmoothing,
    example_neutral,
    example_slow_smoothing,
    hidden_delay_residual,
    random_regular_pencil,
    random_smoothing_blocks,
    random_system_from_blocks,
    shift_nilpotent,
    weak_desmoothing_system,
    well_conditioned,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} [{label}]: PASS")


def test_criterion_01_neutral_regression():
    with criterion(1, "scalar neutral regression"):
        start = time.perf_counter()
        sys_ = example_neutral(horizon=4)
        split = dk.build_split(sys_)
        traj, ledger = dk.method_of_steps(sys_, split)

        def branch(t):
            # piecewise-linear closed form: k-1-t on odd intervals, t-k on even
            if t <= 0:
                return t
            k = int(np.ceil(t - 1e-12))
            return (k - 1 - t) if k % 2 == 1 else (t - k)

        def recursion(t):
            while t > 0:
                return -recursion(t - 1) - 1.0
            return t

        ts = np.linspace(0.0, 4.0, 401)
        for t in ts:
            assert branch(t) == pytest.approx(recursion(t), abs=1e-13)
        values = np.array([traj.evaluate(t)[0] for t in ts])
        expected = np.array([branch(t) for t in ts])
        assert np.max(np.abs(values - expected)) <= 1e-10

        for i in (1, 2, 3):
            entry = ledger.entry_at(i)
            assert entry.first_jump_order == 1
            assert abs(entry.jump_norm - 2.0) <= 1e-8

        report = dk.classify(split, 4)
        assert report.propagation.kind is PropagationKind.DISCONTINUITY_INVARIANT
        assert report.legacy.kind is LegacyKind.NEUTRAL
        assert time.perf_counter() - start < 1.0


def test_criterion_02_advanced_regression():
    with criterion(2, "advanced regression with breakdown"):
        start = time.perf_counter()
        sys_ = example_advanced(horizon=4)
        split = dk.build_split(sys_)
        traj, ledger = dk.method_of_steps(sys_, split)

        for window, fn in [
            ((0.0, 1.0), lambda t: t * t - 1.0),
            ((1.0, 2.0), lambda t: 2.0 * t - 2.0),
            ((2.0, 3.0 - 1e-9), lambda t: 2.0),
        ]:
            for t in np.linspace(window[0], window[1], 50):
                x2 = traj.evaluate(t, side="right")[1]
                assert abs(x2 - fn(t)) <= 1e-9

        assert ledger.has_inconsistent
        last = ledger.entries[-1]
        assert last.time == pytest.approx(3.0)
        assert last.first_jump_order == 0
        assert abs(last.jump_norm - 2.0) <= 1e-8

        assert last.knot_index == 3
        with pytest.raises(dk.InconsistentRestart) as err:
            solver.solve_segment(split, 4, traj.segments[-1], dk.SolverConfig(),
                                 solver.Sweep(sys_, split))
        assert err.value.segment_index == 4
        assert abs(err.value.residual - 2.0) <= 1e-8

        report = dk.classify(split, 4)
        assert report.propagation.kind is PropagationKind.DE_SMOOTHING
        assert report.propagation.first_violating_k == 1
        assert report.legacy.kind is LegacyKind.ADVANCED
        assert time.perf_counter() - start < 1.0


def test_criterion_03_hidden_delay_regression():
    with criterion(3, "hidden-delay regression"):
        sys_ = example_slow_smoothing(horizon=5)
        split = dk.build_split(sys_)
        report = dk.classify(split, 5)
        assert report.propagation.kind is PropagationKind.SMOOTHING
        assert report.propagation.nu_D == 1

        exp = dk.expand_hidden_delays(sys_, split)
        assert exp.nu_D == 1
        assert np.max(np.abs(exp.J - np.array([[0.0]]))) <= 1e-12
        assert np.max(np.abs(exp.D_delays[0] - np.array([[0.0]]))) <= 1e-12
        assert np.max(np.abs(exp.D_delays[1] - np.array([[1.0]]))) <= 1e-12

        _, ledger = dk.method_of_steps(sys_, split)
        assert ledger.entry_at(1).matched_order == 0
        assert ledger.entry_at(2).matched_order >= 1


def test_criterion_04_backward_system_regression():
    with criterion(4, "backward system regression"):
        sys_ = example_backward_desmoothing()
        split = dk.build_split(sys_)
        assert dk.classify_propagation(split, 3).kind is PropagationKind.DE_SMOOTHING

        backward = dk.build_backward_system(sys_)
        assert backward.regularity.regular
        assert backward.det_D == pytest.approx(1.0, abs=1e-12)
        bw_report = dk.classify_matrices(backward.E, backward.A, backward.D, 3)
        assert bw_report.propagation.kind is PropagationKind.DE_SMOOTHING


def test_criterion_05_qwf_property_suite():
    with criterion(5, "decomposition property suite"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        total, correct = 200, 0
        for _ in range(total):
            n = int(rng.integers(1, 9))
            E, A, truth = random_regular_pencil(rng, n)
            try:
                qwf = dk.compute_qwf(dk.MatrixPencil(E, A))
            except dk.DecompositionFailure:
                continue  # explicitly signalled failure
            scale = 1 + np.linalg.norm(E, 2) + np.linalg.norm(A, 2)
            E_block = np.zeros((n, n))
            E_block[: qwf.n_d, : qwf.n_d] = np.eye(qwf.n_d)
            E_block[qwf.n_d :, qwf.n_d :] = qwf.N
            A_block = np.zeros((n, n))
            A_block[: qwf.n_d, : qwf.n_d] = qwf.J
            A_block[qwf.n_d :, qwf.n_d :] = np.eye(qwf.n_a)
            assert np.linalg.norm(qwf.S @ E @ qwf.T - E_block, 2) <= 1e-8 * scale
            assert np.linalg.norm(qwf.S @ A @ qwf.T - A_block, 2) <= 1e-8 * scale
            if (qwf.n_d, qwf.n_a, qwf.nu) == (
                truth["n_d"], truth["n_a"], truth["nu"],
            ):
                correct += 1
            else:
                assert qwf.rank_ambiguous  # misjudgements must carry the flag
        assert correct >= 0.99 * total
        assert time.perf_counter() - start < 30.0


def test_criterion_06_fast_subsystem_oracle():
    with criterion(6, "fast subsystem coefficient oracle"):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n_a = int(rng.integers(1, 5))
            nu = int(rng.integers(1, n_a + 1))
            P = well_conditioned(rng, n_a)
            N = P @ shift_nilpotent(n_a, nu) @ np.linalg.inv(P)
            deg = int(rng.integers(0, 6))
            q = dk.PiecewisePolynomial(
                [(0.0, 1.0, rng.standard_normal((deg + 1, n_a)))]
            )
            w = FastPart(N, nu).solve(q)
            resid = w.derivative().apply_matrix(N) - w - q
            scale = max(w.sup_bound(), q.sup_bound(), 1.0)
            assert resid.sup_bound() <= 1e-12 * scale


def test_criterion_07_hidden_delay_equivalence():
    with criterion(7, "hidden-delay equivalence"):
        rng = np.random.default_rng(4242)
        for _ in range(50):
            n_d = int(rng.integers(1, 4))
            n_a = int(rng.integers(1, min(4, 7 - n_d)))
            nu = int(rng.integers(1, min(n_a, 2) + 1))
            blocks = random_smoothing_blocks(rng, n_d, n_a, nu)
            sys_, split = random_system_from_blocks(
                rng, n_d, n_a, nu, blocks, horizon=5
            )
            exp = dk.expand_hidden_delays(sys_, split)
            traj, ledger = dk.method_of_steps(sys_, split)
            assert not ledger.has_inconsistent
            assert hidden_delay_residual(exp, sys_, traj) <= 1e-10


def test_criterion_08_classification_equivalence():
    with criterion(8, "classification equivalence"):
        rng = np.random.default_rng(555)
        checked = 0
        while checked < 500:
            n = int(rng.integers(1, 7))
            E, A, _ = random_regular_pencil(rng, n)
            style = rng.integers(0, 4)
            D = rng.standard_normal((n, n))
            if style == 0:
                D = np.zeros((n, n))
            elif style == 1:
                D = 0.05 * D
            elif style == 2:
                D = D @ np.diag(rng.integers(0, 2, size=n).astype(float))
            split = dk.split_matrices(
                dk.compute_qwf(dk.MatrixPencil(E, A)), D
            )
            report = dk.classify(split, 4)
            advanced = report.legacy.kind is LegacyKind.ADVANCED
            desmooth = report.propagation.kind is PropagationKind.DE_SMOOTHING
            assert advanced == desmooth, "legacy/propagation mismatch"
            assert report.consistency_flag
            checked += 1


def test_criterion_09_stability():
    with criterion(9, "spectral abscissa and gate"):
        # scalar retarded equation against an independent bisection oracle
        phi = dk.PiecewisePolynomial.constant([1.0], -1.0, 0.0)
        f = dk.PiecewisePolynomial.zero(1, 0.0, 2.0)
        sys_ = dk.DdaeSystem(E=[[1.0]], A=[[-2.0]], D=[[1.0]], tau=1.0,
                             horizon_intervals=2, f=f, phi=phi)

        def h(x):
            return x + 2.0 - np.exp(-x)

        lo, hi = -1.0, 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if h(lo) * h(mid) <= 0:
                hi = mid
            else:
                lo = mid
        oracle = 0.5 * (lo + hi)
        report = dk.spectral_abscissa(sys_)
        assert abs(report.alpha - oracle) <= 1e-6
        split = dk.build_split(sys_)
        assert (
            dk.assess_exponential_stability(sys_, split, report)
            is StabilityVerdict.STABLE
        )

        # neutral example: roots on the imaginary axis at i pi (2k+1)
        sys_n = example_neutral()
        report_n = dk.spectral_abscissa(sys_n)
        assert abs(report_n.alpha) <= 1e-8
        for lam, _ in report_n.rightmost_roots:
            k = round((lam.imag / np.pi - 1.0) / 2.0)
            assert abs(lam.imag - (2 * k + 1) * np.pi) <= 1e-6

        # de-smoothing input -> the verdict refuses to conclude
        sys_a = example_advanced()
        split_a = dk.build_split(sys_a)
        report_a = dk.spectral_abscissa(sys_a, grid=40)
        assert (
            dk.assess_exponential_stability(sys_a, split_a, report_a)
            is StabilityVerdict.INCONCLUSIVE_DE_SMOOTHING
        )


def test_criterion_10_splicing_suite():
    with criterion(10, "splicing conditions govern solvability"):
        sys_ = weak_desmoothing_system(horizon=6)
        split = dk.build_split(sys_)

        # structural preconditions of the weak de-smoothing class
        N = split.qwf.N
        assert np.linalg.norm(N @ split.B_a2, 2) <= 1e-12
        assert np.linalg.norm(N @ split.B_a, 2) > 0.5
        assert np.linalg.norm(N @ N @ split.B_a, 2) <= 1e-12
        assert split.nu <= 3
        assert np.linalg.norm(N @ N @ split.B_a1 @ split.B_d2, 2) <= 1e-12
        assert dk.classify_propagation(split, 6).kind is PropagationKind.DE_SMOOTHING
        assert dk.check_index3_uniqueness(split).applicable

        # a history satisfying both splicing conditions solves all six segments
        phi_good = dk.construct_probe_history(
            sys_, split, m=2, target=np.zeros(1), side="slow"
        )
        sys_good = dk.DdaeSystem(E=sys_.E, A=sys_.A, D=sys_.D, tau=1.0,
                                 horizon_intervals=6, f=sys_.f, phi=phi_good)
        split_good = dk.split_matrices(split.qwf, sys_good.D)
        good = dk.splicing_report(sys_good, split_good)
        assert good.smooth_c1 and good.smooth_c2
        traj, ledger = dk.method_of_steps(sys_good, split_good)
        assert len(traj.segments) == 6
        assert not ledger.has_inconsistent
        assert all(seg.consistency_residual <= 1e-7 for seg in traj.segments)

        # a generic admissible history violating the first condition breaks down
        phi_bad = dk.construct_probe_history(
            sys_, split, m=1, target=np.array([1.0]), side="slow"
        )
        sys_bad = dk.DdaeSystem(E=sys_.E, A=sys_.A, D=sys_.D, tau=1.0,
                                horizon_intervals=6, f=sys_.f, phi=phi_bad)
        split_bad = dk.split_matrices(split.qwf, sys_bad.D)
        assert dk.check_admissible(sys_bad, split_bad)[0]
        assert not dk.splicing_report(sys_bad, split_bad).smooth_c1
        traj_bad, ledger_bad = dk.method_of_steps(sys_bad, split_bad)
        orders = [e.matched_order for e in ledger_bad.entries]
        assert ledger_bad.has_inconsistent or all(
            b <= a for a, b in zip(orders, orders[1:])
        )


def test_criterion_11_probe_contract():
    with criterion(11, "worst-case probe contract"):
        rng = np.random.default_rng(31337)
        sys_ = weak_desmoothing_system(horizon=6)
        split = dk.build_split(sys_)
        T_inv = np.linalg.inv(split.qwf.T)
        for m in (1, 2, 3):
            for side in ("slow", "fast"):
                dim = split.n_d if side == "slow" else split.n_a
                target = rng.standard_normal(dim)
                target /= np.linalg.norm(target)
                phi = dk.construct_probe_history(sys_, split, m=m, target=target,
                                                 side=side)
                sys_p = dk.DdaeSystem(E=sys_.E, A=sys_.A, D=sys_.D, tau=1.0,
                                      horizon_intervals=6, f=sys_.f, phi=phi)
                split_p = dk.split_matrices(split.qwf, sys_p.D)
                config = dk.SolverConfig(k_max=max(split.nu + 2, m + 1))
                traj, ledger = dk.method_of_steps(sys_p, split_p, config)
                entry = ledger.entry_at(0)
                assert entry.first_jump_order == m, (m, side)
                jump = T_inv @ entry.jump_vector  # right minus left
                block = jump[: split.n_d] if side == "slow" else jump[split.n_d :]
                observed = -block  # history minus solution
                assert (
                    np.linalg.norm(observed - target)
                    <= 1e-6 * np.linalg.norm(target)
                ), (m, side)
