import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddae_kit as dk

from gen import (
    example_advanced,
    example_neutral,
    example_slow_smoothing,
    random_regular_pencil,
    random_system_from_blocks,
    transition_residual_per_term,
    weak_desmoothing_system,
)


def with_history(sys, phi, qwf=None):
    new = dk.DdaeSystem(
        E=sys.E, A=sys.A, D=sys.D, tau=sys.tau,
        horizon_intervals=sys.horizon_intervals, f=sys.f, phi=phi,
    )
    return new, dk.build_split(new) if qwf is None else dk.split_matrices(qwf, new.D)


def splice(sys, split, order):
    """(holds, residual) of the C^order splicing condition, order 1 or 2."""
    report = dk.splicing_report(sys, split)
    return (getattr(report, f"smooth_c{order}"),
            getattr(report, f"smooth_c{order}_residual"))


def stationary_system(rng, n=3, horizon=3):
    """System with constant solution c: 0 = (A + D) c + f, phi = c."""
    E, A, _ = random_regular_pencil(rng, n)
    D = rng.standard_normal((n, n))
    c = rng.standard_normal(n)
    f_val = -(A + D) @ c
    f = dk.PiecewisePolynomial.constant(f_val, 0.0, float(horizon))
    phi = dk.PiecewisePolynomial.constant(c, -1.0, 0.0)
    return dk.DdaeSystem(E=E, A=A, D=D, tau=1.0, horizon_intervals=horizon,
                         f=f, phi=phi)


class TestAdmissibility:
    def test_neutral_example_history(self):
        sys = example_neutral()
        split = dk.build_split(sys)
        ok, residual = dk.check_admissible(sys, split)
        assert ok
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_advanced_example_history(self):
        sys = example_advanced()
        split = dk.build_split(sys)
        ok, residual = dk.check_admissible(sys, split)
        assert ok
        assert residual <= 1e-12

    def test_perturbed_endpoint_breaks_admissibility(self):
        sys = example_advanced()
        bump = dk.PiecewisePolynomial.constant([1.0, 0.0], -1.0, 0.0)
        phi = sys.phi + bump
        sys2, split2 = with_history(sys, phi)
        ok, residual = dk.check_admissible(sys2, split2)
        assert not ok
        assert residual == pytest.approx(1.0, abs=1e-10)


class TestStackedRestart:
    @pytest.mark.parametrize("field", [float, complex])
    def test_each_knot_matches_its_lone_call(self, field):
        # a stack of knots as the solver closes a run: one projection
        # product per order and one row_norms call, each knot bit for bit
        # its lone restart, a NaN value and an inf row included
        from ddae_kit import history, model
        rng = np.random.default_rng(5)
        for split in (dk.build_split(example_advanced()), dk.build_split(example_neutral()),
                      dk.build_split(weak_desmoothing_system())):
            K, rows, n = 7, split.nu + 3, split.n
            c = 1j if field is complex else 0.0
            x = rng.standard_normal((K, n)) + c * rng.standard_normal((K, n))
            q = rng.standard_normal((K, rows, n)) + c * rng.standard_normal((K, rows, n))
            x[1] = model.consistent_projection(split, x[1], q[1])
            x[2] = x[1] + 1e-12
            q[2] = q[1]
            x[4, 0] = np.nan
            q[5, 0, -1] = np.inf
            with np.errstate(invalid="ignore"):  # inf * 0 in the products
                x0, defects, verdicts = history.restart(split, x, q)
                lone = [history.restart(split, x[k], q[k]) for k in range(K)]
            assert x0.shape == (K, n) and len(defects) == len(verdicts) == K
            for k, (lone_x0, lone_defect, lone_verdict) in enumerate(lone):
                assert type(lone_defect) is float and type(lone_verdict) is bool
                assert x0[k].tobytes() == lone_x0.tobytes()
                assert np.float64(defects[k]).tobytes() == np.float64(lone_defect).tobytes()
                assert verdicts[k] == lone_verdict
            assert verdicts[1] and verdicts[2] and not verdicts[4] and not verdicts[5]
            assert not np.isfinite(defects[4:6]).any()


class TestSmoothnessCondition:
    def test_slow_smoothing_history_fails(self):
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        ok, residual = splice(sys, split, 1)
        assert not ok
        assert residual > 1.0

    def test_stationary_solution_satisfies_everything(self):
        rng = np.random.default_rng(0)
        sys = stationary_system(rng)
        split = dk.build_split(sys)
        assert dk.check_admissible(sys, split)[0]
        assert splice(sys, split, 1)[0]
        assert splice(sys, split, 2)[0]

    def test_probe_with_zero_target_satisfies_c1(self):
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        phi = dk.construct_probe_history(sys, split, m=1, target=np.zeros(1), side="slow")
        sys2, split2 = with_history(sys, phi, qwf=split.qwf)
        assert dk.check_admissible(sys2, split2)[0]
        assert splice(sys2, split2, 1)[0]


class TestSecondSplicing:
    def test_slow_smoothing_history(self):
        # the two splicing residuals are independent equations: for the
        # hidden-delay example the first-order condition fails while the
        # second-order identity happens to hold (both sides vanish)
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        assert not splice(sys, split, 1)[0]
        ok, residual = splice(sys, split, 2)
        assert ok
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_probe_with_order_two_target_zero(self):
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        phi = dk.construct_probe_history(sys, split, m=2, target=np.zeros(1), side="slow")
        sys2, split2 = with_history(sys, phi, qwf=split.qwf)
        assert splice(sys2, split2, 1)[0]
        assert splice(sys2, split2, 2)[0]


def random_histories(rng, n, nu):
    """Systems of index nu with random data: a random history, which
    misses the splicing conditions, and probe histories that meet C^1
    (m = 1), C^1 and C^2 (m = 2), or miss C^1 by a unit target."""
    E, A, truth = random_regular_pencil(rng, n, n_d=n - nu if nu else n, nu=nu)
    D = rng.standard_normal((n, n))
    f = dk.PiecewisePolynomial([(0.0, 1.5, rng.standard_normal((3, n))),
                                (1.5, 3.0, rng.standard_normal((2, n)))])
    phi = dk.PiecewisePolynomial([(-1.0, -0.4, rng.standard_normal((4, n))),
                                  (-0.4, 0.0, rng.standard_normal((5, n)))])
    sys = dk.DdaeSystem(E=E, A=A, D=D, tau=1.0, horizon_intervals=3, f=f, phi=phi)
    split = dk.build_split(sys)
    assert split.nu == nu
    yield sys, split
    side, dim = ("slow", truth["n_d"]) if truth["n_d"] else ("fast", truth["n_a"])
    for m, target in ((1, np.zeros(dim)), (2, np.zeros(dim)), (1, np.eye(dim)[0])):
        if m + nu <= 6:
            probe = dk.construct_probe_history(sys, split, m, target, side=side)
            yield with_history(sys, probe, qwf=split.qwf)


class TestSplicingStack:
    @pytest.mark.parametrize("nu", [0, 1, 2, 3, 4])
    def test_same_verdicts_as_the_per_term_formula(self, nu):
        # the C^m rows from q = D phi(. - tau) + f and the recursion's
        # forcing reach the per-term formula's verdicts, and its residuals
        # within 1e-12 relative plus absolute
        rng = np.random.default_rng(100 + nu)
        seen = set()
        for n in range(max(nu, 1), nu + 3):
            for sys, split in random_histories(rng, n, nu):
                report = dk.splicing_report(sys, split)
                for order in (1, 2):
                    holds, residual = transition_residual_per_term(sys, split, order)
                    assert getattr(report, f"smooth_c{order}") == holds
                    new = getattr(report, f"smooth_c{order}_residual")
                    assert abs(new - residual) <= 1e-12 * (1.0 + residual)
                    seen.add((order, holds))
        # both verdicts of both conditions occur
        assert seen == {(1, True), (1, False), (2, True), (2, False)}

    def test_phi_read_at_minus_tau_twice(self, monkeypatch):
        # admissibility (the solver's gate) and the report's one Taylor
        # stack each read phi's derivatives at -tau once
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        calls = []
        original = dk.PiecewisePolynomial.derivatives

        def counted(self, t, orders, side="right"):
            if self is sys.phi and np.ndim(t) == 0 and t == -sys.tau:
                calls.append(orders)
            return original(self, t, orders, side)

        monkeypatch.setattr(dk.PiecewisePolynomial, "derivatives", counted)
        dk.splicing_report(sys, split)
        assert len(calls) == 2


class TestIndex3:
    def test_low_index_always_applicable(self):
        sys = example_neutral()
        split = dk.build_split(sys)
        report = dk.check_index3_uniqueness(split)
        assert report.applicable
        assert report.index_le_3
        assert report.N_Ba2_zero and report.N2_Ba1_Bd2_zero

    def test_weak_desmoothing_system_applicable(self):
        sys = weak_desmoothing_system()
        split = dk.build_split(sys)
        prop = dk.classify_propagation(split, sys.horizon_intervals)
        assert prop.kind.value == "de_smoothing"
        report = dk.check_index3_uniqueness(split)
        assert report.applicable

    def test_advanced_example_not_applicable(self):
        split = dk.build_split(example_advanced())
        report = dk.check_index3_uniqueness(split)
        assert not report.applicable
        assert not report.N_Ba2_zero

    def test_norms_read_from_the_split(self, monkeypatch):
        # reference: every norm taken here; ||N|| and ||B_a2|| come from
        # coupling_norms (0.0 for n_a = 0), so the check takes two
        # spectral norms of products and ||B_a1||, ||B_d2||
        from ddae_kit import history
        from ddae_kit.pencil import negligible, norm2

        def reference(split):
            N, B_a1, B_a2, B_d2 = split.qwf.N, split.B_a1, split.B_a2, split.B_d2
            n1, n2 = norm2(N @ B_a2), norm2(N @ N @ B_a1 @ B_d2)
            z1 = negligible(n1, norm2(N) * norm2(B_a2))
            z2 = negligible(n2, np.float64(norm2(N)) ** 2 * norm2(B_a1) * norm2(B_d2))
            return history.Index3Report(split.nu <= 3 and z1 and z2, split.nu <= 3,
                                        z1, z2, n1, n2)

        rng = np.random.default_rng(24)
        E, A, _ = random_regular_pencil(rng, 3, n_d=3)
        ode = dk.DdaeSystem(E=E, A=A, D=rng.standard_normal((3, 3)), tau=1.0,
                            horizon_intervals=2, f=dk.PiecewisePolynomial.zero(3, 0.0, 2.0),
                            phi=dk.PiecewisePolynomial.zero(3, -1.0, 0.0))
        # N B_a2 = 1e-8 is negligible at the scale ||N|| ||B_a2|| = 1e3,
        # not at ||B_a2^2|| = 1e-5
        near, _ = random_system_from_blocks(
            rng, 1, 2, 2, ([[0.5]], np.zeros((1, 2)), np.zeros((2, 1)),
                           [[0.0, 1e3], [1e-8, 0.0]]), mix=False)
        calls = []
        monkeypatch.setattr(history, "norm2", lambda M: calls.append(M.shape) or norm2(M))
        for sys in (ode, near, example_neutral(), example_advanced(), example_slow_smoothing(),
                    weak_desmoothing_system()):
            split = dk.build_split(sys)
            split.coupling_norms  # built by the classification in analyze
            calls.clear()
            assert dk.check_index3_uniqueness(split) == reference(split)
            assert len(calls) == 4
        assert dk.check_index3_uniqueness(dk.build_split(near)).N_Ba2_zero


class TestSplicingReport:
    def test_kappa_for_smooth_probe(self):
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        phi = dk.construct_probe_history(sys, split, m=2, target=np.zeros(1), side="slow")
        sys2, split2 = with_history(sys, phi, qwf=split.qwf)
        report = dk.splicing_report(sys2, split2)
        assert report.admissible
        assert report.kappa_observed >= 2

    def test_kappa_monotone_in_probe_order(self):
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        kappas = []
        for m in (1, 2, 3):
            phi = dk.construct_probe_history(
                sys, split, m=m, target=np.zeros(1), side="slow"
            )
            sys2, split2 = with_history(sys, phi, qwf=split.qwf)
            kappas.append(dk.splicing_report(sys2, split2).kappa_observed)
        assert kappas == sorted(kappas)
        assert kappas[0] >= 1

    def test_original_history_kappa_zero(self):
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        report = dk.splicing_report(sys, split)
        assert report.kappa_observed == 0  # admissible but not C1


class TestProbeConstruction:
    @pytest.mark.parametrize("side", ["Slow", "bogus", "FAST", ""])
    def test_rejects_an_unknown_side(self, side):
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        with pytest.raises(ValueError, match="side must be 'slow' or 'fast'"):
            dk.construct_probe_history(sys, split, m=1, target=np.ones(split.n_a), side=side)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("side", ["slow", "fast"])
    def test_first_knot_jump_order_and_vector(self, m, side):
        rng = np.random.default_rng(10 + m)
        sys = weak_desmoothing_system()
        split = dk.build_split(sys)
        dim = split.n_d if side == "slow" else split.n_a
        target = rng.standard_normal(dim)
        target /= np.linalg.norm(target)
        phi = dk.construct_probe_history(sys, split, m=m, target=target, side=side)
        sys2, split2 = with_history(sys, phi, qwf=split.qwf)
        assert dk.check_admissible(sys2, split2)[0]

        # observed first-knot data via the exact Taylor recursion
        from ddae_kit.history import first_segment_q_derivs, restart
        from ddae_kit.model import solution_taylor_from_value

        q = first_segment_q_derivs(sys2, m + split.nu + 1)
        x0, _, _ = restart(split2, phi.evaluate(0.0, side="left"), q)
        xs = solution_taylor_from_value(split2, x0, q, m)
        T_inv = np.linalg.inv(split.qwf.T)
        for j in range(m):
            diff = phi.evaluate(0.0, order=j, side="left") - xs[j]
            assert np.linalg.norm(diff) <= 1e-8
        jump = T_inv @ (phi.evaluate(0.0, order=m, side="left") - xs[m])
        block = jump[: split.n_d] if side == "slow" else jump[split.n_d :]
        other = jump[split.n_d :] if side == "slow" else jump[: split.n_d]
        assert np.linalg.norm(block - target) <= 1e-6 * np.linalg.norm(target)
        assert np.linalg.norm(other) <= 1e-8

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("side", ["slow", "fast"])
    def test_probe_contract_under_mixed_transforms(self, m, side):
        # the probe machinery must work in the computed (non-identity)
        # coordinates of a randomly conjugated system with inhomogeneity
        from gen import random_smoothing_blocks, random_system_from_blocks

        rng = np.random.default_rng(100 * m + (side == "fast"))
        blocks = random_smoothing_blocks(rng, 2, 2, 2)
        sys, split = random_system_from_blocks(rng, 2, 2, 2, blocks, horizon=4)
        dim = split.n_d if side == "slow" else split.n_a
        target = rng.standard_normal(dim)
        target /= np.linalg.norm(target)
        phi = dk.construct_probe_history(sys, split, m=m, target=target, side=side)
        sys2, split2 = with_history(sys, phi, qwf=split.qwf)
        assert dk.check_admissible(sys2, split2)[0]
        config = dk.SolverConfig(k_max=max(split.nu + 2, m + 1))
        traj, ledger = dk.method_of_steps(sys2, split2, config)
        entry = ledger.entry_at(0)
        assert entry.first_jump_order == m
        jump = np.linalg.inv(split.qwf.T) @ entry.jump_vector
        block = jump[: split.n_d] if side == "slow" else jump[split.n_d :]
        assert np.linalg.norm(-block - target) <= 1e-6

    def test_rng_randomization_still_admissible(self):
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        rng = np.random.default_rng(77)
        phi = dk.construct_probe_history(
            sys, split, m=2, target=np.array([0.5]), side="slow", rng=rng
        )
        sys2, split2 = with_history(sys, phi, qwf=split.qwf)
        assert dk.check_admissible(sys2, split2)[0]

    def test_conditioning_guard(self):
        sys = example_slow_smoothing()
        split = dk.build_split(sys)
        with pytest.raises(ValueError):
            dk.construct_probe_history(sys, split, m=10, target=np.zeros(1), side="slow")

    def test_order_bound_rejects_index3_order4(self):
        sys = weak_desmoothing_system()
        split = dk.build_split(sys)
        assert split.nu == 3
        with pytest.raises(ValueError):
            dk.construct_probe_history(sys, split, m=4, target=np.zeros(1), side="slow")

    @pytest.mark.parametrize("n_d,n_a,nu,m", [(1, 3, 3, 3), (2, 4, 4, 2)])
    def test_boundary_order_meets_contract(self, n_d, n_a, nu, m):
        # m + index = MAX_PROBE_ORDER, on random smoothing systems
        from gen import random_smoothing_blocks, random_system_from_blocks

        assert m + nu == dk.history.MAX_PROBE_ORDER
        rng = np.random.default_rng(40 + nu)
        blocks = random_smoothing_blocks(rng, n_d, n_a, nu)
        sys, split = random_system_from_blocks(rng, n_d, n_a, nu, blocks, horizon=2)
        for side in ("slow", "fast"):
            dim = split.n_d if side == "slow" else split.n_a
            target = rng.standard_normal(dim)
            target /= np.linalg.norm(target)
            phi = dk.construct_probe_history(sys, split, m=m, target=target, side=side)
            sys2, split2 = with_history(sys, phi, qwf=split.qwf)
            assert dk.splicing_report(sys2, split2).kappa_observed == m - 1
            config = dk.SolverConfig(k_max=max(split.nu + 2, m + 1))
            _, ledger = dk.method_of_steps(sys2, split2, config)
            entry = ledger.entry_at(0)
            assert entry.first_jump_order == m
            jump = split.qwf.T_inv @ entry.jump_vector
            block = jump[: split.n_d] if side == "slow" else jump[split.n_d :]
            assert np.linalg.norm(block + target) <= 1e-6

    def test_interpolant_missing_its_contract_raises(self):
        # index 1, m = 5: within the order bound, but the monomial
        # interpolant on [-tau, 0] carries the order-5 target into p(0)
        # through terms of size tau^5, so at tau = 1e3 their cancellation
        # leaves about eps * 1e15, far above FLAG_TOL, whatever basis the
        # decomposition picks; at tau = 1 the same probe meets its contract
        E, A = np.diag([1.0, 0.0]), np.diag([-0.5, 1.0])
        D = np.array([[0.3, 0.2], [0.1, 0.0]])
        for tau in (1.0, 1e3):
            sys = dk.DdaeSystem(E=E, A=A, D=D, tau=tau, horizon_intervals=2,
                                f=dk.PiecewisePolynomial.zero(2, 0.0, 2 * tau),
                                phi=dk.PiecewisePolynomial.zero(2, -tau, 0.0))
            split = dk.build_split(sys)
            if tau == 1.0:
                dk.construct_probe_history(sys, split, m=5, target=np.ones(1), side="slow")
                continue
            with pytest.raises(ValueError, match="misses its derivatives at 0"):
                dk.construct_probe_history(sys, split, m=5, target=np.ones(1), side="slow")

    def test_side_requires_nonempty_block(self):
        sys = example_neutral()  # n_d = 0
        split = dk.build_split(sys)
        with pytest.raises(dk.DimensionMismatch):
            dk.construct_probe_history(sys, split, m=1, target=np.zeros(0), side="slow")


class TestProbeContractProperty:
    """On random smoothing systems the probe history is admissible, keeps
    the transition smooth through order m - 1 and makes the first-knot
    ledger jump at order m by exactly -target on the chosen side."""

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_d=st.integers(1, 2),
        n_a=st.integers(1, 3),
        nu=st.integers(1, 3),
        m=st.integers(1, 3),
        side=st.sampled_from(["slow", "fast"]),
    )
    def test_probe_contract(self, seed, n_d, n_a, nu, m, side):
        from gen import random_smoothing_blocks, random_system_from_blocks

        nu = min(nu, n_a)
        rng = np.random.default_rng(seed)
        blocks = random_smoothing_blocks(rng, n_d, n_a, nu)
        sys, split = random_system_from_blocks(rng, n_d, n_a, nu, blocks, horizon=2)
        dim = split.n_d if side == "slow" else split.n_a
        target = rng.standard_normal(dim)
        target /= np.linalg.norm(target)
        phi = dk.construct_probe_history(sys, split, m=m, target=target, side=side)
        sys2, split2 = with_history(sys, phi, qwf=split.qwf)

        assert dk.check_admissible(sys2, split2)[0]
        assert dk.splicing_report(sys2, split2).kappa_observed == m - 1
        config = dk.SolverConfig(k_max=max(split.nu + 2, m + 1))
        _, ledger = dk.method_of_steps(sys2, split2, config)
        entry = ledger.entry_at(0)
        assert entry.first_jump_order == m
        jump = split.qwf.T_inv @ entry.jump_vector
        block = jump[: split.n_d] if side == "slow" else jump[split.n_d :]
        assert np.linalg.norm(block + target) <= 1e-6
