import numpy as np
import pytest

import ddae_kit as dk
from ddae_kit.stability import (
    StabilityReport,
    StabilityVerdict,
    _char_matrix,
    _local_minima,
    default_box,
    spectral_abscissa_matrices,
)

from gen import example_advanced, example_neutral, random_regular_pencil


def scalar_retarded_system(horizon=3):
    # x' = -2 x + x(t - 1)
    phi = dk.PiecewisePolynomial.constant([1.0], -1.0, 0.0)
    f = dk.PiecewisePolynomial.zero(1, 0.0, float(horizon))
    return dk.DdaeSystem(E=[[1.0]], A=[[-2.0]], D=[[1.0]], tau=1.0,
                         horizon_intervals=horizon, f=f, phi=phi)


def bisect_real_root(fn, lo, hi, iters=200):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


class TestCharFunction:
    def test_pure_ode_root(self):
        sys_ = dk.DdaeSystem(
            E=np.eye(2), A=-np.eye(2), D=np.zeros((2, 2)), tau=1.0,
            horizon_intervals=1,
            f=dk.PiecewisePolynomial.zero(2, 0.0, 1.0),
            phi=dk.PiecewisePolynomial.zero(2, -1.0, 0.0),
        )
        value, deriv = dk.char_function(sys_, -1.0)
        assert abs(value) <= 1e-14

    def test_scalar_retarded_values(self):
        sys_ = scalar_retarded_system()
        value, deriv = dk.char_function(sys_, 0.0)
        assert value == pytest.approx(1.0)
        # h(lambda) = lambda + 2 - e^{-lambda}; h'(lambda) = 1 + e^{-lambda}
        assert deriv == pytest.approx(2.0)

    def test_neutral_example_roots_on_axis(self):
        sys_ = example_neutral()
        value, _ = dk.char_function(sys_, 1j * np.pi)
        assert abs(value) <= 1e-14
        value, _ = dk.char_function(sys_, 3j * np.pi)
        assert abs(value) <= 1e-13


class TestSpectralAbscissa:
    def test_scalar_retarded_against_bisection(self):
        sys_ = scalar_retarded_system()
        oracle = bisect_real_root(lambda x: x + 2.0 - np.exp(-x), -1.0, 0.0)
        report = dk.spectral_abscissa(sys_)
        assert report.alpha == pytest.approx(oracle, abs=1e-6)
        assert not report.box_limited
        # the rightmost root is real
        lam, residual = report.rightmost_roots[0]
        assert abs(lam.imag) <= 1e-8

    def test_pure_ode_case(self):
        sys_ = dk.DdaeSystem(
            E=np.eye(2), A=-np.eye(2), D=np.zeros((2, 2)), tau=1.0,
            horizon_intervals=1,
            f=dk.PiecewisePolynomial.zero(2, 0.0, 1.0),
            phi=dk.PiecewisePolynomial.zero(2, -1.0, 0.0),
        )
        report = dk.spectral_abscissa(sys_)
        assert report.alpha == pytest.approx(-1.0, abs=1e-10)

    def test_neutral_example_axis_roots(self):
        sys_ = example_neutral()
        report = dk.spectral_abscissa(sys_)
        assert report.alpha == pytest.approx(0.0, abs=1e-8)
        # every root sits near i pi (2k+1)
        for lam, _ in report.rightmost_roots:
            k = round((lam.imag / np.pi - 1.0) / 2.0)
            assert lam.real == pytest.approx(0.0, abs=1e-8)
            assert lam.imag == pytest.approx((2 * k + 1) * np.pi, abs=1e-6)
        assert len(report.rightmost_roots) >= 5

    def test_residual_invariant(self):
        sys_ = scalar_retarded_system()
        report = dk.spectral_abscissa(sys_)
        for lam, residual in report.rightmost_roots:
            M = lam * sys_.E - sys_.A - np.exp(-lam * sys_.tau) * sys_.D
            scale = max(1.0, np.linalg.norm(M, 2)) ** sys_.n
            assert residual <= 1e-8 * scale

    def test_conjugate_symmetry_half_plane(self):
        # searching only the upper half plane must reproduce alpha of the
        # full plane for real data
        sys_ = scalar_retarded_system()
        report_half = dk.spectral_abscissa(sys_)
        box = report_half.box
        full = spectral_abscissa_matrices(
            np.array(sys_.E, dtype=complex), sys_.A, sys_.D, sys_.tau,
            box=box, grid=81,
        )
        assert full.alpha == pytest.approx(report_half.alpha, abs=1e-8)

    def test_ode_reduction_matches_J_spectrum(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            E, A, _ = random_regular_pencil(rng, 4, n_d=3, nu=1)
            qwf = dk.compute_qwf(dk.MatrixPencil(E, A))
            eig = np.linalg.eigvals(qwf.J)
            alpha_expected = float(np.max(eig.real))
            lo = min(-5.0, alpha_expected - 3.0)
            hi = max(3.0, alpha_expected + 3.0)
            box = dk.SearchBox(re_min=lo, re_max=hi, im_max=12.0)
            report = spectral_abscissa_matrices(
                E, A, np.zeros((4, 4)), 1.0, box=box, grid=90
            )
            assert report.alpha == pytest.approx(alpha_expected, abs=1e-6)


class TestGridEvaluation:
    def test_local_minima_match_brute_force(self):
        # ties, NaN cells, edges and corners, and one-row/one-column grids
        def brute(mag):
            g_re, g_im = mag.shape
            return [
                [i, j] for i in range(g_re) for j in range(g_im)
                if mag[i, j] <= mag[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2].min()
            ]

        rng = np.random.default_rng(5)
        shapes = [(1, 1), (1, 7), (7, 1), (2, 2), (6, 9), (13, 11)]
        for trial in range(40):
            mag = rng.integers(0, 4, size=shapes[trial % len(shapes)]).astype(float)
            if trial % 3 == 0:
                mag[rng.random(mag.shape) < 0.15] = np.nan
            assert _local_minima(mag).tolist() == brute(mag)

    def test_stacked_row_matches_char_function(self):
        # one grid row as a stack equals the scalar determinant bit for bit
        rng = np.random.default_rng(6)
        n = 3
        E, A, D = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                   for _ in range(3))
        sys_ = dk.DdaeSystem(
            E=E, A=A, D=D, tau=0.7, horizon_intervals=1,
            f=dk.PiecewisePolynomial.zero(n, 0.0, 0.7, complex_field=True),
            phi=dk.PiecewisePolynomial.zero(n, -0.7, 0.0, complex_field=True),
        )
        box = default_box(sys_.E, sys_.A, sys_.D, sys_.tau)
        ims = np.linspace(-box.im_max, box.im_max, 80)
        for x in np.linspace(box.re_min, box.re_max, 80)[::9]:
            row = np.linalg.det(_char_matrix(sys_.E, sys_.A, sys_.D, sys_.tau, x + 1j * ims))
            for j in range(0, 80, 7):
                value, _ = dk.char_function(sys_, complex(x, ims[j]))
                assert row[j] == value
                assert np.hypot(row[j].real, row[j].imag) == abs(value)


class TestAssessment:
    def test_scalar_retarded_stable(self):
        sys_ = scalar_retarded_system()
        split = dk.build_split(sys_)
        report = dk.spectral_abscissa(sys_)
        verdict = dk.assess_exponential_stability(sys_, split, report)
        assert verdict is StabilityVerdict.STABLE
        assert report.gate == "applicable"

    def test_neutral_example_marginal(self):
        sys_ = example_neutral()
        split = dk.build_split(sys_)
        report = dk.spectral_abscissa(sys_)
        verdict = dk.assess_exponential_stability(sys_, split, report)
        assert verdict is StabilityVerdict.MARGINAL

    def test_de_smoothing_gate(self):
        sys_ = example_advanced()
        split = dk.build_split(sys_)
        report = dk.spectral_abscissa(sys_)
        verdict = dk.assess_exponential_stability(sys_, split, report)
        assert verdict is StabilityVerdict.INCONCLUSIVE_DE_SMOOTHING
        assert report.gate == "not_applicable_de_smoothing"

    def test_gate_soundness_random_de_smoothing(self):
        # assess must never answer stable/unstable for de-smoothing systems
        rng = np.random.default_rng(2)
        from gen import shift_nilpotent

        for _ in range(5):
            n_d, n_a = 1, 2
            n = n_d + n_a
            N = shift_nilpotent(n_a, 2)
            E = np.zeros((n, n))
            E[:n_d, :n_d] = np.eye(n_d)
            E[n_d:, n_d:] = N
            A = np.eye(n)
            A[:n_d, :n_d] = rng.standard_normal((n_d, n_d))
            D = rng.standard_normal((n, n))
            f = dk.PiecewisePolynomial.zero(n, 0.0, 2.0)
            phi = dk.PiecewisePolynomial.zero(n, -1.0, 0.0)
            sys_ = dk.DdaeSystem(E=E, A=A, D=D, tau=1.0, horizon_intervals=2,
                                 f=f, phi=phi)
            split = dk.build_split(sys_)
            if dk.classify_propagation(split, 2).kind.value != "de_smoothing":
                continue
            report = dk.spectral_abscissa(sys_, grid=40)
            verdict = dk.assess_exponential_stability(sys_, split, report)
            assert verdict is StabilityVerdict.INCONCLUSIVE_DE_SMOOTHING

    def test_unstable_case(self):
        # x' = +0.5 x: unstable ODE
        sys_ = dk.DdaeSystem(
            E=[[1.0]], A=[[0.5]], D=[[0.0]], tau=1.0, horizon_intervals=1,
            f=dk.PiecewisePolynomial.zero(1, 0.0, 1.0),
            phi=dk.PiecewisePolynomial.zero(1, -1.0, 0.0),
        )
        split = dk.build_split(sys_)
        report = dk.spectral_abscissa(sys_)
        verdict = dk.assess_exponential_stability(sys_, split, report)
        assert verdict is StabilityVerdict.UNSTABLE

    def test_gate_uses_the_system_policy(self):
        # ||N B_a|| = 1e-9 is negligible under rel_tol=1e-8,
        # so the system smooths under its own policy; under the default
        # policy the same coupling would make it de-smoothing
        policy = dk.RankPolicy(rel_tol=1e-8)
        sys_ = dk.DdaeSystem(
            E=[[0.0, 1.0], [0.0, 0.0]], A=np.eye(2), D=[[0.0, 0.0], [1e-9, 0.0]],
            tau=1.0, horizon_intervals=3,
            f=dk.PiecewisePolynomial.zero(2, 0.0, 3.0),
            phi=dk.PiecewisePolynomial.zero(2, -1.0, 0.0), policy=policy,
        )
        split = dk.build_split(sys_)
        kind = dk.classify_propagation(split, 3, policy).kind
        assert kind is dk.PropagationKind.SMOOTHING
        # the gate alone decides here, so an empty search result will do
        report = StabilityReport(alpha=None, rightmost_roots=[],
                                 box=default_box(sys_.E, sys_.A, sys_.D, 1.0),
                                 grid=(2, 2), box_limited=False, no_roots=True)
        verdict = dk.assess_exponential_stability(sys_, split, report)
        assert verdict is StabilityVerdict.INCONCLUSIVE_BOX
        assert report.gate == "applicable"
