import copy
import tracemalloc
import warnings

import numpy as np
import pytest

import ddae_kit as dk
from ddae_kit import stability
from ddae_kit.pencil import norm2
from ddae_kit.stability import (
    MARGIN,
    RESIDUAL_TOL,
    StabilityReport,
    StabilityVerdict,
    _backward_errors,
    _char_matrix,
    _grid_magnitudes,
    _local_minima,
    _newton,
    default_box,
    spectral_abscissa_matrices,
)

from gen import (
    example_advanced,
    example_neutral,
    grid_per_row,
    newton_per_seed,
    random_regular_pencil,
)


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


def char_value(sys_, lam):
    """The characteristic function h(lambda) = det M(lambda) at one lambda."""
    return complex(np.linalg.det(_char_matrix(sys_.E, sys_.A, sys_.D, sys_.tau, complex(lam))))


class TestCharFunction:
    def test_pure_ode_root(self):
        sys_ = dk.DdaeSystem(
            E=np.eye(2), A=-np.eye(2), D=np.zeros((2, 2)), tau=1.0,
            horizon_intervals=1,
            f=dk.PiecewisePolynomial.zero(2, 0.0, 1.0),
            phi=dk.PiecewisePolynomial.zero(2, -1.0, 0.0),
        )
        assert abs(char_value(sys_, -1.0)) <= 1e-14

    def test_scalar_retarded_values(self):
        sys_ = scalar_retarded_system()
        assert char_value(sys_, 0.0) == pytest.approx(1.0)
        # h(lambda) = lambda + 2 - e^{-lambda}; h'(lambda) = 1 + e^{-lambda}
        h = 1e-6
        deriv = (char_value(sys_, h) - char_value(sys_, -h)) / (2 * h)
        assert deriv == pytest.approx(2.0)

    def test_neutral_example_roots_on_axis(self):
        sys_ = example_neutral()
        assert abs(char_value(sys_, 1j * np.pi)) <= 1e-14
        assert abs(char_value(sys_, 3j * np.pi)) <= 1e-13


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


def grid_axes(E, A, D, tau, shape, box=None):
    """The real and imaginary grid axes spectral_abscissa_matrices uses."""
    box = box or default_box(E, A, D, tau)
    im_min = -box.im_max if any(np.iscomplexobj(X) for X in (E, A, D)) else 0.0
    return np.linspace(box.re_min, box.re_max, shape[0]), np.linspace(im_min, box.im_max, shape[1])


def as_system(E, A, D, tau):
    n = len(E)
    field = any(np.iscomplexobj(X) for X in (E, A, D))
    return dk.DdaeSystem(
        E=E, A=A, D=D, tau=tau, horizon_intervals=1,
        f=dk.PiecewisePolynomial.zero(n, 0.0, tau, complex_field=field),
        phi=dk.PiecewisePolynomial.zero(n, -tau, 0.0, complex_field=field),
    )


def grid_systems(rng, complex_field):
    """Random data for n = 1..8, each n also with D = 0 and with a
    singular E (its last column zero)."""
    for n in range(1, 9):
        for variant in ("random", "D = 0", "singular E"):
            E, A, D = random_data(rng, n, complex_field)
            if variant == "D = 0":
                D = np.zeros_like(D)
            if variant == "singular E":
                E[:, -1] = 0.0
            yield E, A, D, float(rng.uniform(0.3, 2.0))


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
        for trial in range(60):
            mag = rng.integers(0, 4, size=shapes[trial % len(shapes)]).astype(float)
            if trial % 3 == 0:
                mag[rng.random(mag.shape) < 0.15] = np.nan
            if trial % 4 == 1:
                mag[rng.random(mag.shape) < 0.15] = np.inf
            if trial % 5 == 2:
                mag[rng.random(mag.shape) < 0.1] = -np.inf
            assert _local_minima(mag).tolist() == brute(mag)
        # a grid of +inf only: every cell ties with its block
        assert len(_local_minima(np.full((3, 4), np.inf))) == 12

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("chunk_rows", [None, 3])
    def test_chunked_grid_matches_per_row(self, complex_field, chunk_rows, monkeypatch):
        # the chunked product ranks the cells as the per-row loop does, and
        # its |det| is |h(lambda)|'s to 1e-12 relative; chunks of 3 rows
        # leave a short last chunk on 80 and 41 rows
        rng = np.random.default_rng(21 + complex_field)
        checked = 0
        for E, A, D, tau in grid_systems(rng, complex_field):
            n = len(E)
            sys_ = as_system(E, A, D, tau)
            for shape in ((80, 80), (41, 67), (3, 128)):
                if chunk_rows is not None:
                    monkeypatch.setattr(stability, "GRID_CHUNK", chunk_rows * shape[1] * n * n)
                res, ims = grid_axes(E, A, D, tau, shape)
                mag = _grid_magnitudes(E, A, D, tau, res, ims)
                reference = grid_per_row(E, A, D, tau, res, ims)
                assert _local_minima(mag).tolist() == _local_minima(reference).tolist()
                assert np.all(np.abs(mag - reference) <= 1e-12 * reference)
                # the reference is |h(lambda)| bit for bit
                for i, j in zip(range(0, shape[0], 5), range(0, shape[1], 7)):
                    assert reference[i, j] == abs(char_value(sys_, complex(res[i], ims[j])))
                    checked += 1
        assert checked > 400

    def test_overflowing_rows_are_quiet(self):
        # e^{-lambda tau} overflows for Re lambda < -709.8: those rows are
        # NaN in both evaluations, no RuntimeWarning is raised, and the
        # cells next to them rank as in the per-row loop; the whole search
        # (about 900 roots in this box) stays quiet too, shown for n <= 2
        rng = np.random.default_rng(22)
        box = dk.SearchBox(re_min=-2000.0, re_max=5.0, im_max=30.0)
        for complex_field in (False, True):
            for E, A, D, tau in grid_systems(rng, complex_field):
                res, ims = grid_axes(E, A, D, 1.0, (80, 40), box)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    mag = _grid_magnitudes(E, A, D, 1.0, res, ims)
                    if len(E) <= 2:
                        spectral_abscissa_matrices(E, A, D, 1.0, box=box, grid=(80, 40))
                reference = grid_per_row(E, A, D, 1.0, res, ims)
                assert np.array_equal(np.isnan(mag), np.isnan(reference))
                if np.any(D):
                    assert np.isnan(mag[res < -720.0]).all()
                assert _local_minima(mag).tolist() == _local_minima(reference).tolist()

    def test_chunk_memory_is_bounded(self):
        # an n = 8 grid 1024 wide holds one row's matrices at a time
        # (64 Ki entries, the cap) plus a few vectors over the row, however
        # many rows it has
        rng = np.random.default_rng(23)
        E, A, D = random_data(rng, 8, True)
        ims = np.linspace(-30.0, 30.0, 1024)
        bound = 16 * (stability.GRID_CHUNK + 8 * len(ims))
        peaks = []
        for rows in (3, 9):
            res = np.linspace(-5.0, 5.0, rows)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                mag = _grid_magnitudes(E, A, D, 1.0, res, ims)
                peaks.append(tracemalloc.get_traced_memory()[1] - base - mag.nbytes)
            finally:
                tracemalloc.stop()
        assert max(peaks) <= bound
        assert peaks[1] <= peaks[0] + 4096

    def test_reports_match_the_per_row_grid(self, monkeypatch):
        # whole reports, roots bit for bit, equal those of a search seeded
        # from the per-row grid, on 120 random systems and three grids
        rng = np.random.default_rng(24)
        grids = (20, 40, 80)
        found = []
        for trial in range(120):
            E, A, D = random_data(rng, 1 + trial % 6, trial % 2 == 1)
            if trial % 5 == 3:
                D = np.zeros_like(D)
            if trial % 7 == 4:
                E[:, -1] = 0.0
            tau = float(rng.uniform(0.3, 2.0))
            grid = grids[trial % 3]
            chunked = spectral_abscissa_matrices(E, A, D, tau, grid=grid)
            with monkeypatch.context() as m:
                m.setattr(stability, "_grid_magnitudes", grid_per_row)
                reference = spectral_abscissa_matrices(E, A, D, tau, grid=grid)
            assert bits([lam for lam, _ in chunked.rightmost_roots]) == \
                bits([lam for lam, _ in reference.rightmost_roots])
            assert [r for _, r in chunked.rightmost_roots] == \
                [r for _, r in reference.rightmost_roots]
            assert (chunked.alpha, chunked.box, chunked.grid, chunked.box_limited,
                    chunked.no_roots) == (reference.alpha, reference.box, reference.grid,
                                          reference.box_limited, reference.no_roots)
            found.append(len(chunked.rightmost_roots))
        assert sum(found) > 500

    def test_stacked_row_matches_char_function(self):
        # one grid row as a stack equals h(lambda), the determinant at
        # each lambda alone, bit for bit
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
                value = char_value(sys_, complex(x, ims[j]))
                assert row[j] == value
                assert np.hypot(row[j].real, row[j].imag) == abs(value)


def bits(values):
    """The IEEE bit patterns of complex values, so NaN and -0.0 compare too."""
    return np.array(values, dtype=complex).view(np.int64).tolist()


def random_data(rng, n, complex_field):
    mats = [rng.standard_normal((n, n)) for _ in range(3)]
    if complex_field:
        mats = [X + 1j * rng.standard_normal((n, n)) for X in mats]
    return mats


class TestNewton:
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_lockstep_matches_per_seed(self, complex_field):
        # every lane of the stacked iteration follows the scalar loop
        # bit for bit, whichever lanes stop around it
        rng = np.random.default_rng(13)
        for n in range(1, 9):
            for _ in range(3):
                E, A, D = random_data(rng, n, complex_field)
                tau = float(rng.uniform(0.3, 2.0))
                box = default_box(E, A, D, tau)
                seeds = [complex(rng.uniform(box.re_min, box.re_max),
                                 rng.uniform(-box.im_max, box.im_max)) for _ in range(12)]
                lockstep = _newton(E, A, D, tau, seeds)
                assert bits(lockstep) == bits([newton_per_seed(E, A, D, tau, s)[0] for s in seeds])

    def test_singular_overflowing_and_capped_lanes_in_one_stack(self):
        # det M = (lambda^2 + 1)(lambda + 1 + e^{-lambda}): M is exactly
        # singular at i, exp overflows at -800, and on the real axis, where
        # det has no root, Newton wanders until NEWTON_MAX_ITER
        E = np.eye(3)
        A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        D = np.zeros((3, 3))
        D[2, 2] = -1.0
        seeds = [0.3 + 0j, 1j, -800 + 0j, 2.0 + 0j, 0.5 + 1.5j, -0.5 + 3.0j]
        reference = [newton_per_seed(E, A, D, 1.0, s) for s in seeds]
        reasons = [why for _, why in reference]
        assert reasons[:4] == ["max_iter", "singular", "logderiv", "max_iter"]
        assert "step" in reasons[4:]
        assert bits(_newton(E, A, D, 1.0, seeds)) == bits([lam for lam, _ in reference])

    def test_no_seeds(self):
        assert _newton(np.eye(2), np.eye(2), np.eye(2), 1.0, []) == []

    def test_reciprocal_is_pythons_quotient(self):
        # the lanes step by np.reciprocal and the per-seed loop by
        # 1.0 / z: both are Smith's quotient, equal bit for bit up to the
        # sign of a zero part (a zero part of z, or a ratio of its parts
        # that underflows), with |re| == |im| ties, subnormal and
        # near-overflow parts and every sign; lambda - step is then equal
        # bit for bit for every lambda without a -0.0 part
        mags = [0.0, 1.0, 3.0, 0.1, 1.0 + 2.0 ** -52, 7.3e-5, 1e150, 8.9e307, 1.7e308,
                2.2e-308, 1e-310, 5e-324, 1e-300, np.pi]
        parts = [s * m for m in mags for s in (1.0, -1.0)]
        z = np.array([complex(re, im) for re in parts for im in parts if re or im])
        rng = np.random.default_rng(17)
        drawn = rng.standard_normal((2, 4000)) * 10.0 ** rng.integers(-320, 308, (2, 4000))
        z = np.concatenate([z, drawn[0] + 1j * drawn[1]])
        python = np.array([1.0 / complex(x) for x in z])
        with np.errstate(over="ignore"):
            step = np.reciprocal(z)
        assert np.isinf(step).any() and bits(step + 0.0) == bits(python + 0.0)
        for lam in (0j, 1.5 + 0j, complex(0.0, -2.5), complex(-0.5, 0.25)):
            assert bits(lam - step) == bits(lam - python)

    def test_reports_match_the_per_seed_reference(self, monkeypatch):
        # whole reports, roots bit for bit, equal those of a search whose
        # Newton runs tests/gen.py's loop one seed at a time, on random
        # systems n = 1..8 (D = 0 and singular E among them) and on the
        # advanced example, where a lane reaches NEWTON_MAX_ITER
        rng = np.random.default_rng(25)
        systems = [(E, A, D, tau) for complex_field in (False, True)
                   for E, A, D, tau in grid_systems(rng, complex_field)]
        adv = example_advanced()
        systems.append((adv.E, adv.A, adv.D, adv.tau))
        reasons, found = [], []

        def per_seed(E, A, D, tau, seeds):
            runs = [newton_per_seed(E, A, D, tau, s) for s in seeds]
            reasons.append([why for _, why in runs])
            return [lam for lam, _ in runs]

        for E, A, D, tau in systems:
            lockstep = spectral_abscissa_matrices(E, A, D, tau)
            with monkeypatch.context() as m:
                m.setattr(stability, "_newton", per_seed)
                reference = spectral_abscissa_matrices(E, A, D, tau)
            assert bits([lam for lam, _ in lockstep.rightmost_roots]) == \
                bits([lam for lam, _ in reference.rightmost_roots])
            assert [r for _, r in lockstep.rightmost_roots] == \
                [r for _, r in reference.rightmost_roots]
            assert (lockstep.alpha, lockstep.box_limited, lockstep.no_roots) == \
                (reference.alpha, reference.box_limited, reference.no_roots)
            found.append(len(lockstep.rightmost_roots))
        assert "max_iter" in reasons[-1]
        assert sum(found) > 300

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_stacked_residual_matches_scalar(self, complex_field):
        # the backward errors of a stack of candidates are, lane by lane,
        # bit for bit what each candidate gets alone
        rng = np.random.default_rng(14)
        for n in range(1, 9):
            E, A, D = random_data(rng, n, complex_field)
            lams = [complex(*rng.standard_normal(2)) for _ in range(7)]
            etas = _backward_errors(E, A, D, 0.8, lams)
            assert bits(etas) == bits([_backward_errors(E, A, D, 0.8, [lam])[0] for lam in lams])

    def test_overflowed_lambda_is_no_root(self, capfd):
        # e^{-lambda tau} overflows at Re lambda = -800, so that lane's M is
        # not finite: its backward error is inf, which fails RESIDUAL_TOL,
        # with no warning and no LAPACK message on the terminal, and the
        # other lanes keep the values they have alone
        rng = np.random.default_rng(15)
        E, A, D = random_data(rng, 4, False)
        lams = [0.5 + 1j, -800.0 + 2j, -1.0 - 0.5j]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            etas = _backward_errors(E, A, D, 1.0, lams)
        assert etas[1] == np.inf and not etas[1] <= RESIDUAL_TOL
        for k in (0, 2):
            assert etas[k] == _backward_errors(E, A, D, 1.0, [lams[k]])[0]
            assert 0.0 < etas[k] <= 1.0
        assert capfd.readouterr() == ("", "")

def zero_system():
    # x' = 0: M(lambda) = lambda, so lambda = 0 is a root with M = 0
    return dk.DdaeSystem(
        E=[[1.0]], A=[[0.0]], D=[[0.0]], tau=1.0, horizon_intervals=1,
        f=dk.PiecewisePolynomial.zero(1, 0.0, 1.0),
        phi=dk.PiecewisePolynomial.constant([1.0], -1.0, 0.0),
    )


class TestBackwardError:
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_lanes_match_per_lambda_svd(self, complex_field, capfd):
        # each lane is the smallest singular value of M / omega over
        # 1 + |lambda| + |e^{-lambda tau}|, as one lambda alone gives it;
        # e^{-lambda tau} overflows at Re lambda = -1000, so that lane's M
        # is not finite: its eta is inf, with no warning and no LAPACK
        # message on the terminal, and the other lanes keep their values
        rng = np.random.default_rng(14)
        for n in range(1, 9):
            E, A, D = random_data(rng, n, complex_field)
            omega = max(norm2(E), norm2(A), norm2(D))
            lams = [complex(*rng.standard_normal(2)) for _ in range(7)]
            lams.insert(3, -1000.0 + 2j)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                etas = _backward_errors(E, A, D, 0.8, lams)
            assert etas[3] == np.inf
            for lam, eta in zip(lams[:3] + lams[4:], etas[:3] + etas[4:]):
                M = _char_matrix(E, A, D, 0.8, lam) / omega
                sigma = np.linalg.svd(M, compute_uv=False)[-1]
                assert eta == sigma / (1.0 + abs(lam) + np.exp(-0.8 * lam.real))
                assert 0.0 < eta <= 1.0
        assert capfd.readouterr() == ("", "")

    def test_zero_system_root_at_origin(self):
        # Newton lands on lambda = 0 exactly, where M = 0: eta = 0
        sys_ = zero_system()
        assert _backward_errors(sys_.E, sys_.A, sys_.D, 1.0, [0j]) == [0.0]
        report = dk.spectral_abscissa(sys_)
        assert report.alpha == 0.0
        assert [eta for lam, eta in report.rightmost_roots if lam == 0] == [0.0]
        verdict = dk.assess_exponential_stability(sys_, dk.build_split(sys_), report)
        assert verdict is StabilityVerdict.MARGINAL

    def test_invariant_under_common_scaling(self):
        # scaling E, A and D together leaves the roots where they are; a
        # search in the unscaled default box finds the same alpha and roots
        # (|det M| against max(1, ||M||)^n let 1e-4 E, A, D report alpha = 1.58)
        E, A, D = random_data(np.random.default_rng(16), 4, False)
        box = default_box(E, A, D, 1.0)
        plain = spectral_abscissa_matrices(E, A, D, 1.0, box=box)
        assert plain.alpha == pytest.approx(-0.8012, abs=1e-4)
        assert len(plain.rightmost_roots) == 22
        for c in (1e-4, 1e-2, 1e2, 1e4):
            scaled = spectral_abscissa_matrices(c * E, c * A, c * D, 1.0, box=box)
            assert scaled.alpha == pytest.approx(plain.alpha, abs=1e-12)
            assert len(scaled.rightmost_roots) == len(plain.rightmost_roots)
            for (lam, _), (ref, _) in zip(scaled.rightmost_roots, plain.rightmost_roots):
                assert abs(lam - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_roots_on_one_vertical_line_are_kept_once(self):
        # the neutral example's roots i pi (2k+1) all have Re lambda ~ 0,
        # so copies of one root interleave with others in (Re, Im) order;
        # 21 pi i was reported twice, with real parts 5.2e-17 and 1.9e-17
        report = dk.spectral_abscissa(example_neutral(), box=dk.SearchBox(-3.0, 3.0, 200.0))
        roots = [lam for lam, _ in report.rightmost_roots]
        assert len(roots) == 29
        for i, lam in enumerate(roots):
            for other in roots[i + 1:]:
                assert abs(lam - other) > stability.DEDUP_RADIUS * (1.0 + abs(lam))
        odd = [round(lam.imag / np.pi) for lam in roots]
        assert sorted(set(odd)) == sorted(odd) and all(k % 2 == 1 for k in odd)
        assert odd.count(21) == 1


class TestAssessment:
    def test_scalar_retarded_stable(self):
        sys_ = scalar_retarded_system()
        split = dk.build_split(sys_)
        report = dk.spectral_abscissa(sys_)
        before = copy.deepcopy(vars(report))
        verdict = dk.assess_exponential_stability(sys_, split, report)
        assert verdict is StabilityVerdict.STABLE
        # the report is final when the search returns
        assert vars(report) == before

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
        before = copy.deepcopy(vars(report))
        verdict = dk.assess_exponential_stability(sys_, split, report)
        assert verdict is StabilityVerdict.INCONCLUSIVE_DE_SMOOTHING
        assert vars(report) == before

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

    def test_gate_on_both_sides_of_the_rank_threshold(self):
        # ||N B_a|| = ||B_a|| = c against the threshold RANK_RTOL (1 + c):
        # c = 1e-11 is numerically zero, c = 1e-9 is not
        cases = [(1e-11, "smoothing", "retarded", StabilityVerdict.INCONCLUSIVE_BOX),
                 (1e-9, "de_smoothing", "advanced", StabilityVerdict.INCONCLUSIVE_DE_SMOOTHING)]
        for c, kind, legacy, verdict in cases:
            sys_ = dk.DdaeSystem(
                E=[[0.0, 1.0], [0.0, 0.0]], A=np.eye(2), D=[[0.0, 0.0], [c, 0.0]],
                tau=1.0, horizon_intervals=3,
                f=dk.PiecewisePolynomial.zero(2, 0.0, 3.0),
                phi=dk.PiecewisePolynomial.zero(2, -1.0, 0.0),
            )
            split = dk.build_split(sys_)
            report = dk.classify(split, 3)
            assert report.propagation.kind.value == kind
            assert report.legacy.kind.value == legacy
            # the gate alone decides here, so an empty search result will do
            found = StabilityReport(alpha=None, rightmost_roots=[],
                                    box=default_box(sys_.E, sys_.A, sys_.D, 1.0),
                                    grid=(2, 2), box_limited=False)
            before = copy.deepcopy(vars(found))
            assert dk.assess_exponential_stability(sys_, split, found) is verdict
            assert vars(found) == before

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, MARGIN])
    def test_box_limited_at_or_below_the_margin_is_inconclusive(self, alpha):
        # a root near the right edge may hide one further right, so an
        # alpha that is not above MARGIN concludes nothing
        sys_ = scalar_retarded_system()
        found = StabilityReport(alpha=alpha, rightmost_roots=[(complex(alpha), 0.0)],
                                box=default_box(sys_.E, sys_.A, sys_.D, 1.0),
                                grid=(2, 2), box_limited=True)
        verdict = dk.assess_exponential_stability(sys_, dk.build_split(sys_), found)
        assert verdict is StabilityVerdict.INCONCLUSIVE_BOX


class TestShiftedTwins:
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_shift_moves_every_root(self, complex_field):
        # (E, A - sE, e^{-s tau} D) has the characteristic function of
        # (E, A, D) at lambda + s, so searched in the box moved by -s it
        # has the same roots moved by -s, alpha - s for its abscissa, and
        # for s > alpha a stable verdict unless a root near the right
        # edge limits the box (then both searches say so)
        tau = 1.0
        for seed in range(40):
            for n in (1, 2, 4):
                rng = np.random.default_rng(seed)
                E, A, D = random_data(rng, n, complex_field)
                box = default_box(E, A, D, tau)
                found = spectral_abscissa_matrices(E, A, D, tau, box)
                assert found.alpha is not None
                s = found.alpha + 0.5 + rng.uniform(0.0, 1.0)
                twin = as_system(E, A - s * E, np.exp(-s * tau) * D, tau)
                moved = stability.SearchBox(box.re_min - s, box.re_max - s, box.im_max)
                shifted = dk.spectral_abscissa(twin, moved)
                assert len(shifted.rightmost_roots) == len(found.rightmost_roots)
                for lam, _ in found.rightmost_roots:
                    gap = min(abs(mu - (lam - s)) for mu, _ in shifted.rightmost_roots)
                    assert gap <= 1e-12 * (1.0 + abs(lam - s))
                assert shifted.alpha == pytest.approx(found.alpha - s, rel=1e-13, abs=1e-13)
                assert shifted.box_limited == found.box_limited
                verdict = dk.assess_exponential_stability(twin, dk.build_split(twin), shifted)
                expected = (StabilityVerdict.INCONCLUSIVE_BOX if shifted.box_limited
                            else StabilityVerdict.STABLE)
                assert verdict is expected
