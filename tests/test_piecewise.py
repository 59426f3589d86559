import warnings

import numpy as np
import pytest

import ddae_kit as dk
from ddae_kit import piecewise
from ddae_kit.piecewise import (
    CHEBYSHEV,
    DOMAIN_RTOL,
    MONOMIAL,
    PiecewisePolynomial,
    _shift_coeffs,
)

from gen import (
    restrict_per_piece,
    segment_window,
    shift_per_row,
    split_at_per_piece,
    value_per_order,
)


def random_pp(rng, n, breaks, max_deg=5):
    pieces = []
    for a, b in zip(breaks, breaks[1:]):
        deg = int(rng.integers(0, max_deg + 1))
        pieces.append((a, b, rng.standard_normal((deg + 1, n))))
    return PiecewisePolynomial(pieces, n)


class TestEvaluation:
    def test_linear_derivative(self):
        pp = PiecewisePolynomial([(-1.0, 0.0, np.array([[-1.0], [1.0]]))])
        assert pp.evaluate(-0.5, order=1) == pytest.approx(1.0)

    def test_cubic_history_values(self):
        # second component (1/3) t^3 + t^2 - 1 in local coordinates u = t + 1
        coeffs = np.array([[-1.0 / 3.0], [-1.0], [0.0], [1.0 / 3.0]])
        pp = PiecewisePolynomial([(-1.0, 0.0, coeffs)])
        assert pp.evaluate(0.0, side="left")[0] == pytest.approx(-1.0)
        assert pp.evaluate(0.0, order=1, side="left")[0] == pytest.approx(0.0)

    def test_order_above_degree_is_zero(self):
        pp = PiecewisePolynomial([(0.0, 1.0, np.array([[2.0], [3.0]]))])
        assert np.all(pp.evaluate(0.5, order=2) == 0.0)
        assert np.all(pp.evaluate(0.5, order=7) == 0.0)

    def test_one_sided_evaluation_at_knot(self):
        pp = PiecewisePolynomial(
            [(0.0, 1.0, np.array([[0.0], [1.0]])), (1.0, 2.0, np.array([[5.0]]))]
        )
        assert pp.evaluate(1.0, side="left")[0] == pytest.approx(1.0)
        assert pp.evaluate(1.0, side="right")[0] == pytest.approx(5.0)
        assert pp.evaluate(1.0)[0] == pytest.approx(5.0)

    @pytest.mark.parametrize("basis", ["monomial", "chebyshev"])
    @pytest.mark.parametrize("field", [float, complex])
    def test_derivatives_match_per_order_evaluation(self, basis, field):
        # the one-pass stack is bit-identical to numpy's per-order kernels
        # (polyder + polyval, chebder + chebval), and evaluate reads its
        # rows: both sides of interior knots, orders past the degree;
        # the second function has degrees up to 20 and signed zeros, and is
        # also sampled just across each knot, where t - a is a tiny
        # negative number or lies a hair past the piece end; an array of
        # those times gives each time's stack, with the same bytes
        rng = np.random.default_rng(17)
        breaks = [-1.0, -0.3, 0.4, 1.7]
        for sizes in (None, (21, 1, 14)):
            pieces = []
            for k, (a, b) in enumerate(zip(breaks, breaks[1:])):
                m = int(rng.integers(1, 9)) if sizes is None else sizes[k]
                c = rng.standard_normal((m, 3))
                if field is complex:
                    c = c + 1j * rng.standard_normal(c.shape)
                if sizes is not None:  # signed zeros, in both parts if complex
                    zero = complex(-0.0, -0.0) if field is complex else -0.0
                    c[1::4] = zero
                    c[:, 2] = zero
                    c[-1, 2] = complex(-1.0, -0.0) if field is complex else -1.0
                    if field is complex:
                        c[3::4, :2] = np.conj(c[3::4, :2].real + 0j)
                pieces.append((a, b, c))
            pp = PiecewisePolynomial(pieces, 3)
            if basis == "chebyshev":
                pp = pp.to_chebyshev()
            times = [-1.0, -0.7, -0.3, 0.4, 1.1, 1.7]
            if sizes is not None:
                times += [-0.3 - 1e-12, -0.3 + 1e-12, 0.4 - 1e-12, 0.4 + 1e-12]
            for t in times:
                for side in ("left", "right"):
                    for orders in (10, 25):
                        got = pp.derivatives(t, orders, side=side)
                        ref = np.stack([value_per_order(pp, t, j, side=side)
                                        for j in range(orders + 1)])
                        assert got.dtype == ref.dtype
                        assert got.tobytes() == ref.tobytes()
                        for j in (0, 1, orders):
                            row = pp.evaluate(t, order=j, side=side)
                            assert row.tobytes() == ref[j].tobytes()
            for side in ("left", "right"):
                for orders in (10, 25):
                    many = pp.derivatives(np.array(times), orders, side=side)
                    ref = np.stack([pp.derivatives(t, orders, side=side) for t in times])
                    assert many.dtype == ref.dtype
                    assert many.tobytes() == ref.tobytes()

    def test_out_of_domain(self):
        pp = PiecewisePolynomial([(0.0, 1.0, np.array([[1.0]]))])
        with pytest.raises(dk.OutOfDomain):
            pp.evaluate(2.0)

    @pytest.mark.parametrize("side", ["Left", "up", "", None])
    def test_unknown_side_is_rejected(self, side):
        pp = PiecewisePolynomial([(0.0, 1.0, np.array([[1.0]])), (1.0, 2.0, np.array([[2.0]]))])
        for call in (lambda: pp.evaluate(0.5, side=side),
                     lambda: pp.derivatives(np.array([0.5, 1.5]), 1, side=side)):
            with pytest.raises(dk.DimensionMismatch, match=repr(side)):
                call()

    def test_negative_order_is_rejected(self):
        # derivative and derivatives share one check, in both bases
        mono = PiecewisePolynomial([(0.0, 1.0, np.array([[1.0], [2.0]]))])
        for pp in (mono, mono.to_chebyshev()):
            for call in (lambda: pp.evaluate(0.5, order=-1),
                         lambda: pp.derivatives(0.5, -1),
                         lambda: pp.derivatives(np.array([0.25, 0.5]), -2),
                         lambda: pp.derivative(-1)):
                with pytest.raises(dk.DimensionMismatch, match="non-negative, not -"):
                    call()

    @pytest.mark.parametrize("breaks", [[0.0, 1.0], [-1.0, -0.3, 0.4, 1.7],
                                        [0.0, 0.1, 0.2, 0.30000000000000004, 2.5]])
    def test_locate_matches_per_time_rule(self, breaks):
        # searchsorted (arrays) and bisect (floats) on the piece ends
        # against the per-time rule they replaced: the first piece with
        # t < b - tol (t <= b + tol on the left), else the last; at every
        # knot, at knot +- tol and one rounding step either side of those,
        # and at NaN
        pp = random_pp(np.random.default_rng(3), 2, breaks)
        tol = pp._tol()

        def per_time(t, side):
            for k, (_, b, _) in enumerate(pp.pieces):
                if (t <= b + tol) if side == "left" else (t < b - tol):
                    return k
            return len(pp.pieces) - 1

        times = [np.nan]
        for b in breaks:
            for edge in (b - tol, b, b + tol):
                times += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
        times = [t for t in times if breaks[0] - tol <= t <= breaks[-1] + tol or t != t]
        for side in ("left", "right"):
            want = [per_time(t, side) for t in times]
            assert [int(pp._locate(t, side=side)) for t in times] == want
            assert [pp._locate(float(t), side=side) for t in times] == want
            assert pp._locate(np.array(times), side=side).tolist() == want
        beyond = np.nextafter(breaks[-1] + tol, np.inf)
        messages = set()
        for t in (beyond, float(beyond), np.array([breaks[0], beyond])):
            with pytest.raises(dk.OutOfDomain) as info:
                pp._locate(t)
            messages.add(str(info.value))
        assert len(messages) == 1


class TestCalculus:
    """Domain operations in the monomial basis; the subclass reruns them
    in the Chebyshev basis."""

    basis = MONOMIAL

    def make(self, pp):
        return pp.to_chebyshev() if self.basis is CHEBYSHEV else pp

    def test_differentiate_evaluate_commutes(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pp = self.make(random_pp(rng, 3, [0.0, 0.7, 1.5]))
            t = rng.uniform(0.0, 1.5)
            for order in range(4):
                via_method = pp.evaluate(t, order=order)
                via_derivative = pp.derivative(order).evaluate(t)
                assert np.allclose(via_method, via_derivative, atol=1e-12)

    def test_shift_and_restrict(self):
        rng = np.random.default_rng(5)
        pp = self.make(random_pp(rng, 2, [0.0, 1.0, 2.0]))
        shifted = pp.shift(-1.0)
        assert shifted.start == pytest.approx(-1.0)
        assert np.allclose(shifted.evaluate(0.3), pp.evaluate(1.3), atol=1e-12)
        window = pp.restrict(0.5, 1.5)
        for t in [0.5, 0.9, 1.2, 1.5]:
            side = "left" if t == 1.5 else "right"
            assert np.allclose(
                window.evaluate(t, side=side), pp.evaluate(t, side=side), atol=1e-12
            )

    def test_addition_merges_breakpoints(self):
        rng = np.random.default_rng(6)
        p1 = self.make(random_pp(rng, 2, [0.0, 1.0, 2.0]))
        p2 = self.make(random_pp(rng, 2, [0.0, 0.5, 2.0]))
        s = p1 + p2
        for t in [0.1, 0.5, 0.75, 1.0, 1.7]:
            assert np.allclose(
                s.evaluate(t), p1.evaluate(t) + p2.evaluate(t), atol=1e-12
            )

    def test_apply_matrix_and_stack(self):
        rng = np.random.default_rng(7)
        pp = self.make(random_pp(rng, 3, [0.0, 1.0]))
        M = rng.standard_normal((2, 3))
        assert np.allclose(
            pp.apply_matrix(M).evaluate(0.4), M @ pp.evaluate(0.4), atol=1e-12
        )
        other = self.make(random_pp(rng, 1, [0.0, 0.6, 1.0]))
        stacked = pp.stack(other)
        assert stacked.n == 4
        assert np.allclose(stacked.evaluate(0.8)[:3], pp.evaluate(0.8), atol=1e-12)
        assert np.allclose(stacked.evaluate(0.8)[3:], other.evaluate(0.8), atol=1e-12)

    def test_sup_bound_matches_per_piece_sums(self):
        # one sum over the padded stack gives each piece's own bound: the
        # padded rows of a short wide monomial piece are not weighed by
        # (b - a)^k, which would overflow and give 0 * inf; a NaN
        # coefficient gives a NaN bound
        rng = np.random.default_rng(8)
        pp = self.make(PiecewisePolynomial([(-1e30, 0.0, rng.standard_normal((2, 2))),
                                            (0.0, 1.0, rng.standard_normal((20, 2)))]))
        want = 0.0
        for a, b, c in pp.pieces:
            k = np.arange(len(c))[:, None] if self.basis is MONOMIAL else 0
            want = max(want, float(np.max(np.sum(np.abs(c) * (b - a) ** k, axis=0))))
        assert np.isfinite(want) and pp.sup_bound() == pytest.approx(want, rel=1e-15)
        nan = PiecewisePolynomial([(0.0, 1.0, [[np.nan], [1.0]]), (1.0, 2.0, [[0.5]])])
        assert np.isnan(self.make(nan).sup_bound())

    def test_contiguity_enforced(self):
        with pytest.raises(dk.DimensionMismatch):
            PiecewisePolynomial(
                [(0.0, 1.0, np.array([[1.0]])), (1.5, 2.0, np.array([[1.0]]))],
                basis=self.basis,
            )

    def test_degree_cap(self):
        with pytest.raises(dk.DimensionMismatch):
            PiecewisePolynomial([(0.0, 1.0, np.zeros((70, 1)))])
        with pytest.warns(UserWarning):
            PiecewisePolynomial([(0.0, 1.0, np.zeros((30, 1)))])


class TestCalculusChebyshev(TestCalculus):
    basis = CHEBYSHEV

    def test_degree_cap(self):
        # the cap guards monomial conditioning; Chebyshev pieces have none
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pp = PiecewisePolynomial([(0.0, 1.0, np.zeros((70, 1)))], basis=CHEBYSHEV)
        assert pp.max_degree == 69

    def test_conversion_matches_monomial(self):
        rng = np.random.default_rng(9)
        pp = random_pp(rng, 2, [0.0, 0.7, 1.5], max_deg=6)
        cp = pp.to_chebyshev()
        assert cp.basis is CHEBYSHEV and cp.breakpoints == pp.breakpoints
        for t in [0.0, 0.3, 0.7, 1.1, 1.5]:
            for side in ("left", "right"):
                for order in range(4):
                    want = pp.evaluate(t, order=order, side=side)
                    got = cp.evaluate(t, order=order, side=side)
                    scale = 1.0 + np.linalg.norm(want)
                    assert np.linalg.norm(got - want) <= 1e-12 * scale

    def test_tiny_data_keep_their_shape(self):
        # the trim is relative to each piece's own size: data scaled by
        # 1e-20 convert and restrict to coefficients of the same lengths
        rng = np.random.default_rng(12)
        pp = random_pp(rng, 2, [0.0, 0.7, 1.5], max_deg=6)
        unit, tiny = pp.to_chebyshev(), (1e-20 * pp).to_chebyshev()
        for got, ref in ((tiny, unit), (tiny.restrict(0.2, 1.1), unit.restrict(0.2, 1.1))):
            for (_, _, c), (_, _, r) in zip(got.pieces, ref.pieces):
                assert c.shape == r.shape
                assert np.max(np.abs(c - 1e-20 * r)) <= 1e-12 * 1e-20 * np.max(np.abs(r))

    def test_split_sum_trims_each_block_on_its_own_scale(self):
        # the head's last row is negligible next to the tail's scale only,
        # so one trim of the whole sum would drop it
        rng = np.random.default_rng(11)
        c1 = np.zeros((4, 3))
        c1[:3, :2] = rng.standard_normal((3, 2))
        c1[3, 0] = 1e-11
        c2 = np.zeros((1, 3))
        c2[0, 2] = 1e4
        p1 = PiecewisePolynomial([(0.0, 1.0, c1), (1.0, 2.0, c1)], basis=CHEBYSHEV)
        p2 = PiecewisePolynomial([(0.0, 0.5, c2), (0.5, 2.0, -c2)], basis=CHEBYSHEV)
        head, tail = p1.split_sum(p2, 2)
        s = p1 + p2
        assert head.breakpoints == tail.breakpoints == s.breakpoints == [0.0, 0.5, 1.0, 2.0]
        assert [p.coef.shape for p in head.pieces] == [(4, 2)] * 3
        assert [p.coef.shape for p in s.pieces] == [(3, 3)] * 3
        assert [p.coef.shape for p in tail.pieces] == [(1, 1)] * 3
        for t in [0.1, 0.5, 0.75, 1.0, 1.7]:
            want = p1.evaluate(t) + p2.evaluate(t)
            assert np.allclose(head.evaluate(t), want[:2], atol=1e-12)
            assert np.allclose(tail.evaluate(t), want[2:], atol=1e-12)

    def test_mixed_bases_rejected(self):
        rng = np.random.default_rng(10)
        pp = random_pp(rng, 2, [0.0, 1.0])
        with pytest.raises(dk.DimensionMismatch):
            pp + pp.to_chebyshev()
        with pytest.raises(dk.DimensionMismatch):
            pp.to_chebyshev().stack(pp)


def assert_same_pieces(got, ref):
    assert len(got) == len(ref)
    for (a, b, c), (ra, rb, rc) in zip(got, ref):
        assert (a, b, c.dtype, c.shape) == (ra, rb, rc.dtype, rc.shape)
        assert c.tobytes() == rc.tobytes()


class TestWindows:
    """All segment windows from one stacked conversion, bit for bit the
    per-window restriction, shift and per-piece conversion."""

    @pytest.mark.parametrize("tau", [0.1, 0.3, 1.0, 1e-3, 7.7])
    @pytest.mark.parametrize("field", [float, complex])
    @pytest.mark.parametrize("basis", [MONOMIAL, CHEBYSHEV], ids=["monomial", "chebyshev"])
    def test_matches_per_window_conversion(self, tau, field, basis):
        rng = np.random.default_rng(int(tau * 1000) + (field is complex))
        for _ in range(8):
            M, n = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            # breakpoints inside segments, near knots and exactly at some
            inner = {float(x) for x in rng.uniform(0, M * tau, int(rng.integers(0, 6)))}
            inner |= {k * tau for k in rng.integers(1, M + 1, size=2)}
            cuts = sorted({0.0, M * tau} | {x for x in inner if 0 < x < M * tau})
            pieces = []
            for a, b in zip(cuts, cuts[1:]):
                c = rng.standard_normal((int(rng.integers(1, 7)), n))
                c[rng.random(c.shape) < 0.2] = 0.0
                if field is complex:
                    c = c + 1j * rng.standard_normal(c.shape) * (rng.random() < 0.8)
                pieces.append((a, b, c))
            pp = PiecewisePolynomial(pieces, n)
            if basis is CHEBYSHEV:
                pp = pp.to_chebyshev()
            knots = np.arange(M + 1) * tau
            windows = pp.windows(knots[:-1], knots[1:])
            assert len(windows) == M
            for i, window in enumerate(windows, start=1):
                assert window.basis is CHEBYSHEV
                assert_same_pieces(window.pieces, segment_window(pp, i, tau))

    def test_rounded_knots_and_straddling_pieces(self):
        # tau = 0.1: 3 tau - 2 tau != tau, so the windows differ in width
        # by rounding; every piece of f straddles a knot
        tau = 0.1
        assert 3 * tau - 2 * tau != tau
        cuts = [0.0, 0.05, 0.23, 0.37, 0.45, 0.6]
        rng = np.random.default_rng(4)
        pp = PiecewisePolynomial([(a, b, rng.standard_normal((3, 2)))
                                  for a, b in zip(cuts, cuts[1:])])
        knots = np.arange(7) * tau
        for i, window in enumerate(pp.windows(knots[:-1], knots[1:]), start=1):
            assert_same_pieces(window.pieces, segment_window(pp, i, tau))
            assert window.start == 0.0
            assert window.end == min(i * tau, cuts[-1]) - (i - 1) * tau

    def test_window_outside_domain_rejected(self):
        pp = PiecewisePolynomial([(0.0, 1.0, np.ones((2, 1)))])
        with pytest.raises(dk.OutOfDomain):
            pp.windows([0.5], [1.5])

    @pytest.mark.parametrize("field", [float, complex])
    def test_stacked_shift_matches_row_updates(self, field):
        rng = np.random.default_rng(9)
        c = rng.standard_normal((6, 5, 2))
        if field is complex:
            c = c + 1j * rng.standard_normal(c.shape)
        deltas = np.array([0.0, 0.3, -1.7, 1e-9, 0.0, 2.5])
        got = _shift_coeffs(c, deltas)
        for k in range(len(c)):
            assert got[k].tobytes() == shift_per_row(c[k], deltas[k]).tobytes()
            assert _shift_coeffs(c[k : k + 1], deltas[k : k + 1])[0].tobytes() == got[k].tobytes()


def mixed_pp(rng, basis, field, start=-0.4, end=2.1):
    """1-6 pieces of lengths 1-4 (so that lengths repeat), some zero
    coefficients, real or complex, in the given basis."""
    count = int(rng.integers(1, 7))
    breaks = [start] + sorted(rng.uniform(start, end, count - 1).tolist()) + [end]
    pieces = []
    for a, b in zip(breaks, breaks[1:]):
        c = rng.standard_normal((int(rng.integers(1, 5)), 2))
        c[rng.random(c.shape) < 0.2] = 0.0
        if field is complex:
            c = c + 1j * rng.standard_normal(c.shape)
        pieces.append((a, b, c))
    pp = PiecewisePolynomial(pieces, 2)
    return pp.to_chebyshev() if basis is CHEBYSHEV else pp


class TestCut:
    """restrict, split_at and windows cut through _overlaps and _cut: one
    stacked Taylor shift per group of monomial pieces, one interpolation
    pass over Chebyshev ones, bit for bit each piece cut alone."""

    @pytest.mark.parametrize("field", [float, complex])
    @pytest.mark.parametrize("basis", [MONOMIAL, CHEBYSHEV], ids=["monomial", "chebyshev"])
    def test_restrict_matches_per_piece_cut(self, basis, field):
        rng = np.random.default_rng(25 + (field is complex) + 2 * (basis is CHEBYSHEV))
        for _ in range(20):
            pp = mixed_pp(rng, basis, field)
            ends = pp.breakpoints
            tol = DOMAIN_RTOL * (pp.end - pp.start)
            # random windows, whole pieces, and ends within the tolerance
            # of a piece end
            a, b = sorted(rng.uniform(pp.start, pp.end, 2))
            windows = [(a, max(b, a + 0.1)), (pp.start, pp.end), (ends[0], ends[1]),
                       (ends[-2] + 0.5 * tol, pp.end + 0.5 * tol),
                       (pp.start - 0.5 * tol, ends[1] - 0.5 * tol)]
            for lo, hi in windows:
                if hi > pp.end + tol:
                    continue
                got = pp.restrict(lo, hi)
                assert got.basis is basis
                assert_same_pieces(got.pieces, restrict_per_piece(pp, lo, hi))

    @pytest.mark.parametrize("field", [float, complex])
    @pytest.mark.parametrize("basis", [MONOMIAL, CHEBYSHEV], ids=["monomial", "chebyshev"])
    def test_split_at_matches_per_piece_cut(self, basis, field):
        rng = np.random.default_rng(35 + (field is complex) + 2 * (basis is CHEBYSHEV))
        for _ in range(20):
            pp = mixed_pp(rng, basis, field)
            tol = DOMAIN_RTOL * (pp.end - pp.start)
            inner = rng.uniform(pp.start, pp.end, int(rng.integers(0, 5))).tolist()
            # repeated points, the breakpoints themselves and points
            # within the tolerance of a piece end cut nothing more
            near = [t + s * 0.5 * tol for t in pp.breakpoints for s in (-1, 1)]
            points = inner + inner[:2] + pp.breakpoints + near
            got = pp.split_at(points)
            assert_same_pieces(got.pieces, split_at_per_piece(pp, points))
            # an uncut piece keeps its coefficients
            whole = {(a, b): c for a, b, c in pp.pieces}
            for a, b, c in got.pieces:
                if (a, b) in whole:
                    w = whole[a, b]
                    assert (c.dtype, c.shape, c.tobytes()) == (w.dtype, w.shape, w.tobytes())
            assert pp.split_at(pp.breakpoints + near) is pp

    @pytest.mark.parametrize("basis", [MONOMIAL, CHEBYSHEV], ids=["monomial", "chebyshev"])
    def test_empty_windows_rejected(self, basis):
        pp = PiecewisePolynomial([(0.0, 1.0, np.ones((2, 1)))])
        pp = pp.to_chebyshev() if basis is CHEBYSHEV else pp
        for lo, hi in ((0.5, 0.5), (0.7, 0.2), (0.5, 0.5 + 1e-12)):
            with pytest.raises(dk.OutOfDomain, match="holds no piece"):
                pp.restrict(lo, hi)
        with pytest.raises(dk.OutOfDomain, match="holds no piece"):
            pp.windows([0.0, 0.5], [0.5, 0.5])
        with pytest.raises(dk.OutOfDomain, match=r"window \[0.5, 1.5\] not contained in domain"):
            pp.restrict(0.5, 1.5)
        # a split that cuts no piece returns the function without a _cut
        assert pp.split_at([]) is pp and pp.split_at([0.0, 1.0]) is pp

    @pytest.mark.parametrize("basis", [MONOMIAL, CHEBYSHEV], ids=["monomial", "chebyshev"])
    def test_split_at_bisect_matches_the_scan(self, basis):
        # split_at finds each piece's cuts by bisect in the sorted points;
        # the old scan tested every point against every piece.  Points at,
        # inside and just outside the tolerance of each piece end,
        # unsorted and repeated, cut the same pieces at the same points
        rng = np.random.default_rng(47)
        cuts = np.sort(rng.uniform(0.0, 3.0, 63))
        pp = PiecewisePolynomial([(a, b, rng.standard_normal((3, 2))) for a, b in
                                  zip([0.0, *cuts], [*cuts, 3.0])])
        pp = pp.to_chebyshev() if basis is CHEBYSHEV else pp
        tol = DOMAIN_RTOL * (pp.end - pp.start)
        near = [t + s * f * tol for t in pp.breakpoints for s in (-1, 1) for f in (0.5, 1.0, 1.5)]
        points = near + rng.uniform(0.0, 3.0, 40).tolist()
        points += points[::7]
        rng.shuffle(points)
        got = pp.split_at(points)
        scan = [pp.start]
        for pa, pb, _ in pp.pieces:
            scan += sorted(t for t in points if pa + tol < t < pb - tol) + [pb]
        assert got.breakpoints == scan
        assert_same_pieces(got.pieces, split_at_per_piece(pp, points))

    def test_aligning_many_cut_pieces_samples_once(self, monkeypatch):
        # a 1-piece Chebyshev function aligned with a 20-piece one is cut
        # into 20 parts by one cgl_samples pass
        rng = np.random.default_rng(19)
        many = PiecewisePolynomial([(k / 20, (k + 1) / 20, rng.standard_normal((4, 2)))
                                    for k in range(20)]).to_chebyshev()
        one = PiecewisePolynomial([(0.0, 1.0, rng.standard_normal((6, 2)))]).to_chebyshev()
        calls = []
        sample = piecewise.cgl_samples
        monkeypatch.setattr(piecewise, "cgl_samples",
                            lambda *args, **kw: calls.append(args) or sample(*args, **kw))
        left, right = one.aligned_with(many)
        assert len(calls) == 1
        assert right is many and len(left.pieces) == 20
        monkeypatch.undo()
        assert_same_pieces(left.pieces, split_at_per_piece(one, many.breakpoints))


def assert_one_store(pp):
    """The stack is as long as its longest piece, and each piece is the
    head of its row of the stack, bit for bit."""
    a, b, coefs, lengths = pp._stack
    assert coefs.shape[1] == lengths.max()
    assert len(pp.pieces) == len(a) == len(b) == len(coefs) == len(lengths)
    for k, (pa, pb, c) in enumerate(pp.pieces):
        assert (pa, pb) == (a[k], b[k])
        ref = coefs[k, : lengths[k]]
        assert (c.dtype, c.shape, c.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())


class TestOneStore:
    """Every function holds one coefficient stack; pieces is a view of it."""

    @pytest.mark.parametrize("field", [float, complex])
    @pytest.mark.parametrize("basis", [MONOMIAL, CHEBYSHEV], ids=["monomial", "chebyshev"])
    def test_results_hold_a_consistent_stack(self, basis, field):
        rng = np.random.default_rng(53 + (field is complex) + 2 * (basis is CHEBYSHEV))
        for _ in range(10):
            pp = mixed_pp(rng, basis, field)
            other = mixed_pp(rng, basis, field)
            results = [pp.shift(0.3), pp * 2.5, (-1.0) * pp, pp.components([1]),
                       pp.stack(other.components([0])),
                       pp.split_at(rng.uniform(pp.start, pp.end, 3).tolist()),
                       *pp.windows([-0.4, 0.5], [0.5, 2.1]), pp.to_chebyshev()]
            for result in [pp] + results:
                assert_one_store(result)

    def test_validated_stack_is_read_only(self):
        rng = np.random.default_rng(59)
        c = rng.standard_normal((3, 2))
        for pp in (PiecewisePolynomial([(0.0, 1.0, c)]), mixed_pp(rng, MONOMIAL, float)):
            assert not any(x.flags.writeable for x in pp._stack)
            assert not any(c.flags.writeable for _, _, c in pp.pieces)
        # one piece: the stack views the validated copy, not the caller's array
        one = PiecewisePolynomial([(0.0, 1.0, c)])
        assert one._stack[2].base.shape == c.shape
        assert not np.shares_memory(one._stack[2], c)

    def test_mixed_fields_are_held_as_complex(self):
        pp = PiecewisePolynomial([(0.0, 1.0, [[1.0], [2.0]]), (1.0, 2.0, [[1j]])])
        assert pp.is_complex and pp._stack[2].dtype == complex
        assert all(c.dtype == complex for _, _, c in pp.pieces)
        assert pp.evaluate(0.5) == pytest.approx([2.0])
        assert pp.evaluate(1.5) == pytest.approx([1j])
