import warnings

import numpy as np
import pytest

import ddae_kit as dk
from ddae_kit.piecewise import CHEBYSHEV, MONOMIAL, PiecewisePolynomial


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
        # the one-pass stack is bit-identical to evaluating each order
        # separately: both sides of interior knots, orders past the degree
        rng = np.random.default_rng(17)
        breaks = [-1.0, -0.3, 0.4, 1.7]
        pieces = []
        for a, b in zip(breaks, breaks[1:]):
            c = rng.standard_normal((int(rng.integers(1, 9)), 3))
            if field is complex:
                c = c + 1j * rng.standard_normal(c.shape)
            pieces.append((a, b, c))
        pp = PiecewisePolynomial(pieces, 3)
        if basis == "chebyshev":
            pp = pp.to_chebyshev()
        for t in [-1.0, -0.7, -0.3, 0.4, 1.1, 1.7]:
            for side in ("left", "right"):
                got = pp.derivatives(t, 10, side=side)
                ref = np.stack([pp.evaluate(t, order=j, side=side) for j in range(11)])
                assert got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes()

    def test_out_of_domain(self):
        pp = PiecewisePolynomial([(0.0, 1.0, np.array([[1.0]]))])
        with pytest.raises(dk.OutOfDomain):
            pp.evaluate(2.0)


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

    def test_mixed_bases_rejected(self):
        rng = np.random.default_rng(10)
        pp = random_pp(rng, 2, [0.0, 1.0])
        with pytest.raises(dk.DimensionMismatch):
            pp + pp.to_chebyshev()
        with pytest.raises(dk.DimensionMismatch):
            pp.to_chebyshev().stack(pp)
