"""The one agreement test shared by the splicing checks and the jump ledger.

`agreement_order` replaced two loops that answered the same question
("up to which order do two derivative stacks agree?") with different
tolerances: the ledger's endpoint comparison and the loop inside
`observed_kappa`.  Both loops are kept here verbatim as references, and
the helper must reach the same decision on every input, including rows
exactly on the tolerance boundary and one rounding step either side.
"""

import numpy as np
import pytest

import ddae_kit as dk
from ddae_kit.history import FLAG_TOL, agreement_order
from ddae_kit.pencil import row_norms as _row_norms
from ddae_kit.solver import JUMP_TOL, SegmentSolution

from gen import example_advanced


def order_of(left, right, top, tol, first=0):
    """agreement_order of one pair of stacks, as an int."""
    return int(agreement_order(left[None], right[None], top, tol, first)[0])


def reference_compare_endpoints(left, right, k_max, tol_jump, order0_matched=None):
    """The ledger's former endpoint comparison."""
    matched = -1
    for k in range(k_max + 1):
        if k == 0 and order0_matched is True:
            matched = 0
            continue
        l, r = left[k], right[k]
        scale = 1.0 + max(float(np.linalg.norm(l)), float(np.linalg.norm(r)))
        if np.linalg.norm(r - l) <= tol_jump * scale:
            matched = k
        else:
            break
    if matched == k_max:
        return matched, None, None, None
    jump = right[matched + 1] - left[matched + 1]
    return matched, matched + 1, jump, float(np.linalg.norm(jump))


def reference_kappa_loop(history, xs, cap):
    """The loop formerly inside observed_kappa."""
    kappa = -1
    for j in range(cap + 1):
        left = history[j]
        scale = 1.0 + max(float(np.linalg.norm(left)), float(np.linalg.norm(xs[j])))
        if np.linalg.norm(left - xs[j]) <= FLAG_TOL * scale:
            kappa = j
        else:
            break
    return kappa


def _agrees(l, r, tol):
    scale = 1.0 + max(float(np.linalg.norm(l)), float(np.linalg.norm(r)))
    return bool(np.linalg.norm(r - l) <= tol * scale)


def boundary_rows(l, direction, tol):
    """Two rows l + s d, one rounding step of s apart, on either side of
    the tolerance boundary."""
    lo, hi = 0.0, 4.0 * tol * (1.0 + float(np.linalg.norm(l)))
    assert _agrees(l, l + lo * direction, tol)
    assert not _agrees(l, l + hi * direction, tol)
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _agrees(l, l + mid * direction, tol):
            lo = mid
        else:
            hi = mid
    return l + lo * direction, l + hi * direction


def exact_boundary_rows(l, tol):
    """Rows (l', r) with ||r - l'|| equal to tol (1 + max row norm), bit
    for bit: l' is l with its first entry zeroed and r differs from l'
    only there, so the difference norm is exact and a fixed-point
    iteration on that entry lands on the boundary."""
    l = l.copy()
    l[0] = 0.0
    r = l.copy()
    for _ in range(60):
        scale = 1.0 + max(float(np.linalg.norm(l)), float(np.linalg.norm(r)))
        if np.linalg.norm(r - l) == tol * scale:
            return l, r
        r[0] = tol * scale
    raise AssertionError("no exact boundary row found")


def random_pair(rng, rows, width, tol, complex_field):
    """Two stacks whose rows agree, sit on the boundary or differ."""
    def draw(*shape):
        x = rng.standard_normal(shape)
        if complex_field:
            x = x + 1j * rng.standard_normal(shape)
        return x

    left = draw(rows, width) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
    right = left.copy()
    for k in range(rows):
        kind = rng.choice(["same", "tiny", "on", "inside", "outside", "far"],
                          p=[0.25, 0.15, 0.2, 0.15, 0.15, 0.1])
        direction = draw(width)
        direction /= np.linalg.norm(direction)
        if kind == "on":
            left[k], right[k] = exact_boundary_rows(left[k], tol)
        elif kind == "tiny":
            right[k] = left[k] + 1e-3 * tol * direction
        elif kind in ("inside", "outside"):
            inside, outside = boundary_rows(left[k], direction, tol)
            right[k] = inside if kind == "inside" else outside
        elif kind == "far":
            right[k] = left[k] + direction
    return left, right


def segment(index, start, end):
    return SegmentSolution(index=index, pieces=None, consistency_residual=0.0,
                           derivs_start=start, derivs_end=end)


class TestAgainstReferenceLoops:
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_ledger_decisions_match(self, complex_field):
        rng = np.random.default_rng(11 + complex_field)
        for _ in range(150):
            rows, width = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            left, right = random_pair(rng, rows, width, JUMP_TOL, complex_field)
            for top in range(rows):
                for order0 in (None, True):
                    ref = reference_compare_endpoints(left, right, top, JUMP_TOL, order0)
                    first = 1 if order0 else 0
                    assert order_of(left, right, top, JUMP_TOL, first) == ref[0]
                # the ledger compares from order 1: every restart it sees
                # has passed the consistency test
                ref = reference_compare_endpoints(left, right, top, JUMP_TOL, True)
                entry, = dk.detect_jumps(
                    [segment(0, left, left), segment(1, right, right)], k_max=top, tau=1.0)
                assert entry.matched_order == ref[0]
                assert entry.first_jump_order == ref[1]
                assert not entry.inconsistent_restart
                if ref[1] is None:
                    assert entry.jump_vector is None and entry.jump_norm is None
                else:
                    np.testing.assert_array_equal(entry.jump_vector, ref[2])
                    assert entry.jump_norm == ref[3]

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_kappa_decisions_match(self, complex_field):
        rng = np.random.default_rng(21 + complex_field)
        for _ in range(150):
            rows, width = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            history, xs = random_pair(rng, rows, width, FLAG_TOL, complex_field)
            for cap in range(rows):
                assert order_of(history, xs, cap, FLAG_TOL) == reference_kappa_loop(
                    history, xs, cap)

    @pytest.mark.parametrize("tol", [JUMP_TOL, FLAG_TOL])
    def test_row_exactly_on_the_boundary_agrees(self, tol):
        rng = np.random.default_rng(5)
        for complex_field in (False, True):
            l = rng.standard_normal(3) + (1j if complex_field else 0) * rng.standard_normal(3)
            left, right = (row[None] for row in exact_boundary_rows(l, tol))
            assert order_of(left, right, 0, tol) == 0
            assert reference_compare_endpoints(left, right, 0, tol)[0] == 0
            assert reference_kappa_loop(left, right, 0) == (0 if tol == FLAG_TOL else -1)

    def test_boundary_rows_straddle_both_tolerances(self):
        # the two tolerances are separate decisions: a row inside the
        # ledger's 1e-7 band can lie outside the splicing checks' 1e-8
        rng = np.random.default_rng(3)
        l = rng.standard_normal(3)
        d = np.ones(3) / np.sqrt(3.0)
        inside, outside = boundary_rows(l, d, JUMP_TOL)
        for r, agree in ((inside, 0), (outside, -1)):
            left, right = l[None], r[None]
            assert order_of(left, right, 0, JUMP_TOL) == agree
            assert reference_compare_endpoints(left, right, 0, JUMP_TOL)[0] == agree
        assert order_of(l[None], inside[None], 0, FLAG_TOL) == -1


class TestEdgeCases:
    def test_top_zero(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = a.copy()
        b[1] += 1.0
        assert order_of(a, b, 0, JUMP_TOL) == 0
        b[0] += 1.0
        assert order_of(a, b, 0, JUMP_TOL) == -1
        assert order_of(a, b, 0, JUMP_TOL, first=1) == 0

    def test_values_differ_gives_minus_one(self):
        a = np.zeros((4, 2))
        b = a.copy()
        b[0, 1] = 1.0
        assert order_of(a, b, 3, FLAG_TOL) == -1
        assert reference_kappa_loop(a, b, 3) == -1

    def test_full_agreement_gives_top(self):
        a = np.arange(12.0).reshape(4, 3)
        assert order_of(a, a.copy(), 3, FLAG_TOL) == 3
        assert order_of(a, a.copy(), 2, FLAG_TOL) == 2

    def test_nan_row_never_agrees(self):
        a = np.zeros((3, 1))
        b = a.copy()
        b[1, 0] = np.nan
        assert order_of(a, b, 2, JUMP_TOL) == 0
        assert reference_compare_endpoints(a, b, 2, JUMP_TOL)[0] == 0

    def test_overflowing_rows_past_a_difference_are_quiet(self):
        # every row is measured at once, so rows whose squares overflow
        # (and inf - inf) must raise no RuntimeWarning, which pytest turns
        # into an error
        a = np.array([[1.0, 0.0], [1e300, 1e300], [np.inf, 1.0]])
        b = a.copy()
        b[0, 0] = 2.0
        assert order_of(a, b, 2, JUMP_TOL) == -1
        assert reference_compare_endpoints(a, b, 2, JUMP_TOL)[0] == -1

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_row_norms_bit_identical_to_norm(self, complex_field):
        rng = np.random.default_rng(21)
        for n in [*range(1, 41), 64, 100]:
            rows = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-8, 8, size=(5, 1))
            if complex_field:
                rows = rows + 1j * rng.standard_normal((5, n))
            expected = [float(np.linalg.norm(row)) for row in rows]
            assert _row_norms(rows).tolist() == expected

    def test_restart_values_are_not_rejudged(self):
        # a restart already accepted by the consistency test is not
        # re-judged at order 0 by the ledger's tolerance
        left = np.array([[0.0], [1.0], [2.0]])
        right = np.array([[1.0], [1.0], [5.0]])
        entry, = dk.detect_jumps([segment(0, left, left), segment(1, right, right)],
                                 k_max=2, tau=1.0)
        assert (entry.matched_order, entry.first_jump_order) == (1, 2)
        assert entry.jump_vector[0] == 3.0
        assert not entry.inconsistent_restart


def ragged_chain(rng, knots, width, complex_field):
    """A chain of pseudo-segments 0..knots whose streams shrink and grow
    at random, so some knots hold fewer rows than k_max; the rows of each
    knot agree, sit on the boundary or differ as in random_pair, and
    some top rows are inf or nan."""
    chain = []
    for index in range(knots + 1):
        left, right = random_pair(rng, int(rng.integers(1, 7)), width, JUMP_TOL,
                                  complex_field)
        for stack in (left, right):
            if rng.random() < 0.25:
                stack[-1, 0] = rng.choice([np.inf, -np.inf, np.nan])
        # the knot before this segment compares the last end with right
        chain.append(segment(index, right, left))
    return chain


class TestStackedLedger:
    """agreement_order over a stack of pairs and detect_jumps over a
    chain give, knot by knot, what the former per-pair loops gave."""

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_stacked_orders_match_single_pairs(self, complex_field):
        rng = np.random.default_rng(31 + complex_field)
        for _ in range(60):
            pairs, rows, width = (int(x) for x in rng.integers(1, 7, size=3))
            stacks = [random_pair(rng, rows, width, JUMP_TOL, complex_field)
                      for _ in range(pairs)]
            left, right = (np.stack(s) for s in zip(*stacks))
            if rng.random() < 0.3:
                right[rng.integers(pairs), -1, 0] = np.inf
            tops = rng.integers(0, rows, size=pairs)
            for first in (0, 1):
                got = agreement_order(left, right, tops, JUMP_TOL, first)
                assert got.tolist() == [
                    order_of(l, r, int(t), JUMP_TOL, first)
                    for l, r, t in zip(left, right, tops)]
                assert got.tolist() == [
                    reference_compare_endpoints(l, r, int(t), JUMP_TOL,
                                                True if first else None)[0]
                    for l, r, t in zip(left, right, tops)]

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_chain_matches_reference_loop(self, complex_field):
        rng = np.random.default_rng(41 + complex_field)
        for _ in range(40):
            chain = ragged_chain(rng, int(rng.integers(1, 8)), int(rng.integers(1, 4)),
                                 complex_field)
            k_max = int(rng.integers(0, 6))
            entries = dk.detect_jumps(chain, k_max, tau=0.1)
            assert len(entries) == len(chain) - 1
            for entry, left, right in zip(entries, chain, chain[1:]):
                k_eff = min(k_max, len(left.derivs_end) - 1,
                            len(right.derivs_start) - 1)
                with np.errstate(over="ignore", invalid="ignore"):
                    ref = reference_compare_endpoints(
                        left.derivs_end, right.derivs_start, k_eff, JUMP_TOL, True)
                assert (entry.knot_index, entry.time) == (left.index, left.index * 0.1)
                assert entry.matched_order == ref[0]
                assert entry.first_jump_order == ref[1]
                assert not entry.inconsistent_restart
                if ref[1] is None:
                    assert entry.jump_vector is None and entry.jump_norm is None
                else:
                    np.testing.assert_array_equal(entry.jump_vector, ref[2])
                    np.testing.assert_array_equal(entry.jump_norm, ref[3])

    def test_one_segment_chain_has_no_knot(self):
        only = segment(0, np.zeros((3, 2)), np.zeros((3, 2)))
        assert dk.detect_jumps([only], 2, tau=1.0) == []

    def test_breakdown_entry_stays_last(self):
        # the advanced example breaks down before its horizon: the ledger
        # lists the knots of the solved segments in order, then the
        # breakdown at the knot the sweep stopped on
        traj, ledger = dk.method_of_steps(example_advanced(horizon=4))
        solved = len(traj.segments)
        assert 1 <= solved < 4
        assert [e.knot_index for e in ledger.entries] == list(range(solved + 1))
        assert [e.inconsistent_restart for e in ledger.entries] == [False] * solved + [True]
        last = ledger.entries[-1]
        assert (last.matched_order, last.first_jump_order) == (-1, 0)
        assert last.jump_norm == float(np.linalg.norm(last.jump_vector))
