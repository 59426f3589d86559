import numpy as np
import pytest

import ddae_kit as dk
from ddae_kit import model, pencil
from ddae_kit.classify import LegacyKind, PropagationKind
from ddae_kit.stability import StabilityReport, default_box

from gen import (
    coupling_norms_per_loop,
    example_advanced,
    example_backward_desmoothing,
    example_neutral,
    example_slow_smoothing,
    random_regular_pencil,
    random_smoothing_blocks,
    random_system_from_blocks,
)


def random_classifiable(rng, n):
    """Random regular (E, A) with a random delay matrix."""
    E, A, truth = random_regular_pencil(rng, n)
    D = rng.standard_normal((n, n))
    # thin D out sometimes to hit the retarded / neutral branches
    style = rng.integers(0, 4)
    if style == 0:
        D = np.zeros((n, n))
    elif style == 1:
        D = 0.1 * D
    split = dk.split_matrices(dk.compute_qwf(dk.MatrixPencil(E, A)), E, A, D)
    return split


class TestPropagation:
    def test_neutral_example_is_invariant(self):
        split = dk.build_split(example_neutral())
        prop = dk.classify_propagation(split, 4)
        assert prop.kind is PropagationKind.DISCONTINUITY_INVARIANT
        assert prop.nu_D is None
        assert prop.first_violating_k is None

    def test_advanced_example_de_smooths(self):
        split = dk.build_split(example_advanced())
        prop = dk.classify_propagation(split, 4)
        assert prop.kind is PropagationKind.DE_SMOOTHING
        assert prop.first_violating_k == 1

    def test_slow_smoothing_example(self):
        split = dk.build_split(example_slow_smoothing())
        prop = dk.classify_propagation(split, 5)
        assert prop.kind is PropagationKind.SMOOTHING
        assert prop.nu_D == 1

    def test_backward_example_de_smooths(self):
        split = dk.build_split(example_backward_desmoothing())
        assert (
            dk.classify_propagation(split, 3).kind is PropagationKind.DE_SMOOTHING
        )

    def test_index_zero_always_smooths(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            E, A, _ = random_regular_pencil(rng, n, n_d=n)
            D = rng.standard_normal((n, n))
            qwf = dk.compute_qwf(dk.MatrixPencil(E, A))
            split = dk.split_matrices(qwf, E, A, D)
            prop = dk.classify_propagation(split, 1)
            assert prop.kind is PropagationKind.SMOOTHING
            assert prop.nu_D == 0

    def test_horizon_gate(self):
        split = dk.build_split(example_slow_smoothing())
        short = dk.classify_propagation(split, 1)
        assert short.kind is PropagationKind.DISCONTINUITY_INVARIANT
        assert short.horizon_dependent_note
        assert short.nu_D == 1

    def test_monotone_in_horizon(self):
        split = dk.build_split(example_slow_smoothing())
        reached = False
        for M in range(1, 6):
            kind = dk.classify_propagation(split, M).kind
            if reached:
                assert kind is PropagationKind.SMOOTHING
            if kind is PropagationKind.SMOOTHING:
                reached = True
        assert reached


class TestLegacy:
    def test_zero_delay_is_retarded(self):
        rng = np.random.default_rng(1)
        E, A, _ = random_regular_pencil(rng, 3)
        split = dk.split_matrices(
            dk.compute_qwf(dk.MatrixPencil(E, A)), E, A, np.zeros((3, 3))
        )
        assert dk.classify_legacy(split).kind is LegacyKind.RETARDED

    def test_neutral_example(self):
        split = dk.build_split(example_neutral())
        assert dk.classify_legacy(split).kind is LegacyKind.NEUTRAL

    def test_advanced_example(self):
        split = dk.build_split(example_advanced())
        assert dk.classify_legacy(split).kind is LegacyKind.ADVANCED


class TestCrossCheck:
    @pytest.mark.parametrize(
        "factory,M",
        [(example_neutral, 4), (example_advanced, 4), (example_slow_smoothing, 5)],
    )
    def test_examples_consistent(self, factory, M):
        split = dk.build_split(factory())
        report = dk.classify(split, M)
        assert report.consistency_flag

    def test_equivalence_on_random_systems(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            split = random_classifiable(rng, n)
            report = dk.classify(split, 4)
            assert report.consistency_flag
            advanced = report.legacy.kind is LegacyKind.ADVANCED
            desmooth = report.propagation.kind is PropagationKind.DE_SMOOTHING
            assert advanced == desmooth

    def test_similarity_invariance(self):
        rng = np.random.default_rng(3)
        from gen import well_conditioned

        for _ in range(20):
            n = int(rng.integers(2, 6))
            split = random_classifiable(rng, n)
            E, A, D = split.E, split.A, split.D
            base = dk.classify_matrices(E, A, D, 4)
            P = well_conditioned(rng, n)
            Q = well_conditioned(rng, n)
            right = dk.classify_matrices(E @ P, A @ P, D @ P, 4)
            left = dk.classify_matrices(Q @ E, Q @ A, Q @ D, 4)
            for other in (right, left):
                assert other.propagation.kind is base.propagation.kind
                assert other.legacy.kind is base.legacy.kind

    def test_evidence_norms_shape(self):
        split = dk.build_split(example_advanced())
        report = dk.classify(split, 4)
        assert len(report.evidence["N_pow_Ba"]) == split.nu
        assert len(report.evidence["Ba2_pow"]) == split.n_a


class TestCouplingNorms:
    @pytest.mark.parametrize("nu", [0, 1, 2, 3])
    def test_bit_identical_to_per_loop_norms(self, nu):
        rng = np.random.default_rng(40 + nu)
        for trial in range(12):
            n_a = nu + int(rng.integers(0, 2)) if nu else 0
            n_d = int(rng.integers(0 if n_a else 1, 3))
            n = n_d + n_a
            E, A, _ = random_regular_pencil(rng, n, n_d=n_d, nu=nu)
            D = rng.standard_normal((n, n)) if trial % 3 else np.zeros((n, n))
            split = dk.split_matrices(dk.compute_qwf(dk.MatrixPencil(E, A)), E, A, D)
            assert split.nu == nu
            ref = coupling_norms_per_loop(split)
            norm_N, n_pow_ba, ba2_pows = split.coupling_norms
            assert norm_N == ref["norm_N"]
            assert n_pow_ba[:2] == (ref["norm_Ba"], ref["norm_NBa"])
            assert list(n_pow_ba[1:nu]) == ref["propagation"]
            assert list(ba2_pows) == ref["Ba2_pow"]
            assert dk.classify(split, 4).evidence == {"N_pow_Ba": ref["N_pow_Ba"],
                                                      "Ba2_pow": ref["Ba2_pow"]}
            assert dk.classify_propagation(split, 4).nu_D == dk.nilpotency_index(
                split.B_a2)[1]

    def test_one_chain_per_split(self, monkeypatch):
        # classify, the hidden-delay expansion and the stability gate all
        # read one split: its norms are formed once, on first use
        rng = np.random.default_rng(44)
        blocks = random_smoothing_blocks(rng, 1, 3, 2)
        sys_, split = random_system_from_blocks(rng, 1, 3, 2, blocks, horizon=5)
        report = StabilityReport(alpha=None, rightmost_roots=[],
                                 box=default_box(sys_.E, sys_.A, sys_.D, 1.0),
                                 grid=(2, 2), box_limited=False, no_roots=True)
        norms, norm2 = [], pencil.norm2

        def counted(M):
            norms.append(M.shape)
            return norm2(M)

        monkeypatch.setattr(model, "norm2", counted)
        monkeypatch.setattr(pencil, "norm2", counted)
        assert "coupling_norms" not in vars(split)
        assert dk.classify(split, 5).propagation.kind is PropagationKind.SMOOTHING
        dk.expand_hidden_delays(split, 5)
        dk.assess_exponential_stability(sys_, split, report)
        assert len(norms) == 1 + max(split.nu, 2) + split.n_a


class TestBackwardSystem:
    def test_structured_blocks(self):
        sys = example_neutral()
        bw = dk.build_backward_system(sys)
        n = sys.n
        assert np.allclose(bw.E[:n, n:], sys.E)
        assert np.allclose(bw.A[:n, :n], -sys.D)
        assert np.allclose(bw.D[:n, :n], -sys.A)
        assert np.allclose(bw.D[n:, :n], -np.eye(n))

    def test_regular_iff_delay_matrix_invertible(self):
        sys = example_backward_desmoothing()
        bw = dk.build_backward_system(sys)
        assert bw.regularity.regular
        assert bw.det_D == pytest.approx(1.0)
        assert bw.system is not None
        report = dk.classify_matrices(bw.E, bw.A, bw.D, 3)
        assert report.propagation.kind is PropagationKind.DE_SMOOTHING

    def test_zero_delay_gives_singular_backward_pencil(self):
        rng = np.random.default_rng(4)
        E, A, _ = random_regular_pencil(rng, 2)
        f = dk.PiecewisePolynomial.zero(2, 0.0, 2.0)
        phi = dk.PiecewisePolynomial.zero(2, -1.0, 0.0)
        sys = dk.DdaeSystem(E=E, A=A, D=np.zeros((2, 2)), tau=1.0,
                            horizon_intervals=2, f=f, phi=phi)
        bw = dk.build_backward_system(sys)
        assert not bw.regularity.regular
        assert bw.system is None

    def test_zero_E_backward_never_de_smooths(self):
        # with E = 0 the nilpotent part of the backward pencil vanishes
        rng = np.random.default_rng(5)
        n = 2
        A = np.eye(n)
        D = well_conditioned = np.array([[1.0, 0.3], [0.0, 1.0]])
        f = dk.PiecewisePolynomial.zero(n, 0.0, 2.0)
        phi = dk.PiecewisePolynomial.zero(n, -1.0, 0.0)
        sys = dk.DdaeSystem(E=np.zeros((n, n)), A=A, D=D, tau=1.0,
                            horizon_intervals=2, f=f, phi=phi)
        bw = dk.build_backward_system(sys)
        assert bw.regularity.regular
        report = dk.classify_matrices(bw.E, bw.A, bw.D, 2)
        assert report.propagation.kind is not PropagationKind.DE_SMOOTHING


class TestSmoothingGenerators:
    def test_generated_blocks_do_smooth(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            n_d = int(rng.integers(1, 4))
            n_a = int(rng.integers(1, 4))
            nu = int(rng.integers(1, min(n_a, 2) + 1))
            blocks = random_smoothing_blocks(rng, n_d, n_a, nu)
            sys, split = random_system_from_blocks(
                rng, n_d, n_a, nu, blocks, horizon=5
            )
            prop = dk.classify_propagation(split, 5)
            assert prop.kind is PropagationKind.SMOOTHING
