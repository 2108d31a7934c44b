import numpy as np
import pytest

from hmetric import (
    BetaWeight,
    ConfigError,
    expected_min_loss,
    ingest,
    loss_curve,
    min_loss,
    reference_loss,
    threshold_loss,
)
from hmetric.empirical import ClassPriors, empirical_cdfs, empirical_priors
from hmetric.loss import optimal_envelope
from conftest import random_dataset
from oracles import closed_reference_loss, dense_expected_min_loss, quad_partial_moments

# frozen 40-digit oracle values for the golden 4-point dataset with the
# default Beta(1.5, 1.5) weight and balanced priors
GOLDEN_L_CAL = 0.096331824634922586837
GOLDEN_L_OPT = 0.071948352302701554744
GOLDEN_L_REF = 0.14389670460540310949


def _setup(data):
    return empirical_priors(data), empirical_cdfs(data)


class TestThresholdLoss:
    def test_zero_cost(self, golden4):
        priors, cdfs = _setup(golden4)
        for t in [0.0, 0.3, 0.8, 1.0]:
            assert threshold_loss(0.0, t, priors, cdfs) == pytest.approx(
                priors.pi1 * cdfs.f1(t), abs=1e-15
            )

    def test_perfect_separation_zero(self, separated):
        priors, cdfs = _setup(separated)
        for c in [0.1, 0.5, 0.9]:
            assert threshold_loss(c, 0.45, priors, cdfs) == 0.0

    def test_worked_example(self, golden4):
        # c=0.3, t=0.5: F0(0.5)=1, F1(0.5)=0.5
        priors, cdfs = _setup(golden4)
        got = threshold_loss(0.3, 0.5, priors, cdfs)
        assert got == pytest.approx(0.3 * 0.5 * 0.0 + 0.7 * 0.5 * 0.5, abs=1e-15)
        assert got == pytest.approx(0.175, abs=1e-15)

    def test_label_swap_structure(self):
        # relabel 0<->1, scores -> 1-s, costs -> 1-c, priors swapped
        for seed in range(10):
            data = random_dataset(seed)
            priors, cdfs = _setup(data)
            swapped = ingest(1.0 - data.scores, 1 - data.labels)
            priors_s, cdfs_s = _setup(swapped)
            assert priors_s.pi0 == pytest.approx(priors.pi1)
            rng = np.random.default_rng(seed)
            for _ in range(20):
                c, t = rng.random(2)  # a.s. not colliding with score atoms
                original = threshold_loss(c, t, priors, cdfs)
                mirrored = threshold_loss(1.0 - c, 1.0 - t, priors_s, cdfs_s)
                assert mirrored == pytest.approx(original, abs=1e-12)


class TestMinLoss:
    def test_perfect_classifier_zero_both_modes(self, perfect):
        priors, cdfs = _setup(perfect)
        grid = np.linspace(0.01, 0.99, 17)
        assert np.all(min_loss(grid, priors, cdfs, "calibrated") == 0.0)
        assert np.all(np.asarray(min_loss(grid, priors, cdfs, "optimal")) == 0.0)

    def test_separated_interior_scores_zero_in_optimal_mode(self, separated):
        # calibrated t = c cannot exploit the separation away from the
        # observed scores, so only the optimal rule reaches zero
        priors, cdfs = _setup(separated)
        grid = np.linspace(0.01, 0.99, 17)
        assert np.all(np.asarray(min_loss(grid, priors, cdfs, "optimal")) == 0.0)
        assert np.any(np.asarray(min_loss(grid, priors, cdfs, "calibrated")) > 0.0)

    def test_constant_scores_at_pi1(self):
        # 7 class-0 and 3 class-1 rows, all scored at pi1 = 0.3
        data = ingest([0.3] * 10, [0] * 7 + [1] * 3)
        priors, cdfs = _setup(data)
        for c in np.linspace(0.01, 0.99, 33):
            expected = c * priors.pi0 if c < priors.pi1 else (1 - c) * priors.pi1
            assert min_loss(c, priors, cdfs, "calibrated") == pytest.approx(expected, abs=1e-15)

    def test_optimal_below_calibrated(self):
        for seed in range(8):
            data = random_dataset(seed)
            priors, cdfs = _setup(data)
            grid = np.linspace(0.0, 1.0, 211)
            cal = np.asarray(min_loss(grid, priors, cdfs, "calibrated"))
            opt = np.asarray(min_loss(grid, priors, cdfs, "optimal"))
            assert np.all(opt <= cal + 1e-14)

    def test_ordering_chain(self):
        # 0 <= optimal <= calibrated <= worst threshold loss <= 1
        for seed in range(6):
            data = random_dataset(seed, n=30)
            priors, cdfs = _setup(data)
            grid = np.linspace(0.0, 1.0, 101)
            cands = np.unique(np.concatenate([[0.0, 1.0], data.scores]))
            worst = np.max(
                [threshold_loss(grid, float(t), priors, cdfs) for t in cands], axis=0
            )
            opt = np.asarray(min_loss(grid, priors, cdfs, "optimal"))
            cal = np.asarray(min_loss(grid, priors, cdfs, "calibrated"))
            assert np.all(0.0 <= opt)
            assert np.all(opt <= cal + 1e-14)
            assert np.all(cal <= worst + 1e-14)
            assert np.all(worst <= 1.0)

    def test_mode_validation(self, golden4):
        priors, cdfs = _setup(golden4)
        with pytest.raises(ConfigError):
            min_loss(0.5, priors, cdfs, "bogus")
        with pytest.raises(ConfigError, match="^unknown threshold mode 'bogus'"):
            expected_min_loss(priors, cdfs, BetaWeight(2.0, 2.0), mode="bogus")


class TestOptimalEnvelope:
    def test_matches_brute_force(self):
        for seed in range(20):
            data = random_dataset(seed, n=40)
            priors, cdfs = _setup(data)
            env = optimal_envelope(priors, cdfs)
            cands = np.unique(np.concatenate([[0.0, 1.0], cdfs.u]))  # every observed score
            grid = np.linspace(0.0, 1.0, 501)
            lines = (
                grid[:, None] * (priors.pi0 * (1 - cdfs.f0(cands)))[None, :]
                + (1 - grid)[:, None] * (priors.pi1 * cdfs.f1(cands))[None, :]
            )
            brute = lines.min(axis=1)
            assert np.max(np.abs(env.value(grid) - brute)) < 1e-14

    def test_golden_envelope_shape(self, golden4):
        # for the golden data the envelope is min(c, 1-c) / 4
        priors, cdfs = _setup(golden4)
        env = optimal_envelope(priors, cdfs)
        grid = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(env.value(grid) - 0.25 * np.minimum(grid, 1 - grid))) < 1e-15

    def test_all_to_class_one_rule_available_with_zero_scores(self):
        # class-1 atoms at score 0 make t = 0 classify them wrong; the
        # envelope must still contain the everything-to-class-1 line
        data = ingest([0.0] * 6, [0, 0, 0, 1, 1, 1])
        priors, cdfs = _setup(data)
        env = optimal_envelope(priors, cdfs)
        grid = np.linspace(0.0, 1.0, 101)
        expected = np.minimum(grid * priors.pi0, (1 - grid) * priors.pi1)
        assert np.max(np.abs(env.value(grid) - expected)) < 1e-15


class TestExpectedMinLoss:
    def test_perfect_classifier_zero_both_methods(self, perfect):
        priors, cdfs = _setup(perfect)
        w = BetaWeight(1.5, 1.5)
        for mode in ("calibrated", "optimal"):
            assert expected_min_loss(priors, cdfs, w, mode=mode) == 0.0

    def test_separated_zero_in_optimal_mode(self, separated):
        priors, cdfs = _setup(separated)
        val = expected_min_loss(priors, cdfs, BetaWeight(1.5, 1.5), mode="optimal")
        assert val == 0.0

    def test_constant_scores_equal_reference(self):
        data = ingest([0.3] * 10, [0] * 7 + [1] * 3)
        priors, cdfs = _setup(data)
        w = BetaWeight(1.3, 1.7)
        val = expected_min_loss(priors, cdfs, w, mode="calibrated")
        ref = reference_loss(priors, w)
        assert val == pytest.approx(ref, rel=1e-12)

    def test_golden_against_dense_oracle(self, golden4):
        priors, cdfs = _setup(golden4)
        w = BetaWeight(1.5, 1.5)
        for mode, frozen in (("calibrated", GOLDEN_L_CAL), ("optimal", GOLDEN_L_OPT)):
            got = expected_min_loss(priors, cdfs, w, mode=mode)
            dense = dense_expected_min_loss([0.1, 0.4], [0.3, 0.9], 0.5, 1.5, 1.5, mode=mode)
            assert got == pytest.approx(dense, abs=1e-8)
            assert got == pytest.approx(frozen, rel=1e-12)

    def test_piecewise_split_form_agrees(self):
        # literal piece-by-piece integration vs the telescoped per-score form
        for seed in range(6):
            data = random_dataset(seed, n=30)
            priors, cdfs = _setup(data)
            w = BetaWeight(1.8, 1.2)
            got = expected_min_loss(priors, cdfs, w, mode="calibrated")
            breaks = np.unique(np.concatenate([[0.0, 1.0], data.scores]))
            mids = 0.5 * (breaks[:-1] + breaks[1:])
            m0b, m1b = w.partial_moments(breaks)
            literal = np.sum(
                priors.pi0 * (1 - cdfs.f0(mids)) * np.diff(m0b)
                - priors.pi1 * cdfs.f1(mids) * np.diff(m1b)
            )
            assert got == pytest.approx(literal, rel=1e-12)


class TestReferenceLoss:
    def test_uniform_balanced(self):
        priors = ClassPriors(pi0=0.5)
        val = reference_loss(priors, BetaWeight(1, 1))
        assert val == pytest.approx(0.125, rel=1e-12)

    def test_positive_for_any_interior_priors(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            priors = ClassPriors(pi0=float(rng.uniform(0.02, 0.98)))
            w = BetaWeight(rng.uniform(0.5, 5), rng.uniform(0.5, 5))
            assert reference_loss(priors, w) > 0.0

    def test_closed_form_vs_quadrature(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            pi0 = rng.uniform(0.05, 0.95)
            a = rng.uniform(0.5, 5.0)
            b = rng.uniform(0.5, 5.0)
            cf = reference_loss(ClassPriors(pi0=pi0), BetaWeight(a, b))
            assert cf == pytest.approx(closed_reference_loss(pi0, a, b), rel=1e-8)

    def test_golden_value(self):
        priors = ClassPriors(pi0=0.5)
        val = reference_loss(priors, BetaWeight(1.5, 1.5))
        assert val == pytest.approx(GOLDEN_L_REF, rel=1e-12)
        q0, q1 = quad_partial_moments(0.5, 1.5, 1.5)
        assert val == pytest.approx(0.5 * q0 + 0.5 * q1, rel=1e-10)


class TestLossCurve:
    def test_perfect_classifier_all_zero(self, perfect):
        priors, cdfs = _setup(perfect)
        curve = loss_curve(priors, cdfs, grid_size=256)
        assert np.all(curve.loss == 0.0)

    def test_separated_all_zero_in_optimal_mode(self, separated):
        priors, cdfs = _setup(separated)
        curve = loss_curve(priors, cdfs, mode="optimal", grid_size=256)
        assert np.all(curve.loss == 0.0)

    def test_constant_scores_shape(self):
        data = ingest([0.3] * 10, [0] * 7 + [1] * 3)
        priors, cdfs = _setup(data)
        curve = loss_curve(priors, cdfs, mode="calibrated", grid_size=512)
        expected = np.where(
            curve.grid < priors.pi1, curve.grid * priors.pi0, (1 - curve.grid) * priors.pi1
        )
        assert np.max(np.abs(curve.loss - expected)) < 1e-15

    def test_matches_min_loss_pointwise(self, golden4):
        priors, cdfs = _setup(golden4)
        for mode in ("calibrated", "optimal"):
            curve = loss_curve(priors, cdfs, mode=mode, grid_size=128)
            recomputed = np.asarray(min_loss(curve.grid, priors, cdfs, mode))
            assert np.array_equal(curve.loss, recomputed)

    def test_grid_size_validated(self, golden4):
        priors, cdfs = _setup(golden4)
        with pytest.raises(ConfigError):
            loss_curve(priors, cdfs, grid_size=1)

    def test_fractional_grid_size_rejected(self, golden4):
        # a fractional count would end the open grid at c = 1; a count that
        # is not a finite number has no whole value at all
        priors, cdfs = _setup(golden4)
        for grid_size in (4.5, float("nan"), float("inf"), "4096"):
            with pytest.raises(ConfigError, match="whole number"):
                loss_curve(priors, cdfs, grid_size=grid_size)
