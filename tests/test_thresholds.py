import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmetric import (
    BetaWeight,
    ConfigError,
    DegenerateDataError,
    InputError,
    PointMass,
    PooledScoreThresholds,
    TabulatedThresholds,
    TabulatedWeight,
    auc_mann_whitney,
    h_measure_fixed,
    independent_threshold_loss,
    ingest,
    rank_uniform_evaluation,
    read_scores_csv,
    screen_at_proportion,
    threshold_loss,
)
from hmetric import thresholds
from hmetric.empirical import empirical_cdfs, empirical_priors
from conftest import random_dataset


class TestIndependentThresholdLoss:
    def test_point_mass_reduces_to_threshold_loss(self):
        rng = np.random.default_rng(12)
        for seed in range(50):
            data = random_dataset(seed, n=30)
            priors = empirical_priors(data)
            cdfs = empirical_cdfs(data)
            w = BetaWeight(rng.uniform(0.6, 4.0), rng.uniform(0.6, 4.0))
            t = float(rng.uniform(0.0, 1.0))
            got = independent_threshold_loss(data, priors, w, PointMass(t))
            expected = threshold_loss(w.mean(), t, priors, cdfs)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_perfect_separation_point_mass_zero(self, separated):
        priors = empirical_priors(separated)
        got = independent_threshold_loss(
            separated, priors, BetaWeight(2, 5), PointMass(0.45)
        )
        assert got == 0.0

    def test_pooled_thresholds_brute_force_double_sum(self):
        # uniform weight, thresholds drawn from the pooled scores; the
        # midpoint cost grid is exact because the integrand is affine in c
        data = random_dataset(77, n=200)
        priors = empirical_priors(data)
        cdfs = empirical_cdfs(data)
        got = independent_threshold_loss(
            data, priors, BetaWeight(1, 1), PooledScoreThresholds()
        )
        n_grid = 100000
        costs = (np.arange(n_grid) + 0.5) / n_grid
        brute = np.mean(
            [np.mean(threshold_loss(costs, float(t), priors, cdfs)) for t in data.scores]
        )
        assert got == pytest.approx(brute, abs=1e-12)

    def test_tabulated_thresholds_exact_piecewise(self):
        data = random_dataset(5, n=25)
        priors = empirical_priors(data)
        cdfs = empirical_cdfs(data)
        grid = np.linspace(1e-4, 1 - 1e-4, 2048)
        dens = 6.0 * grid * (1 - grid)
        dens /= np.trapezoid(dens, grid)
        u_weight = TabulatedWeight(grid, dens)
        got = independent_threshold_loss(
            data, priors, BetaWeight(1.5, 1.5), TabulatedThresholds(u_weight)
        )
        # dense midpoint oracle over t
        n_grid = 200001
        ts = (np.arange(n_grid) + 0.5) / n_grid
        ec = 0.5
        vals = ec * priors.pi0 * (1 - cdfs.f0(ts)) + (1 - ec) * priors.pi1 * cdfs.f1(ts)
        brute = np.mean(vals * u_weight.density(ts))
        assert got == pytest.approx(brute, abs=1e-6)

    def test_unknown_distribution_rejected(self, golden4):
        priors = empirical_priors(golden4)
        with pytest.raises(ConfigError):
            independent_threshold_loss(golden4, priors, BetaWeight(1, 1), object())


class TestRankUniformEvaluation:
    def test_golden_value(self, golden4):
        # thresholds 0.3 and 0.9: fractions 1/2 and 2/2
        assert rank_uniform_evaluation(golden4) == 0.75

    def test_perfect_separation(self, separated):
        assert rank_uniform_evaluation(separated) == 1.0

    def test_identical_multisets_half(self):
        data = ingest([0.2, 0.5, 0.8, 0.2, 0.5, 0.8], [0, 0, 0, 1, 1, 1])
        assert rank_uniform_evaluation(data) == 0.5

    def test_equals_auc_bitwise(self):
        for seed in range(15):
            data = random_dataset(seed, n=150)
            assert rank_uniform_evaluation(data) == auc_mann_whitney(data).auc

    def test_equals_auc_with_ties(self):
        rng = np.random.default_rng(44)
        scores = np.round(rng.random(80), 1)
        labels = np.r_[0, 1, (rng.random(78) < 0.5).astype(int)]
        data = ingest(scores, labels)
        assert rank_uniform_evaluation(data) == auc_mann_whitney(data).auc

    def test_weighted_ranks(self):
        data = ingest([0.1, 0.4, 0.3, 0.9], [0, 0, 1, 1])
        # all weight on the lowest class-1 rank (threshold 0.3)
        assert rank_uniform_evaluation(data, rank_weights=[1.0, 0.0]) == 0.5
        # all weight on the highest rank (threshold 0.9)
        assert rank_uniform_evaluation(data, rank_weights=[0.0, 1.0]) == 1.0
        # weights renormalized
        assert rank_uniform_evaluation(data, rank_weights=[2.0, 2.0]) == 0.75

    def test_bad_weights(self, golden4):
        with pytest.raises(InputError):
            rank_uniform_evaluation(golden4, rank_weights=[1.0])
        with pytest.raises(InputError):
            rank_uniform_evaluation(golden4, rank_weights=[-1.0, 2.0])
        with pytest.raises(InputError):
            rank_uniform_evaluation(golden4, rank_weights=[0.0, 0.0])


class TestScreening:
    def test_perfect_separation_zero_errors(self, separated):
        res = screen_at_proportion(separated, 0.5, basis="all_objects")
        tn, fp, fn, tp = res.confusion
        assert (fp, fn) == (0, 0)
        assert res.class0_recall == 1.0
        assert res.misclassification_rate == 0.0

    def test_smallest_proportion_boundary(self):
        data = ingest([0.05, 0.2, 0.4, 0.6, 0.8], [0, 1, 0, 1, 1])
        res = screen_at_proportion(data, 0.01, basis="all_objects")
        assert res.threshold_rank == 1
        tn, fp, fn, tp = res.confusion
        # only the single lowest score goes to class 0; it is a class-0 row
        assert (tn, fn) == (1, 0)
        assert fp == 1 and tp == 3

    def test_ten_point_exhaustive_recount(self):
        rng = np.random.default_rng(10)
        scores = np.round(rng.random(10), 3)
        labels = np.r_[0, 1, (rng.random(8) < 0.5).astype(int)]
        data = ingest(scores, labels)
        res = screen_at_proportion(data, 0.3, basis="all_objects")
        k = int(np.ceil(0.3 * 10))
        threshold = np.sort(scores)[k - 1]
        pred0 = scores <= threshold
        tn = int(np.sum(pred0 & (labels == 0)))
        fp = int(np.sum(~pred0 & (labels == 0)))
        fn = int(np.sum(pred0 & (labels == 1)))
        tp = int(np.sum(~pred0 & (labels == 1)))
        assert res.confusion == (tn, fp, fn, tp)
        assert sum(res.confusion) == data.n
        assert res.misclassification_rate == pytest.approx((fp + fn) / 10)

    @given(p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
           n=st.integers(min_value=1, max_value=(1 << 40) + 3))
    @example(p=0.07, n=100)
    @example(p=1e-05, n=3)
    @example(p=5e-324, n=(1 << 40) + 3)
    @example(p=0.30000000000000004, n=10)
    @example(p=0.1, n=10)
    @settings(max_examples=500, deadline=None)
    def test_rank_reads_p_as_the_decimal_it_prints_as(self, p, n):
        assert thresholds._ceil_as_printed(p, n) == math.ceil(Fraction(repr(p)) * n)

    @pytest.mark.parametrize("p, n, rank", [(0.07, 100, 7), (0.28, 25, 7), (0.55, 100, 55)])
    def test_rank_is_ceil_of_p_as_printed(self, p, n, rank):
        # in binary floating point p * n lands just above the integer
        assert p * n > rank
        scores = np.arange(n) / n
        res = screen_at_proportion(ingest(scores, np.arange(n) % 2), p)
        assert res.threshold_rank == rank
        assert res.threshold == scores[rank - 1]
        tn, fp, fn, tp = res.confusion
        assert tn + fn == rank

    def test_ties_at_cut_go_to_class_zero(self):
        data = ingest([0.2, 0.2, 0.2, 0.8], [0, 0, 1, 1])
        res = screen_at_proportion(data, 0.25, basis="all_objects")
        tn, fp, fn, tp = res.confusion
        # rank 1 of 4 selects score 0.2; all three tied rows land class 0
        assert tn + fn == 3

    def test_class0_basis(self):
        data = ingest([0.1, 0.3, 0.5, 0.7, 0.9, 0.95], [0, 0, 0, 1, 1, 1])
        res = screen_at_proportion(data, 0.5, basis="class0_objects")
        # ceil(0.5 * 3) = 2nd lowest class-0 score = 0.3
        assert res.threshold == 0.3
        assert res.threshold_rank == 2

    def test_recall_nondecreasing_in_p(self):
        data = random_dataset(2, n=40)
        recalls = [
            screen_at_proportion(data, p, basis="all_objects").class0_recall
            for p in np.linspace(0.05, 0.95, 19)
        ]
        assert np.all(np.diff(recalls) >= 0)

    def test_counts_change_only_at_rank_boundaries(self):
        data = random_dataset(3, n=20)
        # between consecutive rank cuts the confusion is constant
        base = screen_at_proportion(data, 0.101, basis="all_objects")
        same = screen_at_proportion(data, 0.149, basis="all_objects")
        assert base.confusion == same.confusion

    def test_domain_and_degenerate(self, golden4):
        with pytest.raises(InputError):
            screen_at_proportion(golden4, 0.0)
        with pytest.raises(InputError):
            screen_at_proportion(golden4, 1.0)
        with pytest.raises(ConfigError):
            screen_at_proportion(golden4, 0.5, basis="bogus")
        with pytest.raises(DegenerateDataError):
            screen_at_proportion(ingest([0.1, 0.2], [0, 0]), 0.5)


class TestHiddenAssumptionDemo:
    def test_rank_uniform_and_h_order_differently(self, fixtures_dir):
        # class-1 scores of model_a pile up near 1; the rank-uniform view
        # (the AUC) prefers model_a while the H-measure prefers model_b
        names, columns, labels = read_scores_csv(fixtures_dir / "rank_disagreement.csv")
        data_a = ingest(columns["model_a"], labels)
        data_b = ingest(columns["model_b"], labels)
        assert np.min(data_a.scores[data_a.labels == 1]) > 0.8
        rank_a = rank_uniform_evaluation(data_a)
        rank_b = rank_uniform_evaluation(data_b)
        h_a = h_measure_fixed(data_a).h
        h_b = h_measure_fixed(data_b).h
        assert rank_a > rank_b
        assert h_a < h_b
