import numpy as np
import pytest

from hmetric import (
    DegenerateDataError,
    auc_mann_whitney,
    h_measure_fixed,
    ingest,
    mixture_weight_loss,
    read_scores_csv,
)
from conftest import random_dataset
from oracles import brute_force_auc


def _monotone_map(seed):
    """Random strictly increasing piecewise-linear map of [0,1] onto [0,1]."""
    rng = np.random.default_rng(seed)
    knots_x = np.r_[0.0, np.sort(rng.random(4)), 1.0]
    knots_y = np.r_[0.0, np.sort(rng.random(4)), 1.0]
    return lambda s: np.interp(s, knots_x, knots_y)


class TestAucMannWhitney:
    def test_golden_three_quarters(self, golden4):
        res = auc_mann_whitney(golden4)
        assert res.auc == 0.75
        assert res.n_pairs == 4
        assert res.tie_pairs == 0

    def test_identical_multisets(self):
        data = ingest([0.2, 0.5, 0.8, 0.2, 0.5, 0.8], [0, 0, 0, 1, 1, 1])
        assert auc_mann_whitney(data).auc == 0.5

    def test_perfect_separation(self, separated):
        res = auc_mann_whitney(separated)
        assert res.auc == 1.0
        assert res.equivalent_loss == 0.0

    def test_matches_brute_force(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 500))
            scores = np.round(rng.random(n), 2)  # rounding induces ties
            labels = np.r_[0, 1, (rng.random(n - 2) < 0.45).astype(int)]
            data = ingest(scores, labels)
            got = auc_mann_whitney(data).auc
            brute = brute_force_auc(data.scores[data.labels == 0], data.scores[data.labels == 1])
            assert got == brute

    def test_tie_pairs_counted(self):
        data = ingest([0.5, 0.5, 0.3, 0.5, 0.9], [0, 0, 1, 1, 1])
        res = auc_mann_whitney(data)
        assert res.tie_pairs == 2  # two class-0 atoms at 0.5 x one class-1

    def test_monotone_transform_invariance(self):
        for seed in range(10):
            data = random_dataset(seed, n=120)
            mapped = ingest(_monotone_map(seed)(data.scores), data.labels)
            assert auc_mann_whitney(mapped).auc == auc_mann_whitney(data).auc

    def test_label_swap_antisymmetry(self):
        # the identity is exact on the half-integer rank statistic
        # u = auc * n_pairs; the divided floats can differ by one ulp
        for seed in range(10):
            data = random_dataset(seed, n=90)
            swapped = ingest(data.scores, 1 - data.labels)
            res = auc_mann_whitney(data)
            res_sw = auc_mann_whitney(swapped)
            u = round(res.auc * res.n_pairs * 2) / 2
            u_sw = round(res_sw.auc * res_sw.n_pairs * 2) / 2
            assert u + u_sw == res.n_pairs
            assert abs(res_sw.auc - (1.0 - res.auc)) <= 2**-50

    def test_equivalent_loss_relation(self):
        data = random_dataset(3, n=70)
        res = auc_mann_whitney(data)
        pi0 = data.n0 / data.n
        assert res.equivalent_loss == pytest.approx(
            2 * pi0 * (1 - pi0) * (1 - res.auc), abs=1e-15
        )

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDataError):
            auc_mann_whitney(ingest([0.1, 0.2], [0, 0]))


class TestMixtureWeightLoss:
    def test_perfect_classifier_zero(self, perfect):
        assert mixture_weight_loss(perfect) == 0.0

    def test_identical_class_distributions(self):
        # AUC is 1/2, so the continuous-limit value is pi0 pi1; atoms push
        # the finite-sample value off by O(1/min class size)
        data = ingest([0.2, 0.5, 0.8, 0.2, 0.5, 0.8], [0, 0, 0, 1, 1, 1])
        got = mixture_weight_loss(data)
        assert got == pytest.approx(0.25, abs=2.5 / 3)
        # exact value by direct atom sum
        direct = np.mean(
            [
                s * 0.5 * (1 - np.mean(np.asarray([0.2, 0.5, 0.8]) <= s))
                + (1 - s) * 0.5 * np.mean(np.asarray([0.2, 0.5, 0.8]) <= s)
                for s in data.scores
            ]
        )
        assert got == pytest.approx(direct, rel=1e-14)

    def test_tracks_auc_loss_on_calibrated_data(self):
        # identity holds when scores estimate the conditional probability;
        # tolerance pinned from the oracle sweep: max observed factor 1.83
        for seed in range(20):
            data = random_dataset(seed, n=200, calibrated=True)
            assert np.unique(data.scores).size == data.n  # tie-free
            res = auc_mann_whitney(data)
            got = mixture_weight_loss(data)
            tol = 2.5 / min(data.n0, data.n1)
            assert abs(got - res.equivalent_loss) <= tol


class TestRankDisagreementFixture:
    def test_fixture_reverses_h_and_auc(self, fixtures_dir):
        names, columns, labels = read_scores_csv(fixtures_dir / "rank_disagreement.csv")
        results = {}
        for name in names:
            data = ingest(columns[name], labels)
            results[name] = (auc_mann_whitney(data).auc, h_measure_fixed(data).h)
        auc_a, h_a = results["model_a"]
        auc_b, h_b = results["model_b"]
        assert auc_a > auc_b
        assert h_a < h_b
