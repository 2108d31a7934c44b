"""Differential tests: the tie-grouped table and its ROC hull against the
rank-sum AUC, the stack-loop optimal envelope and the per-atom
mixture-weight and threshold-law sums they replaced (tests/oracles.py),
on the fixtures, 100 random datasets and one large input whose ROC hull
has a long convex stretch between two flat tails."""

from pathlib import Path

import numpy as np
import pytest

from hmetric import (
    BetaWeight,
    PooledScoreThresholds,
    RankUniformClass1,
    TabulatedWeight,
    auc_mann_whitney,
    default_weight,
    empirical_cdfs,
    empirical_priors,
    expected_min_loss,
    independent_threshold_loss,
    ingest,
    min_loss,
    mixture_weight_loss,
    rank_uniform_evaluation,
    read_scores_csv,
)

from conftest import random_dataset
from oracles import (
    per_atom_mixture_loss,
    per_score_calibrated_loss,
    per_score_threshold_cdfs,
    rank_sum_auc,
    stack_loop_envelope,
    stack_loop_envelope_value,
    stack_loop_expected_loss,
)

FIXTURES = Path(__file__).parent / "fixtures"
RTOL = 1e-12
# sums over the table that replaced sums over every score or atom
TABLE_RTOL = 1e-14


def _fixture_columns():
    out = []
    for path in sorted(FIXTURES.glob("*.csv")):
        names, columns, labels = read_scores_csv(path)
        out += [ingest(columns[name], labels) for name in names]
    return out


def _random_columns():
    """100 datasets: every third rounded to one decimal (tie groups of
    both classes), every fifth with scores at exactly 0 and 1."""
    out = []
    for seed in range(100):
        data = random_dataset(seed, n=80)
        scores = data.scores.copy()
        if seed % 3 == 0:
            scores = np.round(scores, 1)
        if seed % 5 == 0:
            scores[2:4] = 0.0
            scores[4:6] = 1.0
        out.append(ingest(scores, data.labels))
    return out


def _convex_with_flat_tails():
    """About 2e5 rows: 50,000 distinct class-0-only scores (a flat start of
    the ROC), 1,000 tie groups whose class-1 share grows with the score
    (a convex stretch with collinear runs), and 20,000 distinct
    class-1-only scores (a vertical end)."""
    rng = np.random.default_rng(5)
    low = np.sort(rng.random(50_000)) * 0.1
    k = np.arange(1000)
    mid = 0.1 + 0.8 * k / 1000
    c1 = 1 + k // 10
    high = 0.9 + 0.1 * np.sort(rng.random(20_000)) * 0.999
    scores = np.concatenate([low, np.repeat(mid, 80), np.repeat(mid, c1), high])
    labels = np.concatenate([
        np.zeros(low.size), np.zeros(80 * k.size), np.ones(int(c1.sum())), np.ones(high.size)
    ]).astype(int)
    return ingest(scores, labels)


COLUMNS = _fixture_columns() + _random_columns()


@pytest.fixture(scope="module")
def big():
    return _convex_with_flat_tails()


def _tabulated():
    grid = (np.arange(2000) + 0.5) / 2000
    density = np.exp(-(((grid - 0.3) / 0.15) ** 2))
    mass = np.sum(0.5 * (density[:-1] + density[1:]) * np.diff(grid))
    return TabulatedWeight(grid, density / mass)


WEIGHTS = {
    "default": default_weight,
    "beta_0.5_3": lambda priors: BetaWeight(0.5, 3.0),
    "tabulated": lambda priors, w=_tabulated(): w,
}


def _split(data):
    return data.class_scores(0), data.class_scores(1)


def _reference_loss(data, priors, w, mode):
    s0, s1 = _split(data)
    if mode == "calibrated":
        return per_score_calibrated_loss(s0, s1, priors.pi0, w)
    return stack_loop_expected_loss(s0, s1, priors.pi0, w)


def _assert_loss_matches(data, weight, mode):
    priors = empirical_priors(data)
    w = WEIGHTS[weight](priors)
    new, _ = expected_min_loss(priors, empirical_cdfs(data), w, mode=mode)
    ref = _reference_loss(data, priors, w, mode)
    assert new == pytest.approx(ref, rel=RTOL, abs=0.0)


def test_auc_and_tie_pairs_bit_identical_to_rank_sums(big):
    for data in COLUMNS + [big]:
        res = auc_mann_whitney(data)
        auc, tie_pairs = rank_sum_auc(*_split(data))
        assert res.auc == auc
        assert res.tie_pairs == tie_pairs
        assert rank_uniform_evaluation(data) == auc


@pytest.mark.parametrize("mode", ["calibrated", "optimal"])
@pytest.mark.parametrize("weight", sorted(WEIGHTS))
def test_expected_loss_matches_previous_algorithms(weight, mode):
    for data in COLUMNS:
        _assert_loss_matches(data, weight, mode)


@pytest.mark.parametrize("mode", ["calibrated", "optimal"])
@pytest.mark.parametrize("weight", sorted(WEIGHTS))
def test_expected_loss_on_convex_hull_with_flat_tails(big, weight, mode):
    _assert_loss_matches(big, weight, mode)


def test_envelope_values_match_stack_loop(big):
    grid = np.linspace(0.0, 1.0, 1001)
    for data in COLUMNS + [big]:
        priors = empirical_priors(data)
        ref = stack_loop_envelope_value(stack_loop_envelope(*_split(data), priors.pi0), grid)
        new = min_loss(grid, priors, empirical_cdfs(data), mode="optimal")
        np.testing.assert_allclose(new, ref, rtol=RTOL, atol=1e-16)


def test_hull_of_large_input_drops_flat_and_collinear_points(big):
    # (0, 0), the end of the flat start, the last point of each of the 100
    # collinear runs of ten tie groups, and (1, 1) after the vertical end
    f0, f1 = empirical_cdfs(big).hull
    assert f0.size == 103
    assert (f0[0], f1[0], f0[-1], f1[-1]) == (0.0, 0.0, 1.0, 1.0)
    assert np.all(np.diff(f0) >= 0) and np.all(np.diff(f1) >= 0)


@pytest.mark.parametrize("mode", ["calibrated", "optimal"])
def test_mixture_weight_loss_matches_per_atom_mean(mode):
    for data in COLUMNS:
        ref = per_atom_mixture_loss(*_split(data), empirical_priors(data).pi0, mode)
        assert mixture_weight_loss(data, mode=mode) == pytest.approx(ref, rel=TABLE_RTOL, abs=0.0)


@pytest.mark.parametrize("law", ["pooled", "class1-ranks", "weighted-ranks"])
def test_threshold_laws_match_per_score_cdfs(law):
    rng = np.random.default_rng(17)
    for data in COLUMNS:
        priors = empirical_priors(data)
        w = default_weight(priors)
        if law == "pooled":
            u, oracle_args = PooledScoreThresholds(), ("pooled",)
        elif law == "class1-ranks":
            u, oracle_args = RankUniformClass1(), ("class1-ranks",)
        else:
            weights = rng.random(data.n1)
            u, oracle_args = RankUniformClass1(weights=tuple(weights)), ("class1-ranks", weights)
        e_f0, e_f1 = per_score_threshold_cdfs(*_split(data), *oracle_args)
        ec = w.mean()
        ref = ec * priors.pi0 * (1.0 - e_f0) + (1.0 - ec) * priors.pi1 * e_f1
        got = independent_threshold_loss(data, priors, w, u)
        assert got == pytest.approx(ref, rel=TABLE_RTOL, abs=0.0)
