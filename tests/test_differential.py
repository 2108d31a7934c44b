"""Differential tests: the tie-grouped table and its ROC hull against the
rank-sum AUC, the stack-loop optimal envelope, the per-atom mixture-weight
and threshold-law sums and the full monotone chain they replaced
(tests/oracles.py), on the fixtures, 100 random datasets, one large input
whose ROC hull has a long convex stretch between two flat tails, and
tables built directly from class counts, up to counts near 2^40.  On the
large input, five blocks of the table's sums, the AUC counts are checked
against Python integers and the float sums against math.fsum."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hmetric import (
    BetaWeight,
    EmpiricalCdfPair,
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
    screen_at_proportion,
)
from hmetric import distributions
from hmetric.empirical import _BLOCK
from hmetric.thresholds import _expected_cdfs

from conftest import random_dataset
from oracles import (
    exact_auc_counts,
    monotone_chain_hull,
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
    return data.scores[data.labels == 0], data.scores[data.labels == 1]


def _reference_loss(data, priors, w, mode):
    s0, s1 = _split(data)
    if mode == "calibrated":
        return per_score_calibrated_loss(s0, s1, priors.pi0, w)
    return stack_loop_expected_loss(s0, s1, priors.pi0, w)


def _assert_loss_matches(data, weight, mode):
    priors = empirical_priors(data)
    w = WEIGHTS[weight](priors)
    new = expected_min_loss(priors, empirical_cdfs(data), w, mode=mode)
    ref = _reference_loss(data, priors, w, mode)
    assert new == pytest.approx(ref, rel=RTOL, abs=0.0)


def test_auc_and_tie_pairs_bit_identical_to_rank_sums(big):
    for data in COLUMNS + [big]:
        res = auc_mann_whitney(data)
        auc, tie_pairs = rank_sum_auc(*_split(data))
        assert res.auc == auc
        assert res.tie_pairs == tie_pairs
        assert rank_uniform_evaluation(data) == auc


def test_auc_counts_exact_over_table_blocks(big):
    # the sums run over the table in blocks of _BLOCK groups; this one has 5
    cdfs = empirical_cdfs(big)
    assert cdfs.u.size > 3 * _BLOCK
    twice_wins, tie_pairs = exact_auc_counts(*_split(big))
    res = auc_mann_whitney(big)
    assert res.auc == twice_wins / 2 / (cdfs.n0 * cdfs.n1)
    assert res.tie_pairs == tie_pairs


def test_threshold_atom_sums_exact_over_table_blocks(big):
    # the pooled and class-1-rank sums run over the table in blocks of
    # _BLOCK groups; whole-table products give the same integers
    cdfs = empirical_cdfs(big)
    assert cdfs.u.size > 3 * _BLOCK
    n0, n1 = cdfs.n0, cdfs.n1
    pooled, count1 = cdfs.count0 + cdfs.count1, cdfs.count1
    assert _expected_cdfs(PooledScoreThresholds(), cdfs) == (
        int(np.sum(pooled * cdfs.cum0)) / ((n0 + n1) * n0),
        int(np.sum(pooled * cdfs.cum1)) / ((n0 + n1) * n1))
    assert _expected_cdfs(RankUniformClass1(), cdfs) == (
        int(np.sum(count1 * cdfs.cum0)) / (n1 * n0), int(np.sum(count1 * cdfs.cum1)) / n1**2)


@pytest.mark.parametrize("basis", ["all_objects", "class0_objects"])
def test_screening_cut_matches_a_search_of_the_whole_counts(big, basis):
    cdfs = empirical_cdfs(big)
    ranked = cdfs.cum0 + cdfs.cum1 if basis == "all_objects" else cdfs.cum0
    for p in (1e-5, 0.07, 0.25, 0.5, 0.75, 0.99999):
        res = screen_at_proportion(big, p, basis)
        cut = int(np.searchsorted(ranked, res.threshold_rank))
        assert res.threshold == cdfs.u[cut]
        assert res.confusion[0] == cdfs.cum0[cut] and res.confusion[2] == cdfs.cum1[cut]


def test_calibrated_loss_same_bits_whatever_the_kernel_block(big, monkeypatch):
    # the kernel's values do not depend on its block, and the sums run over
    # the table's blocks of _BLOCK groups whatever block the kernel takes
    priors, cdfs = empirical_priors(big), empirical_cdfs(big)
    w = default_weight(priors)
    want = expected_min_loss(priors, cdfs, w)
    for block in (1000, _BLOCK, 4 * _BLOCK):
        monkeypatch.setattr(distributions, "_POINT_BLOCK", block)
        assert expected_min_loss(priors, cdfs, w) == want


@pytest.mark.parametrize("mode", ["calibrated", "optimal"])
def test_table_float_sums_match_fsum_over_table_blocks(big, mode):
    priors = empirical_priors(big)
    ref = per_atom_mixture_loss(*_split(big), priors.pi0, mode)
    assert mixture_weight_loss(big, mode=mode) == pytest.approx(ref, rel=TABLE_RTOL, abs=0.0)
    if mode == "calibrated":
        w = default_weight(priors)
        ref = per_score_calibrated_loss(*_split(big), priors.pi0, w)
        got = expected_min_loss(priors, empirical_cdfs(big), w, mode=mode)
        assert got == pytest.approx(ref, rel=TABLE_RTOL, abs=0.0)


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


def _table(count0, count1):
    """The table of a column with these class counts at its distinct
    scores, built directly (no scores, so counts may be huge)."""
    cum0 = np.cumsum(np.asarray(count0, dtype=np.int64))
    cum1 = np.cumsum(np.asarray(count1, dtype=np.int64))
    return EmpiricalCdfPair(u=np.linspace(0.0, 1.0, cum0.size), cum0=cum0, cum1=cum1)


def _assert_hull_matches_chain(table):
    f0, f1 = table.hull
    ref0, ref1 = monotone_chain_hull(table.cum0, table.cum1)
    assert np.array_equal(f0, ref0) and np.array_equal(f1, ref1)


def test_hull_matches_full_monotone_chain(big):
    for data in COLUMNS + [big]:
        _assert_hull_matches_chain(empirical_cdfs(data))


BIG = 2**40
# class counts per tie group: mixed groups, single-class groups, and huge ones
_GROUP = st.one_of(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.integers(BIG - 3, BIG + 3), st.integers(0, 2)),
    st.tuples(st.integers(0, 2), st.integers(BIG - 3, BIG + 3)),
).filter(any)
# a run repeats one group: a collinear run, or a long single-class run
_RUNS = st.lists(st.tuples(_GROUP, st.integers(1, 30)), min_size=1, max_size=12)


@given(_RUNS)
@settings(max_examples=300, deadline=None)
@example([((3, 2), 1)])  # a single distinct score
@example([((2, 0), 5), ((1, 1), 4), ((0, 3), 1)])  # flat start, collinear run, vertical end
@example([((1, 0), 20), ((0, 1), 20)])  # long single-class runs
@example([((4, 4), 3), ((2, 3), 2), ((3, 1), 2), ((0, 2), 1)])  # tie-heavy, vertical end
def test_hull_matches_chain_on_tables_from_counts(runs):
    count0 = [c0 for (c0, _), r in runs for _ in range(r)]
    count1 = [c1 for (_, c1), r in runs for _ in range(r)]
    assume(sum(count0) > 0 and sum(count1) > 0)  # a one-class column has no ROC curve
    _assert_hull_matches_chain(_table(count0, count1))


def test_hull_exact_at_counts_near_2_pow_40():
    # ROC points (0,0) (B,1) (2B-1,B) (2B,2B), all vertices: the turn
    # tests multiply counts near 2^40, so their products pass 2^63
    table = _table([BIG, BIG - 1, 1], [1, BIG - 1, BIG])
    f0, f1 = table.hull
    assert f0.size == 4
    _assert_hull_matches_chain(table)


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
