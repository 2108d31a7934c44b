import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval
from scipy.special import betainc

from hmetric import (
    BetaWeight,
    ConfigError,
    EvalConfig,
    default_weight,
    h_measure_fixed,
    h_measure_uncertain_priors,
    ingest,
    read_scores_csv,
)
from hmetric.empirical import ClassPriors, empirical_cdfs
from hmetric.report import build_report
import hmetric.hmeasure as hmeasure
from hmetric.hmeasure import PRIOR_NODES, _loss_at, _reference_loss_batch
from conftest import random_dataset
from oracles import exact_calibrated_loss_batch, nested_uncertain_h

# frozen 40-digit oracle values for the golden 4-point dataset
GOLDEN_H_CAL = 0.33054877872925612091
GOLDEN_H_OPT = 0.5
GOLDEN_H_UNCERTAIN = 0.024091651204242384825  # adaptive outer quadrature


class TestDefaultWeight:
    def test_balanced(self):
        w = default_weight(ClassPriors(pi0=0.5))
        assert (w.alpha, w.beta) == (1.5, 1.5)
        assert w.mode() == pytest.approx(0.5)

    def test_mode_tracks_minority_class(self):
        w = default_weight(ClassPriors(pi0=0.9))
        assert (w.alpha, w.beta) == (pytest.approx(1.1), pytest.approx(1.9))
        assert w.mode() == pytest.approx(0.1)

    def test_majority_class_one(self):
        w = default_weight(ClassPriors(pi0=0.25))
        assert (w.alpha, w.beta) == (pytest.approx(1.75), pytest.approx(1.25))
        assert w.mode() == pytest.approx(0.75)


class TestHMeasureFixed:
    def test_perfect_classifier_is_one(self, perfect):
        res = h_measure_fixed(perfect)
        assert res.h == 1.0
        assert res.loss == 0.0
        assert res.warnings == ()

    def test_separated_scores_one_in_optimal_mode(self, separated):
        res = h_measure_fixed(separated, config=EvalConfig(threshold_mode="optimal"))
        assert res.h == 1.0

    def test_constant_scores_at_prior_is_zero(self):
        data = ingest([0.3] * 10, [0] * 7 + [1] * 3)
        res = h_measure_fixed(data)
        assert abs(res.h) <= 1e-10

    def test_no_skill_is_exactly_zero_in_optimal_mode(self, fixtures_dir):
        # a constant scorer's ROC hull is the diagonal, and its loss is
        # integrated in the same partial-moment form as the reference
        optimal = EvalConfig(threshold_mode="optimal")
        names, columns, labels = read_scores_csv(fixtures_dir / "constant_at_prior.csv")
        assert h_measure_fixed(ingest(columns["score"], labels), config=optimal).h == 0.0
        data = ingest([0.3] * 10, [0] * 7 + [1] * 3)
        for pi0 in np.arange(1, 100) / 100:
            res = h_measure_fixed(data, priors=ClassPriors(pi0=float(pi0)), config=optimal)
            assert res.h == 0.0, pi0
        cfg = EvalConfig(prior="beta", seed=3, outer_samples=2000, threshold_mode="optimal")
        assert h_measure_uncertain_priors(data, config=cfg).h == 0.0

    def test_golden_fixture(self, golden4):
        res = h_measure_fixed(golden4)
        assert res.h == pytest.approx(GOLDEN_H_CAL, rel=1e-10)
        res_opt = h_measure_fixed(golden4, config=EvalConfig(threshold_mode="optimal"))
        assert res_opt.h == pytest.approx(GOLDEN_H_OPT, abs=1e-12)

    def test_result_reconstructs_from_components(self):
        for seed in range(10):
            res = h_measure_fixed(random_dataset(seed))
            assert res.h == pytest.approx(1.0 - res.loss / res.reference_loss, abs=1e-12)

    def test_h_at_most_one(self):
        for seed in range(25):
            res = h_measure_fixed(random_dataset(seed, n=35))
            assert res.h <= 1.0
            if res.loss > 1e-12:
                assert res.h < 1.0

    def test_optimal_mode_in_unit_interval(self):
        for seed in range(25):
            res = h_measure_fixed(
                random_dataset(seed, n=35), config=EvalConfig(threshold_mode="optimal")
            )
            assert 0.0 <= res.h <= 1.0

    def test_optimal_mode_bounded_even_with_zero_score_atoms(self):
        # every score at 0: no threshold in [0, 1] separates anything, so
        # the optimum must fall back to an all-to-one-class rule and H = 0
        data = ingest([0.0] * 6, [0, 0, 0, 1, 1, 1])
        res = h_measure_fixed(data, config=EvalConfig(threshold_mode="optimal"))
        assert abs(res.h) <= 1e-12

    def test_negative_h_flagged_not_clamped(self):
        # anti-calibrated scores: class 0 near 1, class 1 near 0
        data = ingest([0.9, 0.95, 0.85, 0.1, 0.05, 0.15], [0, 0, 0, 1, 1, 1])
        res = h_measure_fixed(data)
        assert res.h < 0.0
        assert any("h_negative" in w for w in res.warnings)

    def test_permutation_invariance(self):
        data = random_dataset(4, n=50)
        rng = np.random.default_rng(0)
        perm = rng.permutation(50)
        shuffled = ingest(data.scores[perm], data.labels[perm])
        assert h_measure_fixed(shuffled) == h_measure_fixed(data)

    def test_row_duplication_invariance(self):
        data = random_dataset(5, n=30)
        doubled = ingest(np.tile(data.scores, 2), np.tile(data.labels, 2))
        assert h_measure_fixed(doubled).h == pytest.approx(h_measure_fixed(data).h, abs=1e-14)

    def test_explicit_weight_and_priors(self, golden4):
        res = h_measure_fixed(golden4, priors=ClassPriors(0.7), w=BetaWeight(2, 3))
        assert res.weight_used == {"kind": "beta", "alpha": 2.0, "beta": 3.0}
        assert res.prior_used == {"kind": "fixed", "pi0": 0.7}

    def test_fixed_prior_from_the_config(self, golden4):
        res = h_measure_fixed(golden4, config=EvalConfig(prior="fixed", pi0=0.2))
        assert res.prior_used == {"kind": "fixed", "pi0": 0.2}
        assert res == h_measure_fixed(golden4, priors=ClassPriors(pi0=0.2))

    def test_beta_weight_from_the_config(self, golden4):
        cfg = EvalConfig(weight="beta", weight_alpha=5.0, weight_beta=1.0)
        res = h_measure_fixed(golden4, config=cfg)
        assert res.weight_used == {"kind": "beta", "alpha": 5.0, "beta": 1.0}
        assert res == h_measure_fixed(golden4, w=BetaWeight(5.0, 1.0))

    def test_rejects_a_beta_prior(self, golden4):
        with pytest.raises(ConfigError, match="h_measure_uncertain_priors"):
            h_measure_fixed(golden4, config=EvalConfig(prior="beta", seed=1))


class TestHMeasureUncertainPriors:
    CFG = EvalConfig(prior="beta", seed=20260809, outer_samples=20000)

    def test_perfect_classifier_is_one(self, perfect):
        res = h_measure_uncertain_priors(perfect, config=self.CFG)
        assert res.h == 1.0
        assert res.mc_stderr == 0.0

    def test_bounded_above_for_constant_scores(self):
        data = ingest([0.4] * 10, [0] * 6 + [1] * 4)
        res = h_measure_uncertain_priors(data, config=self.CFG)
        assert res.h <= 1e-10

    def test_golden_fixture_within_three_stderr(self, golden4):
        cfg = EvalConfig(prior="beta", seed=314, outer_samples=100000)
        res = h_measure_uncertain_priors(golden4, config=cfg)
        assert abs(res.h - GOLDEN_H_UNCERTAIN) <= 3 * res.mc_stderr
        # the in-test nested oracle agrees with the frozen constant
        oracle = nested_uncertain_h([0.1, 0.4], [0.3, 0.9])
        assert oracle == pytest.approx(GOLDEN_H_UNCERTAIN, abs=1e-6)

    def test_single_prior_matches_fixed_h(self, golden4):
        # one draw of the outer integrand reproduces the fixed-prior H
        # at that prior with the matching conditional weight, in both
        # threshold modes and with several priors in one batch
        cdfs = empirical_cdfs(golden4)
        pi0s = [0.2, 0.5, 0.8]
        for mode in ("calibrated", "optimal"):
            p = np.asarray(pi0s)
            ratios = _loss_at(cdfs, mode)(p) / _reference_loss_batch(p)
            for pi0, ratio in zip(pi0s, ratios):
                fixed = h_measure_fixed(
                    golden4,
                    priors=ClassPriors(pi0=pi0),
                    w=BetaWeight(2.0 - pi0, 1.0 + pi0),
                    config=EvalConfig(threshold_mode=mode),
                )
                assert 1.0 - ratio == pytest.approx(fixed.h, abs=1e-12)

    def test_reconstructs_from_components(self, golden4):
        res = h_measure_uncertain_priors(golden4, config=self.CFG)
        assert res.h == pytest.approx(1.0 - res.loss / res.reference_loss, abs=1e-12)
        assert res.reference_loss == 1.0

    def test_requires_seed(self, golden4):
        with pytest.raises(ConfigError, match="seed"):
            h_measure_uncertain_priors(golden4, config=EvalConfig(prior="beta"))

    def test_optimal_mode_supported(self, golden4):
        cfg = EvalConfig(prior="beta", threshold_mode="optimal", seed=5, outer_samples=2000)
        res = h_measure_uncertain_priors(golden4, config=cfg)
        assert 0.0 <= res.h <= 1.0

    def test_custom_prior_shapes(self, golden4):
        cfg = EvalConfig(prior="beta", prior_alpha=4.0, prior_beta=4.0, seed=6,
                         outer_samples=5000)
        res = h_measure_uncertain_priors(golden4, config=cfg)
        assert res.prior_used == {"kind": "beta", "alpha": 4.0, "beta": 4.0}

    def test_prior_shapes_come_from_the_config(self, golden4):
        # the draws follow the config's shapes, so H moves with them
        def run(alpha, beta):
            cfg = EvalConfig(prior="beta", prior_alpha=alpha, prior_beta=beta, seed=1,
                             outer_samples=2000)
            return h_measure_uncertain_priors(golden4, config=cfg)

        res = run(5, 5)
        assert res.prior_used == {"kind": "beta", "alpha": 5.0, "beta": 5.0}
        assert res.h != run(2.0, 2.0).h

    @pytest.mark.parametrize("prior", ["empirical", "fixed"])
    def test_rejects_a_concrete_prior(self, golden4, prior):
        cfg = EvalConfig(prior=prior, pi0=0.3 if prior == "fixed" else None, seed=1)
        with pytest.raises(ConfigError, match="needs a beta prior"):
            h_measure_uncertain_priors(golden4, config=cfg)

    @pytest.mark.parametrize("shapes", [(1.0, 2.0), (2.0, 1.0), (0.5, 0.5), (1.0, 1.0)])
    def test_calibrated_mode_needs_shapes_above_one(self, golden4, shapes):
        # the mean loss ratio diverges unless both shapes exceed one
        alpha, beta = shapes
        cfg = EvalConfig(prior="beta", prior_alpha=alpha, prior_beta=beta, seed=6,
                         outer_samples=100)
        with pytest.raises(ConfigError, match="must exceed 1"):
            h_measure_uncertain_priors(golden4, config=cfg)

    def test_optimal_mode_accepts_shapes_up_to_one(self, golden4):
        cfg = EvalConfig(prior="beta", prior_alpha=1.0, prior_beta=0.5, threshold_mode="optimal",
                         seed=6, outer_samples=100)
        res = h_measure_uncertain_priors(golden4, config=cfg)
        assert 0.0 <= res.h <= 1.0


    def test_heavy_tail_warning(self, golden4):
        # the calibrated loss ratio's variance is finite only when both
        # prior shapes exceed 2
        def warned(shapes, mode="calibrated"):
            alpha, beta = shapes
            cfg = EvalConfig(prior="beta", prior_alpha=alpha, prior_beta=beta,
                             threshold_mode=mode, seed=6, outer_samples=200)
            res = h_measure_uncertain_priors(golden4, config=cfg)
            return [w for w in res.warnings if w.startswith("heavy_tail:")]

        assert len(warned((2.0, 2.0))) == 1
        assert len(warned((5.0, 1.2))) == 1
        assert warned((3.0, 3.0)) == []
        assert warned((2.0, 2.0), mode="optimal") == []


def _datasets():
    """Columns with continuous scores, with ties, and with scores at
    exactly 0 and 1 in both classes."""
    rng = np.random.default_rng(8)
    continuous = random_dataset(8, n=3000)
    tied = np.round(rng.beta(2.0, 3.0, 2000), 2)
    ends = np.concatenate([tied[:1500], [0.0] * 40, [1.0] * 60])
    ends_labels = (rng.random(ends.size) < 0.4).astype(int)
    return [
        continuous,
        ingest(tied, (rng.random(tied.size) < tied).astype(int)),
        ingest(ends, ends_labels),
        ingest([0.0, 0.0, 0.3, 1.0, 0.7, 1.0], [0, 0, 0, 1, 1, 1]),
    ]


def test_prior_interpolant_accuracy():
    # each partial pair of the calibrated class sums, interpolated in pi0
    # from its values at PRIOR_NODES Chebyshev points, against scipy's betainc
    u = np.concatenate([
        np.logspace(-300, -1, 150),  # toward 0
        1.0 - np.logspace(-16, -1, 100),  # toward 1
        np.linspace(0.0, 1.0, 201)[1:-1],
        [np.nextafter(1.0, 0.0)],
    ])
    p = np.concatenate([np.linspace(0.0, 1.0, 2001), [np.finfo(float).tiny, 1.0 - 1e-16]])
    a, b = hmeasure._conditional_shapes(p)
    coef = hmeasure._node_sums(u, np.eye(u.size), np.eye(u.size))
    exact = betainc(a + 1.0, b, u[:, None]), 1.0 - betainc(a, b + 1.0, u[:, None])
    for side in (0, 1):
        got = chebval(2.0 * p - 1.0, coef[:, side])
        assert np.max(np.abs(got - exact[side])) <= 1e-14


@pytest.mark.parametrize("table", range(4))
def test_calibrated_batch_matches_exact_per_draw(table):
    cdfs = empirical_cdfs(_datasets()[table])
    pi0s = np.concatenate([
        np.random.default_rng(table).beta(2.0, 2.0, 400),
        [np.finfo(float).tiny, 0.5, 1.0 - 1e-16],
    ])
    got = hmeasure._calibrated_loss_batch(pi0s, hmeasure._calibrated_coefficients(cdfs))
    want = exact_calibrated_loss_batch(pi0s, cdfs.u, cdfs.count0, cdfs.count1)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def _counting_pairs(monkeypatch):
    """Record the element count of every partial-pair call of the prior path."""
    seen = []
    own = hmeasure._partial_pair  # the package's routine, so the counted calls run it

    def counted(a, b, x):
        seen.append(np.broadcast(a, b, x).size)
        return own(a, b, x)

    monkeypatch.setattr(hmeasure, "_partial_pair", counted)
    return seen


@pytest.mark.parametrize("draws", [2000, 20000])
def test_prior_betainc_work(monkeypatch, draws):
    # the class sums take PRIOR_NODES partial pairs per inner distinct score,
    # both classes from the same pair, whatever the number of draws; only
    # the closed-form reference is evaluated per draw, one pair each
    data = _datasets()[2]
    cdfs = empirical_cdfs(data)
    seen = _counting_pairs(monkeypatch)
    h_measure_uncertain_priors(data, config=EvalConfig(prior="beta", seed=4, outer_samples=draws))
    inner = (cdfs.u > 0.0) & (cdfs.u < 1.0)
    k0, k1 = np.sum(inner & (cdfs.count0 > 0)), np.sum(inner & (cdfs.count1 > 0))
    assert sum(seen) == PRIOR_NODES * np.sum(inner) + draws
    assert sum(seen) < PRIOR_NODES * (k0 + k1) + 2 * draws


@pytest.mark.parametrize("mode", ["calibrated", "optimal"])
def test_report_shares_the_prior_draws(monkeypatch, mode):
    # a report evaluates the reference once per draw for all its columns,
    # and each column's H is that of h_measure_uncertain_priors alone
    columns = {"tied": _datasets()[1].scores, "other": np.round(_datasets()[1].scores ** 2, 3)}
    labels = np.asarray(_datasets()[1].labels)
    config = EvalConfig(prior="beta", threshold_mode=mode, seed=9, outer_samples=3000)
    seen = _counting_pairs(monkeypatch)
    report = build_report(columns, labels, config)
    cdfs = {name: empirical_cdfs(ingest(scores, labels)) for name, scores in columns.items()}
    if mode == "calibrated":
        nodes = sum(PRIOR_NODES * np.sum((c.u > 0.0) & (c.u < 1.0)) for c in cdfs.values())
        assert sum(seen) == nodes + config.outer_samples
    else:  # one reference batch per chunk, then one (draws x hull breaks) batch per column
        hull = sum(c.hull[0].size + 1 for c in cdfs.values())
        assert sum(seen) == config.outer_samples * (1 + hull)
    for name, scores in columns.items():
        alone = h_measure_uncertain_priors(ingest(scores, labels), config)
        got = report["columns"][name]["h"]
        assert (got["h"], got["loss"], got["mc_stderr"]) == (alone.h, alone.loss, alone.mc_stderr)
