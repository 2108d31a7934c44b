import numpy as np
import pytest

from hmetric import (
    BetaWeight,
    ConfigError,
    InputError,
    TabulatedWeight,
    default_weight,
    expected_loss,
    expected_min_loss,
    log_loss_rule,
    pointwise_loss,
    properness_check,
    rule_from_weight,
    squared_error_rule,
)
from hmetric.empirical import ClassPriors, empirical_cdfs, empirical_priors
from conftest import random_dataset

# frozen 40-digit oracle: integral of c b(c; 1.5, 1.5) over (0, 0.3)
M0_03_15 = 0.044471861585332799677


class TestPointwiseLoss:
    def test_vanishes_at_zero_probability(self):
        assert pointwise_loss(1e-9, 0, BetaWeight(1, 1)) < 1e-17

    def test_uniform_half(self):
        # integral of (1 - c) over (1/2, 1) is 1/8
        assert pointwise_loss(0.5, 1, BetaWeight(1, 1)) == pytest.approx(0.125, rel=1e-12)

    def test_oracle_value(self):
        got = pointwise_loss(0.3, 0, BetaWeight(1.5, 1.5))
        assert got == pytest.approx(M0_03_15, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(InputError):
            pointwise_loss(0.0, 0, BetaWeight(1, 1))
        with pytest.raises(InputError):
            pointwise_loss(0.5, 2, BetaWeight(1, 1))


class TestExpectedLoss:
    def test_eta_zero_is_lower_moment(self):
        w = BetaWeight(2, 2)
        for q in [0.1, 0.5, 0.9]:
            assert expected_loss(q, 0.0, w) == pytest.approx(
                w.partial_moments(q)[0], rel=1e-14
            )
        # minimized toward q -> 0
        assert expected_loss(1e-6, 0.0, w) < expected_loss(0.5, 0.0, w)

    def test_symmetric_uniform_half(self):
        assert expected_loss(0.5, 0.5, BetaWeight(1, 1)) == pytest.approx(0.125, rel=1e-12)

    def test_grid_argmin_at_eta(self):
        w = BetaWeight(1.5, 1.5)
        grid = np.arange(0.001, 1.0, 0.001)
        values = expected_loss(grid, 0.7, w)
        argmin = grid[np.argmin(values)]
        assert abs(argmin - 0.7) <= 0.001 + 1e-12

    def test_minimum_at_eta_dominates(self):
        w = BetaWeight(2.0, 3.0)
        rng = np.random.default_rng(8)
        for _ in range(20):
            eta = rng.uniform(0.05, 0.95)
            base = expected_loss(eta, eta, w)
            for q in rng.uniform(0.01, 0.99, 10):
                assert expected_loss(float(q), eta, w) >= base - 1e-14


class TestDerivative:
    def test_finite_difference_matches(self):
        # d/dq expected_loss = (q - eta) w(q) for smooth beta weights
        rng = np.random.default_rng(17)
        w = BetaWeight(1.5, 1.5)
        h = 1e-6
        for _ in range(100):
            q = rng.uniform(0.05, 0.95)
            eta = rng.uniform(0.0, 1.0)
            fd = (expected_loss(q + h, eta, w) - expected_loss(q - h, eta, w)) / (2 * h)
            analytic = (q - eta) * w.density(q)
            assert fd == pytest.approx(analytic, abs=1e-6)


class TestPropernessCheck:
    def test_uniform_midpoint(self):
        report = properness_check(BetaWeight(1, 1), [0.5])
        assert report.all_ok
        entry = report.entries[0]
        assert entry.status == "ok"
        assert abs(entry.argmin - 0.5) <= report.grid_step

    def test_beta22_random_etas(self):
        rng = np.random.default_rng(9)
        etas = rng.uniform(0.05, 0.95, 20)
        report = properness_check(BetaWeight(2, 2), etas)
        assert report.all_ok
        for entry in report.entries:
            assert entry.gap <= report.grid_step + 1e-12

    def test_off_support_plateau_reported(self):
        # weight supported only on (0.4, 0.6); eta below the support sits
        # in a flat minimizer stretch
        grid = np.linspace(0.35, 0.65, 2048)
        dens = np.where((grid > 0.4) & (grid < 0.6), 1.0, 0.0)
        dens /= np.trapezoid(dens, grid)
        w = TabulatedWeight(grid, dens)
        report = properness_check(w, [0.1])
        entry = report.entries[0]
        assert entry.status == "proper_not_strict_off_support"
        assert not entry.strict
        assert report.all_ok  # reported, not failed

    def test_on_support_eta_still_strict(self):
        grid = np.linspace(0.35, 0.65, 2048)
        dens = np.where((grid > 0.4) & (grid < 0.6), 1.0, 0.0)
        dens /= np.trapezoid(dens, grid)
        w = TabulatedWeight(grid, dens)
        report = properness_check(w, [0.5])
        assert report.entries[0].status == "ok"

    def test_grid_step_validated(self):
        with pytest.raises(ConfigError):
            properness_check(BetaWeight(1, 1), [0.5], grid_step=0.01)


class TestRuleFromWeight:
    def test_squared_error_from_constant_weight(self):
        rule = rule_from_weight(lambda c: 2.0)
        named = squared_error_rule()
        grid = np.arange(0.001, 1.0, 0.001)
        assert np.max(np.abs(rule.loss0(grid) - named.loss0(grid))) < 1e-10
        assert np.max(np.abs(rule.loss1(grid) - named.loss1(grid))) < 1e-10

    def test_log_loss_from_reciprocal_weight(self):
        rule = rule_from_weight(lambda c: 1.0 / (c * (1.0 - c)))
        named = log_loss_rule()
        grid = np.arange(0.001, 1.0, 0.001)
        # truncation at eps = 1e-6 bounds the constant offset by ~eps
        assert np.max(np.abs(rule.loss0(grid) - named.loss0(grid))) < 3e-6
        assert np.max(np.abs(rule.loss1(grid) - named.loss1(grid))) < 3e-6

    def test_normalized_at_origin(self):
        rule = rule_from_weight(BetaWeight(1.5, 2.5))
        assert rule.loss0(1e-9) < 1e-15
        assert rule.loss1(1e-9) < 1e-15

    def test_recombination_reproduces_pointwise_loss(self):
        w = default_weight(ClassPriors(pi0=0.6))
        rule = rule_from_weight(w)
        rng = np.random.default_rng(30)
        for q in rng.uniform(0.01, 0.99, 25):
            q = float(q)
            assert rule.loss(q, 0) == pytest.approx(pointwise_loss(q, 0, w), abs=1e-15)
            assert rule.loss(q, 1) == pytest.approx(pointwise_loss(q, 1, w), abs=1e-15)

    def test_expected_loss_identity_by_construction(self):
        w = BetaWeight(1.2, 1.8)
        rule = rule_from_weight(w)
        rng = np.random.default_rng(31)
        for _ in range(20):
            q = float(rng.uniform(0.02, 0.98))
            eta = float(rng.uniform(0.0, 1.0))
            combined = (1 - eta) * rule.loss0(q) + eta * rule.loss1(1 - q)
            assert combined == pytest.approx(expected_loss(q, eta, w), abs=1e-14)

    def test_non_integrable_weight_rejected(self):
        with pytest.raises(InputError, match="converge|integrated"):
            rule_from_weight(lambda c: 1.0 / c**2)


class TestDatasetConsistency:
    def test_mean_pointwise_equals_expected_min_loss(self):
        # scores feed both the per-object losses and the threshold CDFs,
        # tying the per-object rule to the dataset-level loss integral
        for seed in range(20):
            data = random_dataset(seed, n=50)
            priors = empirical_priors(data)
            cdfs = empirical_cdfs(data)
            w = default_weight(priors)
            mean_pw = np.mean(
                [pointwise_loss(float(s), int(y), w) for s, y in zip(data.scores, data.labels)]
            )
            integral = expected_min_loss(priors, cdfs, w, mode="calibrated")
            assert mean_pw == pytest.approx(integral, abs=1e-10)
