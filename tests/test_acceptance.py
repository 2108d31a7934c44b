"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its elapsed time.  Tolerances are pinned here, not configured.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time
from dataclasses import asdict

import numpy as np

from hmetric import (
    BetaWeight,
    EvalConfig,
    auc_mann_whitney,
    default_weight,
    expected_loss,
    expected_min_loss,
    h_measure_fixed,
    h_measure_uncertain_priors,
    ingest,
    log_loss_rule,
    mixture_weight_loss,
    pointwise_loss,
    properness_check,
    rank_uniform_evaluation,
    reference_loss,
    rule_from_weight,
    squared_error_rule,
)
from hmetric.empirical import ClassPriors, empirical_cdfs, empirical_priors
from conftest import random_dataset
from oracles import closed_reference_loss, nested_uncertain_h

GOLDEN4 = ([0.1, 0.4, 0.3, 0.9], [0, 0, 1, 1])


class _Criterion:
    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {verdict} ({elapsed:.2f}s) - {self.description}")
        return False


def test_criterion_1_boundary_exactness():
    with _Criterion(1, "perfect fixtures give H = 1 and AUC = 1 exactly; "
                       "constant-at-prior scores give |H| <= 1e-10"):
        perfect = ingest([0.0, 0.0, 0.0, 1.0, 1.0, 1.0], [0, 0, 0, 1, 1, 1])
        res = h_measure_fixed(perfect)
        assert res.h == 1.0
        assert auc_mann_whitney(perfect).auc == 1.0

        separated = ingest([0.05, 0.2, 0.35, 0.6, 0.8, 0.95], [0, 0, 0, 1, 1, 1])
        assert h_measure_fixed(separated, config=EvalConfig(threshold_mode="optimal")).h == 1.0
        assert auc_mann_whitney(separated).auc == 1.0

        constant = ingest([0.3] * 10, [0] * 7 + [1] * 3)
        assert abs(h_measure_fixed(constant).h) <= 1e-10


def test_criterion_2_closed_form_vs_quadrature():
    with _Criterion(2, "closed-form reference loss matches direct quadrature to "
                       "1e-8 relative over 50 random (pi0, alpha, beta)"):
        rng = np.random.default_rng(20260501)
        worst = 0.0
        for _ in range(50):
            pi0 = float(rng.uniform(0.05, 0.95))
            a, b = float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.5, 5.0))
            cf = reference_loss(ClassPriors(pi0=pi0), BetaWeight(a, b))
            qd = closed_reference_loss(pi0, a, b)
            rel = abs(cf - qd) / qd
            worst = max(worst, rel)
            assert rel <= 1e-8
        print(f"  worst relative deviation: {worst:.2e}")


def test_criterion_3_strict_properness():
    with _Criterion(3, "grid argmin of the expected per-object loss sits at eta "
                       "within one 1e-3 step; derivative matches (q - eta) w(q) "
                       "to 1e-6 at 100 points"):
        rng = np.random.default_rng(315)
        for pi0 in (0.5, 0.7):
            w = default_weight(ClassPriors(pi0=pi0))
            etas = rng.uniform(0.02, 0.98, 20)
            report = properness_check(w, etas, grid_step=1e-3)
            assert report.all_ok
            for entry in report.entries:
                assert entry.gap <= 1e-3 + 1e-12

            h = 1e-6
            for _ in range(100):
                q = float(rng.uniform(0.05, 0.95))
                eta = float(rng.uniform(0.0, 1.0))
                fd = (expected_loss(q + h, eta, w) - expected_loss(q - h, eta, w)) / (2 * h)
                assert abs(fd - (q - eta) * w.density(q)) <= 1e-6


def test_criterion_4_auc_equivalence_chain():
    with _Criterion(4, "mixture-weight loss tracks 2 pi0 pi1 (1 - AUC) within the "
                       "oracle-pinned 2.5/min-class tolerance; rank-uniform "
                       "evaluation equals the AUC exactly (20 seeded datasets)"):
        for seed in range(20):
            data = random_dataset(seed, n=200, calibrated=True)
            assert np.unique(data.scores).size == data.n  # tie-free
            res = auc_mann_whitney(data)
            sub = mixture_weight_loss(data)
            assert abs(sub - res.equivalent_loss) <= 2.5 / min(data.n0, data.n1)
            assert rank_uniform_evaluation(data) == res.auc


def test_criterion_5_monte_carlo_consistency():
    with _Criterion(5, "prior-uncertain H with 1e5 outer draws lies within "
                       "3 stderr of the nested-quadrature oracle in >= 99/100 seeds"):
        data = ingest(*GOLDEN4)
        oracle = nested_uncertain_h([0.1, 0.4], [0.3, 0.9], n_grid=2048)
        hits = 0
        for seed in range(100):
            cfg = EvalConfig(prior="beta", seed=seed, outer_samples=100000)
            res = h_measure_uncertain_priors(data, config=cfg)
            if abs(res.h - oracle) <= 3 * res.mc_stderr:
                hits += 1
        print(f"  within 3 stderr: {hits}/100 (oracle {oracle:.9f})")
        assert hits >= 99


def test_criterion_6_weight_rule_correspondence():
    with _Criterion(6, "constant weight 2 rebuilds squared error and "
                       "1/(c(1-c)) rebuilds log-loss, to 1e-6 on a 999-point grid"):
        grid = np.arange(0.001, 1.0, 0.001)
        assert grid.size == 999

        sq = rule_from_weight(lambda c: 2.0)
        named_sq = squared_error_rule()
        assert np.max(np.abs(sq.loss0(grid) - named_sq.loss0(grid))) <= 1e-6
        assert np.max(np.abs(sq.loss1(grid) - named_sq.loss1(grid))) <= 1e-6

        ll = rule_from_weight(lambda c: 1.0 / (c * (1.0 - c)))
        named_ll = log_loss_rule()
        # truncation at eps = 1e-6 shifts the reconstruction by O(eps)
        assert np.max(np.abs(ll.loss0(grid) - named_ll.loss0(grid))) <= 1e-6 + 3e-6
        assert np.max(np.abs(ll.loss1(grid) - named_ll.loss1(grid))) <= 1e-6 + 3e-6


def test_criterion_7_cross_module_identity():
    with _Criterion(7, "dataset-averaged per-object loss equals the calibrated "
                       "expected minimum loss to 1e-10 on 20 random datasets"):
        for seed in range(20):
            data = random_dataset(seed, n=60)
            priors = empirical_priors(data)
            cdfs = empirical_cdfs(data)
            w = default_weight(priors)
            mean_pw = float(
                np.mean(
                    [
                        pointwise_loss(float(s), int(y), w)
                        for s, y in zip(data.scores, data.labels)
                    ]
                )
            )
            integral, _ = expected_min_loss(priors, cdfs, w, mode="calibrated")
            assert abs(mean_pw - integral) <= 1e-10


def test_criterion_8_structural_invariants():
    with _Criterion(8, "H <= 1 always; 0 <= H <= 1 in optimal mode; AUC monotone "
                       "invariance and label-swap antisymmetry exact; Monte Carlo "
                       "byte-identical across worker counts"):
        for seed in range(30):
            data = random_dataset(seed, n=45)
            assert h_measure_fixed(data).h <= 1.0
            h_opt = h_measure_fixed(data, config=EvalConfig(threshold_mode="optimal")).h
            assert 0.0 <= h_opt <= 1.0

        rng = np.random.default_rng(2)
        for seed in range(10):
            data = random_dataset(seed, n=100)
            knots_x = np.r_[0.0, np.sort(rng.random(4)), 1.0]
            knots_y = np.r_[0.0, np.sort(rng.random(4)), 1.0]
            mapped = ingest(np.interp(data.scores, knots_x, knots_y), data.labels)
            assert auc_mann_whitney(mapped).auc == auc_mann_whitney(data).auc

            swapped = ingest(data.scores, 1 - data.labels)
            res, res_sw = auc_mann_whitney(data), auc_mann_whitney(swapped)
            u = round(res.auc * res.n_pairs * 2) / 2
            u_sw = round(res_sw.auc * res_sw.n_pairs * 2) / 2
            assert u + u_sw == res.n_pairs

        data = ingest(*GOLDEN4)
        mc_runs = [
            h_measure_fixed(
                data,
                config=EvalConfig(method="monte_carlo", mc_samples=60000, seed=9, n_workers=k),
            )
            for k in (1, 2, 4)
        ]
        blobs = {json.dumps(asdict(r), sort_keys=True).encode() for r in mc_runs}
        assert len(blobs) == 1

        unc_runs = [
            h_measure_uncertain_priors(
                data, config=EvalConfig(prior="beta", seed=9, outer_samples=60000, n_workers=k)
            )
            for k in (1, 4)
        ]
        blobs = {json.dumps(asdict(r), sort_keys=True).encode() for r in unc_runs}
        assert len(blobs) == 1
