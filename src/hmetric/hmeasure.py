"""The H-measure: normalized expected minimum misclassification loss.

H = 1 - L / L_ref compares the classifier's cost-averaged minimum loss L
against the loss L_ref of a no-skill scorer under the same weight and
priors, so H = 1 means zero loss and H = 0 means no better than chance.
The default cost weight is the beta density with shapes (1 + pi1, 1 + pi0),
whose mode sits at pi1: in unbalanced problems misclassifying the smaller
class is the costlier mistake.

When the class proportions themselves are uncertain, pi0 is drawn from a
beta distribution (Beta(2, 2) by default), the cost weight becomes the
conditional Beta(2 - pi0, 1 + pi0), and H is one minus the expected
loss-to-reference ratio over the prior draws, estimated by seeded Monte
Carlo with a deterministic chunk layout.  At each drawn prior the loss and
the reference are exact: shape-shifted regularized incomplete betas from
scipy.special.betainc, evaluated for all draws of a chunk at once, in
blocks of scores under a fixed memory budget.  In calibrated mode the
ratio grows like 1/pi0 and 1/pi1 at the ends of the unit interval, so the
prior's shapes must both exceed one for H to exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from ._mc import combine_mean_stderr, run_chunks
from .config import EvalConfig, require_finite_mean_ratio
from .distributions import BetaParams, BetaWeight, WeightFunction
from .empirical import ClassPriors, EmpiricalCdfPair, LabeledScores, empirical_cdfs, empirical_priors
from .errors import ConfigError
from .loss import _hull_envelope, expected_min_loss, reference_loss

__all__ = [
    "HResult",
    "default_weight",
    "h_measure_fixed",
    "h_measure_uncertain_priors",
]

DEFAULT_PRIOR_UNCERTAINTY = BetaParams(2.0, 2.0)

# Largest (draws x scores) block of incomplete betas the calibrated loss
# builds at once: 2**22 float64s, 32 MiB.
BETAINC_BLOCK = 2**22


@dataclass(frozen=True)
class HResult:
    """H with the components it was built from.

    h always equals 1 - loss / reference_loss.  Under a distributed prior
    loss holds the mean loss-to-reference ratio and reference_loss is 1,
    so the identity still reconstructs h from the stored fields.
    """

    h: float
    loss: float
    reference_loss: float
    weight_used: dict
    prior_used: dict
    mc_stderr: float | None
    warnings: tuple[str, ...]


def default_weight(priors: ClassPriors) -> BetaWeight:
    """Conventional cost weight Beta(1 + pi1, 1 + pi0); its mode is pi1."""
    return BetaWeight(1.0 + priors.pi1, 1.0 + priors.pi0)


def _warnings_for(h: float, mode: str) -> tuple[str, ...]:
    if h < 0.0 and mode == "calibrated":
        return (
            "h_negative: calibrated-threshold loss exceeds the no-skill reference; "
            "the scores are badly calibrated (raw value reported, not clamped)",
        )
    return ()


def h_measure_fixed(
    data: LabeledScores,
    priors: ClassPriors | None = None,
    w: WeightFunction | None = None,
    config: EvalConfig = EvalConfig(),
) -> HResult:
    """H-measure at known priors.

    priors defaults to the empirical class proportions and w to
    default_weight(priors).  The loss comes from expected_min_loss under
    the config's threshold mode and method; the reference loss comes from
    the weight's exact partial moments at pi1.
    """
    config.validate()
    cdfs = empirical_cdfs(data)
    if priors is None:
        priors = empirical_priors(data)
    if w is None:
        w = default_weight(priors)
    loss, stderr = expected_min_loss(
        priors,
        cdfs,
        w,
        mode=config.threshold_mode,
        method=config.method,
        mc_samples=config.mc_samples,
        seed=config.seed,
        n_workers=config.n_workers,
    )
    ref = reference_loss(priors, w)
    h = 1.0 - loss / ref
    return HResult(
        h=float(h),
        loss=float(loss),
        reference_loss=float(ref),
        weight_used=w.describe(),
        prior_used={"kind": "fixed", "pi0": priors.pi0},
        mc_stderr=stderr,
        warnings=_warnings_for(h, config.threshold_mode),
    )


def _conditional_shapes(pi0s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shapes of the conditional cost weight Beta(1 + pi1, 1 + pi0)."""
    return 2.0 - pi0s, 1.0 + pi0s


def _partial_moments_batch(pi0s, upper0, upper1):
    """m0 at upper0 and m1 at upper1 under each draw's conditional weight."""
    a, b = _conditional_shapes(pi0s)
    m0 = (a / (a + b)) * betainc(a + 1.0, b, upper0)
    m1 = (b / (a + b)) * (1.0 - betainc(a, b + 1.0, upper1))
    return m0, m1


def _reference_loss_batch(pi0s: np.ndarray) -> np.ndarray:
    """Closed-form no-skill loss at each prior, under the conditional weight."""
    pi1s = 1.0 - pi0s
    m0, m1 = _partial_moments_batch(pi0s, pi1s, pi1s)
    return pi0s * m0 + pi1s * m1


def _calibrated_loss_batch(pi0s: np.ndarray, cdfs: EmpiricalCdfPair) -> np.ndarray:
    """Exact calibrated loss at each prior draw.

    The loss uses the same per-score partial-moment form as the scalar
    path, L = pi0 mean m0(s0) + pi1 mean m1(s1), with the weight shapes
    varying per draw; each distinct score is evaluated once per class it
    occurs in, weighted by its count.
    """
    a, b = _conditional_shapes(pi0s)
    col_a, col_b = a[:, None], b[:, None]
    count0, count1 = cdfs.count0, cdfs.count1
    has0, has1 = count0 > 0, count1 > 0
    i0 = _betainc_dot(col_a + 1.0, col_b, cdfs.u[has0], count0[has0]) / cdfs.n0
    i1 = _betainc_dot(col_a, col_b + 1.0, cdfs.u[has1], count1[has1]) / cdfs.n1
    return pi0s * (a / (a + b)) * i0 + (1.0 - pi0s) * (b / (a + b)) * (1.0 - i1)


def _betainc_dot(col_a, col_b, u, counts):
    """betainc(col_a, col_b, u) @ counts for column shapes (one row per
    draw), built in blocks of scores of at most BETAINC_BLOCK values."""
    step = max(1, BETAINC_BLOCK // col_a.size)
    total = betainc(col_a, col_b, u[:step]) @ counts[:step]
    for k in range(step, u.size, step):
        total += betainc(col_a, col_b, u[k:k + step]) @ counts[k:k + step]
    return total


def _loss_ratio_batch(pi0s: np.ndarray, cdfs: EmpiricalCdfPair, mode: str) -> np.ndarray:
    """Loss-to-reference ratio at each sampled prior, with the inner cost
    expectation integrated exactly.  In optimal mode every draw walks the
    same ROC hull: one (draws x hull) batch of partial moments."""
    refs = _reference_loss_batch(pi0s)
    if mode == "calibrated":
        return _calibrated_loss_batch(pi0s, cdfs) / refs
    env = _hull_envelope(pi0s[:, None], cdfs.hull)
    return env.integrate(*_partial_moments_batch(pi0s[:, None], env.breaks, env.breaks)) / refs


def h_measure_uncertain_priors(
    data: LabeledScores,
    prior_dist: BetaParams = DEFAULT_PRIOR_UNCERTAINTY,
    config: EvalConfig = EvalConfig(),
) -> HResult:
    """H-measure when pi0 itself carries a beta distribution.

    For each prior draw the cost weight is the conditional
    Beta(2 - pi0, 1 + pi0), the loss and its closed-form no-skill
    reference are evaluated exactly at that prior, and H is one minus the
    mean ratio.  mc_stderr is the standard error of that mean over the
    prior draws.  The empirical CDFs stay fixed while the prior varies;
    only the class weighting changes.
    """
    config.validate()
    if config.seed is None:
        raise ConfigError("a seed is required for the prior-uncertain H-measure")
    if config.method != "quadrature":
        raise ConfigError("the prior-uncertain H-measure integrates over costs exactly; "
                          "method 'monte_carlo' applies to fixed and empirical priors only")
    if config.threshold_mode == "calibrated":
        require_finite_mean_ratio(prior_dist.alpha, prior_dist.beta)
    cdfs = empirical_cdfs(data)
    tiny = np.finfo(float).tiny

    def one_chunk(rng, count):
        pi0s = np.clip(rng.beta(prior_dist.alpha, prior_dist.beta, size=count), tiny, 1.0 - 1e-16)
        ratios = _loss_ratio_batch(pi0s, cdfs, config.threshold_mode)
        return float(np.sum(ratios)), float(np.sum(ratios * ratios)), count

    parts = run_chunks(one_chunk, config.seed, config.outer_samples, n_workers=config.n_workers)
    mean_ratio, stderr = combine_mean_stderr(parts)
    h = 1.0 - mean_ratio
    return HResult(
        h=float(h),
        loss=float(mean_ratio),
        reference_loss=1.0,
        weight_used={"kind": "beta_conditional_on_prior"},
        prior_used={"kind": "beta", "alpha": prior_dist.alpha, "beta": prior_dist.beta},
        mc_stderr=stderr,
        warnings=_warnings_for(h, config.threshold_mode),
    )
