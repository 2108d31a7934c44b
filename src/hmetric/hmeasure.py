"""The H-measure: normalized expected minimum misclassification loss.

H = 1 - L / L_ref compares the classifier's cost-averaged minimum loss L
against the loss L_ref of a no-skill scorer under the same weight and
priors, so H = 1 means zero loss and H = 0 means no better than chance.
The default cost weight is the beta density with shapes (1 + pi1, 1 + pi0),
whose mode sits at pi1: in unbalanced problems misclassifying the smaller
class is the costlier mistake.

When the class proportions themselves are uncertain, pi0 is drawn from
the config's Beta(prior_alpha, prior_beta) (Beta(2, 2) by default), the
cost weight becomes the conditional Beta(2 - pi0, 1 + pi0), and H is one
minus the expected loss-to-reference ratio over the prior draws,
estimated by seeded Monte Carlo with a deterministic chunk layout.  A
report draws the priors once for all its columns, and the reference loss
is evaluated exactly once per draw.  Every partial moment here comes from
one partial pair per point (distributions._partial_pair: I_u(a + 1, b)
and 1 - I_u(a, b + 1) from one front factor and one continued fraction).
In calibrated mode the loss needs two count-weighted sums over the
column's scores, of I_s(3 - pi0, 1 + pi0) over class 0 and of
1 - I_s(2 - pi0, 2 + pi0) over class 1; both are analytic in pi0 on
[0, 1], so they are evaluated exactly at PRIOR_NODES = 24 Chebyshev points
once per column, both from one pair per distinct score, and read from the
interpolant at every draw.  The interpolant is within 1e-14 absolute of
the exact sums over the whole unit square of (score, pi0), and a column
costs 24 K + draws partial pairs for K distinct scores instead of
O(draws K).  Optimal mode stays exact per draw: one (draws x hull) batch
of partial pairs, since its break points are rational in pi0.  In
calibrated mode the ratio grows like 1/pi0 and 1/pi1 at the ends of the
unit interval, so the prior's shapes must both exceed one for H to exist,
and both exceed two for mc_stderr to be a valid error bar (a heavy_tail
warning says when they do not).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._mc import combine_mean_stderr, run_chunks
from .config import EvalConfig
from .distributions import BetaWeight, WeightFunction, _partial_pair, load_tabulated_weight
from .empirical import ClassPriors, EmpiricalCdfPair, LabeledScores, empirical_cdfs, empirical_priors
from .errors import ConfigError
from .loss import _hull_envelope, expected_min_loss, reference_loss

__all__ = [
    "HResult",
    "default_weight",
    "h_measure_fixed",
    "h_measure_uncertain_priors",
    "resolve_priors",
    "resolve_weight",
]

# Chebyshev points in pi0 at which the calibrated class sums are evaluated
# exactly.  Against betainc over scores and priors in [0, 1], the
# interpolation error falls from 1.7e-13 at 16 nodes to 4.9e-15 at 18;
# from 19 on, rounding (1e-15 to 5e-15) dominates, and 24 keeps a margin.
PRIOR_NODES = 24
# Scores per block of the node sums: all nodes are evaluated in one call,
# and the (nodes x scores) block stays small whatever the column's size.
NODE_RUN = 2048


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


def resolve_priors(config: EvalConfig, data: LabeledScores) -> ClassPriors:
    """The concrete class priors the config names: pi0 under a fixed
    prior, else the empirical proportions (the beta prior's auxiliary
    metrics read those too)."""
    if config.prior == "fixed":
        return ClassPriors(pi0=float(config.pi0))
    return empirical_priors(data)


def resolve_weight(config: EvalConfig, priors: ClassPriors) -> WeightFunction:
    """The cost weight the config names; one instance serves all columns."""
    if config.weight == "beta":
        return BetaWeight(config.weight_alpha, config.weight_beta)
    if config.weight == "tabulated":
        return load_tabulated_weight(config.weight_path)
    return default_weight(priors)


def _warnings_for(h: float, mode: str) -> tuple[str, ...]:
    if h < 0.0 and mode == "calibrated":
        return (
            "h_negative: calibrated-threshold loss exceeds the no-skill reference; "
            "the scores are badly calibrated (raw value reported, not clamped)",
        )
    return ()


def _heavy_tail(config: EvalConfig) -> tuple[str, ...]:
    """In calibrated mode the loss ratio grows like 1/pi0 and 1/pi1 at the
    ends of the unit interval, so its variance under the prior is finite
    only when both shapes exceed 2."""
    alpha, beta = config.prior_alpha, config.prior_beta
    if config.threshold_mode == "calibrated" and min(alpha, beta) <= 2.0:
        return (
            f"heavy_tail: under a Beta({alpha:g}, {beta:g}) prior the "
            "calibrated loss ratio has infinite variance (a prior shape is at most 2), "
            "so mc_stderr is not a valid error bar",
        )
    return ()


def h_measure_fixed(
    data: LabeledScores,
    priors: ClassPriors | None = None,
    w: WeightFunction | None = None,
    config: EvalConfig = EvalConfig(),
) -> HResult:
    """H-measure at known priors.

    priors and w default to those the config names (resolve_priors,
    resolve_weight); a beta prior is h_measure_uncertain_priors' to
    compute.  The loss comes from expected_min_loss under the config's
    threshold mode; the reference loss comes from the weight's exact
    partial moments at pi1.  Both are exact, so mc_stderr is None.
    """
    config.validate()
    if config.prior == "beta":
        raise ConfigError("a beta prior keeps pi0 distributed; "
                          "its H comes from h_measure_uncertain_priors")
    cdfs = empirical_cdfs(data)
    if priors is None:
        priors = resolve_priors(config, data)
    if w is None:
        w = resolve_weight(config, priors)
    loss = expected_min_loss(priors, cdfs, w, mode=config.threshold_mode)
    ref = reference_loss(priors, w)
    h = 1.0 - loss / ref
    return HResult(
        h=float(h),
        loss=float(loss),
        reference_loss=float(ref),
        weight_used=w.describe(),
        prior_used={"kind": "fixed", "pi0": priors.pi0},
        mc_stderr=None,
        warnings=_warnings_for(h, config.threshold_mode),
    )


def _conditional_shapes(pi0s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shapes of the conditional cost weight Beta(1 + pi1, 1 + pi0)."""
    return 2.0 - pi0s, 1.0 + pi0s


def _partial_moments_batch(pi0s, upper):
    """m0 and m1 at upper under each draw's conditional weight."""
    a, b = _conditional_shapes(pi0s)
    below, above = _partial_pair(a, b, upper)
    return (a / (a + b)) * below, (b / (a + b)) * above


def _reference_loss_batch(pi0s: np.ndarray) -> np.ndarray:
    """Closed-form no-skill loss at each prior, under the conditional weight."""
    pi1s = 1.0 - pi0s
    m0, m1 = _partial_moments_batch(pi0s, pi1s)
    return pi0s * m0 + pi1s * m1


def _node_sums(u: np.ndarray, count0: np.ndarray, count1: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients, in x = 2 pi0 - 1, of count0 @ I_u(a + 1, b)
    and count1 @ (1 - I_u(a, b + 1)) under the conditional shapes (a, b),
    stacked along axis 1, from their exact values at PRIOR_NODES Chebyshev
    points: one (nodes x scores) block of partial pairs per NODE_RUN scores.

    The values' mean is the constant term; only their deviations from it
    go through the discrete cosine sums, so rounding in those sums scales
    with how much the function varies, not with its size.
    """
    from numpy.polynomial.chebyshev import chebpts1, chebvander

    x = chebpts1(PRIOR_NODES)
    a, b = _conditional_shapes((x[:, None] + 1.0) / 2.0)
    values = np.zeros((PRIOR_NODES, 2) + count0.shape[1:])
    for i in range(0, u.size, NODE_RUN):
        below, above = _partial_pair(a, b, u[i:i + NODE_RUN])
        values[:, 0] += below @ count0[i:i + NODE_RUN]
        values[:, 1] += above @ count1[i:i + NODE_RUN]
    mean = values.mean(axis=0)
    coef = np.tensordot(chebvander(x, PRIOR_NODES - 1).T, values - mean, axes=1)
    coef *= 2.0 / PRIOR_NODES
    coef[0] = mean
    return coef


def _calibrated_coefficients(cdfs: EmpiricalCdfPair) -> np.ndarray:
    """Chebyshev coefficients of the calibrated loss's two class sums,
    i0(pi0) = mean of I_s(3 - pi0, 1 + pi0) over the class-0 scores s and
    j1(pi0) = mean of 1 - I_s(2 - pi0, 2 + pi0) over the class-1 scores,
    as the columns of a (PRIOR_NODES x 2) array.

    Both come from one partial pair per distinct score strictly inside
    (0, 1).  A class-0 score at exactly 1 adds its count to i0, and a
    class-1 score at exactly 0 its count to j1, through the constant term;
    the other end adds nothing, so a perfect classifier's sums are exactly
    0.
    """
    u, count0, count1 = cdfs.u, cdfs.count0, cdfs.count1
    inner = (u > 0.0) & (u < 1.0)
    coef = _node_sums(u[inner], count0[inner], count1[inner]) / (cdfs.n0, cdfs.n1)
    coef[0] += count0[u == 1.0].sum() / cdfs.n0, count1[u == 0.0].sum() / cdfs.n1
    return coef


def _calibrated_loss_batch(pi0s: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Calibrated loss at each prior draw from the column's class sums,
    L = pi0 a/(a+b) i0 + pi1 b/(a+b) j1 under the conditional weight
    Beta(a, b), the per-score partial-moment form of the scalar path."""
    from numpy.polynomial.chebyshev import chebval

    a, b = _conditional_shapes(pi0s)
    i0, j1 = chebval(2.0 * pi0s - 1.0, coef)
    return pi0s * (a / (a + b)) * i0 + (1.0 - pi0s) * (b / (a + b)) * j1


def _loss_at(cdfs: EmpiricalCdfPair, mode: str):
    """The loss as a function of an array of priors, with the inner cost
    expectation integrated exactly at each.  Calibrated mode fits its
    class sums here, once per column; in optimal mode every prior walks
    the same ROC hull, one (priors x hull) batch of partial moments."""
    if mode == "calibrated":
        coef = _calibrated_coefficients(cdfs)
        return lambda pi0s: _calibrated_loss_batch(pi0s, coef)

    def loss(pi0s):
        env = _hull_envelope(pi0s[:, None], cdfs.hull)
        return env.integrate(*_partial_moments_batch(pi0s[:, None], env.breaks))

    return loss


def _uncertain_priors(columns: list[LabeledScores], config: EvalConfig) -> list[HResult]:
    """h_measure_uncertain_priors of each column, over one set of draws:
    each chunk draws its priors and evaluates their reference loss once,
    then every column's loss ratio at them."""
    config.validate()
    if config.prior != "beta":
        raise ConfigError(f"the prior-uncertain H-measure needs a beta prior, not {config.prior!r}")
    alpha, beta = config.prior_alpha, config.prior_beta
    losses = [_loss_at(empirical_cdfs(data), config.threshold_mode) for data in columns]
    tiny = np.finfo(float).tiny

    def one_chunk(rng, count):
        pi0s = np.clip(rng.beta(alpha, beta, size=count), tiny, 1.0 - 1e-16)
        reference = _reference_loss_batch(pi0s)
        sums = []
        for loss in losses:
            ratios = loss(pi0s) / reference
            sums.append((float(np.sum(ratios)), float(np.sum(ratios * ratios)), count))
        return sums

    chunks = run_chunks(one_chunk, config.seed, config.outer_samples)
    results = []
    for parts in zip(*chunks):  # one column's chunk sums, in chunk order
        mean_ratio, stderr = combine_mean_stderr(parts)
        h = 1.0 - mean_ratio
        results.append(HResult(
            h=float(h),
            loss=float(mean_ratio),
            reference_loss=1.0,
            weight_used={"kind": "beta_conditional_on_prior"},
            prior_used={"kind": "beta", "alpha": alpha, "beta": beta},
            mc_stderr=stderr,
            warnings=_warnings_for(h, config.threshold_mode) + _heavy_tail(config),
        ))
    return results


def h_measure_uncertain_priors(data: LabeledScores, config: EvalConfig) -> HResult:
    """H-measure when pi0 itself carries the config's beta distribution,
    Beta(prior_alpha, prior_beta), over outer_samples seeded draws.

    For each prior draw the cost weight is the conditional
    Beta(2 - pi0, 1 + pi0), the loss and its closed-form no-skill
    reference are evaluated exactly at that prior, and H is one minus the
    mean ratio.  mc_stderr is the standard error of that mean over the
    prior draws.  The empirical CDFs stay fixed while the prior varies;
    only the class weighting changes.
    """
    return _uncertain_priors([data], config)[0]
