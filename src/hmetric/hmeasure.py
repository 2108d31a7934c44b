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
estimated by seeded Monte Carlo: one loop over _mc's chunk streams adds
each column's ratio sums in chunk order.  A report draws the priors once
for all its columns, and the reference loss is evaluated exactly once per
draw.  Every partial moment here comes from one partial pair per point
(distributions._partial_pair: I_u(a + 1, b) and 1 - I_u(a, b + 1) from
one front factor and one continued fraction), scaled into the conditional
weight's moments by distributions._beta_moments outside the class sums.
In calibrated mode the loss needs two count-weighted sums over the
column's scores, of I_s(3 - pi0, 1 + pi0) over class 0 and of
1 - I_s(2 - pi0, 2 + pi0) over class 1; both are analytic in pi0 on
[0, 1], so they are evaluated exactly at PRIOR_NODES = 24 Chebyshev points
once per column, both from one pair per distinct score, a block of the
column's table at a time, and read from the interpolant at every draw.
The interpolant is within 1e-14 absolute of the exact sums over the whole
unit square of (score, pi0), and a column costs 24 K + draws partial
pairs for K distinct scores instead of O(draws K).  Optimal mode stays
exact per draw, with partial pairs at every draw's hull breaks, since
those are rational in pi0.  A column's draws need only its coefficients
or its hull, so a report keeps those and drops the column's table before
it builds the next.  A chunk's reference losses and each column's ratios
fill one chunk-long array a sub-block of draws at a time (DRAW_RUN
draws, or in optimal mode as many as keep draws x hull breaks within
distributions._RUN_BLOCK), so the working set does not grow with the
chunk times the hull; every value is computed draw by draw, so the
sub-blocks change no bit of a sum.  In calibrated mode the ratio grows
like 1/pi0 and 1/pi1 at the ends of the unit interval, so the prior's
shapes must both exceed one for H to exist, and both exceed two for
mc_stderr to be a valid error bar (a heavy_tail warning says when they
do not).
"""

from __future__ import annotations

import numpy as np

from ._mc import chunk_streams
from ._record import Record
from .config import EvalConfig
from .distributions import (_RUN_BLOCK, BetaWeight, WeightFunction, _beta_moments,
                            _partial_pair)
from .empirical import (ClassPriors, EmpiricalCdfPair, LabeledScores, empirical_cdfs,
                        empirical_priors, load_tabulated_weight)
from .errors import ConfigError
from .loss import _class_sums, _hull_envelope, expected_min_loss, reference_loss

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
# Table groups per block of the node sums: all nodes are evaluated in one
# call, and the (nodes x groups) block stays small whatever the column's size.
NODE_RUN = 2048
# Prior draws per sub-block of a chunk for the reference loss and the
# calibrated loss; optimal mode takes as many as keep (draws x hull breaks)
# within _RUN_BLOCK elements.  A chunk's reference losses took 9.3 ms whole,
# 11.5 ms in sub-blocks of 4096 and 14.5 ms in sub-blocks of 2048, and a
# 100-row evaluate --prior beta peaked at 38.1, 36.8 and 36.5 MB.
DRAW_RUN = 4096


class HResult(Record):
    """H with the components it was built from.

    h always equals 1 - loss / reference_loss.  Under a distributed prior
    loss holds the mean loss-to-reference ratio and reference_loss is 1,
    so the identity still reconstructs h from the stored fields.
    """

    __slots__ = ("h", "loss", "reference_loss", "weight_used", "prior_used", "mc_stderr",
                 "warnings")


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


def _reference_loss_batch(pi0s: np.ndarray) -> np.ndarray:
    """Closed-form no-skill loss at each prior, under the conditional weight."""
    pi1s = 1.0 - pi0s
    m0, m1 = _beta_moments(*_conditional_shapes(pi0s), pi1s)
    return pi0s * m0 + pi1s * m1


def _contract(weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """np.tensordot(weights, table, axes=1), for 2-D weights and table, by
    one np.add.reduce along the contracted axis, last and contiguous in
    the product: a BLAS product would add in an order that follows its
    thread count and kernel."""
    return np.add.reduce(table.T[..., None, :] * weights, axis=-1).T


def _calibrated_coefficients(cdfs: EmpiricalCdfPair) -> np.ndarray:
    """Chebyshev coefficients, in x = 2 pi0 - 1, of the calibrated loss's
    two class sums, i0(pi0) = mean of I_s(3 - pi0, 1 + pi0) over the
    class-0 scores s and j1(pi0) = mean of 1 - I_s(2 - pi0, 2 + pi0) over
    the class-1 scores, as the columns of a (PRIOR_NODES x 2) array.

    Both come from their exact values at PRIOR_NODES Chebyshev points, added
    by the fixed prior's table loop (loss._class_sums) over one
    (nodes x groups) block of partial pairs per NODE_RUN groups.  The pair is
    exactly (0, 1) at a score of 0 and (1, 0) at 1, so class-0 scores at
    0 and class-1 scores at 1 add exactly nothing.  The values' mean is
    the constant term; only their deviations from it go through the
    discrete cosine sums, so rounding in those sums scales with how much
    the function varies, not with its size.
    """
    # the Chebyshev points of the first kind, as numpy.polynomial's chebpts1
    x = np.sin(0.5 * np.pi / PRIOR_NODES * np.arange(1 - PRIOR_NODES, PRIOR_NODES + 1, 2))
    a, b = _conditional_shapes((x[:, None] + 1.0) / 2.0)
    values = np.stack(_class_sums(cdfs, lambda u: _partial_pair(a, b, u), NODE_RUN), axis=-1)
    # row j is T_j at the points, by chebvander's recurrence
    rows = np.empty((PRIOR_NODES, PRIOR_NODES))
    rows[0], rows[1] = 1.0, x
    for j in range(2, PRIOR_NODES):
        rows[j] = rows[j - 1] * (2 * x) - rows[j - 2]
    mean = values.mean(axis=0)
    coef = _contract(rows, values - mean)
    coef *= 2.0 / PRIOR_NODES
    coef[0] = mean
    return coef / (cdfs.n0, cdfs.n1)


def _calibrated_loss_batch(pi0s: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Calibrated loss at each prior draw from the column's class sums,
    L = pi0 a/(a+b) i0 + pi1 b/(a+b) j1 under the conditional weight
    Beta(a, b), the per-score partial-moment form of the scalar path.
    The class sums come from their coefficients by Clenshaw's recurrence,
    in numpy.polynomial's chebval order."""
    x = 2.0 * pi0s - 1.0
    x2 = 2 * x
    c0, c1 = coef[-2, :, None], coef[-1, :, None]
    for c in coef[-3::-1]:
        c0, c1 = c[:, None] - c1, c0 + c1 * x2
    i0, j1 = c0 + c1 * x
    a, b = _conditional_shapes(pi0s)
    return pi0s * (a / (a + b)) * i0 + (1.0 - pi0s) * (b / (a + b)) * j1


def _prior_loss(data: LabeledScores, mode: str):
    """What the prior draws read of a column: its loss as a function of an
    array of priors, with the inner cost expectation integrated exactly at
    each, and the draws per sub-block that loss takes.  The loss holds only
    the column's coefficients or its hull: calibrated mode fits its class
    sums here, once per column; in optimal mode every prior walks the same
    ROC hull, one (priors x hull breaks) batch of partial moments per call."""
    cdfs = empirical_cdfs(data)
    if mode == "calibrated":
        coef = _calibrated_coefficients(cdfs)
        return (lambda pi0s: _calibrated_loss_batch(pi0s, coef)), DRAW_RUN
    hull = cdfs.hull

    def loss(pi0s):
        env = _hull_envelope(pi0s[:, None], hull)
        return env.integrate(*_beta_moments(*_conditional_shapes(pi0s[:, None]), env.breaks))

    return loss, max(1, _RUN_BLOCK // (hull[0].size + 1))


def _in_runs(fn, pi0s: np.ndarray, run: int, out: np.ndarray) -> np.ndarray:
    """out = fn(pi0s) for a function evaluated draw by draw, run draws at a time."""
    for lo in range(0, pi0s.size, run):
        out[lo:lo + run] = fn(pi0s[lo:lo + run])
    return out


def _uncertain_priors(losses: list, config: EvalConfig) -> list[HResult]:
    """h_measure_uncertain_priors of each column, given as its _prior_loss,
    over one set of draws: each chunk draws its priors and evaluates their
    reference loss once, then every column's loss ratio at them, whose sums
    are added in chunk order."""
    alpha, beta = config.prior_alpha, config.prior_beta
    sums = [0.0] * len(losses)
    squares = [0.0] * len(losses)
    tiny = np.finfo(float).tiny
    for rng, count in chunk_streams(config.seed, config.outer_samples):
        pi0s = np.clip(rng.beta(alpha, beta, size=count), tiny, 1.0 - 1e-16)
        reference = _in_runs(_reference_loss_batch, pi0s, DRAW_RUN, np.empty(count))
        ratios = np.empty(count)
        for k, (loss, run) in enumerate(losses):
            _in_runs(loss, pi0s, run, ratios)
            ratios /= reference
            sums[k] += float(np.sum(ratios))
            squares[k] += float(np.sum(ratios * ratios))
    n = config.outer_samples
    results = []
    for s, ss in zip(sums, squares):
        mean_ratio = s / n
        h = 1.0 - mean_ratio
        results.append(HResult(
            h=float(h),
            loss=float(mean_ratio),
            reference_loss=1.0,
            weight_used={"kind": "beta_conditional_on_prior"},
            prior_used={"kind": "beta", "alpha": alpha, "beta": beta},
            mc_stderr=float(np.sqrt(max(ss - n * mean_ratio * mean_ratio, 0.0) / (n - 1) / n)),
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
    if config.prior != "beta":
        raise ConfigError(f"the prior-uncertain H-measure needs a beta prior, not {config.prior!r}")
    return _uncertain_priors([_prior_loss(data, config.threshold_mode)], config)[0]
