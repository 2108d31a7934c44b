"""Threshold-choice methods that do not tie the threshold to the cost.

When the threshold is drawn from a distribution u(t) independently of the
cost, the double expectation of the loss collapses: it is the same as
charging every class-0 error the mean cost E(c), so only E_u[F0] and
E_u[F1] matter.  Choosing u to put equal mass on the class-1 scores makes
the evaluation equal to the AUC, which is the rank-only reading of that
measure; screening instead fixes the proportion of objects to flag in
advance and reads off the confusion counts.  Every law with atoms at the
scores, and screening, reads the column's tie-grouped table.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .auc import auc_mann_whitney
from .distributions import WeightFunction
from .empirical import ClassPriors, LabeledScores, empirical_cdfs
from .errors import ConfigError, InputError

__all__ = [
    "PointMass",
    "PooledScoreThresholds",
    "RankUniformClass1",
    "TabulatedThresholds",
    "ScreeningResult",
    "independent_threshold_loss",
    "rank_uniform_evaluation",
    "screen_at_proportion",
]

SCREEN_BASES = ("all_objects", "class0_objects")


class PointMass(Record):
    """All threshold mass at one point, t."""

    __slots__ = ("t",)

    def __post_init__(self):
        if not (np.isfinite(self.t) and 0.0 <= self.t <= 1.0):
            raise InputError(f"threshold must lie in [0, 1], got {self.t}")


class PooledScoreThresholds(Record):
    """One atom of mass 1/n at every pooled score."""

    __slots__ = ()


class RankUniformClass1(Record):
    """Atoms at the class-1 scores, by default equally weighted.

    weights, when given, are per ascending class-1 rank; they must be
    nonnegative with positive total and are normalized to unit mass.
    Uniform weights reproduce the AUC; non-uniform weights express that
    some flagged proportions are likelier than others.
    """

    __slots__ = ("weights",)
    _defaults = {"weights": None}


class TabulatedThresholds(Record):
    """Continuous threshold density on (0, 1), a TabulatedWeight, reusing
    the tabulated piecewise-linear weight machinery (unit mass enforced
    there)."""

    __slots__ = ("weight",)


class ScreeningResult(Record):
    """Confusion counts after classifying a fixed lowest-ranked proportion
    as class 0."""

    __slots__ = ("proportion", "threshold_rank", "threshold",
                 "confusion",  # (tn, fp, fn, tp), class 1 positive
                 "class0_recall", "misclassification_rate")


def _rank_weights(u: RankUniformClass1, n1: int) -> np.ndarray:
    w = np.asarray(u.weights, dtype=float)
    if w.size != n1:
        raise InputError(f"need one weight per class-1 rank ({n1}), got {w.size}")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise InputError("rank weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0.0:
        raise InputError("rank weights must have positive total")
    return w / total


def _sum(terms: np.ndarray):
    """The sum of an array, added in numpy's fixed pairwise order: an int
    for integer terms, exact, and a float otherwise."""
    return np.add.reduce(terms).item()


def _expected_cdfs(u, cdfs) -> tuple[float, float]:
    """E_u[F0(t)] and E_u[F1(t)] for each supported threshold law.

    The laws with atoms at the scores read the table: F0 at u[k] is
    cum0[k] / n0, and the atoms there carry count0[k] + count1[k] (pooled)
    or count1[k] (class-1 ranks) of the mass, so with equal atoms each
    expectation is an exact integer sum divided once."""
    n0, n1 = cdfs.n0, cdfs.n1
    if isinstance(u, PointMass):
        return float(cdfs.f0(u.t)), float(cdfs.f1(u.t))
    if isinstance(u, PooledScoreThresholds):
        counts, n = cdfs.count0 + cdfs.count1, n0 + n1
        return _sum(counts * cdfs.cum0) / (n * n0), _sum(counts * cdfs.cum1) / (n * n1)
    if isinstance(u, RankUniformClass1):
        if u.weights is None:
            count1 = cdfs.count1
            return _sum(count1 * cdfs.cum0) / (n1 * n0), _sum(count1 * cdfs.cum1) / n1**2
        w = _rank_weights(u, n1)
        return (
            _sum(w * np.repeat(cdfs.cum0, cdfs.count1)) / n0,
            _sum(w * np.repeat(cdfs.cum1, cdfs.count1)) / n1,
        )
    if isinstance(u, TabulatedThresholds):
        # F0/F1 are constant between pooled scores, so splitting there and
        # weighting each piece by its u-mass integrates exactly
        breaks = np.concatenate([[0.0], cdfs.u[(cdfs.u > 0.0) & (cdfs.u < 1.0)], [1.0]])
        mids = 0.5 * (breaks[:-1] + breaks[1:])
        masses = np.diff(u.weight.cdf(breaks))
        return (
            float(np.sum(cdfs.f0(mids) * masses)),
            float(np.sum(cdfs.f1(mids) * masses)),
        )
    raise ConfigError(f"unsupported threshold distribution {type(u).__name__}")


def independent_threshold_loss(
    data: LabeledScores,
    priors: ClassPriors,
    w: WeightFunction,
    u,
) -> float:
    """Expected loss with the threshold drawn from u independently of the
    cost: E(c) pi0 E_u[1 - F0] + (1 - E(c)) pi1 E_u[F1]."""
    cdfs = empirical_cdfs(data)
    ec = w.mean()
    e_f0, e_f1 = _expected_cdfs(u, cdfs)
    return float(ec * priors.pi0 * (1.0 - e_f0) + (1.0 - ec) * priors.pi1 * e_f1)


def rank_uniform_evaluation(data: LabeledScores, rank_weights=None) -> float:
    """Average fraction of class-0 scores below each class-1 score used as
    a threshold (ties counted half).

    Without weights this is the Mann-Whitney AUC, and auc_mann_whitney's
    exact sum gives it; the optional per-rank weights generalize the
    average when equal rank probabilities are not credible.
    """
    if rank_weights is None:
        return auc_mann_whitney(data).auc
    cdfs = empirical_cdfs(data)  # raises on single-class data
    # class-0 scores below each distinct score, plus half of those tied
    credits = cdfs.cum0 - 0.5 * cdfs.count0
    w = _rank_weights(RankUniformClass1(weights=tuple(rank_weights)), cdfs.n1)
    return float(np.sum(w * np.repeat(credits, cdfs.count1)) / cdfs.n0)


def _ceil_as_printed(p: float, n: int) -> int:
    """ceil(d * n) for the decimal d that the float p prints as (its repr,
    such as 0.07 or 1e-05), in integers: d is the digits of its mantissa
    times a power of ten."""
    mantissa, _, exp = repr(float(p)).partition("e")
    whole, _, frac = mantissa.partition(".")
    num = int(whole + frac) * n
    shift = int(exp or 0) - len(frac)
    return num * 10**shift if shift >= 0 else -(-num // 10**-shift)


def screen_at_proportion(data: LabeledScores, p: float, basis: str = "all_objects") -> ScreeningResult:
    """Classify as class 0 everything scoring at or below the p-quantile
    rank of the basis set.

    The threshold is the ceil(p * n_basis)-th lowest basis score; scores
    tied with it land on the class-0 side, so the selected set is a
    deterministic function of the score multiset.  p is read as the
    decimal it prints as, so 0.07 of 100 is rank 7, not the 8 that the
    binary product 0.07 * 100 = 7.000000000000001 would round up to.
    """
    if not (0.0 < p < 1.0):
        raise InputError(f"screening proportion must lie strictly inside (0, 1), got {p}")
    if basis not in SCREEN_BASES:
        raise ConfigError(f"unknown screening basis {basis!r}; expected {SCREEN_BASES}")
    cdfs = empirical_cdfs(data)  # raises on single-class data
    ranked = cdfs.cum0 + cdfs.cum1 if basis == "all_objects" else cdfs.cum0
    k = _ceil_as_printed(p, int(ranked[-1]))
    cut = int(np.searchsorted(ranked, k))  # the tie group holding rank k
    tn, fn = int(cdfs.cum0[cut]), int(cdfs.cum1[cut])
    fp, tp = cdfs.n0 - tn, cdfs.n1 - fn
    return ScreeningResult(
        proportion=float(p),
        threshold_rank=k,
        threshold=float(cdfs.u[cut]),
        confusion=(tn, fp, fn, tp),
        class0_recall=tn / (tn + fp),
        misclassification_rate=(fp + fn) / data.n,
    )
