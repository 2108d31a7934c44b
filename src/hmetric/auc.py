"""AUC from tie-grouped counts, and its expected-loss reading.

The AUC is the probability that a random class-0 score falls below a
random class-1 score (ties counted half), summed exactly over the tie
groups of the column's table.  It is also an affine function of the
expected minimum loss obtained when the cost weight is set to the
classifier's own pooled score distribution -- a classifier-dependent
weight, which is exactly the incoherence the H-measure removes.  Both
sides of that identity are implemented so the correspondence can be
demonstrated numerically; the pooled score distribution is read off the
same table, one atom per distinct score weighted by its count."""

from __future__ import annotations

from ._record import Record
from .empirical import LabeledScores, empirical_cdfs, empirical_priors
from .loss import min_loss

__all__ = ["AucResult", "auc_mann_whitney", "mixture_weight_loss"]


class AucResult(Record):
    """AUC under the half-credit tie convention plus its loss reading.

    equivalent_loss is 2 pi0 pi1 (1 - auc) at the empirical priors: the
    expected-loss quantity the AUC is a linear transform of.
    """

    __slots__ = ("auc", "n_pairs", "tie_pairs", "equivalent_loss")


def auc_mann_whitney(data: LabeledScores) -> AucResult:
    """Mann-Whitney AUC from the tie-grouped counts, with half credit for
    cross-class ties: each class-1 score at u[k] beats the class-0 scores
    below u[k] and ties the count0[k] at it.  The sums are of half-integers,
    taken in integers (cdfs.sums), so they are exact."""
    cdfs = empirical_cdfs(data)  # raises on single-class data
    n0, n1 = cdfs.n0, cdfs.n1
    twice_wins, tie_pairs = cdfs.sums(lambda u, cum0, cum1, count0, count1: (
        count1 * (2 * cum0 - count0), count0 * count1))
    auc = twice_wins / 2.0 / (n0 * n1)
    pi0, pi1 = n0 / (n0 + n1), n1 / (n0 + n1)
    return AucResult(
        auc=float(auc),
        n_pairs=n0 * n1,
        tie_pairs=tie_pairs,
        equivalent_loss=float(2.0 * pi0 * pi1 * (1.0 - auc)),
    )


def mixture_weight_loss(data: LabeledScores, mode: str = "calibrated") -> float:
    """Expected minimum loss with the cost weight set to the pooled score
    distribution of this classifier.

    In the continuous limit this equals AucResult.equivalent_loss; on
    finite data the two differ by a discretization term of order
    1/min(n0, n1).  Shipped as the executable demonstration that the AUC
    embeds a classifier-dependent cost weight.  That weight puts mass
    (count0[k] + count1[k]) / n on each distinct score u[k], so the
    expectation is a count-weighted mean of the minimum loss there.  The
    calibrated rule thresholds each u[k] at itself, where the class CDFs
    are the table's own cum0[k] / n0 and cum1[k] / n1.
    """
    priors = empirical_priors(data)
    cdfs = empirical_cdfs(data)

    def terms(u, cum0, cum1, count0, count1):
        if mode == "calibrated":  # threshold_loss(u, u, ...), without searching u for u
            losses = (u * priors.pi0 * (1.0 - cum0 / cdfs.n0)
                      + (1.0 - u) * priors.pi1 * (cum1 / cdfs.n1))
        else:
            losses = min_loss(u, priors, cdfs, mode=mode)
        return ((count0 + count1) * losses,)

    total, = cdfs.sums(terms)
    return float(total / data.n)
