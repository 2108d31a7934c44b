"""Cost-weighted misclassification losses.

The loss at cost c and threshold t is

    loss(c; t) = c pi0 (1 - F0(t)) + (1 - c) pi1 F1(t),

minimized either by the calibrated rule t = c (optimal when scores are
true class-1 probabilities) or by direct minimization over the observed
thresholds.  Expectations over a cost weight are computed exactly: the
empirical CDFs are step functions, so the integral splits at the pooled
scores into pieces where the integrand is affine in c times the weight
density, and each piece reduces to partial moments of the weight.  No
cost is sampled and no grid is used, so the headline metrics carry
neither sampling noise nor a grid-resolution dependence.  The
optimal rule walks the column's ROC hull, built once per column: a prior
only places the costs where one hull vertex gives way to the next.  The
no-skill reference loss comes from the same partial moments, taken at
pi1, so a scorer with no skill gets exactly the reference loss; the test
suite checks it against adaptive quadrature of the defining integral.
"""

from __future__ import annotations

import numbers

import numpy as np

from ._record import Record
from .config import THRESHOLD_MODES
from .distributions import _BLOCK, WeightFunction, _check_unit
from .empirical import ClassPriors, EmpiricalCdfPair
from .errors import ConfigError

__all__ = [
    "LossCurve",
    "threshold_loss",
    "min_loss",
    "optimal_envelope",
    "expected_min_loss",
    "reference_loss",
    "loss_curve",
]

# Cost grid points of a loss curve, unless the caller picks another number.
CURVE_GRID = 4096


class LossCurve(Record):
    """Minimum loss sampled on a cost grid, for plotting."""

    __slots__ = ("grid", "loss", "mode")


def threshold_loss(c, t, priors: ClassPriors, cdfs: EmpiricalCdfPair):
    """Expected cost of thresholding at t when a class-0 error costs c.

    Vectorizes over either argument.
    """
    c_arr = _check_unit("cost", c)
    t_arr = _check_unit("threshold", t)
    out = c_arr * priors.pi0 * (1.0 - cdfs.f0(t_arr)) + (1.0 - c_arr) * priors.pi1 * cdfs.f1(t_arr)
    return float(out) if (np.isscalar(c) and np.isscalar(t)) else out


class _Envelope(Record):
    """Minimum loss under the optimal rule, a piecewise-affine concave
    function of the cost: on segment j, from breaks[j] to breaks[j+1],
    the best threshold is hull vertex j and the loss is
    loss1[j] + c * (loss0[j] - loss1[j]).  Built for a column of priors,
    it holds one envelope per row, for integrate only."""

    __slots__ = ("breaks",  # K+1 nondecreasing costs spanning [0, 1]
                 "loss0",   # pi0 (1 - F0_j): class-0 error mass per unit cost
                 "loss1")   # pi1 F1_j: class-1 error mass per unit (1 - cost)

    def value(self, c):
        c_arr = np.asarray(c, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, c_arr, side="right") - 1,
                      0, self.loss0.size - 1)
        out = self.loss1[idx] + (self.loss0[idx] - self.loss1[idx]) * c_arr
        return float(out) if np.isscalar(c) else out

    def integrate(self, m0, m1) -> np.ndarray:
        """Weight-expectation from the partial moments m0, m1 at the
        breaks: pi0 (1 - F0_j) dm0 - pi1 F1_j dm1 summed over segments,
        the same form as reference_loss."""
        return np.sum(self.loss0 * np.diff(m0) - self.loss1 * np.diff(m1), axis=-1)


def _hull_envelope(pi0, hull) -> _Envelope:
    """Envelope over the ROC hull vertices (F0, F1) at prior pi0 (a float
    or a column of priors).  Vertex j gives way to vertex j+1 at the cost
    where their lines cross, pi1 dF1 / (pi0 dF0 + pi1 dF1)."""
    f0, f1 = hull
    pi1 = 1.0 - pi0
    d0 = pi0 * np.diff(f0)
    d1 = pi1 * np.diff(f1)
    inner = d1 / (d0 + d1)
    edge = np.zeros(inner.shape[:-1] + (1,))
    return _Envelope(
        breaks=np.concatenate([edge, inner, edge + 1.0], axis=-1),
        loss0=pi0 * (1.0 - f0),
        loss1=pi1 * f1,
    )


def optimal_envelope(priors: ClassPriors, cdfs: EmpiricalCdfPair) -> _Envelope:
    """Envelope of loss(c; t) = c pi0 (1 - F0(t)) + (1 - c) pi1 F1(t)
    over every threshold t.  The loss is linear in the ROC point
    (F0(t), F1(t)), so its minimum at any cost is attained at a vertex of
    the lower convex ROC hull (cdfs.hull), whose first vertex (0, 0) is
    the assign-everything-to-class-1 rule."""
    return _hull_envelope(priors.pi0, cdfs.hull)


def min_loss(c, priors: ClassPriors, cdfs: EmpiricalCdfPair, mode: str = "calibrated"):
    """Minimum achievable loss at cost c under the chosen threshold rule.

    calibrated uses t = c; optimal minimizes over the observed thresholds,
    so optimal <= calibrated pointwise.
    """
    if mode not in THRESHOLD_MODES:
        raise ConfigError(f"unknown threshold mode {mode!r}; expected one of {THRESHOLD_MODES}")
    if mode == "calibrated":
        return threshold_loss(c, c, priors, cdfs)
    _check_unit("cost", c)
    return optimal_envelope(priors, cdfs).value(c)


def _class_sums(cdfs: EmpiricalCdfPair, pair, size: int = _BLOCK):
    """The sums of count0 f and count1 g over the column's distinct scores u,
    for (f, g) = pair(u), the calibrated loss's per-score form: each run of
    size groups of the table (cdfs.blocks) adds its reduce along the last
    axis, in order, so a sum holds one run's temporaries at a time."""
    sum0 = sum1 = 0.0
    for u, _, _, count0, count1 in cdfs.blocks(size):
        f, g = pair(u)
        sum0 += np.add.reduce(count0 * f, axis=-1)
        sum1 += np.add.reduce(count1 * g, axis=-1)
    return sum0, sum1


def expected_min_loss(
    priors: ClassPriors,
    cdfs: EmpiricalCdfPair,
    w: WeightFunction,
    mode: str = "calibrated",
) -> float:
    """Expected minimum loss over the cost weight, evaluated exactly
    piece by piece (see module docstring)."""
    if mode not in THRESHOLD_MODES:
        raise ConfigError(f"unknown threshold mode {mode!r}; expected one of {THRESHOLD_MODES}")
    if mode == "calibrated":
        # telescoped piece sums: L = pi0 mean_i m0(s0_i) + pi1 mean_j m1(s1_j)
        sum0, sum1 = _class_sums(cdfs, w.partial_moments)
        return float(priors.pi0 * sum0 / cdfs.n0 + priors.pi1 * sum1 / cdfs.n1)
    env = optimal_envelope(priors, cdfs)
    return float(env.integrate(*w.partial_moments(env.breaks)))


def reference_loss(priors: ClassPriors, w: WeightFunction) -> float:
    """Expected minimum loss of a no-skill scorer (identical class CDFs).

    With indistinguishable classes the best rule sends everything to
    class 0 when the cost is below pi1 and to class 1 otherwise, giving

        L_ref = pi0 int_0^pi1 c w(c) dc + pi1 int_pi1^1 (1 - c) w(c) dc
              = pi0 m0(pi1) + pi1 m1(pi1)

    from the weight's exact partial moments; for a beta weight these are
    shape-shifted regularized incomplete betas.  See the README for how
    that closed form was checked against the defining integral.
    """
    pi1 = priors.pi1
    m0, m1 = w.partial_moments(pi1)
    return float(priors.pi0 * m0 + pi1 * m1)


def loss_curve(
    priors: ClassPriors,
    cdfs: EmpiricalCdfPair,
    mode: str = "calibrated",
    grid_size: int = CURVE_GRID,
) -> LossCurve:
    """Minimum loss on a uniform open cost grid, for curve emission."""
    if not (isinstance(grid_size, numbers.Real) and 2 <= grid_size < np.inf
            and grid_size == int(grid_size)):
        raise ConfigError(f"grid_size must be a whole number of at least 2, got {grid_size}")
    grid = (np.arange(grid_size) + 0.5) / grid_size
    return LossCurve(grid=grid, loss=np.asarray(min_loss(grid, priors, cdfs, mode)), mode=mode)
