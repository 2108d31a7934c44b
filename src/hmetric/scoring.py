"""Per-object scoring losses and the weight-to-rule correspondence.

A cost weight w induces a per-object loss for reported probability q and
true label y:

    loss(q, y) = (1 - y) m0(q) + y m1(q)

with m0, m1 the weight's partial moments.  Its expectation under the true
conditional probability eta has derivative (q - eta) w(q), so the loss is
minimized at q = eta and is strictly proper wherever w is positive.
Conversely, any differentiable proper rule (L0, L1) arises this way from
some nonnegative weight with L0'(q) = q w(q) and L1'(1 - q) = (1 - q) w(q);
rule_from_weight materializes that direction, including for unnormalized
weights such as the log-loss generator 1 / (c (1 - c)).
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from ._record import Record
from .distributions import TabulatedWeight, WeightFunction, _check_unit
from .errors import ConfigError, InputError

__all__ = [
    "ScoringRule",
    "PropernessEntry",
    "PropernessReport",
    "pointwise_loss",
    "expected_loss",
    "properness_check",
    "rule_from_weight",
    "squared_error_rule",
    "log_loss_rule",
]

# truncation for weights that diverge at the endpoints; the induced error
# in the reconstructed losses is O(eps) near the boundary
UNBOUNDED_WEIGHT_EPS = 1e-6
# every integration also breaks at eps, 10 eps, ..., 0.1 and their mirror
# images, so a density that diverges at an end is integrated a decade at a time
_DECADES = UNBOUNDED_WEIGHT_EPS * 10.0 ** np.arange(6)
_BREAKS = np.union1d(_DECADES, 1.0 - _DECADES)

# tanh-sinh rule (Takahashi & Mori 1974) at step 1/16 on |t| <= 4, past which
# the weights fall below 1e-35: each node's distance from the nearer end of
# its segment and its weight, as fractions of the segment's length, so that
# no node rounds onto an end
_T = np.arange(-64, 65) / 16.0
_S = 0.5 * np.pi * np.sinh(_T)
_GAP = 1.0 / (np.exp(2.0 * np.abs(_S)) + 1.0)
_WEIGHT = np.pi / 64.0 * np.cosh(_T) / np.cosh(_S) ** 2
# the half-step sums, from every other node, must agree this closely
_QUAD_RTOL = 1e-8
# segments whose nodes are held at once: about 1 MB per node array
_SEGMENT_BLOCK = 1024

WeightLike = Union[WeightFunction, Callable[[float], float]]


def _check_q(q):
    q_arr = np.asarray(q, dtype=float)
    if np.any(~np.isfinite(q_arr)) or np.any(q_arr <= 0.0) or np.any(q_arr >= 1.0):
        raise InputError(f"probability must lie strictly inside (0, 1), got {q}")
    return q_arr


class _QuadratureWeight(WeightFunction):
    """Partial moments of a raw nonnegative density by tanh-sinh quadrature
    on (eps, 1 - eps), to which a limit in [0, 1] is clipped.  Unnormalized
    densities are accepted, but c w(c) must carry less mass on (eps/10, eps)
    than on (eps, 10 eps), and (1 - c) w(c) the same at 1, or the truncated
    moments would not converge."""

    def __init__(self, density: Callable[[float], float]):
        # one Python call per node, as for a scalar quadrature, so densities
        # written with math functions work
        self._density = np.vectorize(density, otypes=[float])
        self.eps = eps = UNBOUNDED_WEIGHT_EPS
        sums = self._segment_integrals(np.concatenate(([eps / 10], _BREAKS, [1 - eps / 10])))
        if (sums[0, 0] > sums[0, 1] * (1.0 - _QUAD_RTOL)
                or sums[1, -1] > sums[1, -2] * (1.0 - _QUAD_RTOL)):
            raise InputError("weight is not usable: c w(c) or (1 - c) w(c) does not lose mass "
                             "toward its end, so the partial moments do not converge")

    def _segment_integrals(self, breaks: np.ndarray) -> np.ndarray:
        """Integrals of c w(c) (row 0) and (1 - c) w(c) (row 1) over each
        segment between consecutive sorted breaks, by one density call per
        node; raises InputError unless the half-step sums agree."""
        sums, error = [], 0.0
        for start in range(0, breaks.size - 1, _SEGMENT_BLOCK):
            ends = breaks[start:start + _SEGMENT_BLOCK + 1, None]
            lo, hi, length = ends[:-1], ends[1:], ends[1:] - ends[:-1]
            c = np.where(_T < 0.0, lo + length * _GAP, hi - length * _GAP)
            try:
                w = self._density(c)
            except Exception as exc:
                raise InputError(f"weight moments could not be integrated: {exc}") from exc
            terms = np.stack((c * w, (1.0 - c) * w)) * (_WEIGHT * length)
            sums.append(terms.sum(axis=2))
            error += np.abs(sums[-1] - 2.0 * terms[..., ::2].sum(axis=2)).sum(axis=1)
        sums = np.concatenate(sums, axis=1)
        scale = np.maximum(1.0, np.abs(sums.sum(axis=1)))
        if not np.all(np.isfinite(scale)) or np.any(error > _QUAD_RTOL * scale):
            raise InputError("weight is not usable: partial moments do not converge numerically")
        return sums

    def _partial_moments(self, u):
        points = np.clip(u.ravel(), self.eps, 1.0 - self.eps)
        breaks = np.union1d(points, _BREAKS)
        sums = self._segment_integrals(breaks)
        below0 = np.concatenate(([0.0], np.cumsum(sums[0])))
        above1 = np.concatenate((np.cumsum(sums[1][::-1])[::-1], [0.0]))
        at = np.searchsorted(breaks, points)
        return below0[at].reshape(u.shape), above1[at].reshape(u.shape)

    def describe(self) -> dict:
        return {"kind": "callable", "eps": self.eps}


def _as_moment_source(w: WeightLike):
    if isinstance(w, WeightFunction):
        return w
    if callable(w):
        return _QuadratureWeight(w)
    raise InputError(f"expected a weight function or density callable, got {type(w)!r}")


def pointwise_loss(q: float, y: int, w: WeightLike) -> float:
    """Loss charged to one object with reported probability q and label y."""
    q_arr = _check_q(q)
    if y not in (0, 1):
        raise InputError(f"label must be 0 or 1, got {y}")
    m0, m1 = _as_moment_source(w).partial_moments(q_arr)
    out = (1 - y) * m0 + y * m1
    return float(out) if np.isscalar(q) else out


def expected_loss(q, eta, w: WeightLike):
    """Expectation of the per-object loss when the true conditional
    class-1 probability is eta."""
    q_arr = _check_q(q)
    eta_arr = _check_unit("eta", eta)
    m0, m1 = _as_moment_source(w).partial_moments(q_arr)
    out = (1.0 - eta_arr) * m0 + eta_arr * m1
    return float(out) if (np.isscalar(q) and np.isscalar(eta)) else out


class ScoringRule(Record):
    """Component losses of a proper scoring rule.

    loss0 is the loss as a function of q when the true class is 0;
    loss1 takes 1 - q and gives the loss when the true class is 1.  Both
    vanish as their argument approaches 0.
    """

    __slots__ = ("loss0", "loss1", "origin")

    def loss(self, q: float, y: int) -> float:
        q_arr = _check_q(q)
        if y not in (0, 1):
            raise InputError(f"label must be 0 or 1, got {y}")
        return self.loss1(1.0 - q_arr) if y else self.loss0(q_arr)


def rule_from_weight(w: WeightLike) -> ScoringRule:
    """Build the scoring rule generated by a cost weight.

    loss0(q) is the mass of c w(c) below q and loss1(1 - q) the mass of
    (1 - c) w(c) above q, so recombining reproduces pointwise_loss
    exactly.  Raw callables may be unnormalized and may diverge at the
    endpoints; they are integrated on (eps, 1 - eps) and rejected when
    the moment integrals fail to converge.
    """
    src = _as_moment_source(w)

    def loss0(q):
        return src.partial_moments(q)[0]

    def loss1(u):
        return src.partial_moments(1.0 - np.asarray(u, dtype=float))[1]

    return ScoringRule(loss0=loss0, loss1=loss1, origin={"from_weight": src.describe()})


def squared_error_rule() -> ScoringRule:
    """Squared-error loss; generated by the constant weight w(c) = 2."""
    return ScoringRule(
        loss0=lambda q: np.asarray(q, dtype=float) ** 2,
        loss1=lambda u: np.asarray(u, dtype=float) ** 2,
        origin={"named": "squared_error"},
    )


def log_loss_rule() -> ScoringRule:
    """Bernoulli log-loss; generated by the weight w(c) = 1 / (c (1 - c))."""
    return ScoringRule(
        loss0=lambda q: -np.log1p(-np.asarray(q, dtype=float)),
        loss1=lambda u: -np.log1p(-np.asarray(u, dtype=float)),
        origin={"named": "log_loss"},
    )


class PropernessEntry(Record):
    __slots__ = ("eta", "argmin", "gap", "strict",
                 "status",  # "ok" | "proper_not_strict_off_support" | "failed"
                 "detail")
    _defaults = {"detail": ""}


class PropernessReport(Record):
    __slots__ = ("grid_step", "entries")

    @property
    def failures(self) -> tuple[PropernessEntry, ...]:
        return tuple(e for e in self.entries if e.status == "failed")

    @property
    def all_ok(self) -> bool:
        return not self.failures


def _support_interval(w: WeightLike) -> tuple[float, float]:
    if isinstance(w, TabulatedWeight):
        positive = w.grid[w.density_values > 0.0]
        if positive.size:
            return float(positive[0]), float(positive[-1])
        return (1.0, 0.0)  # empty
    return (0.0, 1.0)


def properness_check(w: WeightLike, etas, grid_step: float = 1e-3) -> PropernessReport:
    """Verify on a grid that the expected loss is minimized at q = eta.

    For each eta the grid argmin must equal eta within one grid step, the
    loss must be non-increasing before and non-decreasing after the
    minimum, and any genuinely flat stretch of minimizers is tolerated
    only where the weight has no mass (reported as proper but not strict
    off the support).  Failures are reported, never raised.
    """
    if not (0 < grid_step <= 1e-3):
        raise ConfigError(f"grid_step must be positive and at most 1e-3, got {grid_step}")
    src = _as_moment_source(w)
    grid = np.arange(grid_step, 1.0, grid_step)
    m0, m1 = src.partial_moments(grid)
    support_lo, support_hi = _support_interval(w)

    entries = []
    for eta in np.atleast_1d(np.asarray(etas, dtype=float)):
        if not (0.0 <= eta <= 1.0):
            raise InputError(f"eta must lie in [0, 1], got {eta}")
        values = (1.0 - eta) * m0 + eta * m1
        vmin = values.min()
        atol = 1e-13 * max(1.0, float(np.abs(values).max()))
        minimizers = np.flatnonzero(values <= vmin + atol)
        lo_idx, hi_idx = int(minimizers[0]), int(minimizers[-1])
        q_lo, q_hi = grid[lo_idx], grid[hi_idx]
        nearest = grid[minimizers[np.argmin(np.abs(grid[minimizers] - eta))]]
        gap = abs(nearest - eta)
        step_tol = grid_step + 1e-12

        diffs = np.diff(values)
        bad_before = np.any(diffs[:lo_idx] > atol) if lo_idx > 0 else False
        bad_after = np.any(diffs[hi_idx:] < -atol) if hi_idx < grid.size - 1 else False

        if q_hi - q_lo <= step_tol:
            strict = True
            if gap <= step_tol and not bad_before and not bad_after:
                status, detail = "ok", ""
            else:
                status = "failed"
                detail = (
                    f"argmin {nearest:.6f} off eta by {gap:.2e}"
                    if gap > step_tol
                    else "loss not monotone around the minimum"
                )
        else:
            strict = False
            plateau_in_support = (q_hi > support_lo + step_tol) and (q_lo < support_hi - step_tol)
            if plateau_in_support:
                status = "failed"
                detail = f"flat minimizer stretch [{q_lo:.4f}, {q_hi:.4f}] inside the support"
            elif q_lo - step_tol <= eta <= q_hi + step_tol and not bad_before and not bad_after:
                status = "proper_not_strict_off_support"
                detail = f"minimum not unique off the support: [{q_lo:.4f}, {q_hi:.4f}]"
            else:
                status = "failed"
                detail = f"eta {eta} outside the minimizing stretch [{q_lo:.4f}, {q_hi:.4f}]"

        entries.append(
            PropernessEntry(
                eta=float(eta),
                argmin=float(nearest),
                gap=float(gap),
                strict=strict,
                status=status,
                detail=detail,
            )
        )
    return PropernessReport(grid_step=grid_step, entries=tuple(entries))
