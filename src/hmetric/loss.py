"""Cost-weighted misclassification losses.

The loss at cost c and threshold t is

    loss(c; t) = c pi0 (1 - F0(t)) + (1 - c) pi1 F1(t),

minimized either by the calibrated rule t = c (optimal when scores are
true class-1 probabilities) or by direct minimization over the observed
thresholds.  Expectations over a cost weight are computed exactly: the
empirical CDFs are step functions, so the integral splits at the pooled
scores into pieces where the integrand is affine in c times the weight
density, and each piece reduces to partial moments of the weight.  This
removes any grid-resolution dependence from the headline metrics.  The
no-skill reference loss comes from the same partial moments, taken at
pi1; the test suite checks it against adaptive quadrature of the
defining integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._mc import combine_mean_stderr, run_chunks
from .distributions import EmpiricalMixtureWeight, WeightFunction
from .empirical import ClassPriors, EmpiricalCdfPair
from .errors import ConfigError, InputError

__all__ = [
    "LossCurve",
    "threshold_loss",
    "min_loss",
    "optimal_envelope",
    "expected_min_loss",
    "reference_loss",
    "loss_curve",
]

THRESHOLD_MODES = ("calibrated", "optimal")


@dataclass(frozen=True)
class LossCurve:
    """Minimum loss sampled on a cost grid, for plotting."""

    grid: np.ndarray
    loss: np.ndarray
    mode: str


def _check_unit(name, value):
    v = np.asarray(value, dtype=float)
    if np.any(~np.isfinite(v)) or np.any(v < 0.0) or np.any(v > 1.0):
        raise InputError(f"{name} must lie in [0, 1], got {value}")
    return v


def threshold_loss(c, t, priors: ClassPriors, cdfs: EmpiricalCdfPair):
    """Expected cost of thresholding at t when a class-0 error costs c.

    Vectorizes over either argument.
    """
    c_arr = _check_unit("cost", c)
    t_arr = _check_unit("threshold", t)
    out = c_arr * priors.pi0 * (1.0 - cdfs.f0(t_arr)) + (1.0 - c_arr) * priors.pi1 * cdfs.f1(t_arr)
    return float(out) if (np.isscalar(c) and np.isscalar(t)) else out


@dataclass(frozen=True)
class _Envelope:
    """Lower envelope of the candidate-threshold loss lines, as a
    piecewise-affine concave function of the cost."""

    breaks: np.ndarray      # K+1 points spanning [0, 1]
    intercepts: np.ndarray  # K per-segment intercepts
    slopes: np.ndarray      # K per-segment slopes

    def value(self, c):
        c_arr = np.asarray(c, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, c_arr, side="right") - 1,
                      0, self.slopes.size - 1)
        out = self.intercepts[idx] + self.slopes[idx] * c_arr
        return float(out) if np.isscalar(c) else out


def optimal_envelope(priors: ClassPriors, cdfs: EmpiricalCdfPair) -> _Envelope:
    """Envelope of loss(c; t) over the candidate thresholds: the pooled
    score values, 0 and 1, plus the assign-everything-to-class-1 rule.

    Each candidate t contributes the line
        loss(c; t) = pi1 F1(t) + c [pi0 (1 - F0(t)) - pi1 F1(t)]
    and the minimum over t is their concave lower envelope on [0, 1].
    The explicit all-to-class-1 line (loss c pi0) matters only when
    scores sit exactly at 0, where no threshold in [0, 1] realizes that
    rule; without it the no-skill reference could beat the optimum and
    push H below zero.
    """
    cands = np.unique(np.concatenate([[0.0, 1.0], cdfs.sorted0, cdfs.sorted1]))
    b = priors.pi1 * cdfs.f1(cands)
    m = priors.pi0 * (1.0 - cdfs.f0(cands)) - b
    b = np.append(b, 0.0)
    m = np.append(m, priors.pi0)

    # sort by slope descending (active order as c grows), keep the lowest
    # intercept among equal slopes
    order = np.lexsort((b, -m))
    m, b = m[order], b[order]
    keep = np.ones(m.size, dtype=bool)
    keep[1:] = np.abs(np.diff(m)) > 1e-15
    m, b = m[keep], b[keep]

    stack: list[int] = []

    def crossover(i, j):
        # cost where line j catches line i (slope_i > slope_j)
        return (b[j] - b[i]) / (m[i] - m[j])

    for i in range(m.size):
        while stack:
            top = stack[-1]
            if b[i] <= b[top] and m[i] <= m[top]:
                stack.pop()            # dominated everywhere
                continue
            if len(stack) >= 2 and crossover(stack[-2], i) <= crossover(stack[-2], top):
                stack.pop()            # top never attains the minimum
                continue
            break
        if stack and m[stack[-1]] == m[i]:
            continue
        stack.append(i)

    # segment boundaries on [0, 1]
    xs = [0.0]
    segs = [stack[0]]
    for prev, nxt in zip(stack[:-1], stack[1:]):
        x = crossover(prev, nxt)
        if x <= xs[-1]:
            segs[-1] = nxt
            continue
        if x >= 1.0:
            break
        xs.append(x)
        segs.append(nxt)
    xs.append(1.0)
    segs_arr = np.asarray(segs, dtype=int)
    return _Envelope(
        breaks=np.asarray(xs, dtype=float),
        intercepts=b[segs_arr],
        slopes=m[segs_arr],
    )


def min_loss(c, priors: ClassPriors, cdfs: EmpiricalCdfPair, mode: str = "calibrated"):
    """Minimum achievable loss at cost c under the chosen threshold rule.

    calibrated uses t = c; optimal minimizes over the observed thresholds,
    so optimal <= calibrated pointwise.
    """
    if mode not in THRESHOLD_MODES:
        raise ConfigError(f"unknown threshold mode {mode!r}; expected one of {THRESHOLD_MODES}")
    if mode == "calibrated":
        return threshold_loss(c, c, priors, cdfs)
    env = optimal_envelope(priors, cdfs)
    out = env.value(_check_unit("cost", c))
    return float(out) if np.isscalar(c) else out


def _calibrated_expected_loss(priors, cdfs, w: WeightFunction) -> float:
    """Exact weight-expectation of the calibrated minimum loss.

    Splitting the integral at the pooled scores and telescoping the
    resulting piece sums gives the equivalent per-score form

        L = pi0 mean_i m0(s0_i) + pi1 mean_j m1(s1_j)

    which is what is evaluated here (exact up to the accuracy of the
    weight's partial moments).
    """
    m0_vals, _ = w.partial_moments(cdfs.sorted0)
    _, m1_vals = w.partial_moments(cdfs.sorted1)
    return float(priors.pi0 * np.mean(m0_vals) + priors.pi1 * np.mean(m1_vals))


def _envelope_expected_loss(env: _Envelope, w: WeightFunction) -> float:
    """Exact weight-expectation of a piecewise-affine function of cost."""
    cdf_vals = w.cdf(env.breaks)
    m0_vals, _ = w.partial_moments(env.breaks)
    dW = np.diff(cdf_vals)
    dM = np.diff(m0_vals)
    return float(np.sum(env.intercepts * dW + env.slopes * dM))


def _atomic_expected_loss(priors, cdfs, w: EmpiricalMixtureWeight, mode: str) -> float:
    """Discrete weights integrate to a plain atom-weighted sum."""
    vals = min_loss(w.atoms, priors, cdfs, mode=mode)
    return float(np.mean(vals))


def expected_min_loss(
    priors: ClassPriors,
    cdfs: EmpiricalCdfPair,
    w: WeightFunction,
    mode: str = "calibrated",
    method: str = "quadrature",
    mc_samples: int = 10000,
    seed: int | None = None,
    n_workers: int = 1,
) -> tuple[float, float | None]:
    """Expected minimum loss over the cost weight.

    quadrature evaluates the integral exactly piece by piece (see module
    docstring).  monte_carlo averages the minimum loss at sampled costs
    over deterministic substreams and returns the standard error of the
    mean as the second element.
    """
    if mode not in THRESHOLD_MODES:
        raise ConfigError(f"unknown threshold mode {mode!r}; expected one of {THRESHOLD_MODES}")
    if method == "quadrature":
        if w.atomic:
            return _atomic_expected_loss(priors, cdfs, w, mode), None
        if mode == "calibrated":
            return _calibrated_expected_loss(priors, cdfs, w), None
        return _envelope_expected_loss(optimal_envelope(priors, cdfs), w), None
    if method != "monte_carlo":
        raise ConfigError(f"unknown method {method!r}; expected 'quadrature' or 'monte_carlo'")

    if mode == "calibrated":
        def evaluate(costs):
            return threshold_loss(costs, costs, priors, cdfs)
    else:
        env = optimal_envelope(priors, cdfs)
        evaluate = env.value

    def one_chunk(rng, count):
        vals = evaluate(w.sample(count, rng))
        return float(np.sum(vals)), float(np.sum(vals * vals)), count

    parts = run_chunks(one_chunk, seed, mc_samples, n_workers=n_workers)
    mean, stderr = combine_mean_stderr(parts)
    return mean, stderr


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
    grid_size: int = 512,
) -> LossCurve:
    """Minimum loss on a uniform open cost grid, for curve emission."""
    if grid_size < 2:
        raise ConfigError(f"grid_size must be at least 2, got {grid_size}")
    grid = (np.arange(grid_size) + 0.5) / grid_size
    return LossCurve(grid=grid, loss=np.asarray(min_loss(grid, priors, cdfs, mode)), mode=mode)
