"""Independent oracle computations for the test suite.

Everything here recomputes expected values from first principles with
tools disjoint from the implementation paths under test: direct counting,
exhaustive pair enumeration, dense midpoint grids, scipy adaptive
quadrature of the beta density, and mpmath's arbitrary-precision
incomplete beta and binomial sums.  The package computes incomplete betas
with scipy.special.betainc, so no oracle here uses that routine.  Nothing
imports the package.
"""

from functools import lru_cache

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import betaln as sp_betaln


def beta_density(c, a, b):
    return np.exp((a - 1) * np.log(c) + (b - 1) * np.log1p(-c) - sp_betaln(a, b))


def quad_partial_moments(upper, a, b):
    """(m0, m1) by adaptive quadrature of the density."""
    m0 = quad(lambda c: c * beta_density(c, a, b), 0.0, upper, epsabs=1e-13, epsrel=1e-12)[0]
    m1 = quad(lambda c: (1 - c) * beta_density(c, a, b), upper, 1.0, epsabs=1e-13, epsrel=1e-12)[0]
    return m0, m1


def count_cdf(sample, c):
    """Fraction of sample values <= c, by direct counting."""
    sample = np.asarray(sample)
    return np.mean(sample[None, :] <= np.atleast_1d(c)[:, None], axis=1)


def dense_expected_min_loss(s0, s1, pi0, a, b, mode="calibrated", n=10**6):
    """Dense midpoint quadrature of the weighted minimum loss."""
    cs = (np.arange(n) + 0.5) / n
    f0 = count_cdf(s0, cs)
    f1 = count_cdf(s1, cs)
    pi1 = 1.0 - pi0
    if mode == "calibrated":
        ml = cs * pi0 * (1 - f0) + (1 - cs) * pi1 * f1
    else:
        cands = np.unique(np.concatenate([[0.0, 1.0], s0, s1]))
        cand_f0 = count_cdf(s0, cands)
        cand_f1 = count_cdf(s1, cands)
        lines = cs[:, None] * (pi0 * (1 - cand_f0))[None, :] + (1 - cs)[:, None] * (
            pi1 * cand_f1
        )[None, :]
        ml = lines.min(axis=1)
    return float(np.mean(ml * beta_density(cs, a, b)))


def brute_force_auc(s0, s1):
    """Exhaustive pair enumeration with half credit for ties."""
    s0 = np.asarray(s0)[:, None]
    s1 = np.asarray(s1)[None, :]
    wins = np.sum(s0 < s1) + 0.5 * np.sum(s0 == s1)
    return float(wins / (s0.size * s1.size))


def closed_reference_loss(pi0, a, b):
    """No-skill loss pi0 m0(pi1) + pi1 m1(pi1) of a Beta(a, b) weight, with
    the partial moments from adaptive quadrature of the density."""
    pi1 = 1.0 - pi0
    m0, m1 = quad_partial_moments(pi1, a, b)
    return pi0 * m0 + pi1 * m1


def _mp_betainc(a, b, x):
    return float(mpmath.betainc(a, b, 0, x, regularized=True))


def binomial_tail_betainc(a, b, x, dps=40):
    """I_x(a, b) for integer shapes as the binomial tail
    P(Bin(a + b - 1, x) >= a), summed term by term at dps digits.

    Terms follow t(k+1) = t(k) (n - k) / (k + 1) x / (1 - x) from k = a and
    stop once past the mode they drop below 10^-(dps + 5) of the sum.
    """
    with mpmath.workdps(dps):
        n = a + b - 1
        xm = mpmath.mpf(float(x))
        ratio = xm / (1 - xm)
        term = mpmath.binomial(n, a) * xm**a * (1 - xm) ** (n - a)
        total = term
        tiny = mpmath.mpf(10) ** -(dps + 5)
        for k in range(a, n):
            term *= ratio * (n - k) / (k + 1)
            total += term
            if k > n * xm and term < tiny * total:
                break
        return float(total)


def nested_uncertain_h(s0, s1, n_grid=2048):
    """Deterministic two-level oracle for the prior-uncertain H-measure:
    midpoint grid over pi0 against Beta(2, 2), exact piecewise inner
    integral built from mpmath's regularized incomplete beta.

    Memoised on (s0, s1, n_grid): one evaluation takes several seconds.
    """
    return _nested_uncertain_h(tuple(map(float, s0)), tuple(map(float, s1)), int(n_grid))


@lru_cache(maxsize=None)
def _nested_uncertain_h(s0, s1, n_grid):
    s0 = np.asarray(s0)
    s1 = np.asarray(s1)
    breaks = np.unique(np.concatenate([[0.0, 1.0], s0, s1]))
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    f0_pieces = count_cdf(s0, mids)
    f1_pieces = count_cdf(s1, mids)

    pi0s = (np.arange(n_grid) + 0.5) / n_grid
    ratios = np.empty(n_grid)
    for i, p0 in enumerate(pi0s):
        p1 = 1.0 - p0
        a, b = 2.0 - p0, 1.0 + p0
        # piece integrals of c w and (1-c) w from shape-shifted CDFs
        i0 = a / (a + b) * np.array([_mp_betainc(a + 1, b, x) for x in breaks])
        i1 = b / (a + b) * (1.0 - np.array([_mp_betainc(a, b + 1, x) for x in breaks]))
        dm0 = np.diff(i0)
        dm1 = -np.diff(i1)
        loss = np.sum(p0 * (1 - f0_pieces) * dm0 + p1 * f1_pieces * dm1)
        ref = p0 * (a / (a + b)) * _mp_betainc(a + 1, b, p1) + p1 * (b / (a + b)) * (
            1.0 - _mp_betainc(a, b + 1, p1)
        )
        ratios[i] = loss / ref
    v = 6.0 * pi0s * (1.0 - pi0s)
    return float(1.0 - np.mean(ratios * v))
