"""Independent oracle computations for the test suite.

Everything here recomputes expected values from first principles with
tools disjoint from the implementation paths under test: direct counting,
exhaustive pair enumeration, dense midpoint grids, scipy adaptive
quadrature of the beta density, mpmath's arbitrary-precision beta
density, incomplete beta and binomial sums, and scipy.special.betainc.
The package computes incomplete betas with its own routine
(distributions.betainc), so scipy's betainc is independent of it.
Nothing imports the package.

The rank-sum AUC, the stack-loop optimal envelope, the per-atom
mixture-weight and threshold-law sums and the full monotone chain at the
end are the package's earlier algorithms, kept as differential references
for the tie-grouped table and the ROC hull that replaced them.  They work
on raw class score arrays (the chain on cumulative class counts); the
weight they integrate against is passed in and only answers cdf and
partial_moments.
"""

import math
from collections import Counter
from functools import lru_cache

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import betainc as sp_betainc
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


def exact_auc_counts(s0, s1):
    """(Twice the Mann-Whitney wins, the cross-class tie pairs) in Python
    integers, one distinct score at a time: the class-1 scores at a value
    beat every class-0 score below it and tie each class-0 score at it."""
    c0, c1 = Counter(np.asarray(s0).tolist()), Counter(np.asarray(s1).tolist())
    twice_wins = ties = below0 = 0
    for value in sorted(c0.keys() | c1.keys()):
        k0, k1 = c0[value], c1[value]
        twice_wins += k1 * (2 * below0 + k0)
        ties += k0 * k1
        below0 += k0
    return twice_wins, ties


def closed_reference_loss(pi0, a, b):
    """No-skill loss pi0 m0(pi1) + pi1 m1(pi1) of a Beta(a, b) weight, with
    the partial moments from adaptive quadrature of the density."""
    pi1 = 1.0 - pi0
    m0, m1 = quad_partial_moments(pi1, a, b)
    return pi0 * m0 + pi1 * m1


def exact_calibrated_loss_batch(pi0s, u, count0, count1):
    """Calibrated loss of a tie-grouped table (distinct scores u with class
    counts) at each prior draw under the conditional weight
    Beta(2 - pi0, 1 + pi0), directly: one (draws x scores) array of
    incomplete betas per class, each score weighted by its count."""
    pi0s = np.asarray(pi0s, dtype=float)
    a, b = 2.0 - pi0s, 1.0 + pi0s
    col_a, col_b = a[:, None], b[:, None]
    i0 = sp_betainc(col_a + 1.0, col_b, u) @ count0 / np.sum(count0)
    i1 = sp_betainc(col_a, col_b + 1.0, u) @ count1 / np.sum(count1)
    return pi0s * (a / (a + b)) * i0 + (1.0 - pi0s) * (b / (a + b)) * (1.0 - i1)


def whole_chunk_uncertain_h(losses, reference_batch, chunks, alpha, beta):
    """(h, loss, mc_stderr) of each column's H under a Beta(alpha, beta)
    prior, by the loop that evaluated each chunk of prior draws whole: one
    reference_batch(pi0s) and one loss(pi0s) per column for every chunk,
    the ratios' sums added in chunk order.  losses (each column's loss at
    an array of priors), reference_batch and chunks (the (rng, count) of
    each chunk of draws) are the package's, passed in."""
    sums, squares, n = [0.0] * len(losses), [0.0] * len(losses), 0
    tiny = np.finfo(float).tiny
    for rng, count in chunks:
        pi0s = np.clip(rng.beta(alpha, beta, size=count), tiny, 1.0 - 1e-16)
        reference = reference_batch(pi0s)
        for k, loss in enumerate(losses):
            ratios = loss(pi0s) / reference
            sums[k] += float(np.sum(ratios))
            squares[k] += float(np.sum(ratios * ratios))
        n += count
    means = [s / n for s in sums]
    return [(1.0 - mean, mean, float(np.sqrt(max(ss - n * mean * mean, 0.0) / (n - 1) / n)))
            for mean, ss in zip(means, squares)]


def mp_beta_density(c, a, b, dps=40):
    """Beta(a, b) density at the float c, at dps digits."""
    with mpmath.workdps(dps):
        c, a, b = mpmath.mpf(float(c)), mpmath.mpf(float(a)), mpmath.mpf(float(b))
        return float(mpmath.exp((a - 1) * mpmath.log(c) + (b - 1) * mpmath.log1p(-c)
                                - mpmath.log(mpmath.beta(a, b))))


def hyp_betainc(a, b, x, dps=50):
    """I_x(a, b) at dps digits from the Gauss series
    x^a y^b / (a B(a, b)) 2F1(a + b, 1; a + 1; x), taken in whichever of x
    and y = 1 - x is at most 1/2 (through I_x(a, b) = 1 - I_y(b, a)), so it
    converges geometrically where mpmath.betainc's series would not."""
    with mpmath.workdps(dps):
        a, b, x = mpmath.mpf(float(a)), mpmath.mpf(float(b)), mpmath.mpf(float(x))
        flip = x > 0.5
        if flip:
            a, b, x = b, a, 1 - x
        value = (x**a * (1 - x) ** b / (a * mpmath.beta(a, b))
                 * mpmath.hyp2f1(a + b, 1, a + 1, x, maxterms=10**6))
        return float(1 - value if flip else value)


def mp_partial_pair(a, b, u, dps=40):
    """(I_u(a + 1, b), 1 - I_u(a, b + 1)) at dps digits, the second as
    I_{1-u}(b + 1, a) with 1 - u taken exactly, each from the Gauss series
    of hyp_betainc in whichever of u and 1 - u is at most 1/2."""
    def inc(p, q, x):
        if x > 0.5:
            return 1 - inc(q, p, 1 - x)
        return (x**p * (1 - x) ** q / (p * mpmath.beta(p, q))
                * mpmath.hyp2f1(p + q, 1, p + 1, x, maxterms=10**6))

    with mpmath.workdps(dps):
        a, b, u = mpmath.mpf(float(a)), mpmath.mpf(float(b)), mpmath.mpf(float(u))
        return float(inc(a + 1, b, u)), float(inc(b + 1, a, 1 - u))


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


def rank_sum_auc(s0, s1):
    """(auc, tie_pairs) from average ranks of the pooled scores and
    per-value class counts, as the package computed them before."""
    s0 = np.asarray(s0, dtype=float)
    s1 = np.asarray(s1, dtype=float)
    n0, n1 = s0.size, s1.size
    pooled = np.concatenate([s0, s1])
    order = np.argsort(pooled, kind="mergesort")
    _, start = np.unique(pooled[order], return_index=True)
    stop = np.append(start[1:], pooled.size)
    ranks = np.empty(pooled.size)
    ranks[order] = np.repeat((start + 1 + stop) / 2.0, stop - start)
    u1 = float(np.sum(ranks[n0:])) - n1 * (n1 + 1) / 2.0
    values, counts0 = np.unique(s0, return_counts=True)
    ranked1 = np.sort(s1)
    counts1 = np.searchsorted(ranked1, values, side="right") - np.searchsorted(
        ranked1, values, side="left"
    )
    return u1 / (n0 * n1), int(np.sum(counts0 * counts1))


def stack_loop_envelope(s0, s1, pi0):
    """(breaks, intercepts, slopes) of the lower envelope of the loss
    lines pi1 F1(t) + c [pi0 (1 - F0(t)) - pi1 F1(t)] over the pooled
    scores with 0 and 1, plus the all-to-class-1 line c pi0: slopes sorted
    with a 1e-15 de-duplication, then a stack pass over the lines."""
    sorted0, sorted1 = np.sort(s0), np.sort(s1)
    pi1 = 1.0 - pi0
    cands = np.unique(np.concatenate([[0.0, 1.0], sorted0, sorted1]))
    b = pi1 * (np.searchsorted(sorted1, cands, side="right") / sorted1.size)
    m = pi0 * (1.0 - np.searchsorted(sorted0, cands, side="right") / sorted0.size) - b
    b = np.append(b, 0.0)
    m = np.append(m, pi0)
    order = np.lexsort((b, -m))
    m, b = m[order], b[order]
    keep = np.ones(m.size, dtype=bool)
    keep[1:] = np.abs(np.diff(m)) > 1e-15
    m, b = m[keep], b[keep]

    def crossover(i, j):
        return (b[j] - b[i]) / (m[i] - m[j])

    stack = []
    for i in range(m.size):
        while stack:
            top = stack[-1]
            if b[i] <= b[top] and m[i] <= m[top]:
                stack.pop()
                continue
            if len(stack) >= 2 and crossover(stack[-2], i) <= crossover(stack[-2], top):
                stack.pop()
                continue
            break
        if stack and m[stack[-1]] == m[i]:
            continue
        stack.append(i)

    xs, segs = [0.0], [stack[0]]
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
    return np.asarray(xs), b[segs], m[segs]


def monotone_chain_hull(cum0, cum1):
    """(F0, F1) at the vertices of the lower convex chain through (0, 0)
    and every ROC point (cum0[k], cum1[k]): Andrew's monotone chain over
    all the points, turning on exact Python integers, collinear points
    dropped."""
    xs = [0] + [int(x) for x in cum0]
    ys = [0] + [int(y) for y in cum1]
    chain = [0]
    for k in range(1, len(xs)):
        while len(chain) >= 2:
            i, j = chain[-2], chain[-1]
            if (xs[j] - xs[i]) * (ys[k] - ys[i]) > (ys[j] - ys[i]) * (xs[k] - xs[i]):
                break
            chain.pop()
        chain.append(k)
    return np.asarray(xs)[chain] / xs[-1], np.asarray(ys)[chain] / ys[-1]


def stack_loop_envelope_value(envelope, c):
    breaks, intercepts, slopes = envelope
    idx = np.clip(np.searchsorted(breaks, c, side="right") - 1, 0, slopes.size - 1)
    return intercepts[idx] + slopes[idx] * c


def stack_loop_expected_loss(s0, s1, pi0, w):
    """Optimal-mode expected loss: each envelope segment integrated as
    intercept dW + slope dm0 from the weight's cdf and partial moment m0."""
    breaks, intercepts, slopes = stack_loop_envelope(s0, s1, pi0)
    m0, _ = w.partial_moments(breaks)
    return float(np.sum(intercepts * np.diff(w.cdf(breaks)) + slopes * np.diff(m0)))


def per_score_calibrated_loss(s0, s1, pi0, w):
    """Calibrated-mode expected loss pi0 mean m0(s0) + pi1 mean m1(s1),
    one partial-moment evaluation per score, each mean's sum added exactly
    by math.fsum."""
    m0, _ = w.partial_moments(np.asarray(s0, dtype=float))
    _, m1 = w.partial_moments(np.asarray(s1, dtype=float))
    return pi0 * math.fsum(m0.tolist()) / m0.size + (1.0 - pi0) * math.fsum(m1.tolist()) / m1.size


def _class_cdfs(s0, s1, t):
    """F0(t), F1(t) by binary search over the sorted class scores."""
    sorted0, sorted1 = np.sort(s0), np.sort(s1)
    return (
        np.searchsorted(sorted0, t, side="right") / sorted0.size,
        np.searchsorted(sorted1, t, side="right") / sorted1.size,
    )


def per_atom_mixture_loss(s0, s1, pi0, mode):
    """Expected minimum loss under the pooled-score weight: the mean of the
    minimum loss at each of the n pooled scores, its sum added exactly by
    math.fsum, the calibrated loss from binary-search CDFs or the
    stack-loop envelope's value."""
    atoms = np.concatenate([s0, s1]).astype(float)
    if mode == "calibrated":
        f0, f1 = _class_cdfs(s0, s1, atoms)
        losses = atoms * pi0 * (1.0 - f0) + (1.0 - atoms) * (1.0 - pi0) * f1
    else:
        losses = stack_loop_envelope_value(stack_loop_envelope(s0, s1, pi0), atoms)
    return math.fsum(losses.tolist()) / losses.size


def per_score_threshold_cdfs(s0, s1, law, weights=None):
    """(E_u[F0], E_u[F1]) with one CDF evaluation per threshold atom:
    "pooled" averages over the n pooled scores, "class1-ranks" sums over
    the ascending class-1 scores with the given per-rank weights
    (normalized; equal when omitted)."""
    if law == "pooled":
        f0, f1 = _class_cdfs(s0, s1, np.concatenate([s0, s1]))
        return float(np.mean(f0)), float(np.mean(f1))
    sorted1 = np.sort(s1)
    w = np.full(sorted1.size, 1.0 / sorted1.size) if weights is None else (
        np.asarray(weights, dtype=float) / np.sum(weights)
    )
    f0, f1 = _class_cdfs(s0, s1, sorted1)
    return float(np.sum(w * f0)), float(np.sum(w * f1))
