"""Cost-weight distributions on the open unit interval.

Provides the beta family (density, regularized incomplete beta) plus
tabulated piecewise-linear weights.  Everything a cost weight must
answer for the loss pipeline lives behind one interface: density, cdf,
mean and partial moments.

The incomplete beta comes from one numpy kernel (_pair_flat), after
DiDonato and Morris, "Algorithm 708: significant digit computation of the
incomplete beta function ratios" (ACM TOMS 18, 1992): the front factor
F = x^a (1-x)^b / B(a, b) in their rlog1/Stirling-remainder form, which the
density shares, and their BFRAC continued fraction of I_x(a + 1, b) give
the partial moments' pair I_x(a + 1, b), 1 - I_x(a, b + 1) and betainc's
I_x(a, b) = I_x(a + 1, b) + F / a (DLMF 8.17.20), with no scipy.  No step
depends on the rest of a call: a value is the same bits however broadcast.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .config import MAX_WEIGHT_SHAPE, MIN_WEIGHT_SHAPE
from .errors import InputError

__all__ = [
    "BetaParams",
    "WeightFunction",
    "BetaWeight",
    "TabulatedWeight",
    "beta_pdf",
    "regularized_incomplete_beta",
    "betainc",
]

# Tabulated grids coarser than this are rejected: linear interpolation on
# fewer points cannot keep quadrature error below the metric tolerances.
MIN_TABULATED_POINTS = 1024


class BetaParams(Record):
    """Shape parameters of a beta distribution; both must lie between
    MIN_WEIGHT_SHAPE and MAX_WEIGHT_SHAPE, where the incomplete beta is verified."""

    __slots__ = ("alpha", "beta")

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not (np.isfinite(value) and MIN_WEIGHT_SHAPE <= value <= MAX_WEIGHT_SHAPE):
                raise InputError(f"{name} must be a real from {MIN_WEIGHT_SHAPE:g} to "
                                 f"{MAX_WEIGHT_SHAPE:g}, got {value}")


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2k / (2k (2k - 1)), k = 1..8: the Stirling series of lgamma in 1/z^2
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)

# Continued-fraction convergence: relative size of the last step, how
# often converged elements leave the working set, and the step cap.
_CF_TOL = 1e-15
_CF_CHECK = 4
_CF_MAX_STEPS = 100_000
# Past the split point, I_x(a, b) with b below this comes from a power
# series instead of 1 - I_{1-x}(b, a), which would cancel.
_SMALL_B = 0.05
# The incomplete beta works through its broadcast elements in blocks of
# this many.  A step of the continued fraction keeps about 20 block-length
# float arrays alive: 2.6 MB at 2**14 elements, which an L2 cache holds,
# and all of the kernel's memory beyond its inputs and outputs (over 1e5
# points, a traced peak of 4.3 MB, against 9.7 MB with blocks of 2**16, at
# the same speed).  The shape term is computed once per call, not per
# block, but when the shapes come one pair per run of elements, each step
# still works out its coefficients per pair, a cost per block: those calls
# take blocks of _RUN_BLOCK, as 16,384 priors x 110 hull breaks took 16%
# longer in blocks of 2**14.
_BLOCK = 1 << 14
_RUN_BLOCK = 1 << 16


def _shift_up(z, step):
    """(The sum of step(z) over the unit steps that lift z to 10 or more,
    the lifted z.)  Each element of z > 0 takes its own ceil(10 - z) steps."""
    every = max(0, math.ceil(10.0 - np.max(z, initial=0.0)))  # the steps all elements take
    most = max(0, math.ceil(10.0 - np.min(z, initial=10.0)))
    total, start = 0.0, z
    for m in range(most):
        value = step(z)
        if m < every:
            z = z + 1.0
        else:  # masking also the steps all elements take cost 25% on per-draw shapes
            take = 10.0 - start > m
            value = np.where(take, value, 0.0)
            z = np.where(take, z + 1.0, z)
        total += value
    return total, z


def _stirling_delta(z):
    """lgamma(z) - [(z - 1/2) log z - z + log(2 pi) / 2], by the 8-term
    Stirling series (error below 2e-18) once z is shifted to 10 or more
    (_shift_up), each unit step adding delta(z) - delta(z + 1) =
    (z + 1/2) log1p(1/z) - 1."""
    # shifted per element, so that a value depends on its z alone: a count
    # per call, ceil(10 - min z), would let the rest of the call move it
    out, z = _shift_up(np.asarray(z, dtype=float), lambda z: (z + 0.5) * np.log1p(1.0 / z) - 1.0)
    r = 1.0 / z
    series = np.zeros_like(r)
    for c in reversed(_STIRLING):
        series = series * (r * r) + c
    return out + series * r


def _shape_term(a, b):
    """The shape-only part of the front factor's log,
    log(ab / (2 pi (a + b))) / 2 + delta(a + b) - delta(a) - delta(b)."""
    return (0.5 * (np.log(a) + np.log(b) - np.log(a + b)) - _HALF_LOG_2PI
            + _stirling_delta(a + b) - _stirling_delta(a) - _stirling_delta(b))


def _log_front(a, b, x, y, shape_term):
    """log(x^a y^b / B(a, b)), in DiDonato and Morris's form

        shape_term - (a rlog1(l1) + b rlog1(l2)),

    with l1 = (xb - ya) / a, l2 = -(xb - ya) / b and rlog1(l) = l - log1p(l),
    so no two large logarithms are subtracted.  Where l <= -1/2, log(1 + l)
    is taken as log(x (a + b) / a) (resp. y) rather than from the rounded l."""
    d = x * b - y * a
    l1, l2 = d / a, -d / b
    with np.errstate(divide="ignore", invalid="ignore"):  # l rounded to -1 or below
        t1, t2 = np.log1p(l1), np.log1p(l2)
        if np.any(l1 <= -0.5):
            t1 = np.where(l1 <= -0.5, np.log(x * ((a + b) / a)), t1)
        if np.any(l2 <= -0.5):
            t2 = np.where(l2 <= -0.5, np.log(y * ((a + b) / b)), t2)
    return shape_term - (a * (l1 - t1) + b * (l2 - t2))


def _fraction_terms(a, b, m):
    """The coefficients of step m of _fraction, of x^2 in its numerator
    and of 1, x and lam in its denominator."""
    lo, hi = 1.0 / (a + (2 * m - 1)), 1.0 / (a + (2 * m + 1))
    return (
        (a + (m - 1)) * (a + b + (m - 1)) * m * (b - m) * lo * lo,  # times x^2
        m + (a + m) * (2 * m + 1) * hi,  # constant
        m * ((b - m) * lo - (a + m) * hi),  # times x
        (a + m) * hi,  # times lam
    )


def _fraction(a, b, counts, x, lam, from_tail=False):
    """DiDonato and Morris's BFRAC continued fraction (Boost's
    ibeta_fraction2) at 1-d elements x with lam = a y - b x, so that
    I_x(a, b) = x^a y^b / B(a, b) / fraction.  a and b are the shapes:
    floats, arrays parallel to x (counts None), or arrays of which shape
    pair j belongs to the next counts[j] elements; the per-step
    coefficients are computed on them.  Evaluated by modified Lentz;
    converged elements leave the working set every _CF_CHECK steps, and an
    element still unconverged at _CF_MAX_STEPS raises an InputError naming
    a - 1 and b, _pair_flat's shapes.  With from_tail, each element's
    converged approximant is evaluated once more by _fraction_from_tail."""
    out = np.empty(x.size)
    steps = np.empty(x.size, dtype=np.intp) if from_tail else None
    start = a, b, counts, x, lam
    pos = np.arange(x.size)
    x2 = x * x
    ak = a if counts is None else np.repeat(a, counts)
    f = ak * (lam + 1.0) / (ak + 1.0)
    c = f.copy()
    d = np.zeros_like(f)
    for m in range(1, _CF_MAX_STEPS + 1):
        coef = _fraction_terms(a, b, m)
        if counts is not None:
            coef = [np.repeat(v, counts) for v in coef]
        an = coef[0] * x2
        bn = coef[2] * x
        bn += coef[1]
        bn += coef[3] * lam
        d *= an
        d += bn
        np.reciprocal(d, out=d)
        np.divide(an, c, out=c)
        c += bn
        delta = np.multiply(c, d, out=an)
        f *= delta
        if m % _CF_CHECK == 0:
            done = np.abs(delta - 1.0) <= _CF_TOL
            if done.any():
                out[pos[done]] = f[done]
                if from_tail:
                    steps[pos[done]] = m
                if done.all():
                    return _fraction_from_tail(*start, steps) if from_tail else out
                keep = ~done
                pos, f, c, d, x, x2, lam = (v[keep] for v in (pos, f, c, d, x, x2, lam))
                if counts is not None:
                    counts = np.add.reduceat(keep, np.cumsum(counts) - counts, dtype=np.intp)
                    live = counts > 0
                    a, b, counts = a[live], b[live], counts[live]
                elif np.ndim(a):
                    a, b = a[keep], b[keep]
    raise InputError(f"incomplete beta with shapes {float(np.ravel(a)[0]) - 1.0:g} and "
                     f"{float(np.ravel(b)[0]):g} did not converge in {_CF_MAX_STEPS} steps")


def _fraction_from_tail(a, b, counts, x, lam, steps):
    """_fraction's approximant of steps[i] terms at element i, evaluated
    from its last term up.  Unlike the forward products of Lentz's method,
    which carry each step's rounding along (2e-16 relative in the median,
    up to 1e-15), the backward pass damps it: about 8e-17 in the median,
    at the cost of a second pass."""
    x2 = x * x
    tail = np.zeros(x.size)
    with np.errstate(divide="ignore", invalid="ignore"):  # terms past an element's last
        for m in range(int(steps.max(initial=0)), 0, -1):
            coef = _fraction_terms(a, b, m)
            if counts is not None:
                coef = [np.repeat(v, counts) for v in coef]
            term = coef[0] * x2 / (coef[2] * x + coef[1] + coef[3] * lam + tail)
            tail = np.where(steps >= m, term, 0.0)
    ak = a if counts is None else np.repeat(a, counts)
    return ak * (lam + 1.0) / (ak + 1.0) + tail


def _lgamma_step(z, h):
    """lgamma(z + h) - lgamma(z) to relative accuracy for small h: z is
    shifted up to 10 or more, where the Stirling form has no large terms
    and each series term c z^(1-2k) changes by a factor expm1(...)."""
    total, z = _shift_up(z, lambda z: -np.log1p(h / z))
    step = np.log1p(h / z)
    for k, c in enumerate(_STIRLING, start=1):
        total += c * z ** (1 - 2 * k) * np.expm1((1 - 2 * k) * step)
    return total + (z - 0.5) * step + h * np.log(z + h) - h


def _small_b_series(a, b, x, y):
    """I_x(a, b) past the split point for b < _SMALL_B, where I is small
    and 1 - I_y(b, a) would lose its digits: from the power series of
    I_y(b, a) in y,

        I_x(a, b) = -expm1(log G) - G b sum_{j>=1} (1 - a)_j y^j / (j! (b + j)),

    with G = y^b Gamma(a + b) / (Gamma(a) Gamma(1 + b)) taken in logs to
    relative accuracy.  Past the split y < (b + 1) / (a + b + 2), so the
    terms fall at least like (1.05 / 2.05)^j."""
    log_g = b * np.log(y) + _lgamma_step(a, b) - _lgamma_step(np.ones_like(b), b)
    term, total = np.ones_like(y), np.zeros_like(y)
    for j in range(1, 200):
        term = term * ((j - a) * y / j)
        add = term / (b + j)
        total += add
        if np.all(np.abs(add) <= 1e-17 * np.abs(total)):
            break
    return -np.expm1(log_g) - np.exp(log_g) * b * total


def _pair_flat(a, b, term, k, x, cdf=False):
    """(I_x(a + 1, b), 1 - I_x(a, b + 1)), and with cdf also I_x(a, b), at
    1-d elements x whose shapes and shape term are a[k], b[k] and term[k],
    with k nondecreasing; when k is None, they are floats or parallel to x.

    All three come from the front factor F = x^a y^b / B(a, b) and one
    continued fraction, as I_x(a, b + 1) - I_x(a + 1, b) = F (a + b) / (a b)
    and I_x(a, b) = I_x(a + 1, b) + F / a (DLMF 8.17.20-21): that of
    I_x(a + 1, b) up to the split point x = (a + 1) / (a + b + 2), and
    that of 1 - I_x(a, b + 1) = I_y(b + 1, a) past it, each inside its own
    convergent range.  A derived value would cancel where the shape it is
    small in (a below the split, b past it) is below _SMALL_B; there it
    comes from _small_b_series.  With cdf, the fraction is evaluated from
    its tail (_fraction_from_tail)."""
    ak, bk, tk = (a, b, term) if k is None else (a[k], b[k], term[k])
    lower = np.where(np.isnan(x), np.nan, x >= 1.0)
    outs = (lower, 1.0 - lower, lower.copy()) if cdf else (lower, 1.0 - lower)
    inner = (x > 0.0) & (x < 1.0)
    flip = x > (ak + 1.0) / (ak + bk + 2.0)
    for flipped in (False, True):
        i = np.flatnonzero(inner & (flip if flipped else ~flip))
        if i.size == 0:
            continue
        # the flipped side swaps the shapes, and x with its 1 - x
        p, q, xs, ys = (b, a, 1.0 - x[i], x[i]) if flipped else (a, b, x[i], 1.0 - x[i])
        pk, qk = (bk, ak) if flipped else (ak, bk)
        pk, qk, ti = (v[i] if np.ndim(v) else v for v in (pk, qk, tk))
        sp, sq, counts = pk, qk, None
        if k is not None:  # one pair per run of elements, with its count
            counts = np.bincount(k[i], minlength=np.size(p))
            sp, sq, counts = p[counts > 0], q[counts > 0], counts[counts > 0]
        front = np.exp(_log_front(pk, qk, xs, ys, ti))
        frac = _fraction(sp + 1.0, sq, counts, xs, (pk + 1.0) * ys - qk * xs, cdf)
        direct = xs * front * ((pk + qk) / pk) / frac
        partner = (1.0 - front * ((pk + qk) / (pk * qk))) - direct
        pk, qk = (np.broadcast_to(v, xs.shape) for v in (pk, qk))
        small = np.flatnonzero(pk < _SMALL_B)
        if small.size:
            partner[small] = _small_b_series(qk[small] + 1.0, pk[small], ys[small], xs[small])
        values = [partner, direct] if flipped else [direct, partner]
        if cdf:
            whole = (front / pk) * (1.0 + xs * (pk + qk) / frac)
            if flipped:
                whole = 1.0 - whole
                whole[small] = partner[small] + front[small] / qk[small]
            values.append(whole)
        for out, value in zip(outs, values):
            out[i] = value
    return outs


def _partial_pair(a, b, x, term=None, cdf=False):
    """(I_x(a + 1, b), 1 - I_x(a, b + 1)), and with cdf also I_x(a, b), at
    the broadcast of a, b and x like scipy's ufuncs, from one front factor
    and one continued fraction per element (_pair_flat); the second is
    within 1e-12 relative also as x -> 1, where 1 - betainc(a, b + 1, x)
    would lose its digits.  The shape term is taken once per shape pair,
    then blocks of _BLOCK elements (_RUN_BLOCK when the shapes come one
    pair per run of elements) go through, each with its distinct shape
    pairs and the run index k of every element.  No step depends on the
    other elements of the call, so a value is the same bits whatever it is
    broadcast with.  term, when given, is the shape term of a single pair
    a, b, from _shape_term on 1-element arrays as here, so that a caller
    can compute it once."""
    a, b, x = (np.asarray(v, dtype=float) for v in (a, b, x))
    shape = np.broadcast_shapes(a.shape, b.shape, x.shape)
    ab_shape = np.broadcast_shapes(a.shape, b.shape)
    ab_shape = (1,) * (len(shape) - len(ab_shape)) + ab_shape
    # axes along which the shapes vary go first, so that each shape pair
    # owns one run of consecutive elements
    perm = sorted(range(len(shape)), key=lambda axis: ab_shape[axis] == 1)
    xs = np.broadcast_to(x, shape).transpose(perm).ravel()
    sa, sb = (np.broadcast_to(v, ab_shape).transpose(perm).ravel() for v in (a, b))
    term = _shape_term(sa, sb) if term is None else term
    outs = [np.empty(xs.size) for _ in range(3 if cdf else 2)]
    run = xs.size // max(sa.size, 1)
    block = _BLOCK if sa.size == 1 or run == 1 else _RUN_BLOCK
    for lo in range(0, xs.size, block):
        hi = min(lo + block, xs.size)
        if sa.size == 1:
            shapes = float(sa[0]), float(sb[0]), float(term[0]), None
        elif run == 1:
            shapes = sa[lo:hi], sb[lo:hi], term[lo:hi], None
        else:
            first, last = lo // run, (hi - 1) // run + 1
            shapes = (sa[first:last], sb[first:last], term[first:last],
                      np.arange(lo, hi) // run - first)
        for out, value in zip(outs, _pair_flat(*shapes, xs[lo:hi], cdf)):
            out[lo:hi] = value
    back = [perm.index(axis) for axis in range(len(shape))]
    return tuple(out.reshape([shape[axis] for axis in perm]).transpose(back)[()] for out in outs)


def betainc(a, b, x):
    """Regularized incomplete beta I_x(a, b), vectorised like scipy's
    betainc: arguments broadcast, shapes must be positive, and I = 0 at
    x <= 0, 1 at x >= 1.

    Inside (0, 1) it is I_x(a + 1, b) + F / a (DLMF 8.17.20), a sum of
    positive terms, from the front factor F = x^a y^b / B(a, b) and the
    continued fraction of I_x(a + 1, b) that _partial_pair evaluates, on
    the side x <= (a + 1) / (a + b + 2); past it, 1 - I_{1-x}(b, a) the same
    way, or for b < _SMALL_B the power series of I_x(a + 1, b) plus F / a.
    The fraction is evaluated from its tail (_fraction_from_tail), which
    keeps values at adjacent x in order far more often than Lentz's
    forward products.  Relative error stays within 1e-12, and a value is
    the same bits whatever it is broadcast with.
    """
    return _partial_pair(a, b, x, cdf=True)[2]


def _beta_moments(a, b, u, term=None):
    """The partial moments of a Beta(a, b) cost weight at u, broadcast:
    (a/(a+b)) I_u(a + 1, b) and (b/(a+b)) (1 - I_u(a, b + 1)), by the
    shape shift c b(c; a, b) = (a/(a+b)) b(c; a + 1, b).  term is
    _partial_pair's."""
    below, above = _partial_pair(a, b, u, term)
    return (a / (a + b)) * below, (b / (a + b)) * above


def _beta_pdf_arr(c, a, b):
    """Beta density on interior points; no domain checks."""
    c = np.asarray(c, dtype=float)
    return np.exp(_log_front(a, b, c, 1.0 - c, _shape_term(a, b))) / (c * (1.0 - c))


def beta_pdf(c: float, p: BetaParams) -> float:
    """Beta density at an interior cost.

    Raises a domain error for c outside the open interval (0, 1): with a
    shape below one the density diverges at the endpoints, and no caller
    legitimately needs an endpoint value.
    """
    if not (np.isfinite(c) and 0.0 < c < 1.0):
        raise InputError(f"cost must lie strictly inside (0, 1), got {c}")
    return float(_beta_pdf_arr(c, p.alpha, p.beta))


def regularized_incomplete_beta(x: float, p: BetaParams) -> float:
    """CDF of the beta distribution at x, i.e. I_x(alpha, beta): betainc
    at one point, the same bits as betainc gives it in any broadcast
    (I_x(a + 1, b) + F / a, DLMF 8.17.20).  I_0 = 0 and I_1 = 1; relative
    error within 1e-12, including integer shapes in the tens of thousands.
    """
    if not (np.isfinite(x) and 0.0 <= x <= 1.0):
        raise InputError(f"x must lie in [0, 1], got {x}")
    return float(betainc(p.alpha, p.beta, x))


class WeightFunction:
    """A distribution of misclassification costs on (0, 1).

    Subclasses answer density/cdf/mean queries and give the exact
    partial moments
        m0(u) = integral of c w(c) over (0, u)
        m1(u) = integral of (1 - c) w(c) over (u, 1).
    Instances are immutable after construction, so one instance serves
    every column of a report.
    """

    def density(self, c):
        raise NotImplementedError

    def cdf(self, c):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def partial_moments(self, upper):
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


def _check_unit(name, value):
    v = np.asarray(value, dtype=float)
    if np.any(~np.isfinite(v)) or np.any(v < 0.0) or np.any(v > 1.0):
        raise InputError(f"{name} must lie in [0, 1], got {value}")
    return v


class BetaWeight(WeightFunction):
    """Beta-distributed cost weight.

    Partial moments come in closed form from the shape-shift identity
    c b(c; a, b) = (a / (a + b)) b(c; a + 1, b), so m0 and m1 reduce to
    regularized incomplete betas with one shape raised by one, which one
    continued fraction gives together (_beta_moments).  Their shape term
    is computed once, here, not once per call.
    """

    def __init__(self, alpha: float, beta: float):
        self.params = BetaParams(float(alpha), float(beta))
        self._term = _shape_term(np.array([self.alpha]), np.array([self.beta]))

    @property
    def alpha(self) -> float:
        return self.params.alpha

    @property
    def beta(self) -> float:
        return self.params.beta

    def density(self, c):
        c_arr = np.asarray(c, dtype=float)
        if np.any(c_arr <= 0.0) or np.any(c_arr >= 1.0):
            raise InputError("beta weight density is defined on the open interval (0, 1)")
        out = _beta_pdf_arr(c_arr, self.alpha, self.beta)
        return float(out) if np.isscalar(c) else out

    def cdf(self, c):
        out = betainc(self.alpha, self.beta, _check_unit("upper integration limit", c))
        return float(out) if np.isscalar(c) else out

    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    def mode(self) -> float:
        a, b = self.alpha, self.beta
        if a <= 1.0 or b <= 1.0:
            raise InputError("mode is interior only for shapes above one")
        return (a - 1.0) / (a + b - 2.0)

    def partial_moments(self, upper):
        u = _check_unit("upper integration limit", upper)
        m0, m1 = _beta_moments(self.alpha, self.beta, u, self._term)
        if np.isscalar(upper):
            return float(m0), float(m1)
        return m0, m1

    def describe(self) -> dict:
        return {"kind": "beta", "alpha": self.alpha, "beta": self.beta}


class TabulatedWeight(WeightFunction):
    """Piecewise-linear cost density given on a grid inside (0, 1).

    The density is interpolated linearly between grid points and is zero
    outside the grid's span; all integrals (mass, partial moments) are
    the exact polynomial integrals of that interpolant.  Grids need at
    least MIN_TABULATED_POINTS points and unit total mass within 1e-9.
    """

    def __init__(self, grid: np.ndarray, density: np.ndarray):
        grid = np.asarray(grid, dtype=float)
        density = np.asarray(density, dtype=float)
        if grid.ndim != 1 or grid.shape != density.shape:
            raise InputError("grid and density must be one-dimensional and parallel")
        if grid.size < MIN_TABULATED_POINTS:
            raise InputError(
                f"tabulated weight needs at least {MIN_TABULATED_POINTS} grid points, "
                f"got {grid.size}"
            )
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(density))):
            raise InputError("grid and density must be finite")
        if np.any(np.diff(grid) <= 0.0):
            raise InputError("grid points must be strictly increasing")
        if grid[0] <= 0.0 or grid[-1] >= 1.0:
            raise InputError("grid points must lie strictly inside (0, 1)")
        if np.any(density < 0.0):
            raise InputError("density values must be nonnegative")

        self.grid = grid
        self.density_values = density

        h = np.diff(grid)
        d0, d1 = density[:-1], density[1:]
        # exact per-segment integrals of the linear interpolant
        seg_mass = 0.5 * (d0 + d1) * h
        # int c w(c) dc over a segment, with w linear between (x0,d0),(x1,d1)
        slope = (d1 - d0) / h
        seg_cm = grid[:-1] * seg_mass + 0.5 * d0 * h**2 + slope * h**3 / 3.0

        self._seg_h = h
        self._seg_d0 = d0
        self._seg_slope = slope
        self._cum_mass = np.concatenate([[0.0], np.cumsum(seg_mass)])
        self._cum_cm = np.concatenate([[0.0], np.cumsum(seg_cm)])
        self.total_mass = float(self._cum_mass[-1])
        if abs(self.total_mass - 1.0) > 1e-9:
            raise InputError(
                f"tabulated density must integrate to 1 within 1e-9, got {self.total_mass!r}"
            )

    def density(self, c):
        c_arr = np.asarray(c, dtype=float)
        out = np.interp(c_arr, self.grid, self.density_values, left=0.0, right=0.0)
        return float(out) if np.isscalar(c) else out

    def _mass_below(self, u):
        """Exact mass and first-moment integrals of the interpolant on (0, u)."""
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.searchsorted(self.grid, u, side="right") - 1, 0, len(self._seg_h) - 1)
        t = np.clip(u - self.grid[idx], 0.0, self._seg_h[idx])
        d0 = self._seg_d0[idx]
        s = self._seg_slope[idx]
        part_mass = d0 * t + 0.5 * s * t**2
        part_cm = self.grid[idx] * part_mass + 0.5 * d0 * t**2 + s * t**3 / 3.0
        below = u <= self.grid[0]
        mass = np.where(below, 0.0, self._cum_mass[idx] + part_mass)
        cm = np.where(below, 0.0, self._cum_cm[idx] + part_cm)
        return mass, cm

    def cdf(self, c):
        c_arr = _check_unit("upper integration limit", c)
        mass, _ = self._mass_below(c_arr)
        out = mass / self.total_mass
        return float(out) if np.isscalar(c) else out

    def mean(self) -> float:
        return float(self._cum_cm[-1]) / self.total_mass

    def partial_moments(self, upper):
        u = _check_unit("upper integration limit", upper)
        mass, cm = self._mass_below(u)
        m0 = cm
        # m1(u) = total (1-c)-moment minus the (1-c)-moment below u
        total_m1 = self.total_mass - self._cum_cm[-1]
        m1 = total_m1 - (mass - cm)
        if np.isscalar(upper):
            return float(m0), float(m1)
        return m0, m1

    def describe(self) -> dict:
        return {
            "kind": "tabulated",
            "points": int(self.grid.size),
            "support": [float(self.grid[0]), float(self.grid[-1])],
        }
