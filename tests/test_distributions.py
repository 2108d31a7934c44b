import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc as sp_betainc
from scipy.special import betaincc as sp_betaincc
from scipy.special import betaincinv

from hmetric import (
    BetaParams,
    BetaWeight,
    HmetricError,
    InputError,
    TabulatedWeight,
    beta_pdf,
    load_tabulated_weight,
    regularized_incomplete_beta,
)
from hmetric import distributions, expected_loss, ingest, min_loss, threshold_loss
from hmetric.config import MAX_WEIGHT_SHAPE, MIN_WEIGHT_SHAPE
from hmetric.distributions import betainc
from hmetric.empirical import empirical_cdfs, empirical_priors
from oracles import (
    beta_density,
    binomial_tail_betainc,
    hyp_betainc,
    mp_beta_density,
    mp_partial_pair,
    quad_partial_moments,
)

# frozen from a 40-digit adaptive-quadrature oracle
BETA_PDF_03_17_13 = 0.94870843763150103869
INCBETA_03_25_15 = 0.088943723170665599354
M0_05_15 = 0.14389670460540310949
M1_05_15 = 0.14389670460540310949


class TestBetaPdf:
    def test_uniform(self):
        assert beta_pdf(0.5, BetaParams(1, 1)) == pytest.approx(1.0, abs=1e-14)

    def test_symmetric_two_two(self):
        assert beta_pdf(0.5, BetaParams(2, 2)) == pytest.approx(1.5, abs=1e-14)

    def test_oracle_value(self):
        assert beta_pdf(0.3, BetaParams(1.7, 1.3)) == pytest.approx(
            BETA_PDF_03_17_13, abs=1e-10
        )

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.1, 1.1, float("nan")])
    def test_domain_errors(self, c):
        with pytest.raises(InputError):
            beta_pdf(c, BetaParams(0.5, 2.0))

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0), (float("nan"), 1.0),
                                     (2e6, 1.0), (1.0, 1e14)])
    def test_bad_params(self, a, b):
        with pytest.raises(InputError):
            BetaParams(a, b)


    def test_large_shapes_against_mpmath(self):
        # within 3 sd of the mean at shapes up to 4e4, where
        # (a - 1) log c + (b - 1) log1p(-c) - betaln(a, b) loses ~1e-10
        rng = np.random.default_rng(20261019)
        a, b = np.exp(rng.uniform(np.log(10.0), np.log(4e4), (2, 200)))
        sd = np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        c = a / (a + b) + rng.uniform(-3.0, 3.0, 200) * sd
        want = [mp_beta_density(*args) for args in zip(c, a, b)]
        got = [BetaWeight(*ab).density(ci) for ci, *ab in zip(c, a, b)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert beta_pdf(c[0], BetaParams(a[0], b[0])) == got[0]


class TestRegularizedIncompleteBeta:
    def test_total_mass(self):
        for a, b in [(0.5, 0.5), (1, 1), (3.2, 0.7), (10, 10)]:
            assert regularized_incomplete_beta(1.0, BetaParams(a, b)) == 1.0
            assert regularized_incomplete_beta(0.0, BetaParams(a, b)) == 0.0

    def test_symmetric_midpoint(self):
        for shape in [0.5, 1.0, 1.5, 3.0, 7.5]:
            p = BetaParams(shape, shape)
            assert regularized_incomplete_beta(0.5, p) == pytest.approx(0.5, abs=1e-12)

    def test_oracle_value(self):
        got = regularized_incomplete_beta(0.3, BetaParams(2.5, 1.5))
        assert got == pytest.approx(INCBETA_03_25_15, rel=1e-12)

    def test_against_quadrature(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            a = rng.uniform(0.4, 6.0)
            b = rng.uniform(0.4, 6.0)
            x = rng.uniform(0.01, 0.99)
            expected = quad(
                lambda c: beta_density(c, a, b), 0.0, x, epsabs=1e-13, epsrel=1e-12
            )[0]
            got = regularized_incomplete_beta(x, BetaParams(a, b))
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_symmetry_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.uniform(0.3, 8.0)
            b = rng.uniform(0.3, 8.0)
            x = rng.uniform(0.0, 1.0)
            left = regularized_incomplete_beta(x, BetaParams(a, b))
            right = 1.0 - regularized_incomplete_beta(1.0 - x, BetaParams(b, a))
            assert left == pytest.approx(right, abs=1e-12)

    def test_large_integer_shapes_against_binomial_tail(self):
        # I_x(a, b) = P(Bin(a + b - 1, x) >= a) for integer shapes; 40-digit
        # sums within 3 sd of the mean of a sharply peaked density, where
        # series and continued-fraction expansions converge slowly
        rng = np.random.default_rng(20261018)
        for _ in range(40):
            a, b = (int(v) for v in rng.integers(1000, 40001, size=2))
            mean = a / (a + b)
            sd = np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
            x = float(mean + rng.uniform(-3.0, 3.0) * sd)
            expected = binomial_tail_betainc(a, b, x)
            got = regularized_incomplete_beta(x, BetaParams(a, b))
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @given(
        x=st.floats(0.0, 1.0),
        y=st.floats(0.0, 1.0),
        a=st.floats(0.3, 10.0),
        b=st.floats(0.3, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    # adjacent floats whose true values lie 0.7 ulp apart; betainc's
    # forward continued fraction put them out of order
    @example(x=0.30000000000000004, y=0.3, a=0.5, b=0.5)
    def test_monotone_and_bounded(self, x, y, a, b):
        p = BetaParams(a, b)
        lo, hi = sorted([x, y])
        v_lo = regularized_incomplete_beta(lo, p)
        v_hi = regularized_incomplete_beta(hi, p)
        assert 0.0 <= v_lo <= v_hi <= 1.0

    def test_domain_error(self):
        with pytest.raises(InputError):
            regularized_incomplete_beta(1.5, BetaParams(1, 1))

    def test_fraction_from_tail_matches_forward(self):
        # the backward pass evaluates the approximants Lentz's method stopped
        # at, with shapes one pair per run of elements or per element
        rng = np.random.default_rng(12)
        a, b = rng.uniform(0.3, 10.0, (2, 5))
        counts = np.array([3, 1, 4, 2, 5])
        ak, bk = np.repeat(a, counts), np.repeat(b, counts)
        x = rng.random(counts.sum()) * (ak + 1.0) / (ak + bk + 2.0)
        lam = ak * (1.0 - x) - bk * x
        forward = distributions._fraction(a, b, counts, x, lam)
        for shapes in [(a, b, counts), (ak, bk, None)]:
            got = distributions._fraction(*shapes, x, lam, from_tail=True)
            np.testing.assert_allclose(got, forward, rtol=1e-14, atol=0)
        got = [regularized_incomplete_beta(xi, BetaParams(ai, bi)) for xi, ai, bi in zip(x, ak, bk)]
        np.testing.assert_array_equal(got, betainc(ak, bk, x))


class TestBetainc:
    """The package's vectorised incomplete beta against scipy's, which it
    replaced, and its scipy-style broadcasting and endpoints."""

    def test_sweep_against_scipy(self):
        rng = np.random.default_rng(8000)
        a, b = np.exp(rng.uniform(np.log(0.05), np.log(5e4), (2, 8000)))
        x = betaincinv(a, b, np.exp(rng.uniform(np.log(1e-12), 0.0, 8000)))
        want = sp_betainc(a, b, x)
        got = betainc(a, b, x)
        sig = want > 1e-290
        assert np.max(np.abs(got[sig] - want[sig]) / want[sig]) <= 1e-12

    @pytest.mark.parametrize("small_first", [False, True])
    def test_small_shape_sweep_against_scipy(self, small_first):
        # one shape in [1e-8, 0.05]: past the split point with the small
        # shape second, I is small and comes from the power series
        rng = np.random.default_rng(5)
        a = np.exp(rng.uniform(np.log(1e-3), np.log(5e4), 4000))
        b = np.exp(rng.uniform(np.log(1e-8), np.log(0.05), 4000))
        if small_first:
            a, b = b, a
        x = betaincinv(a, b, np.exp(rng.uniform(np.log(1e-12), 0.0, 4000)))
        x = x[(x > 0.0) & (x < 1.0)]
        a, b = a[: x.size], b[: x.size]
        want = sp_betainc(a, b, x)
        got = betainc(a, b, x)
        sig = want > 1e-290
        assert np.max(np.abs(got[sig] - want[sig]) / want[sig]) <= 1e-12

    @pytest.mark.parametrize("a,b,x", [
        (35.79896863494349, 0.0014104661900627125, 0.9758899024974848),
        (333.1447647289505, 0.002257710022691064, 0.998284663381814),
        (2.324079089033, 0.001094581305906893, 0.8765433860374683),
        (8.8, 0.001, 1.0 - 1e-12),
        (0.01, 0.01, 0.9),
        (5e4, 0.01, 1.0 - 1e-9),
    ])
    def test_small_shape_against_mpmath(self, a, b, x):
        # 1 - I_{1-x}(b, a) was 1e-12 to 3e-12 off at the first three
        assert betainc(a, b, x) == pytest.approx(hyp_betainc(a, b, x), rel=1e-13, abs=0)

    @pytest.mark.parametrize("b", [MAX_WEIGHT_SHAPE, 1e3])
    def test_largest_weight_shape_against_series(self, b):
        # the shape bound is where the 1e-12 contract still holds: within
        # 5 sd of the mean, where the continued fraction is longest
        a = MAX_WEIGHT_SHAPE
        mean, sd = a / (a + b), np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        x = mean + np.arange(-5, 6) * sd
        want = [hyp_betainc(a, b, xi) for xi in x]
        np.testing.assert_allclose(betainc(a, b, x), want, rtol=1e-12, atol=0)
        BetaParams(a, b)  # the bound itself is accepted

    def test_broadcast_matches_elementwise(self, monkeypatch):
        # blocks smaller than a row of x, so rows of shapes straddle them;
        # no step depends on the rest of the batch, so the bits are equal
        monkeypatch.setattr(distributions, "_POINT_BLOCK", 64)
        monkeypatch.setattr(distributions, "_RUN_BLOCK", 64)
        rng = np.random.default_rng(11)
        a = rng.uniform(1.0, 3.0, (40, 1))
        x = np.concatenate([[0.0], np.sort(rng.random(23)), [1.0]])[None, :]
        wide = np.exp(rng.uniform(np.log(0.05), np.log(50.0), (2, 60, 1)))
        for a, b in [(a, 4.0 - a), wide]:
            got = betainc(a, b, x)
            assert got.shape == (a.size, 25)
            want = [[float(betainc(ai, bi, xj)) for xj in x[0]] for ai, bi in zip(a[:, 0], b[:, 0])]
            np.testing.assert_array_equal(got, want)
            # shapes along the second axis, parallel to x, and scalars against an array
            np.testing.assert_array_equal(betainc(a.T, b.T, x.T), got.T)
            flat = np.broadcast_to(x, got.shape).ravel()
            np.testing.assert_array_equal(betainc(np.repeat(a, 25), np.repeat(b, 25), flat),
                                          got.ravel())
            np.testing.assert_array_equal(betainc(a[0, 0], b[0, 0], x[0]), got[0])

    def test_adjacent_floats_mostly_in_order(self):
        # the true values at adjacent floats differ by less than an ulp, so
        # some pairs read out of order: about 0.6% here, and 2.8% with the
        # fraction of I_x(a, b) itself evaluated by Lentz's forward products
        rng = np.random.default_rng(20261018)
        a, b = rng.uniform(0.3, 10.0, (2, 20_000))
        x = rng.random(20_000)
        below, above = betainc(a, b, x), betainc(a, b, np.nextafter(x, 1.0))
        assert np.count_nonzero(above < below) <= 200

    def test_endpoints_and_scalars(self):
        out = betainc(2.0, 3.0, [-0.5, 0.0, 1.0, 1.5])
        assert out.tolist() == [0.0, 0.0, 1.0, 1.0]
        assert np.ndim(betainc(2.0, 3.0, 0.25)) == 0
        assert np.isnan(betainc(2.0, 3.0, np.nan))

    def test_unconverged_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(distributions, "_CF_MAX_STEPS", 8)
        with pytest.raises(HmetricError, match="shapes 30000 and 30000 did not converge"):
            betainc(3e4, 3e4, 0.5)


class TestPartialMoments:
    @pytest.mark.parametrize("a,b", [(MIN_WEIGHT_SHAPE, MIN_WEIGHT_SHAPE),
                                     (MIN_WEIGHT_SHAPE, 1.0), (0.5, MIN_WEIGHT_SHAPE)])
    def test_smallest_weight_shape_against_series(self, a, b):
        # the shape bound is where the 1e-12 contract still holds; the
        # series needs 340 digits, as u and m1 reach 1e-300 and 1e-156
        u = np.array([1e-300, 1e-100, 1e-12, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9,
                      1 - 1e-3, 1 - 1e-6, 1 - 1e-12])
        w = BetaWeight(a, b)
        m0, m1 = w.partial_moments(u)
        pair = np.array([mp_partial_pair(a, b, ui, dps=340) for ui in u])
        np.testing.assert_allclose(m0, a / (a + b) * pair[:, 0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(m1, b / (a + b) * pair[:, 1], rtol=1e-12, atol=0)
        want = [hyp_betainc(a, b, ui, dps=340) for ui in u]
        np.testing.assert_allclose(w.cdf(u), want, rtol=1e-12, atol=0)
        with pytest.raises(InputError, match="from 1e-150"):
            BetaWeight(a, MIN_WEIGHT_SHAPE / 2)

    def test_upper_zero(self):
        w = BetaWeight(2.0, 3.0)
        m0, m1 = w.partial_moments(0.0)
        assert m0 == 0.0
        assert m1 == pytest.approx(3.0 / 5.0, abs=1e-12)  # E[1 - c]

    def test_upper_one(self):
        w = BetaWeight(2.0, 3.0)
        m0, m1 = w.partial_moments(1.0)
        assert m0 == pytest.approx(2.0 / 5.0, abs=1e-12)  # beta mean
        assert m1 == 0.0

    def test_oracle_half(self):
        m0, m1 = BetaWeight(1.5, 1.5).partial_moments(0.5)
        assert m0 == pytest.approx(M0_05_15, rel=1e-12)
        assert m1 == pytest.approx(M1_05_15, rel=1e-12)

    def test_closed_form_vs_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.uniform(0.5, 5.0)
            b = rng.uniform(0.5, 5.0)
            u = rng.uniform(0.0, 1.0)
            m0, m1 = BetaWeight(a, b).partial_moments(u)
            q0, q1 = quad_partial_moments(u, a, b)
            assert m0 == pytest.approx(q0, rel=1e-8, abs=1e-12)
            assert m1 == pytest.approx(q1, rel=1e-8, abs=1e-12)

    def test_monotone_and_continuous(self):
        w = BetaWeight(1.3, 2.6)
        grid = np.linspace(0.0, 1.0, 2001)
        m0, m1 = w.partial_moments(grid)
        assert np.all(np.diff(m0) >= 0)
        assert np.all(np.diff(m1) <= 0)
        total = m0 + m1
        assert np.max(np.abs(np.diff(total))) < 2e-3  # no jumps on a fine grid

    def test_domain_error(self):
        with pytest.raises(InputError):
            BetaWeight(1, 1).partial_moments(1.2)

    @pytest.mark.parametrize("a,b", [(1.7, 1.3), (2.0, 1.0), (0.5, 3.0), (30.0, 5.0),
                                     (0.01, 2.0), (2.0, 0.01)])
    def test_ends_against_mpmath(self, a, b):
        # m1 near u = 1 and m0 near u = 0 are small; 1 - betainc(a, b + 1, u)
        # returned m1 = 0 at 1 - 1e-9
        u = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
        m0, m1 = BetaWeight(a, b).partial_moments(u)
        want = np.array([mp_partial_pair(a, b, ui) for ui in u])
        np.testing.assert_allclose(m0, a / (a + b) * want[:, 0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(m1, b / (a + b) * want[:, 1], rtol=1e-12, atol=0)


class TestPartialPair:
    """(I_u(a + 1, b), 1 - I_u(a, b + 1)) from one continued fraction."""

    @pytest.mark.parametrize("small", [None, "a", "b"])
    def test_sweep_against_scipy(self, small):
        # the betainc sweeps' shapes, with u also within 1e-12 of 0 and 1;
        # scipy's betaincc is the complement without cancellation
        rng = np.random.default_rng(8001)
        a, b = np.exp(rng.uniform(np.log(0.05), np.log(5e4), (2, 6000)))
        if small is not None:
            tiny = np.exp(rng.uniform(np.log(1e-8), np.log(0.05), 6000))
            a, b = (tiny, b) if small == "a" else (a, tiny)
        u = np.concatenate([
            betaincinv(a[:4000], b[:4000], rng.random(4000)),
            rng.uniform(0.0, 1e-12, 1000),
            1.0 - rng.uniform(0.0, 1e-12, 1000),
        ])
        lower, upper = distributions._partial_pair(a, b, u)
        for got, want in ((lower, sp_betainc(a + 1.0, b, u)), (upper, sp_betaincc(a, b + 1.0, u))):
            sig = want > 1e-290
            assert np.max(np.abs(got[sig] - want[sig]) / want[sig]) <= 1e-12

    @pytest.mark.parametrize("a,b,u", [
        (5e4, 3e4, 0.625), (0.05, 5e4, 1e-5), (5e4, 0.05, 1 - 1e-5), (1e-8, 3.0, 0.3),
        (3.0, 1e-8, 0.7), (0.04, 0.04, 0.5), (1.0, 1.0, 0.5),
    ])
    def test_against_mpmath(self, a, b, u):
        want = mp_partial_pair(a, b, u)
        assert distributions._partial_pair(a, b, u) == pytest.approx(want, rel=1e-12, abs=0)

    def test_broadcast_matches_elementwise(self, monkeypatch):
        # shapes from 1e-3, so the small-shape series runs in the batch too
        monkeypatch.setattr(distributions, "_POINT_BLOCK", 64)
        monkeypatch.setattr(distributions, "_RUN_BLOCK", 64)
        rng = np.random.default_rng(13)
        a, b = np.exp(rng.uniform(np.log(1e-3), np.log(50.0), (2, 60, 1)))
        x = np.concatenate([[0.0], np.sort(rng.random(23)), [1.0]])[None, :]
        got = np.array(distributions._partial_pair(a, b, x))
        want = [[distributions._partial_pair(ai, bi, xj) for xj in x[0]]
                for ai, bi in zip(a[:, 0], b[:, 0])]
        np.testing.assert_array_equal(got, np.moveaxis(np.array(want), -1, 0))
        np.testing.assert_array_equal(np.array(distributions._partial_pair(a.T, b.T, x.T)),
                                      got.transpose(0, 2, 1))
        flat = np.broadcast_to(x, got.shape[1:]).ravel()
        pair = distributions._partial_pair(np.repeat(a, 25), np.repeat(b, 25), flat)
        np.testing.assert_array_equal(np.array(pair), got.reshape(2, -1))

    def test_broadcast_matches_betainc(self, monkeypatch):
        monkeypatch.setattr(distributions, "_POINT_BLOCK", 64)
        monkeypatch.setattr(distributions, "_RUN_BLOCK", 64)
        rng = np.random.default_rng(12)
        a = rng.uniform(1.0, 3.0, (40, 1))
        b = 4.0 - a
        x = np.concatenate([[0.0], np.sort(rng.random(23)), [1.0], [np.nan]])[None, :]
        lower, upper = distributions._partial_pair(a, b, x)
        assert lower.shape == upper.shape == (40, 26)
        np.testing.assert_allclose(lower, betainc(a + 1.0, b, x), rtol=1e-14, atol=0)
        np.testing.assert_allclose(upper, 1.0 - betainc(a, b + 1.0, x), rtol=1e-13, atol=1e-16)
        assert lower[:, 0].tolist() == [0.0] * 40 and upper[:, 0].tolist() == [1.0] * 40
        assert lower[:, 24].tolist() == [1.0] * 40 and upper[:, 24].tolist() == [0.0] * 40
        scalar = distributions._partial_pair(2.0, 3.0, 0.25)
        assert [np.ndim(v) for v in scalar] == [0, 0]


class TestTabulatedWeight:
    def _beta22_table(self, n=2048):
        grid = np.linspace(1e-4, 1 - 1e-4, n)
        dens = 6.0 * grid * (1 - grid)
        dens /= np.trapezoid(dens, grid)
        return grid, dens

    def test_rejects_coarse_grid(self):
        grid = np.linspace(0.01, 0.99, 100)
        with pytest.raises(InputError, match="at least 1024"):
            TabulatedWeight(grid, np.ones(100))

    def test_rejects_bad_grids(self):
        grid, dens = self._beta22_table()
        with pytest.raises(InputError):
            TabulatedWeight(grid[::-1], dens)
        with pytest.raises(InputError):
            TabulatedWeight(grid - 0.01, dens)  # drops below 0
        with pytest.raises(InputError):
            TabulatedWeight(grid, -dens)
        with pytest.raises(InputError, match="integrate to 1"):
            TabulatedWeight(grid, dens * 1.5)

    def test_density_interpolation(self):
        grid, dens = self._beta22_table()
        w = TabulatedWeight(grid, dens)
        assert w.density(0.5) == pytest.approx(1.5, rel=1e-5)
        assert w.density(1e-6) == 0.0  # outside the grid span

    def test_partial_moments_vs_simpson(self):
        # the integrands are piecewise quadratic, so per-segment Simpson
        # is an exact independent oracle
        grid, dens = self._beta22_table()
        w = TabulatedWeight(grid, dens)

        def interp_density(c):
            return np.interp(c, grid, dens, left=0.0, right=0.0)

        def simpson_between(f, breaks):
            lo, hi = breaks[:-1], breaks[1:]
            mid = 0.5 * (lo + hi)
            return np.sum((hi - lo) / 6.0 * (f(lo) + 4.0 * f(mid) + f(hi)))

        for u in [0.2, 0.5, 0.77]:
            m0, m1 = w.partial_moments(u)
            below = np.concatenate([grid[grid < u], [u]])
            above = np.concatenate([[u], grid[grid > u]])
            q0 = simpson_between(lambda c: c * interp_density(c), below)
            q1 = simpson_between(lambda c: (1 - c) * interp_density(c), above)
            assert m0 == pytest.approx(q0, rel=1e-12, abs=1e-14)
            assert m1 == pytest.approx(q1, rel=1e-12, abs=1e-14)

    def test_mean_matches_moment(self):
        grid, dens = self._beta22_table()
        w = TabulatedWeight(grid, dens)
        assert w.mean() == pytest.approx(0.5, abs=1e-6)

    def test_csv_roundtrip(self, tmp_path):
        grid, dens = self._beta22_table()
        path = tmp_path / "w.csv"
        lines = ["c,density"] + [f"{c:.17g},{d:.17g}" for c, d in zip(grid, dens)]
        path.write_text("\n".join(lines), encoding="utf-8")
        w = load_tabulated_weight(path)
        assert w.mean() == pytest.approx(0.5, abs=1e-6)

    def test_csv_byte_order_mark(self, tmp_path):
        grid, dens = self._beta22_table()
        path = tmp_path / "w.csv"
        lines = ["c,density"] + [f"{c:.17g},{d:.17g}" for c, d in zip(grid, dens)]
        path.write_bytes(b"\xef\xbb\xbf" + "\n".join(lines).encode("utf-8"))
        w = load_tabulated_weight(path)
        assert w.grid.tobytes() == grid.tobytes()
        assert w.density(grid).tobytes() == dens.tobytes()

    def test_csv_errors(self, tmp_path):
        bad_header = tmp_path / "bad1.csv"
        bad_header.write_text("x,y\n0.1,1.0\n", encoding="utf-8")
        with pytest.raises(InputError, match="header"):
            load_tabulated_weight(bad_header)
        bad_value = tmp_path / "bad2.csv"
        bad_value.write_text("c,density\n0.1,abc\n", encoding="utf-8")
        with pytest.raises(InputError, match="bad2.csv:2"):
            load_tabulated_weight(bad_value)

    def test_csv_crlf_and_quoted_fields(self, tmp_path):
        grid, dens = self._beta22_table()
        path = tmp_path / "w.csv"
        lines = ['"c","density"'] + [f'"{c:.17g}",{d:.17g}' for c, d in zip(grid, dens)]
        path.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(lines).encode("utf-8") + b"\r\n")
        w = load_tabulated_weight(path)
        assert w.grid.tobytes() == grid.tobytes()
        assert w.density(grid).tobytes() == dens.tobytes()

    # a weight file's rows are read by the score file's line reader, with
    # its messages, values being called values rather than scores
    @pytest.mark.parametrize("body, message", [
        ("0.1,abc\n", "w.csv:2: non-numeric value 'abc' in column 'density'"),
        ("0.1,1.0\n0.2,1.0,3\n", "w.csv:3: expected 2 fields, got 3"),
        ("0.1,1.0\n0.2,\n", "w.csv:3: missing value in column 'density'"),
        ("", "w.csv: no data rows"),
    ])
    def test_csv_rows_read_as_score_rows(self, tmp_path, body, message):
        path = tmp_path / "w.csv"
        path.write_text("c,density\n" + body, encoding="utf-8")
        with pytest.raises(InputError, match=re.escape(message)):
            load_tabulated_weight(path)

    def test_csv_unreadable(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(InputError, match=re.escape(f"cannot read {path}: ")):
            load_tabulated_weight(path)


def _unit_checked_calls():
    """(the argument's name in the message, a call with one argument in
    [0, 1] set to v) for every entry point of the shared [0, 1] check."""
    beta = BetaWeight(2.0, 3.0)
    grid = np.linspace(1e-3, 1.0 - 1e-3, 1024)
    table = TabulatedWeight(grid, np.full(grid.size, 1.0 / (grid[-1] - grid[0])))
    data = ingest([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    priors, cdfs = empirical_priors(data), empirical_cdfs(data)
    upper = "upper integration limit"
    return {
        "BetaWeight.cdf": (upper, beta.cdf),
        "BetaWeight.partial_moments": (upper, beta.partial_moments),
        "TabulatedWeight.cdf": (upper, table.cdf),
        "TabulatedWeight.partial_moments": (upper, table.partial_moments),
        "threshold_loss.cost": ("cost", lambda v: threshold_loss(v, 0.5, priors, cdfs)),
        "threshold_loss.threshold": ("threshold", lambda v: threshold_loss(0.5, v, priors, cdfs)),
        "min_loss.calibrated": ("cost", lambda v: min_loss(v, priors, cdfs)),
        "min_loss.optimal": ("cost", lambda v: min_loss(v, priors, cdfs, mode="optimal")),
        "expected_loss.eta": ("eta", lambda v: expected_loss(0.5, v, beta)),
    }


@pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
@pytest.mark.parametrize("entry", list(_unit_checked_calls()))
def test_unit_interval_messages(entry, bad):
    name, call = _unit_checked_calls()[entry]
    with pytest.raises(InputError) as info:
        call(bad)
    assert str(info.value) == f"{name} must lie in [0, 1], got {bad}"
