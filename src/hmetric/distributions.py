"""Cost-weight distributions on the open unit interval.

Provides the beta family (density, regularized incomplete beta from
scipy.special.betainc, sampling) plus tabulated piecewise-linear
weights.  Everything a cost weight must answer for the loss pipeline
lives behind one interface: density, cdf, mean, partial moments and
seeded sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import betainc, betaln

from .empirical import csv_records
from .errors import InputError

__all__ = [
    "BetaParams",
    "WeightFunction",
    "BetaWeight",
    "TabulatedWeight",
    "beta_pdf",
    "regularized_incomplete_beta",
    "load_tabulated_weight",
]

# Tabulated grids coarser than this are rejected: linear interpolation on
# fewer points cannot keep quadrature error below the metric tolerances.
MIN_TABULATED_POINTS = 1024


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a beta distribution; both must be positive."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise InputError(f"alpha must be a positive real, got {self.alpha}")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise InputError(f"beta must be a positive real, got {self.beta}")


def _beta_pdf_arr(c, a, b):
    """Beta density on interior points; no domain checks."""
    c = np.asarray(c, dtype=float)
    return np.exp((a - 1.0) * np.log(c) + (b - 1.0) * np.log1p(-c) - betaln(a, b))


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
    """CDF of the beta distribution at x, i.e. I_x(alpha, beta).

    Nondecreasing in x with I_0 = 0 and I_1 = 1; relative error within
    1e-12, including integer shapes in the tens of thousands.
    """
    if not (np.isfinite(x) and 0.0 <= x <= 1.0):
        raise InputError(f"x must lie in [0, 1], got {x}")
    return float(betainc(p.alpha, p.beta, x))


class WeightFunction:
    """A distribution of misclassification costs on (0, 1).

    Subclasses answer density/cdf/mean queries, exact partial moments
        m0(u) = integral of c w(c) over (0, u)
        m1(u) = integral of (1 - c) w(c) over (u, 1)
    and draw seeded samples.  Instances are immutable after construction
    and safe to share across threads; random streams are always passed
    in explicitly.
    """

    def density(self, c):
        raise NotImplementedError

    def cdf(self, c):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def partial_moments(self, upper):
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


def _check_upper(upper):
    u = np.asarray(upper, dtype=float)
    if np.any(~np.isfinite(u)) or np.any(u < 0.0) or np.any(u > 1.0):
        raise InputError(f"upper integration limit must lie in [0, 1], got {upper}")
    return u


class BetaWeight(WeightFunction):
    """Beta-distributed cost weight.

    Partial moments come in closed form from the shape-shift identity
    c b(c; a, b) = (a / (a + b)) b(c; a + 1, b), so m0 and m1 reduce to
    regularized incomplete betas with one shape raised by one.
    """

    def __init__(self, alpha: float, beta: float):
        self.params = BetaParams(float(alpha), float(beta))

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
        out = betainc(self.alpha, self.beta, _check_upper(c))
        return float(out) if np.isscalar(c) else out

    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    def mode(self) -> float:
        a, b = self.alpha, self.beta
        if a <= 1.0 or b <= 1.0:
            raise InputError("mode is interior only for shapes above one")
        return (a - 1.0) / (a + b - 2.0)

    def partial_moments(self, upper):
        u = _check_upper(upper)
        a, b = self.alpha, self.beta
        m0 = (a / (a + b)) * betainc(a + 1.0, b, u)
        m1 = (b / (a + b)) * (1.0 - betainc(a, b + 1.0, u))
        if np.isscalar(upper):
            return float(m0), float(m1)
        return m0, m1

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise InputError("sample size must be at least 1")
        return rng.beta(self.alpha, self.beta, size=n)

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
        c_arr = _check_upper(c)
        mass, _ = self._mass_below(c_arr)
        out = mass / self.total_mass
        return float(out) if np.isscalar(c) else out

    def mean(self) -> float:
        return float(self._cum_cm[-1]) / self.total_mass

    def partial_moments(self, upper):
        u = _check_upper(upper)
        mass, cm = self._mass_below(u)
        m0 = cm
        # m1(u) = total (1-c)-moment minus the (1-c)-moment below u
        total_m1 = self.total_mass - self._cum_cm[-1]
        m1 = total_m1 - (mass - cm)
        if np.isscalar(upper):
            return float(m0), float(m1)
        return m0, m1

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise InputError("sample size must be at least 1")
        targets = rng.random(n) * self.total_mass
        idx = np.clip(np.searchsorted(self._cum_mass, targets, side="right") - 1,
                      0, len(self._seg_h) - 1)
        rem = targets - self._cum_mass[idx]
        d0 = self._seg_d0[idx]
        s = self._seg_slope[idx]
        # invert d0 t + s t^2 / 2 = rem on the segment; the discriminant is
        # (d0 + s t)^2 >= 0 by construction and the stable-root form avoids
        # cancellation for small s
        disc = np.sqrt(np.maximum(d0**2 + 2.0 * s * rem, 0.0))
        denom = d0 + disc
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(denom > 0.0, 2.0 * rem / denom, 0.0)
        t = np.clip(t, 0.0, self._seg_h[idx])
        return self.grid[idx] + t

    def describe(self) -> dict:
        return {
            "kind": "tabulated",
            "points": int(self.grid.size),
            "support": [float(self.grid[0]), float(self.grid[-1])],
        }


def load_tabulated_weight(path: str | Path) -> TabulatedWeight:
    """Read a tabulated weight from a two-column CSV with header ``c,density``."""
    path = Path(path)
    try:
        content = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read tabulated weight file {path}: {exc}") from exc
    reader = csv_records(path, content)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["c", "density"]:
        raise InputError(f"{path}: tabulated weight CSV must have header 'c,density'")
    grid, dens = [], []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != 2:
            raise InputError(f"{path}:{lineno}: expected two columns, got {len(row)}")
        try:
            c, d = float(row[0]), float(row[1])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: non-numeric value: {exc}") from exc
        for name, raw, value in (("c", row[0], c), ("density", row[1], d)):
            if not math.isfinite(value):
                raise InputError(
                    f"{path}:{lineno}: non-finite value {raw.strip()!r} in column {name!r}"
                )
        grid.append(c)
        dens.append(d)
    return TabulatedWeight(np.asarray(grid), np.asarray(dens))
