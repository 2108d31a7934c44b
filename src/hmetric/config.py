"""Evaluation configuration shared by the library entry points and the CLI.

A config freezes every choice that affects a metric value: cost weight,
prior handling, threshold rule, the number of prior draws and their seed
under a beta prior, and score normalization (AUC ties always earn half
credit).  A value that the chosen kind would ignore is rejected, not
dropped.  Reports echo the full config so every number they contain is
reproducible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, asdict

from .errors import ConfigError

__all__ = ["EvalConfig", "threshold_law"]

WEIGHT_KINDS = ("default", "beta", "tabulated")
PRIOR_KINDS = ("empirical", "fixed", "beta")
THRESHOLD_MODES = ("calibrated", "optimal")
NORMALIZATIONS = ("reject", "minmax", "logistic")


def _point_mass_at(spec: str) -> float | None:
    """The threshold of a 'point:<t>' spec, None for 'pooled' and
    'class1-ranks'; any other spec is a ConfigError."""
    if spec in ("pooled", "class1-ranks"):
        return None
    if spec.startswith("point:"):
        try:
            t = float(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad threshold distribution spec {spec!r}") from None
        if not 0.0 <= t <= 1.0:
            raise ConfigError(f"point-mass threshold must lie in [0, 1], got {t}")
        return t
    raise ConfigError(
        f"unknown threshold distribution {spec!r}; "
        "expected 'pooled', 'class1-ranks' or 'point:<t>'"
    )


def threshold_law(spec: str):
    """The independent threshold distribution a u_dists entry names:
    'pooled', 'class1-ranks' or 'point:<t>' with t in [0, 1]."""
    t = _point_mass_at(spec)
    from . import thresholds  # numpy, needed only once a valid spec is built

    if spec == "pooled":
        return thresholds.PooledScoreThresholds()
    if spec == "class1-ranks":
        return thresholds.RankUniformClass1()
    return thresholds.PointMass(t=t)


@dataclass(frozen=True)
class EvalConfig:
    weight: str = "default"
    weight_alpha: float | None = None
    weight_beta: float | None = None
    weight_path: str | None = None
    prior: str = "empirical"
    pi0: float | None = None
    prior_alpha: float = 2.0
    prior_beta: float = 2.0
    threshold_mode: str = "calibrated"
    resolution: int = 4096
    outer_samples: int = 10000
    seed: int | None = None
    normalization: str = "reject"
    screen_proportions: tuple[float, ...] = ()
    u_dists: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "screen_proportions", tuple(self.screen_proportions))
        object.__setattr__(self, "u_dists", tuple(self.u_dists))

    def validate(self) -> "EvalConfig":
        if self.weight not in WEIGHT_KINDS:
            raise ConfigError(f"unknown weight kind {self.weight!r}; expected {WEIGHT_KINDS}")
        if self.weight == "beta":
            if self.weight_alpha is None or self.weight_beta is None:
                raise ConfigError("beta weight requires alpha and beta")
            if not (0 < self.weight_alpha < math.inf and 0 < self.weight_beta < math.inf):
                raise ConfigError("beta weight shapes must be positive and finite")
        elif self.weight_alpha is not None or self.weight_beta is not None:
            raise ConfigError(f"weight shapes apply to a beta weight only, not to {self.weight!r}")
        if self.weight == "tabulated":
            if not self.weight_path:
                raise ConfigError("tabulated weight requires a file path")
        elif self.weight_path is not None:
            raise ConfigError(f"a weight file applies to a tabulated weight only, "
                              f"not to {self.weight!r}")
        if self.prior not in PRIOR_KINDS:
            raise ConfigError(f"unknown prior kind {self.prior!r}; expected {PRIOR_KINDS}")
        if self.prior == "fixed":
            if self.pi0 is None or not (0.0 < self.pi0 < 1.0):
                raise ConfigError("fixed prior requires pi0 strictly inside (0, 1)")
        elif self.pi0 is not None:
            raise ConfigError(f"pi0 applies to a fixed prior only, not to {self.prior!r}")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ConfigError(
                f"unknown threshold mode {self.threshold_mode!r}; expected {THRESHOLD_MODES}"
            )
        if self.prior == "beta":
            alpha, beta = self.prior_alpha, self.prior_beta
            if not (0 < alpha < math.inf and 0 < beta < math.inf):
                raise ConfigError("prior beta shapes must be positive and finite")
            if self.weight != "default":
                raise ConfigError(
                    "a distributed prior determines its own conditional weight; "
                    "explicit weights require a fixed or empirical prior"
                )
            # in calibrated mode the loss-to-reference ratio grows like 1/pi0 as
            # pi0 -> 0 and like 1/pi1 as pi1 -> 0, so its mean under the prior,
            # and with it H, exists only when both shapes exceed 1
            if self.threshold_mode == "calibrated" and min(alpha, beta) <= 1.0:
                raise ConfigError(
                    f"in calibrated mode H under a Beta({alpha:g}, {beta:g}) prior does not "
                    "exist (the mean loss ratio diverges); both prior shapes must exceed 1"
                )
        # numpy integers pass; bools, though Integral, are not counts or seeds
        for name in ("resolution", "outer_samples") + ("seed",) * (self.seed is not None):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.resolution < 1024:
            raise ConfigError(f"resolution must be at least 1024, got {self.resolution}")
        # a standard error needs two draws
        if self.outer_samples < 2:
            raise ConfigError(f"outer_samples must be at least 2, got {self.outer_samples}")
        if self.normalization not in NORMALIZATIONS:
            raise ConfigError(f"unknown normalization {self.normalization!r}")
        for p in self.screen_proportions:
            if not (0.0 < p < 1.0):
                raise ConfigError(f"screening proportion must lie in (0, 1), got {p}")
        for spec in self.u_dists:
            _point_mass_at(spec)
        if self.prior == "beta" and self.seed is None:
            raise ConfigError(
                "a beta prior is estimated from seeded draws and requires a seed; "
                "there is no silent default"
            )
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        return self

    def describe(self) -> dict:
        return asdict(self)
