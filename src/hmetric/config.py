"""Evaluation configuration shared by the library entry points and the CLI.

A config freezes every choice that affects a metric value: cost weight,
prior handling, threshold rule, the number of prior draws and their seed
under a beta prior, and score normalization (AUC ties always earn half
credit).  It is checked once, when built.  A value that the chosen kind
would ignore is rejected, not dropped: the weight shapes belong to a beta
weight, the weight file to a tabulated weight, pi0 to a fixed prior, and
the seed, the draw count and the prior shapes to a beta prior, which
fills in defaults for the last three.  Reports echo the full config so
every number they contain is reproducible.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
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
    if not isinstance(spec, str):
        raise ConfigError(f"a threshold distribution spec must be a string, got {spec!r}")
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


# The fields that belong to one kind of weight or prior, each with the
# config field that names the kind and the kind it belongs to.  They
# default to None, and a value set under another kind is rejected.
KIND_FIELDS = {
    "weight_alpha": ("weight", "beta"), "weight_beta": ("weight", "beta"),
    "weight_path": ("weight", "tabulated"), "pi0": ("prior", "fixed"),
    **dict.fromkeys(("seed", "outer_samples", "prior_alpha", "prior_beta"), ("prior", "beta")),
}
# What a beta prior takes where these are unset; its seed has no default.
BETA_PRIOR_DEFAULTS = {"outer_samples": 10000, "prior_alpha": 2.0, "prior_beta": 2.0}
# The numeric fields and the Python type each is stored as, so that the echo
# serializes whatever numpy number was passed; screening proportions are
# stored as floats the same way.
NUMBER_FIELDS = {**dict.fromkeys(("weight_alpha", "weight_beta", "pi0", "prior_alpha",
                                  "prior_beta"), float), "outer_samples": int, "seed": int}
# The largest beta weight shape: the incomplete beta keeps its 1e-12 relative
# accuracy up to it (2.5e-13 at a = b = 1e6 within 5 sd of the mean, against
# a 50-digit series; 1.7e-12 at 1e7), and its continued fraction, which
# needs O(sqrt(a + b)) steps there, stops converging at 1e14.
MAX_WEIGHT_SHAPE = 1e6
# The smallest beta weight shape: with both shapes at it, the incomplete beta
# and both partial moments keep the 1e-12 accuracy (1.0e-14 against a
# 340-digit series), and the product of the two shapes, which the kernel
# divides by, is still a normal float; it is subnormal below 1.5e-154 and
# rounds to 0 below 2.2e-162.
MIN_WEIGHT_SHAPE = 1e-150


def _as_number(what, value, cast):
    """value as the Python number cast makes of it; bools, though Integral,
    are not counts, seeds, shapes, priors or proportions."""
    kind, noun = ((numbers.Integral, "an integer") if cast is int
                  else (numbers.Real, "a real number"))
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{what} must be {noun}, got {value!r}")
    return cast(value)


@dataclass(frozen=True)
class EvalConfig:
    weight: str = "default"
    weight_alpha: float | None = None
    weight_beta: float | None = None
    weight_path: str | None = None
    prior: str = "empirical"
    pi0: float | None = None
    prior_alpha: float | None = None
    prior_beta: float | None = None
    threshold_mode: str = "calibrated"
    outer_samples: int | None = None
    seed: int | None = None
    normalization: str = "reject"
    screen_proportions: tuple[float, ...] = ()
    u_dists: tuple[str, ...] = ()

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        for name in ("screen_proportions", "u_dists"):
            value = getattr(self, name)
            if isinstance(value, str) or not isinstance(value, Iterable):
                raise ConfigError(f"{name} must be a sequence, got {value!r}")
        put("screen_proportions", tuple(_as_number("screening proportion", p, float)
                                        for p in self.screen_proportions))
        put("u_dists", tuple(self.u_dists))
        for name, what, kinds in (("weight", "weight kind", WEIGHT_KINDS),
                                  ("prior", "prior kind", PRIOR_KINDS),
                                  ("threshold_mode", "threshold mode", THRESHOLD_MODES),
                                  ("normalization", "normalization", NORMALIZATIONS)):
            if getattr(self, name) not in kinds:
                raise ConfigError(f"unknown {what} {getattr(self, name)!r}; expected {kinds}")
        for name, (field, kind) in KIND_FIELDS.items():
            if getattr(self, name) is not None and getattr(self, field) != kind:
                raise ConfigError(f"{name} applies to a {kind} {field} only, "
                                  f"not to {getattr(self, field)!r}")
        for name, cast in NUMBER_FIELDS.items():
            if getattr(self, name) is not None:
                put(name, _as_number(name, getattr(self, name), cast))
        if self.weight == "beta":
            if self.weight_alpha is None or self.weight_beta is None:
                raise ConfigError("beta weight requires alpha and beta")
            if not (0 < self.weight_alpha < math.inf and 0 < self.weight_beta < math.inf):
                raise ConfigError("beta weight shapes must be positive and finite")
            if max(self.weight_alpha, self.weight_beta) > MAX_WEIGHT_SHAPE:
                raise ConfigError(f"beta weight shapes must be at most {MAX_WEIGHT_SHAPE:g}")
            if min(self.weight_alpha, self.weight_beta) < MIN_WEIGHT_SHAPE:
                raise ConfigError(f"beta weight shapes must be at least {MIN_WEIGHT_SHAPE:g}")
        if self.weight == "tabulated" and not self.weight_path:
            raise ConfigError("tabulated weight requires a file path")
        if self.prior == "fixed" and (self.pi0 is None or not 0.0 < self.pi0 < 1.0):
            raise ConfigError("fixed prior requires pi0 strictly inside (0, 1)")
        if self.prior == "beta":
            for name, value in BETA_PRIOR_DEFAULTS.items():
                if getattr(self, name) is None:
                    put(name, value)
            alpha, beta = self.prior_alpha, self.prior_beta
            if not (0 < alpha < math.inf and 0 < beta < math.inf):
                raise ConfigError("prior beta shapes must be positive and finite")
            # the draws of pi0 gather near alpha / (alpha + beta), and the loss
            # ratio grows like 1/pi0 and 1/pi1, so a larger shape can overflow
            # H and its standard error (a NaN error at prior_beta = 1e300)
            if max(alpha, beta) > MAX_WEIGHT_SHAPE:
                raise ConfigError(f"prior beta shapes must be at most {MAX_WEIGHT_SHAPE:g}")
            if self.weight != "default":
                raise ConfigError("a distributed prior determines its own conditional weight; "
                                  "explicit weights require a fixed or empirical prior")
            # in calibrated mode the loss-to-reference ratio grows like 1/pi0 as
            # pi0 -> 0 and like 1/pi1 as pi1 -> 0, so its mean under the prior,
            # and with it H, exists only when both shapes exceed 1
            if self.threshold_mode == "calibrated" and min(alpha, beta) <= 1.0:
                raise ConfigError(
                    f"in calibrated mode H under a Beta({alpha:g}, {beta:g}) prior does not "
                    "exist (the mean loss ratio diverges); both prior shapes must exceed 1"
                )
            if self.seed is None:
                raise ConfigError("a beta prior is estimated from seeded draws and requires a "
                                  "seed; there is no silent default")
            # a standard error needs two draws
            if self.outer_samples < 2:
                raise ConfigError(f"outer_samples must be at least 2, got {self.outer_samples}")
            if self.seed < 0:
                raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        for p in self.screen_proportions:
            if not (0.0 < p < 1.0):
                raise ConfigError(f"screening proportion must lie in (0, 1), got {p}")
        for spec in self.u_dists:
            _point_mass_at(spec)

    def describe(self) -> dict:
        return asdict(self)
