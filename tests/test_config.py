import numpy as np
import pytest

from hmetric import ConfigError, EvalConfig
from hmetric.config import MAX_WEIGHT_SHAPE, MIN_WEIGHT_SHAPE


def test_default_config_valid():
    EvalConfig()


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"weight": "gamma"}, "weight kind"),
        ({"weight": "beta"}, "alpha and beta"),
        ({"weight": "beta", "weight_alpha": -1.0, "weight_beta": 2.0}, "positive"),
        ({"weight": "tabulated"}, "file path"),
        ({"prior": "gaussian"}, "prior kind"),
        ({"prior": "fixed"}, "pi0"),
        ({"prior": "fixed", "pi0": 1.0}, "pi0"),
        ({"prior": "beta", "prior_alpha": 0.0, "seed": 1}, "positive"),
        ({"threshold_mode": "argmax"}, "threshold mode"),
        ({"weight": "beta", "weight_alpha": float("nan"), "weight_beta": 2.0}, "finite"),
        ({"seed": 7}, "seed applies to a beta prior only, not to 'empirical'"),
        ({"weight": "beta", "weight_alpha": 2.0, "weight_beta": float("inf")}, "finite"),
        ({"outer_samples": 0}, "outer_samples"),
        ({"pi0": 0.3}, "fixed prior only"),
        ({"normalization": "zscore"}, "normalization"),
        ({"screen_proportions": (0.0,)}, "proportion"),
        ({"screen_proportions": (1.5,)}, "proportion"),
        ({"u_dists": ("uniform",)}, "threshold distribution"),
        ({"u_dists": ("point:2",)}, "point-mass"),
        ({"prior": "beta", "pi0": 0.3, "seed": 1}, "fixed prior only"),
        ({"weight_alpha": 5.0, "weight_beta": 1.0}, "beta weight only"),
        ({"prior": "beta"}, "seed"),
        ({"prior": "beta", "prior_beta": -1.0, "seed": 1}, "positive"),
        ({"prior": "beta", "prior_alpha": 1.0, "seed": 1}, "must exceed 1"),
        ({"prior": "beta", "prior_beta": 0.5, "seed": 1}, "must exceed 1"),
        ({"prior": "beta", "seed": -1}, "non-negative"),
        ({"prior": "beta", "seed": np.int64(-5)}, "non-negative"),
        ({"weight": "tabulated", "weight_path": "w.csv", "weight_beta": 2.0}, "beta weight only"),
        ({"prior": "beta", "outer_samples": 1, "seed": 7}, "outer_samples must be at least 2"),
        ({"prior": "beta", "prior_alpha": float("inf"), "seed": 1}, "finite"),
        ({"prior": "beta", "prior_beta": float("nan"), "seed": 1}, "finite"),
        ({"prior": "beta", "weight": "beta", "weight_alpha": 2.0, "weight_beta": 2.0, "seed": 1},
         "conditional weight"),
        ({"weight_path": "w.csv"}, "tabulated weight only"),
        ({"weight": "beta", "weight_alpha": 2.0, "weight_beta": 2.0, "weight_path": "w.csv"},
         "tabulated weight only"),
        ({"prior": "beta", "seed": 1, "outer_samples": 100.5}, "outer_samples must be an integer"),
        ({"prior": "beta", "seed": 1.5}, "seed must be an integer"),
        ({"prior": "beta", "seed": True}, "seed must be an integer"),
        ({"prior": "fixed", "pi0": 0.3, "seed": 7}, "seed applies to a beta prior only"),
        ({"outer_samples": 100}, "outer_samples applies to a beta prior only"),
        ({"prior": "fixed", "pi0": 0.3, "outer_samples": 100},
         "outer_samples applies to a beta prior only"),
        ({"prior_alpha": 0.5}, "prior_alpha applies to a beta prior only"),
        ({"prior": "fixed", "pi0": 0.3, "prior_alpha": 3.0},
         "prior_alpha applies to a beta prior only"),
        ({"prior_beta": -3.0}, "prior_beta applies to a beta prior only"),
        ({"prior": "fixed", "pi0": 0.3, "prior_beta": 3.0},
         "prior_beta applies to a beta prior only"),
        ({"weight": "beta", "weight_alpha": True, "weight_beta": 2.0},
         "weight_alpha must be a real number"),
        ({"prior": "fixed", "pi0": "0.3"}, "pi0 must be a real number"),
        ({"prior": "beta", "seed": 1, "prior_beta": 3j}, "prior_beta must be a real number"),
        ({"weight": "beta", "weight_alpha": 2.0, "weight_beta": 1e14}, "at most 1e\\+06"),
        ({"weight": "beta", "weight_alpha": 1.000001e6, "weight_beta": 2.0}, "at most 1e\\+06"),
        ({"screen_proportions": ("0.25",)}, "screening proportion must be a real number"),
        ({"screen_proportions": (None,)}, "screening proportion must be a real number"),
        ({"screen_proportions": (True,)}, "screening proportion must be a real number"),
        ({"screen_proportions": "0.25"}, "screen_proportions must be a sequence"),
        ({"u_dists": (0.5,)}, "spec must be a string, got 0.5"),
        ({"u_dists": "pooled"}, "u_dists must be a sequence, got 'pooled'"),
        ({"u_dists": None}, "u_dists must be a sequence, got None"),
        ({"screen_proportions": 0.25}, "screen_proportions must be a sequence, got 0.25"),
        ({"u_dists": ["point:abc"]}, "^bad threshold distribution spec 'point:abc'$"),
    ],
)
def test_rejections(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        EvalConfig(**kwargs)


def test_monte_carlo_with_seed_valid():
    EvalConfig(prior="beta", seed=7)


def test_numpy_integers_valid():
    EvalConfig(prior="beta", seed=np.int64(7), outer_samples=np.int32(100))


def test_weight_shapes_up_to_the_bound_valid():
    cfg = EvalConfig(weight="beta", weight_alpha=MAX_WEIGHT_SHAPE, weight_beta=MAX_WEIGHT_SHAPE)
    assert cfg.weight_alpha == 1e6


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"weight": "beta", "weight_alpha": 1e-200, "weight_beta": 1e-200}, "at least 1e-150"),
        ({"weight": "beta", "weight_alpha": 2.0, "weight_beta": 9e-151}, "at least 1e-150"),
        ({"prior": "beta", "seed": 1, "prior_alpha": 1.0000001, "prior_beta": 1e300},
         "prior beta shapes must be at most 1e\\+06"),
        ({"prior": "beta", "seed": 1, "prior_alpha": 1.000001e6}, "at most 1e\\+06"),
    ],
)
def test_shapes_past_their_bounds_rejected(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        EvalConfig(**kwargs)


def test_shapes_at_their_bounds_valid():
    EvalConfig(weight="beta", weight_alpha=MIN_WEIGHT_SHAPE, weight_beta=MIN_WEIGHT_SHAPE)
    EvalConfig(prior="beta", seed=1, prior_alpha=MAX_WEIGHT_SHAPE, prior_beta=MAX_WEIGHT_SHAPE)


def test_beta_prior_fills_in_its_defaults():
    cfg = EvalConfig(prior="beta", seed=7)
    assert (cfg.outer_samples, cfg.prior_alpha, cfg.prior_beta) == (10000, 2.0, 2.0)
    assert type(cfg.prior_alpha) is float
    assert (EvalConfig().outer_samples, EvalConfig().prior_alpha) == (None, None)


def test_prior_shapes_up_to_one_valid_in_optimal_mode():
    # the optimal loss ratio stays bounded as pi0 -> 0 or 1
    EvalConfig(prior="beta", prior_alpha=0.5, prior_beta=1.0, threshold_mode="optimal",
               seed=7)


def test_describe_round_trips_through_config():
    cfg = EvalConfig(prior="beta", screen_proportions=(0.1,), u_dists=("pooled",), seed=3)
    echo = cfg.describe()
    rebuilt = EvalConfig(**echo)
    assert rebuilt == cfg


def test_describe_keys_are_pinned():
    # a knob added to or dropped from the config shows up in this list
    assert sorted(EvalConfig().describe()) == [
        "normalization", "outer_samples", "pi0", "prior", "prior_alpha", "prior_beta",
        "screen_proportions", "seed", "threshold_mode", "u_dists", "weight",
        "weight_alpha", "weight_beta", "weight_path",
    ]
