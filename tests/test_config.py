import pytest

from hmetric import ConfigError, EvalConfig


def test_default_config_valid():
    EvalConfig().validate()


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
        ({"resolution": 512}, "1024"),
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
        ({"seed": -5}, "non-negative"),
        ({"weight": "tabulated", "weight_path": "w.csv", "weight_beta": 2.0}, "beta weight only"),
        ({"prior": "beta", "outer_samples": 1, "seed": 7}, "outer_samples must be at least 2"),
        ({"prior": "beta", "prior_alpha": float("inf"), "seed": 1}, "finite"),
        ({"prior": "beta", "prior_beta": float("nan"), "seed": 1}, "finite"),
        ({"prior": "beta", "weight": "beta", "weight_alpha": 2.0, "weight_beta": 2.0, "seed": 1},
         "conditional weight"),
        ({"weight_path": "w.csv"}, "tabulated weight only"),
        ({"weight": "beta", "weight_alpha": 2.0, "weight_beta": 2.0, "weight_path": "w.csv"},
         "tabulated weight only"),
    ],
)
def test_rejections(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        EvalConfig(**kwargs).validate()


def test_monte_carlo_with_seed_valid():
    EvalConfig(prior="beta", seed=7).validate()


def test_prior_shapes_up_to_one_valid_in_optimal_mode():
    # the optimal loss ratio stays bounded as pi0 -> 0 or 1
    EvalConfig(prior="beta", prior_alpha=0.5, prior_beta=1.0, threshold_mode="optimal",
               seed=7).validate()


def test_describe_round_trips_through_config():
    cfg = EvalConfig(screen_proportions=(0.1,), u_dists=("pooled",), seed=3)
    echo = cfg.describe()
    rebuilt = EvalConfig(**echo)
    assert rebuilt == cfg


def test_describe_keys_are_pinned():
    # a knob added to or dropped from the config shows up in this list
    assert sorted(EvalConfig().describe()) == [
        "normalization", "outer_samples", "pi0", "prior", "prior_alpha", "prior_beta",
        "resolution", "screen_proportions", "seed", "threshold_mode", "u_dists", "weight",
        "weight_alpha", "weight_beta", "weight_path",
    ]
