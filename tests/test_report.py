import json

import numpy as np
import pytest
from jsonschema import validate

import hmetric.report as report_mod
from hmetric import (
    ConfigError,
    EvalConfig,
    REPORT_SCHEMA,
    build_report,
    render_report,
)
from hmetric.config import MAX_WEIGHT_SHAPE
from conftest import random_dataset


def _columns(seed=0, n=60):
    data = random_dataset(seed, n=n)
    rng = np.random.default_rng(seed + 1)
    other = np.clip(data.scores + rng.normal(0, 0.05, n), 0.0, 1.0)
    return {"model_a": data.scores, "model_b": other}, np.asarray(data.labels)


class TestBuildReport:
    def test_schema_valid(self):
        cols, labels = _columns()
        config = EvalConfig(
            screen_proportions=(0.1, 0.3),
            u_dists=("pooled", "class1-ranks", "point:0.5"),
        )
        report = build_report(cols, labels, config)
        validate(report, REPORT_SCHEMA)

    def test_schema_valid_uncertain_prior(self):
        cols, labels = _columns()
        config = EvalConfig(prior="beta", seed=3, outer_samples=2000)
        report = build_report(cols, labels, config)
        validate(report, REPORT_SCHEMA)
        for col in report["columns"].values():
            assert col["h"]["reference_loss"] == 1.0
            assert col["h"]["mc_stderr"] is not None

    def test_derived_values_recomputable(self):
        cols, labels = _columns(2)
        report = build_report(cols, labels, EvalConfig())
        for col in report["columns"].values():
            h = col["h"]
            assert h["h"] == pytest.approx(
                1.0 - h["loss"] / h["reference_loss"], abs=1e-10
            )
            auc = col["auc"]
            n0 = int(np.sum(labels == 0))
            pi0 = n0 / labels.size
            assert auc["equivalent_loss"] == pytest.approx(
                2 * pi0 * (1 - pi0) * (1 - auc["auc"]), abs=1e-10
            )

    def test_determinism_modulo_timestamp(self):
        cols, labels = _columns(4)
        config = EvalConfig(prior="beta", outer_samples=5000, seed=12)
        r1 = build_report(cols, labels, config)
        r2 = build_report(cols, labels, config)
        r1["provenance"].pop("timestamp")
        r2["provenance"].pop("timestamp")
        assert render_report(r1) == render_report(r2)

    def test_compare_duplicate_column_no_disagreement(self):
        data = random_dataset(6, n=50)
        cols = {"one": data.scores, "two": data.scores.copy()}
        report = build_report(cols, np.asarray(data.labels), EvalConfig(), compare=True)
        a, b = report["columns"]["one"], report["columns"]["two"]
        assert a["h"]["h"] == b["h"]["h"]
        assert a["auc"]["auc"] == b["auc"]["auc"]
        assert report["comparison"]["rank_disagreement"] is False

    def test_compare_monotone_transform_same_auc(self):
        data = random_dataset(7, n=80)
        transformed = data.scores**3  # strictly increasing on [0, 1]
        cols = {"raw": data.scores, "cubed": transformed}
        report = build_report(cols, np.asarray(data.labels), EvalConfig(), compare=True)
        assert (
            report["columns"]["raw"]["auc"]["auc"]
            == report["columns"]["cubed"]["auc"]["auc"]
        )
        # H generally differs; the report carries both values
        assert "h" in report["columns"]["cubed"]

    def test_compare_needs_two_columns(self):
        data = random_dataset(8, n=20)
        with pytest.raises(ConfigError):
            build_report({"only": data.scores}, np.asarray(data.labels),
                         EvalConfig(), compare=True)

    def test_no_columns_rejected(self):
        with pytest.raises(ConfigError, match="^need at least one score column$"):
            build_report({}, np.array([0, 1]), EvalConfig())

    def test_single_weight_instance_shared(self, monkeypatch):
        calls = []
        original = report_mod.resolve_weight

        def counting(config, priors):
            calls.append(1)
            return original(config, priors)

        monkeypatch.setattr(report_mod, "resolve_weight", counting)
        cols, labels = _columns(9)
        build_report(cols, labels, EvalConfig(), compare=True)
        assert len(calls) == 1

    def test_inversion_diagnostic(self):
        data = random_dataset(10, n=40)
        cols = {"inverted": 1.0 - data.scores}
        labels = np.asarray(data.labels)
        report = build_report(cols, labels, EvalConfig())
        col = report["columns"]["inverted"]
        if col["auc"]["auc"] < 0.5:
            assert col["diagnostics"]["suggest_label_inversion"] is True

    def test_distributed_prior_rejects_explicit_weight(self):
        with pytest.raises(ConfigError, match="conditional weight"):
            EvalConfig(prior="beta", seed=1, weight="beta",
                       weight_alpha=2.0, weight_beta=2.0, outer_samples=1000)

    def test_numpy_integers_render(self):
        # the config keeps a numpy seed and draw count as Python ints, so
        # the report's echo serializes
        cols, labels = _columns(13)
        config = EvalConfig(prior="beta", seed=np.int64(7), outer_samples=np.int32(100))
        echo = json.loads(render_report(build_report(cols, labels, config)))["provenance"]["config"]
        assert (echo["seed"], echo["outer_samples"]) == (7, 100)
        assert (type(config.seed), type(config.outer_samples)) == (int, int)

    @pytest.mark.parametrize("kwargs,name", [
        ({"weight": "beta", "weight_alpha": np.int64(2), "weight_beta": 5.0}, "weight_alpha"),
        ({"prior": "beta", "seed": 1, "prior_alpha": np.float32(3), "outer_samples": 100},
         "prior_alpha"),
        ({"prior": "fixed", "pi0": np.float32(0.3)}, "pi0"),
    ])
    def test_numpy_floats_render(self, kwargs, name):
        # the config stores numpy numbers in its float fields as Python
        # floats, so the report's echo serializes
        cols, labels = _columns(13)
        config = EvalConfig(**kwargs)
        echo = json.loads(render_report(build_report(cols, labels, config)))["provenance"]["config"]
        assert echo[name] == float(kwargs[name])
        assert type(getattr(config, name)) is float

    def test_numpy_screening_proportions_render(self):
        # screening proportions are stored as Python floats like the float
        # fields, so the report's echo serializes
        cols, labels = _columns(13)
        config = EvalConfig(screen_proportions=(np.float32(0.25),))
        echo = json.loads(render_report(build_report(cols, labels, config)))["provenance"]["config"]
        assert echo["screen_proportions"] == [0.25]
        assert type(config.screen_proportions[0]) is float

    def test_fingerprint_stable(self):
        cols, labels = _columns(12)
        f1 = report_mod.fingerprint_arrays(cols, labels)
        f2 = report_mod.fingerprint_arrays(dict(reversed(list(cols.items()))), labels)
        assert f1 == f2
        assert f1.startswith("sha256:")


def test_prior_shapes_at_the_bound_render_finite():
    # a prior shape of 1e300 put pi0 draws near 1e-300 and rendered a bare
    # NaN standard error; at the bound H and its error stay finite
    cols, labels = _columns()
    config = EvalConfig(prior="beta", seed=1, outer_samples=100, prior_alpha=1.0000001,
                        prior_beta=MAX_WEIGHT_SHAPE)

    def refuse(constant):
        raise ValueError(f"report holds {constant}, which is not JSON")

    json.loads(render_report(build_report(cols, labels, config)), parse_constant=refuse)


SORTS = ("sort", "argsort", "unique", "lexsort")


@pytest.mark.parametrize("prior", ["empirical", "beta"])
@pytest.mark.parametrize("mode", ["calibrated", "optimal"])
@pytest.mark.parametrize("compare", [False, True])
def test_one_sort_per_score_column(monkeypatch, compare, mode, prior):
    """Every metric reads the column's tie-grouped table, so a report
    sorts each score column exactly once, whatever the threshold mode,
    threshold laws and screening proportions."""
    cols, labels = _columns(4)
    config = EvalConfig(
        threshold_mode=mode,
        prior=prior,
        **({"seed": 3, "outer_samples": 200} if prior == "beta" else {}),
        screen_proportions=(0.25, 0.5),
        u_dists=("pooled", "class1-ranks", "point:0.5"),
    )
    calls = []
    for name in SORTS:
        def counting(*args, _name=name, _original=getattr(np, name), **kwargs):
            calls.append((_name, np.shape(args[0])))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    build_report(cols, labels, config, compare=compare)
    assert calls == [("argsort", labels.shape)] * len(cols)
