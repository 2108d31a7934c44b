"""The contract of the package's value types, built on hmetric._record:
the fields, their order and defaults, and construction by position or by
name are those the types have always had; a field can be neither assigned
nor deleted; equality, the hash and the repr are over the field values;
and copies, pickles and cached properties still work."""

import copy
import inspect
import pickle

import numpy as np
import pytest

from hmetric import (AucResult, BetaParams, ClassPriors, EmpiricalCdfPair, EvalConfig, HResult,
                     InputError, LabeledScores, LossCurve, PointMass, PooledScoreThresholds,
                     PropernessReport, RankUniformClass1, ScoringRule, ScreeningResult,
                     TabulatedThresholds, TabulatedWeight, ingest)
from hmetric.loss import _Envelope
from hmetric.scoring import PropernessEntry

_GRID = np.linspace(1e-3, 1.0 - 1e-3, 1024)
_ENTRY = PropernessEntry(0.5, 0.5, 0.0, True, "ok")

# type -> (its fields in order, the defaults of the trailing ones, one value per field)
CASES = {
    EvalConfig: (
        ("weight", "weight_alpha", "weight_beta", "weight_path", "prior", "pi0", "prior_alpha",
         "prior_beta", "threshold_mode", "outer_samples", "seed", "normalization",
         "screen_proportions", "u_dists"),
        {"weight": "default", "weight_alpha": None, "weight_beta": None, "weight_path": None,
         "prior": "empirical", "pi0": None, "prior_alpha": None, "prior_beta": None,
         "threshold_mode": "calibrated", "outer_samples": None, "seed": None,
         "normalization": "reject", "screen_proportions": (), "u_dists": ()},
        ("beta", 2.0, 5.0, None, "fixed", 0.3, None, None, "optimal", None, None, "minmax",
         (0.1,), ("pooled",)),
    ),
    BetaParams: (("alpha", "beta"), {}, (2.0, 5.0)),
    LabeledScores: (("scores", "labels", "normalization"), {"normalization": "reject"},
                    (np.array([0.2, 0.7]), np.array([0, 1]), "minmax")),
    ClassPriors: (("pi0",), {}, (0.3,)),
    EmpiricalCdfPair: (("u", "cum0", "cum1"), {},
                       (np.array([0.2, 0.7]), np.array([1, 1]), np.array([0, 1]))),
    AucResult: (("auc", "n_pairs", "tie_pairs", "equivalent_loss"), {}, (0.75, 4, 1, 0.1)),
    HResult: (("h", "loss", "reference_loss", "weight_used", "prior_used", "mc_stderr",
               "warnings"), {},
              (0.5, 0.1, 0.2, {"kind": "beta"}, {"kind": "empirical"}, None, ())),
    LossCurve: (("grid", "loss", "mode"), {}, (_GRID, np.zeros(1024), "optimal")),
    _Envelope: (("breaks", "loss0", "loss1"), {},
                (np.array([0.0, 1.0]), np.array([0.3]), np.array([0.0]))),
    ScoringRule: (("loss0", "loss1", "origin"), {}, (abs, abs, {"named": "abs"})),
    PropernessEntry: (("eta", "argmin", "gap", "strict", "status", "detail"), {"detail": ""},
                      (0.5, 0.5, 0.0, True, "ok", "flat")),
    PropernessReport: (("grid_step", "entries"), {}, (1e-3, (_ENTRY,))),
    PointMass: (("t",), {}, (0.5,)),
    PooledScoreThresholds: ((), {}, ()),
    RankUniformClass1: (("weights",), {"weights": None}, ((1.0, 2.0),)),
    TabulatedThresholds: (("weight",), {}, (TabulatedWeight(_GRID, np.full(1024, 1 / 0.998)),)),
    ScreeningResult: (("proportion", "threshold_rank", "threshold", "confusion",
                       "class0_recall", "misclassification_rate"), {},
                      (0.1, 1, 0.2, (1, 0, 0, 1), 1.0, 0.0)),
}
TYPES = pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)


def _sample(cls):
    fields, _, values = CASES[cls]
    return cls(*values), dict(zip(fields, values))


def _kept(record, values) -> bool:
    """Whether the record holds the given values (EvalConfig stores its
    proportions in a tuple of its own)."""
    return all(getattr(record, k) is v or getattr(record, k) == v for k, v in values.items())


def _hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


@TYPES
def test_fields_and_defaults(cls):
    fields, defaults, values = CASES[cls]
    assert cls._fields == fields
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == list(fields)
    assert {p.name: p.default for p in params if p.default is not p.empty} == defaults
    required = {name: value for name, value in zip(fields, values) if name not in defaults}
    record = cls(**required)
    for name in defaults:
        assert getattr(record, name) == defaults[name], name


@TYPES
def test_construction_by_position_and_by_name(cls):
    record, values = _sample(cls)
    by_name = cls(**values)
    half = len(values) // 2
    mixed = cls(*list(values.values())[:half], **dict(list(values.items())[half:]))
    for other in (record, by_name, mixed):
        assert list(other.as_dict()) == list(values) and _kept(other, values)


@TYPES
def test_wrong_arguments_are_type_errors(cls):
    _, values = _sample(cls)
    with pytest.raises(TypeError):
        cls(*values.values(), None)
    with pytest.raises(TypeError):
        cls(**values, no_such_field=1)
    if values:
        with pytest.raises(TypeError):  # a field given twice
            cls(*values.values(), **dict([next(iter(values.items()))]))
        if next(iter(values)) not in CASES[cls][1]:
            with pytest.raises(TypeError):  # a required field left out
                cls()


@TYPES
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    record, values = _sample(cls)
    for name in [*values, "no_such_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _kept(record, values)


@TYPES
def test_repr_names_the_fields(cls):
    record, values = _sample(cls)
    if cls is EmpiricalCdfPair:  # the arrays are left out of it
        assert repr(record) == "EmpiricalCdfPair()"
    else:
        assert repr(record) == f"{cls.__qualname__}(" + ", ".join(
            f"{name}={value!r}" for name, value in values.items()) + ")"


@TYPES
def test_equality_and_hash_are_over_the_fields(cls):
    record, values = _sample(cls)
    twin = cls(**values)
    if _hashable(values.values()):
        assert record == twin and hash(record) == hash(twin)
        assert hash(record) == hash(tuple(values.values()))
    else:
        with pytest.raises(TypeError):
            hash(record)
    assert record != object() and record != tuple(values.values())


@TYPES
def test_copies_and_pickles_are_equal_records(cls):
    record, values = _sample(cls)
    for other in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(other) is cls and list(other.as_dict()) == list(values)
        if _hashable(values.values()) and cls is not TabulatedThresholds:
            assert other == record  # a TabulatedWeight equals only itself


def test_default_configs_are_equal_and_hash_equal():
    # EvalConfig() is a default argument value of h_measure_fixed
    assert EvalConfig() == EvalConfig() and hash(EvalConfig()) == hash(EvalConfig())
    assert EvalConfig() != EvalConfig(normalization="minmax")
    assert PointMass(0.5) != ClassPriors(0.5)


def test_describe_keeps_its_keys_order_and_values():
    config = EvalConfig(prior="beta", seed=3, screen_proportions=[np.float64(0.1)],
                        u_dists=["pooled"])
    assert list(config.describe().items()) == [
        ("weight", "default"), ("weight_alpha", None), ("weight_beta", None),
        ("weight_path", None), ("prior", "beta"), ("pi0", None), ("prior_alpha", 2.0),
        ("prior_beta", 2.0), ("threshold_mode", "calibrated"), ("outer_samples", 10000),
        ("seed", 3), ("normalization", "reject"), ("screen_proportions", (0.1,)),
        ("u_dists", ("pooled",)),
    ]
    assert type(config.describe()["screen_proportions"][0]) is float


def test_validation_still_runs_on_construction():
    with pytest.raises(InputError, match="pi0"):
        ClassPriors(1.5)
    with pytest.raises(InputError, match="threshold"):
        PointMass(t=2.0)


def test_cached_properties_are_kept():
    data = ingest(np.array([0.2, 0.7, 0.7, 0.9]), np.array([0, 0, 1, 1]))
    assert data.table is data.table
    assert data.table.hull is data.table.hull
    assert (data.n0, data.n1) == (2, 2)
