"""Evaluation of binary classifier scores by the H-measure and related
cost-weighted losses, alongside the AUC.

The exports load on first access (PEP 562), so importing the package, its
config and its errors needs no numpy.  numpy loads with the first module
that computes a number.  The package never imports scipy: the incomplete
beta and the quadrature of a callable weight are its own.
"""

from importlib import import_module

__version__ = "0.1.0"

# export name -> the submodule that defines it
_EXPORTS = {
    "EvalConfig": "config",
    "BetaParams": "distributions",
    "BetaWeight": "distributions",
    "TabulatedWeight": "distributions",
    "WeightFunction": "distributions",
    "beta_pdf": "distributions",
    "regularized_incomplete_beta": "distributions",
    "LabeledScores": "empirical",
    "ClassPriors": "empirical",
    "EmpiricalCdfPair": "empirical",
    "ingest": "empirical",
    "empirical_priors": "empirical",
    "empirical_cdfs": "empirical",
    "read_scores_csv": "empirical",
    "load_tabulated_weight": "empirical",
    "HmetricError": "errors",
    "InputError": "errors",
    "ConfigError": "errors",
    "DegenerateDataError": "errors",
    "AucResult": "auc",
    "auc_mann_whitney": "auc",
    "mixture_weight_loss": "auc",
    "HResult": "hmeasure",
    "default_weight": "hmeasure",
    "h_measure_fixed": "hmeasure",
    "h_measure_uncertain_priors": "hmeasure",
    "LossCurve": "loss",
    "threshold_loss": "loss",
    "min_loss": "loss",
    "expected_min_loss": "loss",
    "reference_loss": "loss",
    "loss_curve": "loss",
    "REPORT_SCHEMA": "report",
    "build_report": "report",
    "render_report": "report",
    "ScoringRule": "scoring",
    "PropernessReport": "scoring",
    "pointwise_loss": "scoring",
    "expected_loss": "scoring",
    "properness_check": "scoring",
    "rule_from_weight": "scoring",
    "squared_error_rule": "scoring",
    "log_loss_rule": "scoring",
    "PointMass": "thresholds",
    "PooledScoreThresholds": "thresholds",
    "RankUniformClass1": "thresholds",
    "TabulatedThresholds": "thresholds",
    "ScreeningResult": "thresholds",
    "independent_threshold_loss": "thresholds",
    "rank_uniform_evaluation": "thresholds",
    "screen_at_proportion": "thresholds",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
