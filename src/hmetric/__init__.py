"""Evaluation of binary classifier scores by the H-measure and related
cost-weighted losses, alongside the AUC."""

__version__ = "0.1.0"

from .config import EvalConfig
from .distributions import (
    BetaParams,
    BetaWeight,
    TabulatedWeight,
    WeightFunction,
    beta_pdf,
    load_tabulated_weight,
    regularized_incomplete_beta,
)
from .empirical import (
    ClassPriors,
    EmpiricalCdfPair,
    LabeledScores,
    empirical_cdfs,
    empirical_priors,
    ingest,
    read_scores_csv,
)
from .errors import ConfigError, DegenerateDataError, HmetricError, InputError
from .auc import AucResult, auc_mann_whitney, mixture_weight_loss
from .hmeasure import (
    HResult,
    default_weight,
    h_measure_fixed,
    h_measure_uncertain_priors,
)
from .loss import (
    LossCurve,
    expected_min_loss,
    loss_curve,
    min_loss,
    reference_loss,
    threshold_loss,
)
from .report import REPORT_SCHEMA, build_report, evaluate_column, render_report
from .scoring import (
    PropernessReport,
    ScoringRule,
    expected_loss,
    log_loss_rule,
    pointwise_loss,
    properness_check,
    rule_from_weight,
    squared_error_rule,
)
from .thresholds import (
    PointMass,
    PooledScoreThresholds,
    RankUniformClass1,
    ScreeningResult,
    TabulatedThresholds,
    independent_threshold_loss,
    rank_uniform_evaluation,
    screen_at_proportion,
)

__all__ = [
    "__version__",
    "EvalConfig",
    "BetaParams",
    "BetaWeight",
    "TabulatedWeight",
    "WeightFunction",
    "beta_pdf",
    "regularized_incomplete_beta",
    "load_tabulated_weight",
    "LabeledScores",
    "ClassPriors",
    "EmpiricalCdfPair",
    "ingest",
    "empirical_priors",
    "empirical_cdfs",
    "read_scores_csv",
    "HmetricError",
    "InputError",
    "ConfigError",
    "DegenerateDataError",
    "AucResult",
    "auc_mann_whitney",
    "mixture_weight_loss",
    "HResult",
    "default_weight",
    "h_measure_fixed",
    "h_measure_uncertain_priors",
    "LossCurve",
    "threshold_loss",
    "min_loss",
    "expected_min_loss",
    "reference_loss",
    "loss_curve",
    "REPORT_SCHEMA",
    "build_report",
    "evaluate_column",
    "render_report",
    "ScoringRule",
    "PropernessReport",
    "pointwise_loss",
    "expected_loss",
    "properness_check",
    "rule_from_weight",
    "squared_error_rule",
    "log_loss_rule",
    "PointMass",
    "PooledScoreThresholds",
    "RankUniformClass1",
    "TabulatedThresholds",
    "ScreeningResult",
    "independent_threshold_loss",
    "rank_uniform_evaluation",
    "screen_at_proportion",
]
