"""Metric report assembly and its published JSON schema.

A report carries, per score column, the H-measure result, the AUC with
its loss reading, the mixture-weight substitution loss, any configured
independent-threshold losses and screening results, plus a provenance
block (full config echo, data fingerprint, tool version) so every derived
number can be recomputed from its reported components.  Reports are
deterministic for a fixed input, config and seed; only the timestamp
field varies between runs.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .auc import auc_mann_whitney, mixture_weight_loss
from .config import EvalConfig, threshold_law
from .distributions import WeightFunction
from .empirical import ClassPriors, LabeledScores, ingest
from .errors import ConfigError
from .hmeasure import (
    HResult,
    _prior_loss,
    _uncertain_priors,
    h_measure_fixed,
    resolve_priors,
    resolve_weight,
)

__all__ = [
    "REPORT_SCHEMA",
    "resolve_priors",
    "resolve_weight",
    "build_report",
    "render_report",
    "fingerprint_arrays",
]


def _h_entry(hres: HResult) -> dict:
    entry = hres.as_dict()
    entry["warnings"] = list(entry["warnings"])
    return entry


def _column_metrics(data: LabeledScores, config: EvalConfig, priors: ClassPriors,
                    weight: WeightFunction) -> dict:
    """All metrics for one score column but its H, as a JSON-ready
    mapping.  Under a beta prior, priors and weight are the empirical
    priors and the default weight, which serve these metrics."""
    auc_res = auc_mann_whitney(data)
    if config.u_dists or config.screen_proportions:
        # only these metrics need it, and a report without them skips the import
        from .thresholds import independent_threshold_loss, screen_at_proportion
    column = {
        "auc": auc_res.as_dict(),
        # the AUC diagnostic is defined with calibrated thresholds
        "mixture_weight_loss": mixture_weight_loss(data),
        "independent_threshold_losses": [
            {
                "u": spec,
                "loss": independent_threshold_loss(
                    data, priors, weight, threshold_law(spec)
                ),
            }
            for spec in config.u_dists
        ],
        "screening": [
            screen_at_proportion(data, p).as_dict() for p in config.screen_proportions
        ],
        "diagnostics": {
            "suggest_label_inversion": bool(auc_res.auc < 0.5),
        },
    }
    for entry in column["screening"]:
        entry["confusion"] = {
            key: entry["confusion"][i] for i, key in enumerate(("tn", "fp", "fn", "tp"))
        }
    return column


def fingerprint_arrays(columns: dict[str, np.ndarray], labels: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(labels, dtype=np.int8).tobytes())
    for name in sorted(columns):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(columns[name], dtype=float).tobytes())
    return "sha256:" + digest.hexdigest()


def build_report(
    columns: dict[str, np.ndarray],
    labels: np.ndarray,
    config: EvalConfig,
    data_fingerprint: str | None = None,
    compare: bool = False,
) -> dict:
    """Evaluate the given score columns under one shared weight and prior.

    With compare=True (two or more columns) the report also ranks the
    columns by H and by AUC and flags any rank disagreement; the single
    shared weight instance is what makes those rankings commensurable.
    """
    if not columns:
        raise ConfigError("need at least one score column")
    if compare and len(columns) < 2:
        raise ConfigError("comparison requires at least two score columns")

    ingested = (ingest(scores, labels, normalization=config.normalization)
                for scores in columns.values())
    column_reports = {}
    losses = []  # under a beta prior, what the draws read of each column
    # ingested yields one column at a time: its metrics are computed, and
    # its table is dropped before the next column's is built; under a beta
    # prior only its coefficients or hull are kept, for the draws
    for name, data in zip(columns, ingested):
        if not column_reports:
            priors = resolve_priors(config, data)
            weight = resolve_weight(config, priors)
        if config.prior == "beta":
            # all columns share the draws, so their H waits for the last column
            losses.append(_prior_loss(data, config.threshold_mode))
            h = None
        else:
            h = _h_entry(h_measure_fixed(data, priors=priors, w=weight, config=config))
        column_reports[name] = {"h": h, **_column_metrics(data, config, priors, weight)}
    if losses:
        for column, hres in zip(column_reports.values(), _uncertain_priors(losses, config)):
            column["h"] = _h_entry(hres)

    report = {
        "schema_version": "1",
        "provenance": {
            "tool": "hmetric",
            "tool_version": __version__,
            "config": config.describe(),
            "data_fingerprint": data_fingerprint or fingerprint_arrays(columns, labels),
            "n_rows": int(np.asarray(labels).size),
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
        "columns": column_reports,
    }
    if compare:
        by_h = sorted(
            column_reports, key=lambda n: (-column_reports[n]["h"]["h"], n)
        )
        by_auc = sorted(
            column_reports, key=lambda n: (-column_reports[n]["auc"]["auc"], n)
        )
        report["comparison"] = {
            "ranking_by_h": by_h,
            "ranking_by_auc": by_auc,
            "rank_disagreement": by_h != by_auc,
        }
    return report


def render_report(report: dict) -> str:
    """Stable serialization: same report content, same bytes."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "hmetric evaluation report",
    "type": "object",
    "required": ["schema_version", "provenance", "columns"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": "1"},
        "provenance": {
            "type": "object",
            "required": [
                "tool",
                "tool_version",
                "config",
                "data_fingerprint",
                "n_rows",
                "timestamp",
            ],
            "properties": {
                "tool": {"type": "string"},
                "tool_version": {"type": "string"},
                "config": {"type": "object"},
                "data_fingerprint": {"type": "string"},
                "n_rows": {"type": "integer", "minimum": 1},
                "timestamp": {"type": "string"},
            },
        },
        "columns": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": {
                "type": "object",
                "required": [
                    "h",
                    "auc",
                    "mixture_weight_loss",
                    "independent_threshold_losses",
                    "screening",
                    "diagnostics",
                ],
                "properties": {
                    "h": {
                        "type": "object",
                        "required": [
                            "h",
                            "loss",
                            "reference_loss",
                            "weight_used",
                            "prior_used",
                            "mc_stderr",
                            "warnings",
                        ],
                        "properties": {
                            "h": {"type": "number", "maximum": 1.0},
                            "loss": {"type": "number", "minimum": 0.0},
                            "reference_loss": {"type": "number", "exclusiveMinimum": 0.0},
                            "weight_used": {"type": "object"},
                            "prior_used": {"type": "object"},
                            "mc_stderr": {"type": ["number", "null"]},
                            "warnings": {"type": "array", "items": {"type": "string"}},
                        },
                    },
                    "auc": {
                        "type": "object",
                        "required": ["auc", "n_pairs", "tie_pairs", "equivalent_loss"],
                        "properties": {
                            "auc": {"type": "number", "minimum": 0.0, "maximum": 1.0},
                            "n_pairs": {"type": "integer", "minimum": 1},
                            "tie_pairs": {"type": "integer", "minimum": 0},
                            "equivalent_loss": {"type": "number", "minimum": 0.0},
                        },
                    },
                    "mixture_weight_loss": {"type": "number", "minimum": 0.0},
                    "independent_threshold_losses": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["u", "loss"],
                            "properties": {
                                "u": {"type": "string"},
                                "loss": {"type": "number", "minimum": 0.0},
                            },
                        },
                    },
                    "screening": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": [
                                "proportion",
                                "threshold_rank",
                                "threshold",
                                "confusion",
                                "class0_recall",
                                "misclassification_rate",
                            ],
                            "properties": {
                                "proportion": {
                                    "type": "number",
                                    "exclusiveMinimum": 0.0,
                                    "exclusiveMaximum": 1.0,
                                },
                                "threshold_rank": {"type": "integer", "minimum": 1},
                                "threshold": {"type": "number"},
                                "confusion": {
                                    "type": "object",
                                    "required": ["tn", "fp", "fn", "tp"],
                                    "additionalProperties": {"type": "integer", "minimum": 0},
                                },
                                "class0_recall": {"type": "number"},
                                "misclassification_rate": {"type": "number"},
                            },
                        },
                    },
                    "diagnostics": {
                        "type": "object",
                        "required": ["suggest_label_inversion"],
                        "properties": {"suggest_label_inversion": {"type": "boolean"}},
                    },
                },
            },
        },
        "comparison": {
            "type": "object",
            "required": ["ranking_by_h", "ranking_by_auc", "rank_disagreement"],
            "properties": {
                "ranking_by_h": {"type": "array", "items": {"type": "string"}},
                "ranking_by_auc": {"type": "array", "items": {"type": "string"}},
                "rank_disagreement": {"type": "boolean"},
            },
        },
    },
}
