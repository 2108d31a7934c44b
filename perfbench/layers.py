"""The traced run: per-layer times and counts.

The run calls each ``hmetric`` module's public functions directly, from
this file, on the workload's input, with a span around every call.  A
layer metric is the summed duration of its spans over both score columns
(and over the evaluate and compare reports, for the report layer).  The
curves command runs in subprocesses, three times untraced and three times
under ``traced_cli.py``; the difference of the two median wall times is
the tracing overhead, and the traced command's self time is the ROC
emission loop.  Counts marked as computed come from the input, not from
the program.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import check
from spans import Tracer, self_time

COLUMNS = ("model_a", "model_b")
SCREEN = (0.1, 0.25)
U_DISTS = ("pooled", "class1-ranks")
PRIOR_ROWS = 100  # rows of model_a the traced distributed-prior call sees
IMPORT_REPEATS = 3
CURVES_REPEATS = 3
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"

TIMED_LAYERS = (
    "empirical.read_scores_csv", "empirical.ingest", "empirical.empirical_cdfs",
    "auc.auc_mann_whitney", "auc.mixture_weight_loss", "distributions.partial_moments",
    "loss.expected_min_loss.calibrated", "loss.optimal_envelope",
    "loss.expected_min_loss.optimal", "hmeasure.h_measure_fixed",
    "thresholds.independent_threshold_loss", "thresholds.screen_at_proportion",
    "report.build_report", "report.render_report", "loss.loss_curve",
    "hmeasure.h_measure_uncertain_priors",
)


def import_seconds(session) -> float:
    """Median time of a bare ``import hmetric.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import hmetric.cli; print(time.perf_counter() - t)"
    runs: list[float] = []

    def parse() -> list[str]:
        text = (session.work / "stdout").read_text()
        try:
            runs.append(float(text))
        except ValueError:
            return [f"unparsable import time {text[:80]!r}"]
        return []

    for _ in range(IMPORT_REPEATS):
        session.run("import", [sys.executable, "-c", code], parse)
    return statistics.median(runs) if runs else 0.0


def direct_calls(tr: Tracer, inputs, prior_beta: bool, checker, session):
    """Every layer of evaluate and compare, called one by one."""
    import hmetric
    from hmetric.loss import optimal_envelope

    n = inputs.labels.size
    _, columns, labels = tr.call("empirical.read_scores_csv", hmetric.read_scores_csv, inputs.path,
                                 sizes={"bytes": inputs.manifest["bytes"]})
    for name in COLUMNS:
        data = tr.call("empirical.ingest", hmetric.ingest, columns[name], labels, column=name,
                       sizes={"rows": n})
        cdfs = tr.call("empirical.empirical_cdfs", hmetric.empirical_cdfs, data, column=name)
        tr.call("auc.auc_mann_whitney", hmetric.auc_mann_whitney, data, column=name)
        tr.call("auc.mixture_weight_loss", hmetric.mixture_weight_loss, data, column=name)
        priors = hmetric.empirical_priors(data)
        w = hmetric.default_weight(priors)
        with tr.span("distributions.partial_moments", name, points=n):
            w.partial_moments(cdfs.sorted0)
            w.partial_moments(cdfs.sorted1)
        tr.call("loss.expected_min_loss.calibrated", hmetric.expected_min_loss, priors, cdfs, w,
                mode="calibrated", column=name)
        tr.call("loss.optimal_envelope", optimal_envelope, priors, cdfs, column=name)
        tr.call("loss.expected_min_loss.optimal", hmetric.expected_min_loss, priors, cdfs, w,
                mode="optimal", column=name)
        tr.call("hmeasure.h_measure_fixed", hmetric.h_measure_fixed, data, column=name)
        for u in (hmetric.PooledScoreThresholds(), hmetric.RankUniformClass1()):
            tr.call("thresholds.independent_threshold_loss", hmetric.independent_threshold_loss,
                    data, priors, w, u, column=name)
        for p in SCREEN:
            tr.call("thresholds.screen_at_proportion", hmetric.screen_at_proportion, data, p,
                    column=name)
        if name == "model_a":
            tr.call("loss.loss_curve", hmetric.loss_curve, priors, cdfs,
                    grid_size=check.CURVE_GRID, column=name)

    if prior_beta:
        eval_cfg = hmetric.EvalConfig(prior="beta", seed=inputs.program_seed)
        prior_kw = {"prior_seed": inputs.program_seed, "draws": check.PRIOR_DRAWS}
    else:
        eval_cfg, prior_kw = hmetric.EvalConfig(), {}
    cmp_cfg = hmetric.EvalConfig(threshold_mode="optimal", screen_proportions=SCREEN,
                                 u_dists=U_DISTS)
    rendered = {}
    for command, cfg, mode, kw, check_kw in (
        ("evaluate", eval_cfg, "calibrated", {}, prior_kw),
        ("compare", cmp_cfg, "optimal", {"compare": True}, {}),
    ):
        report = tr.call("report.build_report", hmetric.build_report, columns, labels, cfg,
                         column=command, **kw)
        text = tr.call("report.render_report", hmetric.render_report, report, column=command)
        session.record(command, checker.report(json.loads(text), mode, **check_kw))
        rendered[command] = text
    return columns, labels, len(rendered["evaluate"].encode("utf-8"))


def prior_call(tr: Tracer, inputs, columns, labels, session) -> float:
    """The distributed-prior H on the first PRIOR_ROWS rows of model_a,
    under tracemalloc; returns the peak traced allocation in MB."""
    import hmetric

    rows = slice(0, min(PRIOR_ROWS, labels.size))
    data = hmetric.ingest(columns["model_a"][rows], labels[rows])
    cfg = hmetric.EvalConfig(prior="beta", seed=inputs.program_seed)
    tracemalloc.start()
    try:
        hres = tr.call("hmeasure.h_measure_uncertain_priors", hmetric.h_measure_uncertain_priors,
                       data, config=cfg, column="model_a",
                       sizes={"rows": data.n, "draws": check.PRIOR_DRAWS})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    s0, s1 = check.split(labels[rows], columns["model_a"][rows])
    ref_h, _ = check.prior_replay_h(s0, s1, inputs.program_seed, check.PRIOR_DRAWS)
    session.record("prior", check.mismatch("h", hres.h, ref_h))
    return peak / 2**20


def traced_curves(curves, session) -> tuple[float, float, list[dict]]:
    """(untraced wall, traced wall, traced spans) of the curves command:
    the median walls of CURVES_REPEATS alternating runs of each, and the
    spans of the last traced run.

    curves is the (args, output, check) triple the timed run uses.
    """
    args, output, check_output = curves
    spans_path = session.work / "curves-spans.json"
    walls: list[list[float]] = [[], []]
    for _ in range(CURVES_REPEATS):
        for wall, prefix in zip(walls, ([sys.executable, "-m", "hmetric.cli"],
                                        [sys.executable, str(TRACED_CLI), str(spans_path)])):
            session.clear(output)
            wall.append(session.run("curves", prefix + args, check_output))
    return (statistics.median(walls[0]), statistics.median(walls[1]),
            json.loads(spans_path.read_text(encoding="utf-8")))


def traced_run(inputs, prior_beta: bool, checker, session, curves):
    """Every per-layer metric, keyed by name, and the spans: those of the
    direct calls and those of the traced curves command."""
    gc.collect()
    tr = Tracer()
    metrics: dict[str, float] = {"cli.import_s": import_seconds(session)}
    columns, labels, report_bytes = direct_calls(tr, inputs, prior_beta, checker, session)
    peak_mb = prior_call(tr, inputs, columns, labels, session)
    untraced, traced, curve_spans = traced_curves(curves, session)

    for name in TIMED_LAYERS:
        metrics[f"{name}_s"] = tr.total(name)
    command = next(s for s in curve_spans if s["name"] == "cli.curves")
    metrics["cli.curves.roc_rows_s"] = self_time(curve_spans, command)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["hmeasure.h_measure_uncertain_priors.peak_alloc_mb"] = peak_mb

    n = labels.size
    metrics["empirical.rows"] = n
    candidates = segments = 0
    for name in COLUMNS:
        scores = columns[name]
        metrics[f"empirical.n_distinct.{name}"] = int(np.unique(scores).size)
        # computed: the program's candidate thresholds are the distinct
        # scores with 0 and 1, plus the assign-all-to-class-1 line
        candidates += int(np.unique(np.concatenate([[0.0, 1.0], scores])).size) + 1
        segments += check.envelope_segments(*check.split(labels, scores))
    metrics["loss.envelope_candidates"] = candidates
    metrics["loss.envelope_segments"] = segments
    # computed: 2n per calibrated column, draws x (n + 2) under the prior
    per_column = check.PRIOR_DRAWS * (n + 2) if prior_beta else 2 * n
    metrics["distributions.betainc_evals"] = per_column * len(COLUMNS)
    metrics["hmeasure.prior_draws"] = check.PRIOR_DRAWS
    metrics["report.bytes"] = report_bytes
    return metrics, {"direct_calls": tr.spans, "curves_command": curve_spans}
