"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Checks that the generator is deterministic for a seed, that the output
checker flags a perturbed H or AUC and a short curve file, and that a
non-zero exit counts as a failed invocation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import inputs
import run

sys.path.insert(0, str(run.SRC))

import hmetric  # noqa: E402
import hmetric.cli  # noqa: E402

ROWS = 300


def build(tmp_path: Path, name: str, seed: int, sub: str = "a") -> inputs.Inputs:
    out = tmp_path / sub
    out.mkdir(exist_ok=True)
    return inputs.build(inputs.WORKLOADS[name], seed, out, n=ROWS)


@pytest.mark.parametrize("name", list(inputs.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    first = build(tmp_path, name, 7, "a")
    again = build(tmp_path, name, 7, "b")
    other = build(tmp_path, name, 8, "c")
    assert first.manifest == again.manifest
    assert first.program_seed == again.program_seed
    assert first.manifest["sha256"] != other.manifest["sha256"]
    assert first.program_seed != other.program_seed


def test_csv_holds_the_checked_values_exactly(tmp_path):
    inp = build(tmp_path, "mixed-1e5", 3)
    _, columns, labels = hmetric.read_scores_csv(inp.path)
    assert (labels == inp.labels).all()
    for col, values in inp.columns.items():
        assert (columns[col] == values).all()
    assert inp.manifest["n_distinct"]["model_a"] == ROWS
    assert inp.manifest["n_distinct"]["model_b"] < ROWS


def reports(inp, prior_draws=None):
    """(evaluate report, compare report) as the CLI would render them."""
    if prior_draws:
        evaluate_cfg = hmetric.EvalConfig(prior="beta", seed=inp.program_seed,
                                          outer_samples=prior_draws)
    else:
        evaluate_cfg = hmetric.EvalConfig()
    compare_cfg = hmetric.EvalConfig(threshold_mode="optimal", screen_proportions=(0.1, 0.25),
                                     u_dists=("pooled", "class1-ranks"))
    _, columns, labels = hmetric.read_scores_csv(inp.path)
    return tuple(
        json.loads(hmetric.render_report(hmetric.build_report(columns, labels, cfg, **kw)))
        for cfg, kw in ((evaluate_cfg, {}), (compare_cfg, {"compare": True}))
    )


def test_checker_accepts_correct_reports(tmp_path):
    inp = build(tmp_path, "mixed-1e5", 5, "mixed")
    checker = check.Checker(inp, hmetric.REPORT_SCHEMA)
    evaluate, compare = reports(inp)
    assert checker.report(evaluate, "calibrated") == []
    assert checker.report(compare, "optimal") == []
    inp = build(tmp_path, "prior-beta-100", 5, "prior")
    evaluate, _ = reports(inp, prior_draws=300)
    checker = check.Checker(inp, hmetric.REPORT_SCHEMA)
    assert checker.report(evaluate, "calibrated", prior_seed=inp.program_seed, draws=300) == []


@pytest.mark.parametrize("field", ["h", "auc"])
@pytest.mark.parametrize("mode", ["calibrated", "optimal"])
def test_checker_flags_perturbed_h_or_auc(tmp_path, field, mode):
    inp = build(tmp_path, "mixed-1e5", 5)
    checker = check.Checker(inp, hmetric.REPORT_SCHEMA)
    report = reports(inp)[mode == "optimal"]
    entry = report["columns"]["model_b"][field]
    entry[field] *= 1.0 + 1e-7
    assert checker.report(report, mode)


def test_checker_flags_perturbed_prior_h(tmp_path):
    inp = build(tmp_path, "prior-beta-100", 5)
    checker = check.Checker(inp, hmetric.REPORT_SCHEMA)
    evaluate, _ = reports(inp, prior_draws=300)
    evaluate["columns"]["model_a"]["h"]["h"] *= 1.0 + 1e-7
    assert checker.report(evaluate, "calibrated", prior_seed=inp.program_seed, draws=300)


def test_checker_flags_short_roc_file(tmp_path):
    inp = build(tmp_path, "mixed-1e5", 5)
    out = tmp_path / "curves"
    hmetric.cli.main.main(["curves", str(inp.path), "--column", "model_a", "--out-dir", str(out)],
                          standalone_mode=False)
    checker = check.Checker(inp, hmetric.REPORT_SCHEMA)
    assert checker.curves_dir(out, "model_a") == []
    roc = out / "roc.csv"
    roc.write_text("".join(roc.read_text().splitlines(keepends=True)[:-1]))
    assert checker.curves_dir(out, "model_a")


def test_nonzero_exit_counts_as_failure(tmp_path):
    session = run.Session(run.child_env(), tmp_path)
    checked = []
    session.run("evaluate", run.CLI + ["evaluate", "missing.csv"], lambda: checked.append(1) or [])
    assert (session.attempted, session.failed) == (1, 1)
    assert checked == []
    assert "exit code 2" in session.failures[0]


def test_peak_rss_is_the_childs_own(tmp_path):
    # a child's ru_maxrss would start from the resident set of a forking
    # parent this large
    ballast = bytearray(256 * 2**20)
    ballast[::4096] = b"\x01" * len(ballast[::4096])
    _, rss, code = run.invoke([sys.executable, "-c", "pass"], run.child_env(), tmp_path)
    assert code == 0
    assert rss < 128


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prior-beta-100", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
