"""Working-set bounds.  The incomplete-beta kernel, the plain CSV reader,
the header read, a report over several columns, the curves command and
the curve writer are traced with tracemalloc in this process; each
compute command's peak resident set is read from os.wait4 in a child and
taken over the peak of a child that only imports numpy and the report
module.  Every bound was set from a measurement, with a margin."""

import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from conftest import run_cli

import hmetric
from hmetric.cli import _write_csv
from hmetric.distributions import BetaWeight
from hmetric.config import EvalConfig
from hmetric.empirical import ingest, read_scores_csv, score_names
from hmetric.hmeasure import h_measure_uncertain_priors
from hmetric.report import build_report

MB = 1 << 20


def _traced_peak(fn) -> int:
    fn()  # first-use allocations
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _scores_csv(n: int, seed: int) -> bytes:
    """A plain scores file: a 17-digit column and one rounded to 3 decimals."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.3).astype(int)
    a = 1.0 / (1.0 + np.exp(-(rng.standard_normal(n) + 1.5 * (labels - 0.5))))
    b = np.rint(1e3 / (1.0 + np.exp(-(rng.standard_normal(n) + 0.8 * (labels - 0.5))))) / 1e3
    rows = map("{},{!r},{:.3f}\n".format, labels.tolist(), a.tolist(), b.tolist())
    return ("label,model_a,model_b\n" + "".join(rows)).encode("ascii")


def test_partial_moments_working_set():
    # the two results and the two incomplete betas behind them take 3.2 MB;
    # the continued fraction's blocks added 1.1 MB more (measured 4.3 MB
    # in all; 9.7 MB with blocks of 2**16 elements)
    u = np.sort(np.random.default_rng(0).random(100_000))
    weight = BetaWeight(1.3, 1.7)
    assert _traced_peak(lambda: weight.partial_moments(u)) < 6 * MB


@pytest.mark.parametrize("mode", ["calibrated", "optimal"])
def test_prior_path_flat_in_draws(mode):
    # the draws run one chunk at a time, so the working set is one chunk's
    # whatever the draw count: measured 14.0 MB calibrated and 54.7 MB
    # optimal at both counts on 2e4 rows; a chunk's ratio array held into
    # the next chunk's batch added 0.13 MB
    _, columns, labels = read_scores_csv("plain.csv", content=_scores_csv(20_000, 5))
    data = ingest(columns["model_a"], labels)
    peaks = [_traced_peak(lambda: h_measure_uncertain_priors(data, EvalConfig(
        prior="beta", seed=1, outer_samples=draws, threshold_mode=mode)))
        for draws in (20_000, 80_000)]
    assert peaks[1] < peaks[0] + 64 * 1024, peaks


def test_report_holds_one_column_at_a_time():
    # under a fixed prior each column is ingested, measured and dropped
    # before the next one's table is built, and a read-only column is not
    # copied: measured 5.7 MB at both counts on 1e5 rows, where holding
    # every column's copy and table added 3.1 MB per column
    rng = np.random.default_rng(6)
    n = 100_000
    labels = (rng.random(n) < 0.3).astype(np.int8)
    columns = {f"model_{k}": rng.random(n) for k in range(4)}
    for scores in columns.values():
        scores.setflags(write=False)
    config = EvalConfig(prior="fixed", pi0=0.4)
    peaks = [_traced_peak(lambda: build_report(dict(list(columns.items())[:count]), labels,
                                               config, data_fingerprint="sha256:0"))
             for count in (2, 4)]
    assert peaks[1] < peaks[0] + 64 * 1024, peaks


def test_plain_csv_read_does_not_copy_the_body():
    n = 100_000
    content = _scores_csv(n, 1)
    peak = _traced_peak(lambda: read_scores_csv("plain.csv", content=content))
    # the parsed table, the two score columns and the labels: measured as
    # the whole peak, where a copy of the body added its 2.8 MB
    arrays = n * 3 * 8 + n * 2 * 8 + n
    assert peak < arrays + len(content) // 4


def test_header_read_leaves_the_rows_alone():
    content = _scores_csv(100_000, 4)
    peak = _traced_peak(lambda: score_names("plain.csv", content))
    # the header line and the rest of the one 8 KiB chunk read with it;
    # the 2.8 MB body, decoded, would take 2.8 MB more
    assert peak < 64 * 1024
    assert score_names("plain.csv", content) == ["model_a", "model_b"]


def test_curves_release_the_file_bytes_once_parsed(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_bytes(_scores_csv(100_000, 3))
    args = ["curves", str(path), "--column", "model_a", "--out-dir", str(tmp_path / "curves")]

    def curves():
        assert run_cli(args).exit_code == 0

    # measured 7.1 MB; holding the 2.6 MB of bytes through the curves took 9.7 MB
    assert _traced_peak(curves) < 8 * MB


def test_curve_writer_flat_in_rows(tmp_path):
    rng = np.random.default_rng(2)
    peaks = []
    for n in (20_000, 200_000):
        xs, ys = rng.random(n), rng.random(n)
        peaks.append(_traced_peak(partial(_write_csv, tmp_path / "roc.csv", "fpr,tpr", xs, ys)))
    # 0.1 MB at both sizes; two lists of 2e5 Python floats took 12.8 MB
    assert peaks[1] < peaks[0] + 64 * 1024
    assert peaks[1] < MB


def test_curve_writer_flat_in_rows_with_runs(tmp_path):
    # ROC-shaped: each row steps fpr or tpr, in runs of 3,000 rows, so a
    # run covers whole chunks and each value is formatted once per chunk
    peaks = []
    for n in (20_000, 200_000):
        step1 = (np.arange(n) // 3000) % 2 == 1
        xs, ys = 1.0 - np.cumsum(~step1) / n, 1.0 - np.cumsum(step1) / n
        peaks.append(_traced_peak(partial(_write_csv, tmp_path / "roc.csv", "fpr,tpr", xs, ys)))
    assert peaks[1] < peaks[0] + 64 * 1024
    assert peaks[1] < MB


# Peak resident set over the import floor, in MB, on 1e5 rows: measured
# 10.0 for evaluate, 10.0 for compare and 10.0 for curves (20.2, 13.1 and
# 16.5 before the working set was bounded; evaluate and compare 13.0 and
# 12.6 while a report held every column's copy and table at once).
RSS_BUDGET_MB = {"evaluate": 13.0, "compare": 12.4, "curves": 13.0}

# A child's peak resident set starts from that of the process that forked
# it, so each command starts from this small process rather than from the
# test run's; it prints the command's exit code and peak in kB.
LAUNCHER = """\
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
def test_commands_peak_rss_within_budget(tmp_path):
    src = str(Path(hmetric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("HMETRIC_LOG", None)
    path = tmp_path / "scores.csv"
    path.write_bytes(_scores_csv(100_000, 3))

    def peak_rss_mb(*argv):
        out = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, *argv], env=env,
                             cwd=tmp_path, capture_output=True, text=True, check=True)
        code, peak_kb = out.stdout.split()
        assert code == "0", out.stderr
        return int(peak_kb) / 1024.0

    floor = peak_rss_mb("-c", "import numpy, hmetric.report")
    cli = ["-m", "hmetric.cli"]
    commands = {
        "evaluate": [*cli, "evaluate", str(path), "--out", "evaluate.json"],
        "compare": [*cli, "compare", str(path), "--columns", "model_a,model_b",
                    "--mode", "optimal", "--screen", "0.1,0.25", "--u-dist", "pooled",
                    "--out", "compare.json"],
        "curves": [*cli, "curves", str(path), "--column", "model_a", "--out-dir", "curves"],
    }
    excess = {name: peak_rss_mb(*argv) - floor for name, argv in commands.items()}
    assert all(excess[name] < RSS_BUDGET_MB[name] for name in commands), excess
