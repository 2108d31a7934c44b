"""Working-set bounds.  The incomplete-beta kernel, ingest's checks, a
table's build, its hull and its threshold sums, the plain CSV reader and
its checks before numpy's parse, the header read, the line reader on an
early bad row, a picked read, a report over several columns, the curves
command and the curve writer are traced with tracemalloc in this
process; each compute command's peak resident set is read from os.wait4
in a child and taken over the peak of a child that only imports numpy
and the report module.  Every bound was set from a measurement, with a
margin."""

import codecs
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import row_chunks, run_cli

import hmetric
from hmetric.cli import _write_rows
from hmetric.distributions import BetaWeight
from hmetric.config import EvalConfig
from hmetric.empirical import _PARSE_ROWS, LabeledScores, ingest, read_scores_csv
from hmetric.errors import InputError
from hmetric.hmeasure import _calibrated_coefficients, h_measure_uncertain_priors
from hmetric.report import build_report
from hmetric.thresholds import PooledScoreThresholds, RankUniformClass1, _expected_cdfs

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
    # the two results and the two incomplete betas behind them take 3.2 MB
    # (3.05 MiB), which sets the peak: the continued fraction's blocks of
    # 2**13 points hold less beside the results (measured 3.05 MiB in all;
    # 4.18 with blocks of 2**14 points, 9.4 with blocks of 2**16)
    u = np.sort(np.random.default_rng(0).random(100_000))
    weight = BetaWeight(1.3, 1.7)
    assert _traced_peak(lambda: weight.partial_moments(u)) < 3.5 * MB


def _distinct_column(n: int) -> LabeledScores:
    """n distinct scores with 30% class 1 at random: a table of n groups."""
    rng = np.random.default_rng(8)
    scores = rng.random(n)
    scores.setflags(write=False)
    return ingest(scores, (rng.random(n) < 0.3).astype(np.int8))


def test_ingest_holds_its_masks_one_rule_at_a_time():
    # each rule's mask is taken once and dropped before the labels' copy,
    # so read-only inputs add a few bytes a row: measured 0.38 MB at 1e5
    # rows, where np.isin's label check took 1.15 MB
    rng = np.random.default_rng(9)
    scores, labels = rng.random(100_000), (rng.random(100_000) < 0.3).astype(np.int8)
    for arr in (scores, labels):
        arr.setflags(write=False)
    assert _traced_peak(lambda: ingest(scores, labels)) < 0.5 * MB


def test_table_build_holds_one_mask_beside_the_table():
    # the running class-1 count is written over the sort's index and each
    # sort temporary is dropped once read, so the peak over the table it
    # returns is the group-end mask, a byte a row: measured 0.10 and 0.38
    # MB at 1e5 and 4e5 distinct scores, where the sorted copy, the index
    # and a cumulative count held with the table took 0.86 and 3.43 MB
    for n in (100_000, 400_000):
        data = _distinct_column(n)

        def build():
            data.__dict__.pop("table", None)
            return data.table

        table = build()
        kept = table.u.nbytes + table.cum0.nbytes + table.cum1.nbytes
        assert table.u.size == n
        assert _traced_peak(build) < kept + 2 * n, n


def test_hull_holds_only_masks_beside_its_corners():
    # labels in 8 runs over distinct scores: 4 corners however many groups,
    # so the peak is the corner masks (measured 0.03 MB at 1e5 and 4e5
    # groups with a block's masks at a time; 0.19 and 0.76 MB with the
    # table's), where the class counts diffed from the table took 1.62 and
    # 6.49 MB
    for n in (100_000, 400_000):
        cdfs = ingest(np.arange(n) / n, (np.arange(n) * 8 // n) % 2).table

        def hull():
            cdfs.__dict__.pop("hull", None)
            return cdfs.hull

        assert hull()[0].size == 4
        assert _traced_peak(hull) < 3 * n, n


def test_hull_flat_in_groups_with_random_labels():
    # random labels put a corner at about one group in five: the hull runs
    # over the table a block of groups at a time, feeding the chain each
    # block's corners, so the peak stays put (measured 0.28 and 0.29 MB at
    # 1e5 and 4e5 groups, where every corner's Python ints at once took
    # 1.71 and 6.88 MB)
    peaks = []
    for n in (100_000, 400_000):
        cdfs = _distinct_column(n).table

        def hull():
            cdfs.__dict__.pop("hull", None)
            return cdfs.hull

        peaks.append(_traced_peak(hull))
    assert peaks[1] < peaks[0] + 64 * 1024, peaks
    assert peaks[1] < MB / 2, peaks


@pytest.mark.parametrize("law", [PooledScoreThresholds(), RankUniformClass1()],
                         ids=["pooled", "class1-ranks"])
def test_threshold_sums_flat_in_groups(law):
    # the atom sums run over the table's blocks of groups: measured 0.75
    # (pooled) and 0.63 MB (class-1 ranks) at 1e5 and 4e5 groups, where
    # the table-long counts and products took 2.29 and 9.16 MB (pooled)
    cdfs = [_distinct_column(n).table for n in (100_000, 400_000)]
    peaks = [_traced_peak(partial(_expected_cdfs, law, table)) for table in cdfs]
    assert peaks[1] < peaks[0] + 64 * 1024, peaks
    assert peaks[1] < MB, peaks


@pytest.mark.parametrize("mode", ["calibrated", "optimal"])
def test_prior_path_flat_in_draws(mode):
    # the draws run one chunk at a time, so the working set is one chunk's
    # whatever the draw count: measured 13.2 MB calibrated (the node sums')
    # and 13.5 MB optimal at both counts on 2e4 rows, where the optimal
    # loss at a whole chunk at once took 54.7 MB; a chunk's ratio array
    # held into the next chunk's batch added 0.13 MB
    _, columns, labels = read_scores_csv("plain.csv", content=_scores_csv(20_000, 5))
    data = ingest(columns["model_a"], labels)
    peaks = [_traced_peak(lambda: h_measure_uncertain_priors(data, EvalConfig(
        prior="beta", seed=1, outer_samples=draws, threshold_mode=mode)))
        for draws in (20_000, 80_000)]
    assert peaks[1] < peaks[0] + 64 * 1024, peaks


def _convex_roc(steps: int) -> LabeledScores:
    """Scores whose ROC path turns at every group, so that each group is a
    hull vertex: every primitive step (dx, dy) with 1 <= dx, dy <= steps,
    taken by increasing slope."""
    from math import gcd

    turns = sorted((dy / dx, dx, dy) for dx in range(1, steps + 1)
                   for dy in range(1, steps + 1) if gcd(dx, dy) == 1)
    counts = np.array([(dx, dy) for _, dx, dy in turns])
    scores = np.repeat((np.arange(len(turns)) + 0.5) / len(turns), counts.sum(axis=1))
    labels = np.concatenate([[0] * dx + [1] * dy for dx, dy in counts])
    return ingest(scores, labels)


def test_optimal_prior_flat_in_hull_size():
    # the optimal loss takes its draws in sub-blocks of at most _RUN_BLOCK
    # (draws x hull breaks) elements, so its working set does not grow with
    # the hull: measured 13.4 and 13.5 MB at 257 and 981 breaks over 1,000
    # draws, where the whole chunk at once took 21.2 and 52.5 MB
    datasets = [_convex_roc(20), _convex_roc(40)]
    assert [d.table.hull[0].size + 1 for d in datasets] == [257, 981]
    config = EvalConfig(prior="beta", seed=1, outer_samples=1000, threshold_mode="optimal")
    peaks = [_traced_peak(lambda: h_measure_uncertain_priors(data, config))
             for data in datasets]
    assert peaks[1] < peaks[0] + 512 * 1024, peaks


def test_calibrated_node_sums_flat_in_scores():
    # the node sums read the table a block of groups at a time, ends and
    # all: measured 14.79 and 14.83 MB on 2e4 and 8e4 distinct scores,
    # where copying the groups strictly inside (0, 1) took 15.54 and 17.92
    rng = np.random.default_rng(7)
    peaks = []
    for n in (20_000, 80_000):
        scores = np.concatenate([[0.0] * 5, rng.random(n - 10), [1.0] * 5])
        cdfs = ingest(scores, (rng.random(n) < 0.4).astype(int)).table
        assert cdfs.u.size > n - 10 and cdfs.u[0] == 0.0 and cdfs.u[-1] == 1.0
        peaks.append(_traced_peak(lambda: _calibrated_coefficients(cdfs)))
    assert peaks[1] < peaks[0] + 256 * 1024, peaks


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


@pytest.mark.parametrize("mode", ["calibrated", "optimal"])
def test_beta_prior_report_holds_one_table_at_a_time(mode):
    # under a beta prior each column is reduced to what the draws read (its
    # coefficients or its hull) once its other metrics are computed, and its
    # table is dropped before the next column's is built: measured 15.3 MB
    # calibrated and 4.7 MB optimal at both counts on 2e4 rows, where holding
    # every column's table added 0.48 MB per column
    rng = np.random.default_rng(6)
    n = 20_000
    labels = (rng.random(n) < 0.3).astype(np.int8)
    columns = {f"model_{k}": rng.random(n) for k in range(4)}
    for scores in columns.values():
        scores.setflags(write=False)
    config = EvalConfig(prior="beta", seed=1, outer_samples=2000, threshold_mode=mode)
    peaks = [_traced_peak(lambda: build_report(dict(list(columns.items())[:count]), labels,
                                               config, data_fingerprint="sha256:0"))
             for count in (2, 4)]
    assert peaks[1] < peaks[0] + 64 * 1024, peaks


def test_plain_csv_read_does_not_copy_the_body():
    n = 100_000
    arrays = n * 2 * 8 + n
    plain = _scores_csv(n, 1)
    for content in (plain, codecs.BOM_UTF8 + plain):
        peak = _traced_peak(lambda: read_scores_csv("plain.csv", content=content))
        # the two score columns and the labels, and one block's bytes and
        # table (1.18 MB as measured), with or without a byte-order mark: a
        # copy of the body would add its 2.8 MB (2.73 MB measured when the
        # mark was stripped by copying the rest)
        assert peak < arrays + 1.5 * MB, (content[:3], peak - arrays)


def test_plain_csv_read_flat_in_rows():
    # numpy parses a block of about _PARSE_ROWS rows at a time into the kept
    # columns, so over those and the labels the read holds one block's
    # bytes and table: measured 1.18 MB at 1e5 and at 4e5 rows, where the
    # whole table took 2.29 and 9.16 MB
    peaks = []
    for n in (100_000, 400_000):
        content = _scores_csv(n, 1)
        arrays = n * 2 * 8 + n
        peaks.append(_traced_peak(lambda: read_scores_csv("plain.csv", content=content)) - arrays)
    assert peaks[1] < peaks[0] + 64 * 1024, peaks
    assert peaks[1] < 1.5 * MB, peaks


def test_plain_csv_checks_copy_nothing_before_the_parse():
    # the routing checks run before numpy's parse, so a temporary of theirs
    # the size of the body (2.8 MB) would be gone before the first block's
    # table; the peak up to that block's parse, over the kept columns and
    # labels allocated for the rows and the copy of the block's bytes that
    # numpy reads, shows it (measured at 1.1 KB over those, with or without
    # a byte-order mark; the header read's 8 KiB chunk is gone by then)
    n = 100_000
    loadtxt, plain = np.loadtxt, _scores_csv(n, 1)
    arrays = n * 2 * 8 + n + len(plain) * _PARSE_ROWS // n
    for content in (plain, codecs.BOM_UTF8 + plain):
        at_parse = []

        def traced_loadtxt(*args, **kwargs):
            if tracemalloc.is_tracing():
                at_parse.append(tracemalloc.get_traced_memory()[1])
            return loadtxt(*args, **kwargs)

        with mock.patch("numpy.loadtxt", traced_loadtxt):
            _traced_peak(lambda: read_scores_csv("plain.csv", content=content))
        assert len(at_parse) > 1 and at_parse[0] < arrays + 64 * 1024, (
            content[:3], at_parse[0] - arrays)


def test_header_read_leaves_the_rows_alone():
    content = _scores_csv(100_000, 4)
    seen = []

    class Picked(Exception):
        pass

    def pick(names):
        seen.append(names)
        raise Picked

    def read():
        try:
            read_scores_csv("plain.csv", content=content, pick=pick)
        except Picked:
            pass

    peak = _traced_peak(read)
    # the header line and the rest of the one 8 KiB chunk read with it;
    # the 2.8 MB body, decoded, would take 2.8 MB more
    assert peak < 64 * 1024
    assert seen == [["model_a", "model_b"]] * 2


def test_line_reader_reports_an_early_bad_row_without_decoding_the_body():
    # a quoted header sends the file to the line reader, which meets the
    # bad row in the first 8 KiB chunk: measured 28 KB, where decoding the
    # ASCII body whole first took 2.7 MB
    lines = _scores_csv(100_000, 5).split(b"\n")
    lines[0], lines[2] = b'"label","model_a","model_b"', b"1,oops,0.5"
    content = b"\n".join(lines)

    def read():
        with pytest.raises(InputError, match=r"^quoted\.csv:3: non-numeric score 'oops'"):
            read_scores_csv("quoted.csv", content=content)

    assert _traced_peak(read) < MB


def test_picked_read_copies_only_the_kept_columns():
    n = 100_000
    content = _scores_csv(n, 1)
    both = _traced_peak(lambda: read_scores_csv("plain.csv", content=content))
    one = _traced_peak(lambda: read_scores_csv("plain.csv", content=content,
                                               pick=lambda names: ["model_a"]))
    # the 0.8 MB copy of model_b, and nothing else, is left out
    assert abs(both - one - n * 8) < n * 8 // 10, (both, one)


def test_curves_release_the_file_bytes_once_parsed(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_bytes(_scores_csv(100_000, 3))
    args = ["curves", str(path), "--column", "model_a", "--out-dir", str(tmp_path / "curves")]

    def curves():
        assert run_cli(args).exit_code == 0

    # measured 7.1 MB; holding the 2.6 MB of bytes through the curves took 9.7 MB
    assert _traced_peak(curves) < 8 * MB


def test_curves_flat_in_resolution(fixtures_dir, tmp_path):
    # the loss and weight curves are computed and written a slice of the
    # grid at a time: measured 0.29 MB at 4096 and 65,536 points, where
    # the whole grid at once took 0.39 and 5.1 MB
    golden4 = str(fixtures_dir / "golden4.csv")

    def curves(resolution):
        args = ["curves", golden4, "--resolution", str(resolution), "--out-dir", str(tmp_path)]
        assert run_cli(args).exit_code == 0

    peaks = [_traced_peak(partial(curves, resolution)) for resolution in (4096, 65536)]
    assert peaks[1] < peaks[0] + 64 * 1024, peaks


def test_curve_writer_flat_in_rows(tmp_path):
    rng = np.random.default_rng(2)
    peaks = []
    for n in (20_000, 200_000):
        xs, ys = rng.random(n), rng.random(n)
        peaks.append(_traced_peak(
            lambda: _write_rows(tmp_path / "roc.csv", "fpr,tpr", row_chunks(xs, ys))))
    # 0.72 MB at both sizes, with chunks of 4,096 rows laid out as bytes
    # (0.1 MB with chunks of 1,024 rows formatted value by value); two lists
    # of 2e5 Python floats took 12.8 MB
    assert peaks[1] < peaks[0] + 64 * 1024
    assert peaks[1] < MB


def test_curve_writer_flat_in_rows_with_runs(tmp_path):
    # ROC-shaped: each row steps fpr or tpr, in runs of 3,000 rows, so a
    # run covers whole chunks and each value is formatted once per chunk
    peaks = []
    for n in (20_000, 200_000):
        step1 = (np.arange(n) // 3000) % 2 == 1
        xs, ys = 1.0 - np.cumsum(~step1) / n, 1.0 - np.cumsum(step1) / n
        peaks.append(_traced_peak(
            lambda: _write_rows(tmp_path / "roc.csv", "fpr,tpr", row_chunks(xs, ys))))
    assert peaks[1] < peaks[0] + 64 * 1024
    assert peaks[1] < MB


# Peak resident set over the import floor, in MB, on 1e5 rows: measured
# 6.7 for evaluate and 6.6 for compare (medians of 5), where a whole-file
# parse, a sort's temporaries held with the table, the kernel's blocks of
# 2**14 points and table-long hull and threshold temporaries measured 8.4
# and 8.3 on the same host.  On another host, evaluate, compare and curves
# measured 10.0 each when their budgets were 13.0, 12.4 and 13.0 (20.2,
# 13.1 and 16.5 before the working set was bounded; evaluate and compare
# 13.0 and 12.6 while a report held every column's copy and table at
# once).  On a third host, where evaluate measured 8.7, evaluate --prior
# beta measured 20.8 calibrated and 19.8 optimal (73.6 optimal with each
# chunk's draws taken whole; medians of 3).
RSS_BUDGET_MB = {"evaluate": 8.0, "compare": 8.0, "curves": 13.0,
                 "evaluate-prior-beta": 25.0, "evaluate-prior-beta-optimal": 25.0}

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
        "evaluate-prior-beta": [*cli, "evaluate", str(path), "--prior", "beta", "--seed", "1",
                                "--out", "prior.json"],
        "evaluate-prior-beta-optimal": [*cli, "evaluate", str(path), "--prior", "beta",
                                        "--seed", "1", "--mode", "optimal",
                                        "--out", "prior-optimal.json"],
    }
    excess = {name: peak_rss_mb(*argv) - floor for name, argv in commands.items()}
    assert all(excess[name] < RSS_BUDGET_MB[name] for name in commands), excess
