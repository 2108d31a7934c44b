import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import run_cli
from jsonschema import validate

import hmetric
from hmetric import REPORT_SCHEMA, empirical
from hmetric.cli import _COMMANDS, CSV_CHUNK, MAX_RESOLUTION, _write_csv
from hmetric.config import BETA_PRIOR_DEFAULTS, EvalConfig
from hmetric.loss import CURVE_GRID

GOLDEN_H_CAL = 0.33054877872925612091


def _strict_loads(text):
    """json.loads that refuses NaN and the infinities, which are not JSON."""

    def refuse(constant):
        raise ValueError(f"report holds {constant}, which is not JSON")

    return json.loads(text, parse_constant=refuse)


def _read_report(path):
    return _strict_loads(path.read_text(encoding="utf-8"))


class TestEvaluate:
    def test_perfect_fixture(self, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli(["evaluate", str(fixtures_dir / "perfect.csv"), "--out", str(out)])
        assert result.exit_code == 0, result.stderr
        report = _read_report(out)
        validate(report, REPORT_SCHEMA)
        for col in report["columns"].values():
            assert col["h"]["h"] == 1.0
            assert col["auc"]["auc"] == 1.0

    def test_constant_at_prior_fixture(self, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli([
            "evaluate", str(fixtures_dir / "constant_at_prior.csv"), "--out", str(out),
        ])
        assert result.exit_code == 0, result.stderr
        report = _read_report(out)
        assert abs(report["columns"]["score"]["h"]["h"]) <= 1e-10

    def test_golden_fixture_matches_oracle(self, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli([
            "evaluate", str(fixtures_dir / "golden4.csv"), "--screen", "0.25,0.5", "--u-dist",
            "pooled", "--u-dist", "point:0.5", "--out", str(out),
        ])
        assert result.exit_code == 0, result.stderr
        report = _read_report(out)
        validate(report, REPORT_SCHEMA)
        col = report["columns"]["score"]
        assert col["h"]["h"] == pytest.approx(GOLDEN_H_CAL, rel=1e-10)
        assert col["auc"]["auc"] == 0.75
        assert len(col["screening"]) == 2
        assert len(col["independent_threshold_losses"]) == 2

    def test_stdout_output(self, fixtures_dir):
        result = run_cli(["evaluate", str(fixtures_dir / "golden4.csv")])
        assert result.exit_code == 0
        report = _strict_loads(result.stdout)
        assert report["schema_version"] == "1"

    def test_malformed_csv_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,s\n0,0.1\n1,\n", encoding="utf-8")
        result = run_cli(["evaluate", str(bad)])
        assert result.exit_code == 2
        assert "bad.csv:3" in result.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_score_exit_2_with_line(self, tmp_path, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"label,a\n0,0.1\n1,{value}\n", encoding="utf-8")
        result = run_cli(["evaluate", str(bad)])
        assert result.exit_code == 2
        assert f"bad.csv:3: non-finite score '{value}' in column 'a'" in result.stderr

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tabulated_weight_exit_2_with_line(
        self, fixtures_dir, tmp_path, value
    ):
        wpath = tmp_path / "w.csv"
        wpath.write_text(f"c,density\n0.1,1.0\n0.2,{value}\n", encoding="utf-8")
        result = run_cli([
            "evaluate", str(fixtures_dir / "golden4.csv"), "--weight", f"tabulated:{wpath}",
        ])
        assert result.exit_code == 2
        assert f"w.csv:3: non-finite value '{value}' in column 'density'" in result.stderr

    def test_non_utf8_tabulated_weight_exit_2_with_line(self, fixtures_dir, tmp_path):
        wpath = tmp_path / "w.csv"
        wpath.write_bytes(b"c,density\n0.1,\xff1.0\n")
        result = run_cli([
            "evaluate", str(fixtures_dir / "golden4.csv"), "--weight", f"tabulated:{wpath}",
        ])
        assert result.exit_code == 2
        assert "w.csv:2: not UTF-8 text" in result.stderr

    def test_point_mass_outside_unit_interval_exit_3(self, fixtures_dir):
        result = run_cli(["evaluate", str(fixtures_dir / "golden4.csv"), "--u-dist", "point:1.5"])
        assert result.exit_code == 3
        assert "point-mass threshold must lie in [0, 1]" in result.stderr

    def test_missing_file_exit_2(self, tmp_path):
        result = run_cli(["evaluate", str(tmp_path / "nope.csv")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_fingerprint_is_of_the_parsed_bytes(self, monkeypatch, tmp_path, command):
        import hashlib

        import hmetric.cli as cli

        path = tmp_path / "scores.csv"
        parsed = b"label,a,b\n0,0.1,0.2\n1,0.9,0.8\n"
        path.write_bytes(parsed)
        read = cli.read_scores_csv

        def read_then_rewrite(*args, **kwargs):
            result = read(*args, **kwargs)
            path.write_bytes(b"label,a,b\n0,0.3,0.2\n1,0.7,0.8\n")
            return result

        monkeypatch.setattr(cli, "read_scores_csv", read_then_rewrite)
        extra = ["--columns", "a,b"] if command == "compare" else []
        result = run_cli([command, str(path), *extra])
        assert result.exit_code == 0, result.stderr
        fingerprint = _strict_loads(result.stdout)["provenance"]["data_fingerprint"]
        assert fingerprint == "sha256:" + hashlib.sha256(parsed).hexdigest()

    def test_config_error_exit_3(self, fixtures_dir):
        result = run_cli(["evaluate", str(fixtures_dir / "golden4.csv"), "--mode", "bogus"])
        assert result.exit_code == 3

    def test_mc_without_seed_exit_3(self, fixtures_dir):
        result = run_cli(["evaluate", str(fixtures_dir / "golden4.csv"), "--prior", "beta"])
        assert result.exit_code == 3
        assert "seed" in result.stderr

    @pytest.mark.parametrize("samples", ["1", "0"])
    def test_fewer_than_two_mc_samples_exit_3(self, fixtures_dir, samples):
        # a standard error needs two draws; one used to be reported as NaN
        result = run_cli([
            "evaluate", str(fixtures_dir / "golden4.csv"), "--prior", "beta", "--seed", "7",
            "--mc-samples", samples,
        ])
        assert result.exit_code == 3, result.stderr
        assert f"outer_samples must be at least 2, got {samples}" in result.stderr

    def test_prior_beta_report_is_strict_json_with_heavy_tail(self, fixtures_dir):
        result = run_cli([
            "evaluate", str(fixtures_dir / "golden4.csv"), "--prior", "beta", "--seed", "11",
        ])
        assert result.exit_code == 0, result.stderr
        h = _strict_loads(result.stdout)["columns"]["score"]["h"]
        assert h["mc_stderr"] > 0.0
        assert any(w.startswith("heavy_tail:") for w in h["warnings"])

    def test_mc_samples_sets_prior_draws(self, fixtures_dir):
        # under --prior beta the flag is the number of prior draws
        args = ["evaluate", str(fixtures_dir / "golden4.csv"), "--prior", "beta", "--seed", "3"]
        default, fewer = (_strict_loads(run_cli(args + extra).stdout)
                          for extra in ([], ["--mc-samples", "2000"]))
        assert fewer["provenance"]["config"]["outer_samples"] == 2000
        assert fewer["columns"]["score"]["h"]["h"] != default["columns"]["score"]["h"]["h"]

    @pytest.mark.parametrize("extra", [["--prior", "beta"], []])
    def test_negative_seed_exit_3(self, fixtures_dir, extra):
        # without a beta prior no seed is read, whatever its sign
        result = run_cli(["evaluate", str(fixtures_dir / "golden4.csv"), *extra, "--seed", "-1"])
        assert result.exit_code == 3, result.stderr
        assert ("seed must be a non-negative integer, got -1" if extra
                else "seed applies to a beta prior only, not to 'empirical'") in result.stderr

    def test_single_class_exit_4(self, tmp_path):
        degenerate = tmp_path / "one_class.csv"
        degenerate.write_text("label,s\n0,0.1\n0,0.5\n", encoding="utf-8")
        result = run_cli(["evaluate", str(degenerate)])
        assert result.exit_code == 4

    def test_determinism_modulo_timestamp(self, fixtures_dir, tmp_path):
        args = [
            "evaluate", str(fixtures_dir / "golden4.csv"),
            "--prior", "beta", "--mc-samples", "4000", "--seed", "44",
        ]
        r1 = run_cli(args + ["--out", str(tmp_path / "a.json")])
        r2 = run_cli(args + ["--out", str(tmp_path / "b.json")])
        assert r1.exit_code == r2.exit_code == 0
        a = _read_report(tmp_path / "a.json")
        b = _read_report(tmp_path / "b.json")
        a["provenance"].pop("timestamp")
        b["provenance"].pop("timestamp")
        assert a == b

    def test_config_echo_keys_are_pinned(self, fixtures_dir):
        # a knob added to or dropped from the config shows up in this list
        result = run_cli(["evaluate", str(fixtures_dir / "golden4.csv")])
        assert result.exit_code == 0, result.stderr
        assert sorted(_strict_loads(result.stdout)["provenance"]["config"]) == [
            "normalization", "outer_samples", "pi0", "prior", "prior_alpha", "prior_beta",
            "screen_proportions", "seed", "threshold_mode", "u_dists", "weight",
            "weight_alpha", "weight_beta", "weight_path",
        ]

    def test_normalization_flag(self, tmp_path):
        wide = tmp_path / "wide.csv"
        wide.write_text("label,s\n0,-3.0\n0,-1.0\n1,2.0\n1,5.0\n", encoding="utf-8")
        assert run_cli(["evaluate", str(wide)]).exit_code == 2
        result = run_cli(["evaluate", str(wide), "--normalize", "minmax"])
        assert result.exit_code == 0

    def test_log_env_var(self, fixtures_dir, monkeypatch):
        monkeypatch.setenv("HMETRIC_LOG", "debug")
        result = run_cli(["evaluate", str(fixtures_dir / "golden4.csv")])
        assert result.exit_code == 0

    @pytest.mark.parametrize("value", ["basic_format", "bogus", "debug"])
    def test_log_env_var_names_a_level_or_means_warning(self, monkeypatch, value):
        # logging.BASIC_FORMAT is a format string, not a level
        seen = {}
        monkeypatch.setenv("HMETRIC_LOG", value)
        monkeypatch.setattr(logging, "basicConfig", lambda **kw: seen.update(kw))
        hmetric.cli._setup_logging()
        assert seen == {"level": logging.DEBUG if value == "debug" else logging.WARNING}

    def test_fixed_prior_and_tabulated_weight(self, fixtures_dir, tmp_path):
        grid = np.linspace(1e-4, 1 - 1e-4, 2048)
        dens = 6.0 * grid * (1 - grid)
        dens /= np.trapezoid(dens, grid)
        wpath = tmp_path / "w.csv"
        wpath.write_text(
            "c,density\n" + "\n".join(f"{c:.17g},{d:.17g}" for c, d in zip(grid, dens)),
            encoding="utf-8",
        )
        out = tmp_path / "report.json"
        result = run_cli([
            "evaluate", str(fixtures_dir / "golden4.csv"), "--weight", f"tabulated:{wpath}",
            "--prior", "fixed", "--pi0", "0.4", "--out", str(out),
        ])
        assert result.exit_code == 0, result.stderr
        report = _read_report(out)
        col = report["columns"]["score"]
        assert col["h"]["weight_used"]["kind"] == "tabulated"
        assert col["h"]["prior_used"] == {"kind": "fixed", "pi0": 0.4}


class TestCompare:
    def test_rank_disagreement_flag(self, fixtures_dir, tmp_path):
        out = tmp_path / "cmp.json"
        result = run_cli([
            "compare", str(fixtures_dir / "rank_disagreement.csv"), "--columns", "model_a,model_b",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.stderr
        report = _read_report(out)
        validate(report, REPORT_SCHEMA)
        assert report["comparison"]["rank_disagreement"] is True
        assert report["comparison"]["ranking_by_auc"] == ["model_a", "model_b"]
        assert report["comparison"]["ranking_by_h"] == ["model_b", "model_a"]

    def test_duplicate_column_agrees(self, fixtures_dir, tmp_path):
        out = tmp_path / "cmp.json"
        result = run_cli([
            "compare", str(fixtures_dir / "perfect.csv"), "--columns", "score_a,score_b", "--out",
            str(out),
        ])
        assert result.exit_code == 0, result.stderr
        report = _read_report(out)
        assert report["comparison"]["rank_disagreement"] is False

    def test_missing_column_exit_3(self, fixtures_dir):
        result = run_cli([
            "compare", str(fixtures_dir / "golden4.csv"), "--columns", "score,ghost",
        ])
        assert result.exit_code == 3
        assert "ghost" in result.stderr

    def test_repeated_column_exit_3(self, fixtures_dir):
        result = run_cli([
            "compare", str(fixtures_dir / "rank_disagreement.csv"), "--columns",
            "model_a,model_b,model_a",
        ])
        assert result.exit_code == 3
        assert "score columns listed more than once: model_a" in result.stderr

    def test_single_column_exit_3(self, fixtures_dir):
        result = run_cli(["compare", str(fixtures_dir / "golden4.csv"), "--columns", "score"])
        assert result.exit_code == 3


class TestCurves:
    def test_perfect_fixture_zero_loss_curve(self, fixtures_dir, tmp_path):
        result = run_cli([
            "curves", str(fixtures_dir / "perfect.csv"), "--column", "score_a", "--out-dir",
            str(tmp_path),
        ])
        assert result.exit_code == 0, result.stderr
        rows = (tmp_path / "loss_curve.csv").read_text().strip().splitlines()
        assert rows[0] == "c,min_loss"
        values = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.all(values == 0.0)

    def test_uniform_weight_density_one(self, fixtures_dir, tmp_path):
        result = run_cli([
            "curves", str(fixtures_dir / "golden4.csv"), "--weight", "beta", "--alpha", "1",
            "--beta", "1", "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 0, result.stderr
        rows = (tmp_path / "weight.csv").read_text().strip().splitlines()
        assert rows[0] == "c,density"
        dens = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.allclose(dens, 1.0)

    def test_golden_curves_match_recomputation(self, fixtures_dir, tmp_path):
        result = run_cli(["curves", str(fixtures_dir / "golden4.csv"), "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.stderr
        from hmetric import ingest, min_loss
        from hmetric.empirical import empirical_cdfs, empirical_priors

        data = ingest([0.1, 0.4, 0.3, 0.9], [0, 0, 1, 1])
        priors, cdfs = empirical_priors(data), empirical_cdfs(data)
        rows = (tmp_path / "loss_curve.csv").read_text().strip().splitlines()[1:]
        for row in rows[:: len(rows) // 37]:
            c, v = (float(x) for x in row.split(","))
            assert v == pytest.approx(min_loss(c, priors, cdfs, "calibrated"), abs=1e-9)

        roc_rows = (tmp_path / "roc.csv").read_text().strip().splitlines()
        assert roc_rows[0] == "fpr,tpr"
        # thresholds 0.1, 0.3, 0.4, 0.9 in order
        expected = [(0.5, 1.0), (0.5, 0.5), (0.0, 0.5), (0.0, 0.0)]
        got = [tuple(float(x) for x in r.split(",")) for r in roc_rows[1:]]
        assert got == expected

    @pytest.mark.parametrize("tied", [False, True])
    def test_csvs_match_csv_module_rendering(self, fixtures_dir, tmp_path, tied):
        import csv
        import io

        from hmetric import default_weight, empirical_cdfs, empirical_priors, ingest, loss_curve

        path = fixtures_dir / "golden4.csv"
        if tied:
            path = tmp_path / "tied.csv"
            path.write_text("label,s\n" + "".join(
                f"{k % 3 % 2},{(k % 7) / 8}\n" for k in range(40)), encoding="utf-8")
        result = run_cli(["curves", str(path), "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.stderr

        table = np.loadtxt(path, delimiter=",", skiprows=1)
        data = ingest(table[:, 1], table[:, 0].astype(int))
        priors, cdfs = empirical_priors(data), empirical_cdfs(data)
        curve = loss_curve(priors, cdfs, grid_size=4096)
        expected = {
            "loss_curve.csv": (["c", "min_loss"], curve.grid, curve.loss),
            "weight.csv": (["c", "density"], curve.grid,
                           default_weight(priors).density(curve.grid)),
            "roc.csv": (["fpr", "tpr"], 1.0 - cdfs.cum0 / cdfs.n0, 1.0 - cdfs.cum1 / cdfs.n1),
        }
        for name, (header, xs, ys) in expected.items():
            text = io.StringIO(newline="")
            writer = csv.writer(text)
            writer.writerow(header)
            writer.writerows((f"{x:.10g}", f"{y:.10g}") for x, y in zip(xs, ys))
            assert (tmp_path / name).read_bytes() == text.getvalue().encode("utf-8"), name
        assert tied == (cdfs.u.size < data.n)

    def test_beta_prior_exit_3_names_the_prior(self, fixtures_dir, tmp_path):
        # the message is about the prior, not about the seed that a beta
        # prior needs in a report
        result = run_cli([
            "curves", str(fixtures_dir / "golden4.csv"), "--prior", "beta", "--out-dir",
            str(tmp_path),
        ])
        assert result.exit_code == 3
        assert "curves need a concrete prior; use empirical or fixed" in result.stderr
        assert "seed" not in result.stderr

    @pytest.mark.parametrize("n", [0, 1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1,
                                   2 * CSV_CHUNK + 3])
    def test_csv_rows_across_chunks(self, tmp_path, n):
        rng = np.random.default_rng(n)
        xs, ys = rng.random(n), rng.random(n) ** 9
        special = [0.0, 1.0, 5e-324, 1e-300, 1.0 - 2.0**-53, 0.1, 1e10 / 3]
        xs[:len(special)] = special[:n]
        _write_csv(tmp_path / "curve.csv", "x,y", xs, ys)
        want = "x,y\r\n" + "".join(
            "{:.10g},{:.10g}\r\n".format(x, y) for x, y in zip(xs.tolist(), ys.tolist()))
        assert (tmp_path / "curve.csv").read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("runs", [
        [1] * (2 * CSV_CHUNK + 3),  # tpr holds for every row, over whole chunks
        [CSV_CHUNK - 1, 1, CSV_CHUNK + 1, 1, 2, 1, 3],
        [3, 3 * CSV_CHUNK, 1, 1, 1, 1, 5],  # fpr holds over whole chunks
        [CSV_CHUNK + 1] * 7,  # every chunk boundary inside a run
    ])
    def test_csv_rows_with_runs_across_chunks(self, tmp_path, runs):
        # ROC-shaped columns: each row moves one coordinate, so fpr holds
        # through a run while tpr steps, and tpr holds where fpr steps
        levels = np.array([1.0, 1.0 - 2.0**-53, 0.1, 5e-324, 0.0, -0.0, 1e10 / 3])
        run = np.repeat(np.arange(len(runs)), runs)
        steps = np.cumsum(np.r_[False, run[1:] == run[:-1]])
        xs, ys = levels[run % levels.size], levels[steps % levels.size]
        _write_csv(tmp_path / "roc.csv", "fpr,tpr", xs, ys)
        want = "fpr,tpr\r\n" + "".join(
            "{:.10g},{:.10g}\r\n".format(x, y) for x, y in zip(xs.tolist(), ys.tolist()))
        assert (tmp_path / "roc.csv").read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("column", ["fine", "coarse"])
    def test_roc_rows_over_chunks_with_shared_scores(self, tmp_path, column):
        rng = np.random.default_rng(19)
        labels = (rng.random(5000) < 0.3).astype(int)
        fine = 1.0 / (1.0 + np.exp(-(rng.standard_normal(5000) + labels)))
        coarse = np.round(fine, 2)  # about 100 scores, each held by both classes
        path = tmp_path / "scores.csv"
        path.write_text("label,fine,coarse\n" + "".join(
            f"{y},{f:.17g},{c:.2f}\n" for y, f, c in zip(labels, fine, coarse)), encoding="utf-8")
        result = run_cli([
            "curves", str(path), "--column", column, "--out-dir", str(tmp_path / "curves"),
        ])
        assert result.exit_code == 0, result.stderr

        scores = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1 + (column == "coarse"))
        u, group = np.unique(scores, return_inverse=True)
        assert (u.size > CSV_CHUNK) == (column == "fine")
        rows = ["fpr,tpr\r\n"]
        cum0 = np.cumsum(np.bincount(group[labels == 0], minlength=u.size))
        cum1 = np.cumsum(np.bincount(group[labels == 1], minlength=u.size))
        fpr, tpr = 1.0 - cum0 / cum0[-1], 1.0 - cum1 / cum1[-1]
        rows += ["{:.10g},{:.10g}\r\n".format(x, y) for x, y in zip(fpr.tolist(), tpr.tolist())]
        assert (tmp_path / "curves" / "roc.csv").read_bytes() == "".join(rows).encode("utf-8")

    @pytest.mark.parametrize("resolution,rows", [([], 4096), (["--resolution", "1024"], 1024)])
    def test_resolution_sets_the_curve_grid(self, fixtures_dir, tmp_path,
                                            resolution, rows):
        result = run_cli([
            "curves", str(fixtures_dir / "golden4.csv"), *resolution, "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 0, result.stderr
        for name in ("loss_curve.csv", "weight.csv"):
            assert len((tmp_path / name).read_text().splitlines()) == rows + 1

    def test_resolution_below_floor_exit_3(self, fixtures_dir, tmp_path):
        result = run_cli([
            "curves", str(fixtures_dir / "golden4.csv"), "--resolution", "1023", "--out-dir",
            str(tmp_path),
        ])
        assert result.exit_code == 3
        assert "resolution must be at least 1024, got 1023" in result.stderr

    def test_resolution_above_ceiling_exit_3(self, fixtures_dir, tmp_path):
        too_fine = MAX_RESOLUTION + 1
        result = run_cli([
            "curves", str(fixtures_dir / "golden4.csv"), "--resolution", str(too_fine),
            "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 3
        assert f"resolution must be at most {MAX_RESOLUTION}, got {too_fine}" in result.stderr

    def test_multi_column_needs_choice(self, fixtures_dir, tmp_path):
        result = run_cli(["curves", str(fixtures_dir / "perfect.csv"), "--out-dir", str(tmp_path)])
        assert result.exit_code == 3
        assert "--column" in result.stderr


# Column choices the header alone settles, or the arguments alone.
HEADER_REJECTIONS = [
    (["compare", "--columns", "model_a,nope"], "score columns not in the input: nope"),
    (["curves", "--column", "nope"], "score column 'nope' not in the input"),
    (["curves"], "input has 2 score columns; pick one with --column"),
    (["compare", "--columns", "model_a"], "comparison requires at least two score columns"),
    (["compare", "--columns", ","], "comparison requires at least two score columns"),
]


def _reject(tmp_path, path, args):
    argv = [args[0], str(path), *args[1:]]
    if args[0] == "curves":
        argv += ["--out-dir", str(tmp_path / "curves")]
    return run_cli(argv)


@pytest.mark.parametrize("args, message", HEADER_REJECTIONS)
def test_columns_checked_before_a_malformed_row(tmp_path, args, message):
    # a command that parsed the rows first would exit 2 on the third line
    path = tmp_path / "scores.csv"
    path.write_text("label,model_a,model_b\n0,0.1,0.2\n1,oops,0.8\n", encoding="utf-8")
    result = _reject(tmp_path, path, args)
    assert result.exit_code == 3, result.stderr
    assert (result.stdout, result.stderr) == ("", f"error: {message}\n")


@pytest.mark.parametrize("args, message", HEADER_REJECTIONS)
def test_columns_checked_with_no_row_parsed(fixtures_dir, tmp_path, args, message):
    parsed = AssertionError("a row was parsed")
    with mock.patch.object(empirical, "_read_plain", side_effect=parsed), \
            mock.patch.object(empirical, "_read_lines", side_effect=parsed):
        result = _reject(tmp_path, fixtures_dir / "rank_disagreement.csv", args)
    assert result.exit_code == 3, result.stderr
    assert (result.stdout, result.stderr) == ("", f"error: {message}\n")


def test_curves_frees_the_columns_it_does_not_plot(fixtures_dir, tmp_path, monkeypatch):
    import weakref

    import hmetric.cli as cli

    parsed = {}
    read, curve = cli.read_scores_csv, cli.loss_curve

    def reading(*args, **kwargs):
        names, columns, labels = read(*args, **kwargs)
        parsed.update((name, weakref.ref(scores)) for name, scores in columns.items())
        return names, columns, labels

    def plotting(*args, **kwargs):
        assert parsed["model_b"]() is None, "the unplotted column is still alive"
        return curve(*args, **kwargs)

    monkeypatch.setattr(cli, "read_scores_csv", reading)
    monkeypatch.setattr(cli, "loss_curve", plotting)
    result = run_cli([
        "curves", str(fixtures_dir / "rank_disagreement.csv"), "--column", "model_a", "--out-dir",
        str(tmp_path),
    ])
    assert result.exit_code == 0, result.stderr
    assert sorted(parsed) == ["model_a", "model_b"]


SHARED_FLAGS = ["--weight", "--alpha", "--beta", "--prior", "--pi0", "--mode", "--normalize"]
REPORT_FLAGS = ["--mc-samples", "--seed", "--screen", "--u-dist"]


def test_command_flags_are_pinned():
    # each command declares only the flags it reads; a flag added to or
    # dropped from a command shows up in these lists
    flags = {name: [flag for flag, _ in options] for name, (_, options) in _COMMANDS.items()}
    assert flags == {
        "evaluate": [*SHARED_FLAGS, *REPORT_FLAGS, "--out"],
        "compare": ["--columns", *SHARED_FLAGS, *REPORT_FLAGS, "--out"],
        "curves": ["--column", *SHARED_FLAGS, "--resolution", "--out-dir"],
    }
    # the defaults the config fills in, written out in the help
    declared = {flag: kwargs for _, options in _COMMANDS.values() for flag, kwargs in options}
    assert f"[default: {CURVE_GRID}]" in declared["--resolution"]["help"]
    assert (f"[default: {BETA_PRIOR_DEFAULTS['outer_samples']}]"
            in declared["--mc-samples"]["help"])


def test_config_flags_are_config_fields():
    # each config flag is stored under the EvalConfig field it sets, so the
    # commands hand the config every flag that is not their own by name
    own = {"out", "columns", "column", "resolution", "out_dir"}
    fields = set(EvalConfig._fields)
    for name, (_, options) in _COMMANDS.items():
        dests = {kwargs["dest"] for _, kwargs in options} - own
        assert dests <= fields, (name, sorted(dests - fields))


@pytest.mark.parametrize("command,flag", [
    ("curves", ["--seed", "1"]),
    ("curves", ["--screen", "0.1"]),
    ("evaluate", ["--resolution", "2048"]),
])
def test_flag_another_command_reads_is_a_usage_error(fixtures_dir, tmp_path,
                                                     command, flag):
    out = ["--out-dir", str(tmp_path)] if command == "curves" else []
    result = run_cli([command, str(fixtures_dir / "golden4.csv"), *flag, *out])
    assert result.exit_code == 2
    assert "unrecognized arguments" in result.stderr and flag[0] in result.stderr


@pytest.mark.parametrize("args", [
    ["compare", "rank_disagreement.csv", "--col", "model_a,model_b"],
    ["compare", "rank_disagreement.csv", "--columns", "model_a,model_b", "--col", "model_a"],
    ["evaluate", "golden4.csv", "--mo", "optimal"],
])
def test_flag_prefix_is_a_usage_error(fixtures_dir, args):
    # no flag is read by a prefix of its name
    result = run_cli([args[0], str(fixtures_dir / args[1]), *args[2:]])
    assert result.exit_code == 2
    assert result.stdout == "" and args[-2] in result.stderr


@pytest.mark.parametrize("flag,message", [
    (["--prior", "fixed", "--pi0", "-1e-3"], "fixed prior requires pi0 strictly inside (0, 1)"),
    (["--screen", "-0.1"], "screening proportion must lie in (0, 1), got -0.1"),
])
def test_flag_value_may_start_with_a_dash(fixtures_dir, flag, message):
    # the token after a flag is its value, so these reach the config's
    # checks rather than ending as a flag without a value
    result = run_cli(["evaluate", str(fixtures_dir / "golden4.csv"), *flag])
    assert result.exit_code == 3, result.stderr
    assert result.stderr == f"error: {message}\n"


def test_out_forms_write_the_same_report(fixtures_dir, tmp_path):
    # no --out, --out - and --out=PATH
    golden4, path = str(fixtures_dir / "golden4.csv"), tmp_path / "report.json"
    results = [run_cli(["evaluate", golden4, *out]) for out in ([], ["--out", "-"],
                                                                 [f"--out={path}"])]
    assert [r.exit_code for r in results] == [0, 0, 0]
    assert results[2].stdout == ""
    reports = [_strict_loads(text) for text in (results[0].stdout, results[1].stdout,
                                                path.read_text(encoding="utf-8"))]
    for report in reports:
        report["provenance"].pop("timestamp")
    assert reports[0] == reports[1] == reports[2]


def _fresh_interpreter(code: str, *args: str) -> str:
    """The last line code prints in a new interpreter on this package."""
    src = str(Path(hmetric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.integrate is only needed by callable rule-generating weights;
    # every CLI start would otherwise pay for importing it
    code = "import sys, hmetric.cli; print('scipy.integrate' in sys.modules)"
    assert _fresh_interpreter(code) == "False"


def test_callable_weight_rule_leaves_out_scipy():
    # a raw density's moments come from the package's own tanh-sinh rule
    code = ("import sys\nimport numpy as np\nfrom hmetric import rule_from_weight\n"
            "rule = rule_from_weight(lambda c: 1 / (c * (1 - c)))\n"
            "rule.loss0(np.arange(0.001, 1.0, 0.001))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_interpreter(code) == "[]"


NUMERIC_LOADED = "sorted({'numpy', 'scipy'} & set(sys.modules))"


@pytest.mark.parametrize("args", [["--help"], ["evaluate", "--help"]])
def test_help_loads_no_click_logging_config_or_numpy(args):
    # the help is the parser's alone: no command runs, so nothing it
    # configures or computes with loads
    code = ("import sys\nfrom hmetric.cli import main\n"
            "try:\n    main(sys.argv[1:])\nexcept SystemExit as exc:\n"
            "    print(exc.code, sorted({'click', 'logging', 'dataclasses', 'hmetric.config',\n"
            "                            'numpy'} & set(sys.modules)))")
    assert _fresh_interpreter(code, *args) == "0 []"


@pytest.mark.parametrize("args", [
    ["evaluate", "golden4.csv"],
    ["evaluate", "golden4.csv", "--prior", "beta", "--seed", "1"],
    ["compare", "rank_disagreement.csv", "--columns", "model_a,model_b", "--mode", "optimal",
     "--screen", "0.1", "--u-dist", "pooled", "--u-dist", "class1-ranks"],
    ["curves", "golden4.csv", "--out-dir", "{tmp}/curves"],
])
def test_commands_load_no_dataclasses(fixtures_dir, tmp_path, args):
    # the value types are plain slotted classes, so no command pays for
    # dataclasses' import or for compiling the methods it generates
    args = [str(fixtures_dir / a) if a.endswith(".csv") and "{" not in a
            else a.format(tmp=tmp_path) for a in args]
    if args[0] != "curves":
        args += ["--out", str(tmp_path / "report.json")]
    code = ("import sys\nfrom hmetric.cli import main\n"
            "try:\n    main(sys.argv[1:])\nexcept SystemExit as exc:\n"
            "    print(exc.code, 'dataclasses' in sys.modules)")
    assert _fresh_interpreter(code, *args) == "0 False"


@pytest.mark.parametrize("module", ["hmetric", "hmetric.cli"])
def test_import_leaves_out_numpy_and_scipy(module):
    code = f"import sys, {module}; print({NUMERIC_LOADED})"
    assert _fresh_interpreter(code) == "[]"


@pytest.mark.parametrize(
    "args,exit_code",
    [
        (["--help"], 0),
        (["evaluate", "--help"], 0),
        (["evaluate", "golden4.csv", "--mode", "bogus"], 3),
        (["evaluate", "golden4.csv", "--prior", "beta", "--seed", "1", "--weight", "beta",
          "--alpha", "2", "--beta", "2"], 3),
        (["evaluate", "golden4.csv", "--weight", "beta", "--alpha", "nan", "--beta", "2"], 3),
        (["evaluate", "golden4.csv", "--weight", "beta", "--alpha", "2", "--beta", "1e400"], 3),
        (["evaluate", "golden4.csv", "--pi0", "0.3"], 3),
        (["evaluate", "golden4.csv", "--alpha", "5", "--beta", "1"], 3),
        (["evaluate", "golden4.csv", "--seed", "1"], 3),
        (["curves", "golden4.csv", "--resolution", "512", "--out-dir", "."], 3),
        (["evaluate", "golden4.csv", "--weight", "beta", "--alpha", "1e14", "--beta", "1e14"], 3),
        (["evaluate", "golden4.csv", "--weight", "beta", "--alpha", "1e-200", "--beta", "1e-200"],
         3),
        (["curves", "golden4.csv", "--resolution", "99999999999999999999", "--out-dir", "."], 3),
    ],
)
def test_help_and_config_errors_leave_out_numpy_and_scipy(fixtures_dir, args, exit_code):
    args = [str(fixtures_dir / a) if a.endswith(".csv") else a for a in args]
    code = ("import sys\nfrom hmetric.cli import main\n"
            "try:\n    main(sys.argv[1:])\nexcept SystemExit as exc:\n"
            f"    print(exc.code, {NUMERIC_LOADED})")
    assert _fresh_interpreter(code, *args) == f"{exit_code} []"


@pytest.mark.parametrize(
    "args",
    [
        ["evaluate", "golden4.csv"],
        ["evaluate", "golden4.csv", "--weight", "beta", "--alpha", "2", "--beta", "3"],
        ["evaluate", "golden4.csv", "--weight", "tabulated:{tmp}/w.csv"],
        ["evaluate", "golden4.csv", "--prior", "beta", "--seed", "3"],
        ["evaluate", "golden4.csv", "--prior", "beta", "--seed", "3", "--mode", "optimal"],
        ["compare", "rank_disagreement.csv", "--columns", "model_a,model_b"],
        ["curves", "golden4.csv", "--out-dir", "{tmp}/curves"],
    ],
)
def test_compute_commands_leave_out_scipy(fixtures_dir, tmp_path, args):
    # the incomplete beta is the package's own, so no command that
    # computes H, the AUC or the curves loads any part of scipy; the prior's
    # Chebyshev sums need no numpy.polynomial, and a report without threshold
    # laws or screening needs no hmetric.thresholds
    grid = np.linspace(1e-4, 1 - 1e-4, 2048)
    dens = 6.0 * grid * (1 - grid)
    (tmp_path / "w.csv").write_text(
        "c,density\n" + "\n".join(f"{c:.17g},{d / np.trapezoid(dens, grid):.17g}"
                                   for c, d in zip(grid, dens)), encoding="utf-8")
    args = [str(fixtures_dir / a) if a.endswith(".csv") and "{" not in a
            else a.format(tmp=tmp_path) for a in args]
    if args[0] != "curves":
        args += ["--out", str(tmp_path / "report.json")]
    code = ("import sys\nfrom hmetric.cli import main\n"
            "try:\n    main(sys.argv[1:])\nexcept SystemExit as exc:\n"
            "    print(exc.code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "                           or m in ('numpy.polynomial', 'hmetric.thresholds')))")
    assert _fresh_interpreter(code, *args) == "0 []"


REPORT_CODE = ["hashlib", "hmetric.auc", "hmetric.report"]


@pytest.mark.parametrize(
    "args,loaded",
    [
        (["curves", "golden4.csv", "--out-dir", "{tmp}/curves"], []),
        (["evaluate", "golden4.csv", "--out", "{tmp}/report.json"], REPORT_CODE),
        (["compare", "rank_disagreement.csv", "--columns", "model_a,model_b",
          "--out", "{tmp}/report.json"], REPORT_CODE),
    ],
)
def test_only_report_commands_load_report_code(fixtures_dir, tmp_path, args, loaded):
    # curves writes no report, so it skips the AUC, JSON and schema imports
    args = [str(fixtures_dir / a) if a.endswith(".csv") and "{" not in a
            else a.format(tmp=tmp_path) for a in args]
    code = ("import sys\nfrom hmetric.cli import main\n"
            "try:\n    main(sys.argv[1:])\nexcept SystemExit as exc:\n"
            f"    print(exc.code, sorted({{*{REPORT_CODE!r}}} & set(sys.modules)))")
    assert _fresh_interpreter(code, *args) == f"0 {loaded}"
    if loaded:
        validate(_read_report(tmp_path / "report.json"), REPORT_SCHEMA)


def test_load_keeps_names_set_before_it(fixtures_dir, tmp_path):
    # a wrapper set on the module before the numeric names load (as a
    # tracer or a test patch does) is the one the command calls
    code = ("import sys\nimport hmetric.cli as cli\nfrom hmetric.empirical import ingest\n"
            "calls = []\ncli.ingest = lambda *a, **k: calls.append(a) or ingest(*a, **k)\n"
            "try:\n    cli.main(sys.argv[1:])\nexcept SystemExit as exc:\n"
            "    print(exc.code, len(calls))")
    args = ["curves", str(fixtures_dir / "golden4.csv"), "--out-dir", str(tmp_path)]
    assert _fresh_interpreter(code, *args) == "0 1"


def test_unconverged_kernel_exits_2_without_traceback(fixtures_dir):
    # a continued fraction cut at 8 steps stands in for shapes the kernel
    # cannot handle: that is one error line and exit code 2, not a crash
    src = str(Path(hmetric.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys\nfrom hmetric import distributions\nfrom hmetric.cli import main\n"
            "distributions._CF_MAX_STEPS = 8\nmain(sys.argv[1:])")
    args = ["evaluate", str(fixtures_dir / "golden4.csv"), "--weight", "beta",
            "--alpha", "3e4", "--beta", "3e4"]
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.splitlines() == [
        "error: incomplete beta with shapes 30000 and 30000 did not converge in 8 steps"]


@pytest.mark.parametrize("command", [
    ["evaluate"],
    ["compare", "--columns", "model_a,model_b", "--prior", "beta", "--seed", "3"],
])
def test_report_bytes_do_not_depend_on_blas_threads(tmp_path, command):
    # a BLAS product's order of addition follows its thread count, so on
    # these inputs one would move the reports' last digits between 1 and 2
    rng = np.random.default_rng(21)
    n = 20_000
    labels = (rng.random(n) < 0.3).astype(int)
    margins = rng.standard_normal((2, n)) + np.array([[1.5], [0.8]]) * (labels - 0.5)
    path = tmp_path / "scores.csv"
    path.write_text("label,model_a,model_b\n" + "".join(
        map("{},{!r},{!r}\n".format, labels.tolist(), *(1.0 / (1.0 + np.exp(-margins))).tolist())))
    src = str(Path(hmetric.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-m", "hmetric.cli", command[0], str(path),
                              *command[1:]], env=env, capture_output=True, text=True, check=True)
        reports.append(re.sub(r'"timestamp": "[^"]*"', "", out.stdout))
    assert reports[0] == reports[1]


def _module_process(args, cwd, **env):
    """The interpreter run on args (such as -m hmetric.cli ...) in a new
    process with this package first on its path, stdout and stderr piped
    and PYTHONUNBUFFERED unset, so that its output is only what the process
    flushes before it ends; env adds to the environment, a value of None
    removes the variable."""
    src = str(Path(hmetric.__file__).resolve().parents[1])
    full = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    full.pop("PYTHONUNBUFFERED", None)
    for name, value in env.items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    return subprocess.run([sys.executable, *args], cwd=cwd, env=full, capture_output=True)


def _without_timestamp(report: bytes) -> bytes:
    return re.sub(rb'"timestamp": "[^"]*"', b"", report)


def test_piped_report_is_the_written_report(fixtures_dir, tmp_path):
    # the process ends by os._exit: whatever it printed is flushed first
    golden4 = str(fixtures_dir / "golden4.csv")
    piped = _module_process(["-m", "hmetric.cli", "evaluate", golden4], tmp_path,
                            HMETRIC_LOG=None)
    written = _module_process(["-m", "hmetric.cli", "evaluate", golden4, "--out", "r.json"],
                              tmp_path, HMETRIC_LOG=None)
    assert (piped.returncode, written.returncode) == (0, 0), (piped.stderr, written.stderr)
    assert written.stdout == piped.stderr == written.stderr == b""
    assert _without_timestamp(piped.stdout) == _without_timestamp(
        (tmp_path / "r.json").read_bytes())


def test_piped_help_is_the_help(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the help's width
    piped = _module_process(["-m", "hmetric.cli", "--help"], tmp_path, COLUMNS="80")
    assert piped.returncode == 0 and piped.stderr == b""
    assert piped.stdout.decode() == run_cli(["--help"]).stdout


def test_help_with_stdout_closed(tmp_path):
    # with file descriptor 1 closed, sys.stdout is None and argparse writes
    # the help to stderr; the exit has no stdout to flush
    code = ("import os, sys\nos.close(1)\n"
            "os.execv(sys.executable, [sys.executable, '-m', 'hmetric.cli', '--help'])")
    ended = _module_process(["-c", code], tmp_path)
    assert ended.returncode == 0, ended.stderr
    assert ended.stderr.startswith(b"Usage: hmetric")


@pytest.mark.parametrize("rows,args,exit_code", [
    ("label,s\n0,0.1\n1,\n", [], 2),
    ("label,s\n0,0.1\n1,0.5\n", ["--mode", "bogus"], 3),
    ("label,s\n0,0.1\n0,0.5\n", [], 4),
])
def test_module_process_exits_with_one_error_line(tmp_path, rows, args, exit_code):
    path = tmp_path / "scores.csv"
    path.write_text(rows, encoding="utf-8")
    ended = _module_process(["-m", "hmetric.cli", "evaluate", str(path), *args], tmp_path)
    in_process = run_cli(["evaluate", str(path), *args])
    assert ended.returncode == in_process.exit_code == exit_code
    assert ended.stdout == b""
    assert ended.stderr.decode() == in_process.stderr
    assert ended.stderr.startswith(b"error: ") and ended.stderr.count(b"\n") == 1


def test_module_process_logs_when_asked(fixtures_dir, tmp_path):
    ended = _module_process(["-m", "hmetric.cli", "evaluate", str(fixtures_dir / "golden4.csv"),
                             "--out", "r.json"], tmp_path, HMETRIC_LOG="info")
    assert ended.returncode == 0
    assert b"wrote report to r.json" in ended.stderr


def test_profiler_still_writes_its_output(tmp_path):
    # under a profiler the process exits normally, so cProfile gets to write
    ended = _module_process(["-m", "cProfile", "-o", "prof.out", "-m", "hmetric.cli", "--help"],
                            tmp_path)
    assert ended.returncode == 0, ended.stderr
    assert b"Usage: hmetric" in ended.stdout
    assert (tmp_path / "prof.out").stat().st_size > 0


@pytest.mark.parametrize("args", [
    ["evaluate", "golden4.csv", "--out", "{tmp}/report.json"],
    ["compare", "rank_disagreement.csv", "--columns", "model_a,model_b", "--screen", "0.1,0.25",
     "--out", "{tmp}/report.json"],
])
def test_commands_leave_out_logging_and_fractions(fixtures_dir, tmp_path, monkeypatch, args):
    # without HMETRIC_LOG no record can show, so logging never loads; the
    # screening rank is read in integers, without fractions
    monkeypatch.delenv("HMETRIC_LOG", raising=False)
    args = [str(fixtures_dir / a) if a.endswith(".csv") and "{" not in a
            else a.format(tmp=tmp_path) for a in args]
    code = ("import sys\nfrom hmetric.cli import main\n"
            "try:\n    main(sys.argv[1:])\nexcept SystemExit as exc:\n"
            "    print(exc.code, sorted({'logging', 'fractions'} & set(sys.modules)))")
    assert _fresh_interpreter(code, *args) == "0 []"
