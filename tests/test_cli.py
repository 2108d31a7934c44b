import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from jsonschema import validate

import hmetric
from hmetric import REPORT_SCHEMA
from hmetric.cli import main

GOLDEN_H_CAL = 0.33054877872925612091


@pytest.fixture
def runner():
    return CliRunner()


def _strict_loads(text):
    """json.loads that refuses NaN and the infinities, which are not JSON."""

    def refuse(constant):
        raise ValueError(f"report holds {constant}, which is not JSON")

    return json.loads(text, parse_constant=refuse)


def _read_report(path):
    return _strict_loads(path.read_text(encoding="utf-8"))


class TestEvaluate:
    def test_perfect_fixture(self, runner, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["evaluate", str(fixtures_dir / "perfect.csv"), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        report = _read_report(out)
        validate(report, REPORT_SCHEMA)
        for col in report["columns"].values():
            assert col["h"]["h"] == 1.0
            assert col["auc"]["auc"] == 1.0

    def test_constant_at_prior_fixture(self, runner, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["evaluate", str(fixtures_dir / "constant_at_prior.csv"), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        report = _read_report(out)
        assert abs(report["columns"]["score"]["h"]["h"]) <= 1e-10

    def test_golden_fixture_matches_oracle(self, runner, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "evaluate",
                str(fixtures_dir / "golden4.csv"),
                "--screen", "0.25,0.5",
                "--u-dist", "pooled",
                "--u-dist", "point:0.5",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        report = _read_report(out)
        validate(report, REPORT_SCHEMA)
        col = report["columns"]["score"]
        assert col["h"]["h"] == pytest.approx(GOLDEN_H_CAL, rel=1e-10)
        assert col["auc"]["auc"] == 0.75
        assert len(col["screening"]) == 2
        assert len(col["independent_threshold_losses"]) == 2

    def test_stdout_output(self, runner, fixtures_dir):
        result = runner.invoke(main, ["evaluate", str(fixtures_dir / "golden4.csv")])
        assert result.exit_code == 0
        report = _strict_loads(result.output)
        assert report["schema_version"] == "1"

    def test_malformed_csv_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,s\n0,0.1\n1,\n", encoding="utf-8")
        result = runner.invoke(main, ["evaluate", str(bad)])
        assert result.exit_code == 2
        assert "bad.csv:3" in result.output

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_score_exit_2_with_line(self, runner, tmp_path, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"label,a\n0,0.1\n1,{value}\n", encoding="utf-8")
        result = runner.invoke(main, ["evaluate", str(bad)])
        assert result.exit_code == 2
        assert f"bad.csv:3: non-finite score '{value}' in column 'a'" in result.output

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tabulated_weight_exit_2_with_line(
        self, runner, fixtures_dir, tmp_path, value
    ):
        wpath = tmp_path / "w.csv"
        wpath.write_text(f"c,density\n0.1,1.0\n0.2,{value}\n", encoding="utf-8")
        result = runner.invoke(
            main, ["evaluate", str(fixtures_dir / "golden4.csv"), "--weight", f"tabulated:{wpath}"]
        )
        assert result.exit_code == 2
        assert f"w.csv:3: non-finite value '{value}' in column 'density'" in result.output

    def test_non_utf8_tabulated_weight_exit_2_with_line(self, runner, fixtures_dir, tmp_path):
        wpath = tmp_path / "w.csv"
        wpath.write_bytes(b"c,density\n0.1,\xff1.0\n")
        result = runner.invoke(
            main, ["evaluate", str(fixtures_dir / "golden4.csv"), "--weight", f"tabulated:{wpath}"]
        )
        assert result.exit_code == 2
        assert "w.csv:2: not UTF-8 text" in result.output

    def test_point_mass_outside_unit_interval_exit_3(self, runner, fixtures_dir):
        result = runner.invoke(
            main, ["evaluate", str(fixtures_dir / "golden4.csv"), "--u-dist", "point:1.5"]
        )
        assert result.exit_code == 3
        assert "point-mass threshold must lie in [0, 1]" in result.output

    def test_missing_file_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["evaluate", str(tmp_path / "nope.csv")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_fingerprint_is_of_the_parsed_bytes(self, runner, monkeypatch, tmp_path, command):
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
        result = runner.invoke(main, [command, str(path), *extra])
        assert result.exit_code == 0, result.output
        fingerprint = _strict_loads(result.output)["provenance"]["data_fingerprint"]
        assert fingerprint == "sha256:" + hashlib.sha256(parsed).hexdigest()

    def test_config_error_exit_3(self, runner, fixtures_dir):
        result = runner.invoke(
            main, ["evaluate", str(fixtures_dir / "golden4.csv"), "--mode", "bogus"]
        )
        assert result.exit_code == 3

    def test_mc_without_seed_exit_3(self, runner, fixtures_dir):
        result = runner.invoke(
            main, ["evaluate", str(fixtures_dir / "golden4.csv"), "--prior", "beta"]
        )
        assert result.exit_code == 3
        assert "seed" in result.output

    @pytest.mark.parametrize("samples", ["1", "0"])
    def test_fewer_than_two_mc_samples_exit_3(self, runner, fixtures_dir, samples):
        # a standard error needs two draws; one used to be reported as NaN
        result = runner.invoke(main, [
            "evaluate", str(fixtures_dir / "golden4.csv"),
            "--prior", "beta", "--seed", "7", "--mc-samples", samples,
        ])
        assert result.exit_code == 3, result.output
        assert f"outer_samples must be at least 2, got {samples}" in result.output

    def test_prior_beta_report_is_strict_json_with_heavy_tail(self, runner, fixtures_dir):
        result = runner.invoke(main, [
            "evaluate", str(fixtures_dir / "golden4.csv"), "--prior", "beta", "--seed", "11",
        ])
        assert result.exit_code == 0, result.output
        h = _strict_loads(result.output)["columns"]["score"]["h"]
        assert h["mc_stderr"] > 0.0
        assert any(w.startswith("heavy_tail:") for w in h["warnings"])

    def test_mc_samples_sets_prior_draws(self, runner, fixtures_dir):
        # under --prior beta the flag is the number of prior draws
        args = ["evaluate", str(fixtures_dir / "golden4.csv"), "--prior", "beta", "--seed", "3"]
        default, fewer = (_strict_loads(runner.invoke(main, args + extra).output)
                          for extra in ([], ["--mc-samples", "2000"]))
        assert fewer["provenance"]["config"]["outer_samples"] == 2000
        assert fewer["columns"]["score"]["h"]["h"] != default["columns"]["score"]["h"]["h"]

    @pytest.mark.parametrize("extra", [["--prior", "beta"], []])
    def test_negative_seed_exit_3(self, runner, fixtures_dir, extra):
        result = runner.invoke(
            main, ["evaluate", str(fixtures_dir / "golden4.csv"), *extra, "--seed", "-1"]
        )
        assert result.exit_code == 3, result.output
        assert "seed must be a non-negative integer, got -1" in result.output

    def test_single_class_exit_4(self, runner, tmp_path):
        degenerate = tmp_path / "one_class.csv"
        degenerate.write_text("label,s\n0,0.1\n0,0.5\n", encoding="utf-8")
        result = runner.invoke(main, ["evaluate", str(degenerate)])
        assert result.exit_code == 4

    def test_determinism_modulo_timestamp(self, runner, fixtures_dir, tmp_path):
        args = [
            "evaluate", str(fixtures_dir / "golden4.csv"),
            "--prior", "beta", "--mc-samples", "4000", "--seed", "44",
        ]
        r1 = runner.invoke(main, args + ["--out", str(tmp_path / "a.json")])
        r2 = runner.invoke(main, args + ["--out", str(tmp_path / "b.json")])
        assert r1.exit_code == r2.exit_code == 0
        a = _read_report(tmp_path / "a.json")
        b = _read_report(tmp_path / "b.json")
        a["provenance"].pop("timestamp")
        b["provenance"].pop("timestamp")
        assert a == b

    def test_config_echo_keys_are_pinned(self, runner, fixtures_dir):
        # a knob added to or dropped from the config shows up in this list
        result = runner.invoke(main, ["evaluate", str(fixtures_dir / "golden4.csv")])
        assert result.exit_code == 0, result.output
        assert sorted(_strict_loads(result.output)["provenance"]["config"]) == [
            "normalization", "outer_samples", "pi0", "prior", "prior_alpha", "prior_beta",
            "resolution", "screen_proportions", "seed", "threshold_mode", "u_dists", "weight",
            "weight_alpha", "weight_beta", "weight_path",
        ]

    def test_normalization_flag(self, runner, tmp_path):
        wide = tmp_path / "wide.csv"
        wide.write_text("label,s\n0,-3.0\n0,-1.0\n1,2.0\n1,5.0\n", encoding="utf-8")
        assert runner.invoke(main, ["evaluate", str(wide)]).exit_code == 2
        result = runner.invoke(main, ["evaluate", str(wide), "--normalize", "minmax"])
        assert result.exit_code == 0

    def test_log_env_var(self, runner, fixtures_dir):
        result = runner.invoke(
            main,
            ["evaluate", str(fixtures_dir / "golden4.csv")],
            env={"HMETRIC_LOG": "debug"},
        )
        assert result.exit_code == 0

    @pytest.mark.parametrize("value", ["basic_format", "bogus", "debug"])
    def test_log_env_var_names_a_level_or_means_warning(self, monkeypatch, value):
        # logging.BASIC_FORMAT is a format string, not a level
        seen = {}
        monkeypatch.setenv("HMETRIC_LOG", value)
        monkeypatch.setattr(logging, "basicConfig", lambda **kw: seen.update(kw))
        hmetric.cli._setup_logging()
        assert seen == {"level": logging.DEBUG if value == "debug" else logging.WARNING}

    def test_fixed_prior_and_tabulated_weight(self, runner, fixtures_dir, tmp_path):
        grid = np.linspace(1e-4, 1 - 1e-4, 2048)
        dens = 6.0 * grid * (1 - grid)
        dens /= np.trapezoid(dens, grid)
        wpath = tmp_path / "w.csv"
        wpath.write_text(
            "c,density\n" + "\n".join(f"{c:.17g},{d:.17g}" for c, d in zip(grid, dens)),
            encoding="utf-8",
        )
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "evaluate", str(fixtures_dir / "golden4.csv"),
                "--weight", f"tabulated:{wpath}",
                "--prior", "fixed", "--pi0", "0.4",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        report = _read_report(out)
        col = report["columns"]["score"]
        assert col["h"]["weight_used"]["kind"] == "tabulated"
        assert col["h"]["prior_used"] == {"kind": "fixed", "pi0": 0.4}


class TestCompare:
    def test_rank_disagreement_flag(self, runner, fixtures_dir, tmp_path):
        out = tmp_path / "cmp.json"
        result = runner.invoke(
            main,
            [
                "compare", str(fixtures_dir / "rank_disagreement.csv"),
                "--columns", "model_a,model_b", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        report = _read_report(out)
        validate(report, REPORT_SCHEMA)
        assert report["comparison"]["rank_disagreement"] is True
        assert report["comparison"]["ranking_by_auc"] == ["model_a", "model_b"]
        assert report["comparison"]["ranking_by_h"] == ["model_b", "model_a"]

    def test_duplicate_column_agrees(self, runner, fixtures_dir, tmp_path):
        out = tmp_path / "cmp.json"
        result = runner.invoke(
            main,
            [
                "compare", str(fixtures_dir / "perfect.csv"),
                "--columns", "score_a,score_b", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        report = _read_report(out)
        assert report["comparison"]["rank_disagreement"] is False

    def test_missing_column_exit_3(self, runner, fixtures_dir):
        result = runner.invoke(
            main,
            ["compare", str(fixtures_dir / "golden4.csv"), "--columns", "score,ghost"],
        )
        assert result.exit_code == 3
        assert "ghost" in result.output

    def test_repeated_column_exit_3(self, runner, fixtures_dir):
        result = runner.invoke(
            main,
            ["compare", str(fixtures_dir / "rank_disagreement.csv"),
             "--columns", "model_a,model_b,model_a"],
        )
        assert result.exit_code == 3
        assert "score columns listed more than once: model_a" in result.output

    def test_single_column_exit_3(self, runner, fixtures_dir):
        result = runner.invoke(
            main,
            ["compare", str(fixtures_dir / "golden4.csv"), "--columns", "score"],
        )
        assert result.exit_code == 3


class TestCurves:
    def test_perfect_fixture_zero_loss_curve(self, runner, fixtures_dir, tmp_path):
        result = runner.invoke(
            main,
            [
                "curves", str(fixtures_dir / "perfect.csv"),
                "--column", "score_a", "--out-dir", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "loss_curve.csv").read_text().strip().splitlines()
        assert rows[0] == "c,min_loss"
        values = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.all(values == 0.0)

    def test_uniform_weight_density_one(self, runner, fixtures_dir, tmp_path):
        result = runner.invoke(
            main,
            [
                "curves", str(fixtures_dir / "golden4.csv"),
                "--weight", "beta", "--alpha", "1", "--beta", "1",
                "--out-dir", str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "weight.csv").read_text().strip().splitlines()
        assert rows[0] == "c,density"
        dens = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.allclose(dens, 1.0)

    def test_golden_curves_match_recomputation(self, runner, fixtures_dir, tmp_path):
        result = runner.invoke(
            main,
            ["curves", str(fixtures_dir / "golden4.csv"), "--out-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
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
    def test_csvs_match_csv_module_rendering(self, runner, fixtures_dir, tmp_path, tied):
        import csv
        import io

        from hmetric import default_weight, empirical_cdfs, empirical_priors, ingest, loss_curve

        path = fixtures_dir / "golden4.csv"
        if tied:
            path = tmp_path / "tied.csv"
            path.write_text("label,s\n" + "".join(
                f"{k % 3 % 2},{(k % 7) / 8}\n" for k in range(40)), encoding="utf-8")
        result = runner.invoke(main, ["curves", str(path), "--out-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output

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

    def test_multi_column_needs_choice(self, runner, fixtures_dir, tmp_path):
        result = runner.invoke(
            main,
            ["curves", str(fixtures_dir / "perfect.csv"), "--out-dir", str(tmp_path)],
        )
        assert result.exit_code == 3
        assert "--column" in result.output


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


NUMERIC_LOADED = "sorted({'numpy', 'scipy'} & set(sys.modules))"


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
    # computes H, the AUC or the curves loads any part of scipy
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
            "    print(exc.code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_interpreter(code, *args) == "0 []"


def test_load_keeps_names_set_before_it(fixtures_dir, tmp_path):
    # a wrapper set on the module before the numeric names load (as a
    # tracer or a test patch does) is the one the command calls
    code = ("import sys\nimport hmetric.cli as cli\nfrom hmetric.empirical import ingest\n"
            "calls = []\ncli.ingest = lambda *a, **k: calls.append(a) or ingest(*a, **k)\n"
            "try:\n    cli.main(sys.argv[1:])\nexcept SystemExit as exc:\n"
            "    print(exc.code, len(calls))")
    args = ["curves", str(fixtures_dir / "golden4.csv"), "--out-dir", str(tmp_path)]
    assert _fresh_interpreter(code, *args) == "0 1"
