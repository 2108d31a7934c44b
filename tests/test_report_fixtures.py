"""The CLI's reports and curve CSVs against copies kept in
tests/fixtures/reports/, rendered in-process from the same inputs.

A report matches when its structure, strings, booleans and integers are
equal and each float lies within FLOAT_ULPS units in the last place of the
kept one, so that another CPU's vector paths, which may round a last digit
differently, do not fail it; the timestamp is dropped.  A curve CSV, at 10
significant digits, matches byte for byte.

After a change that is meant to move these numbers, rewrite the copies with

    PYTHONPATH=src python tests/test_report_fixtures.py

and review their diff.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from hmetric.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
KEPT = FIXTURES / "reports"
FLOAT_ULPS = 4

# kept file stem -> command, input fixture and options
REPORTS = {
    "evaluate_golden4": ["evaluate", "golden4.csv"],
    "evaluate_golden4_prior_beta_calibrated": [
        "evaluate", "golden4.csv", "--prior", "beta", "--seed", "11"],
    "evaluate_golden4_prior_beta_optimal": [
        "evaluate", "golden4.csv", "--prior", "beta", "--seed", "11", "--mode", "optimal"],
    "compare_rank_disagreement": [
        "compare", "rank_disagreement.csv", "--columns", "model_a,model_b", "--mode", "optimal",
        "--screen", "0.1,0.25", "--u-dist", "pooled"],
    "evaluate_golden4_beta_weight": [
        "evaluate", "golden4.csv", "--prior", "fixed", "--pi0", "0.3", "--weight", "beta",
        "--alpha", "2", "--beta", "5"],
    "compare_rank_disagreement_prior_beta": [
        "compare", "rank_disagreement.csv", "--columns", "model_a,model_b", "--prior", "beta",
        "--seed", "5", "--mc-samples", "40000"],
}
CURVES = "curves_golden4"
CURVE_FILES = ("loss_curve.csv", "weight.csv", "roc.csv")


def _invoke(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output


def _report(args, tmp: Path) -> dict:
    command, name, *options = args
    out = tmp / "report.json"
    _invoke([command, str(FIXTURES / name), *options, "--out", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    del report["provenance"]["timestamp"]
    return report


def _curves(out_dir: Path):
    _invoke(["curves", str(FIXTURES / "golden4.csv"), "--out-dir", str(out_dir)])


def _assert_matches(got, want, where="report"):
    assert type(got) is type(want), f"{where}: {got!r} against {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= FLOAT_ULPS * math.ulp(want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, where


@pytest.mark.parametrize("stem", sorted(REPORTS))
def test_report_matches_kept_copy(stem, tmp_path):
    want = json.loads((KEPT / f"{stem}.json").read_text(encoding="utf-8"))
    _assert_matches(_report(REPORTS[stem], tmp_path), want)


def test_curve_csvs_match_kept_copies(tmp_path):
    _curves(tmp_path)
    for name in CURVE_FILES:
        assert (tmp_path / name).read_bytes() == (KEPT / CURVES / name).read_bytes(), name


def test_float_tolerance_is_in_ulps():
    _assert_matches({"h": [0.1 + 4 * math.ulp(0.1)]}, {"h": [0.1]})
    with pytest.raises(AssertionError):
        _assert_matches({"h": [0.1 + 5 * math.ulp(0.1)]}, {"h": [0.1]})
    with pytest.raises(AssertionError):
        _assert_matches({"n": 1.0}, {"n": 1})


if __name__ == "__main__":
    (KEPT / CURVES).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for stem, args in REPORTS.items():
            text = json.dumps(_report(args, Path(tmp)), indent=2, sort_keys=True) + "\n"
            (KEPT / f"{stem}.json").write_text(text, encoding="utf-8")
    _curves(KEPT / CURVES)
