"""The CLI's reports and curve CSVs against copies kept in
tests/fixtures/reports/, rendered in-process from the same inputs.

A report matches when its structure, strings, booleans and integers are
equal and each float lies within FLOAT_ULPS units in the last place of the
kept one, so that another CPU's vector paths, which may round a last digit
differently, do not fail it; the timestamp is dropped.  An h is computed as
1 - loss / reference_loss, so a last-digit move of that ratio, 1 - h, is
many units in the last place of a small h: an h matches within FLOAT_ULPS
units in the last place of 1 - h (or of h, where that is the larger).  A
curve CSV, at 10 significant digits, matches byte for byte.  On an x86-64
CPU with AVX-512, the reports are checked once more with numpy's AVX-512
paths switched off, as on a CPU that has only AVX2.

After a change that is meant to move these numbers, rewrite the copies with

    PYTHONPATH=src python tests/test_report_fixtures.py

and review their diff.
"""

import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from conftest import run_cli

FIXTURES = Path(__file__).parent / "fixtures"
KEPT = FIXTURES / "reports"
FLOAT_ULPS = 4
# numpy's dispatch targets above AVX2; switched off, numpy runs as on an AVX2-only CPU
AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")

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
    result = run_cli(args)
    assert result.exit_code == 0, result.stderr


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
        ulp = max(math.ulp(want), math.ulp(1.0 - want)) if where.endswith(".h") else math.ulp(want)
        assert abs(got - want) <= FLOAT_ULPS * ulp, f"{where}: {got!r} != {want!r}"
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


def test_h_tolerance_is_in_ulps_of_one_minus_h():
    for h in (0.02, -0.27):
        _assert_matches({"h": {"h": h + 4 * math.ulp(1.0 - h)}}, {"h": {"h": h}})
        with pytest.raises(AssertionError):
            _assert_matches({"h": {"h": h + 5 * math.ulp(1.0 - h)}}, {"h": {"h": h}})
        with pytest.raises(AssertionError):  # any other float keeps its own ulps
            _assert_matches({"h": {"loss": h + 5 * math.ulp(h)}}, {"h": {"loss": h}})
    # an h near 1 keeps the ulps of h
    _assert_matches({"h": {"h": 0.99 + 4 * math.ulp(0.99)}}, {"h": {"h": 0.99}})


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def test_kept_copies_match_without_avx512():
    # a runner whose CPU lacks AVX-512 runs numpy's AVX2 paths, which round
    # some sums' last digits differently: the kept copies must match there too
    features = _cpu_features()
    if platform.machine().lower() not in ("x86_64", "amd64") or not all(
            features.get(name) for name in AVX512):
        pytest.skip(f"numpy on this machine does not run {', '.join(AVX512)}")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512))
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          __file__, "-k", "not without_avx512"],
                         env=env, capture_output=True, text=True, cwd=Path(__file__).parents[1])
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-2000:]


if __name__ == "__main__":
    (KEPT / CURVES).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for stem, args in REPORTS.items():
            text = json.dumps(_report(args, Path(tmp)), indent=2, sort_keys=True) + "\n"
            (KEPT / f"{stem}.json").write_text(text, encoding="utf-8")
    _curves(KEPT / CURVES)
