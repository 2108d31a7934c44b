"""The declared minimum, Python 3.10 (pyproject.toml), on a real 3.10
interpreter: every source and test file compiles, the package, its config
and its errors import and validate there without numpy or scipy, a config
can be neither assigned nor deleted and equals its rebuilt copy, and the
CLI, which needs nothing outside the standard library until a command
reads its input, prints its help and reports a configuration error."""

import glob
import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CHECK = """
import sys
from pathlib import Path

root = Path(sys.argv[1])
for path in sorted([*root.glob("src/**/*.py"), *root.glob("tests/**/*.py")]):
    compile(path.read_bytes(), str(path), "exec")
sys.path.insert(0, str(root / "src"))
import hmetric, hmetric.config, hmetric.errors

config = hmetric.config.EvalConfig(prior="beta", seed=1, screen_proportions=(0.1,),
                                   u_dists=("pooled", "point:0.5"))
for change in (lambda: setattr(config, "seed", 2), lambda: delattr(config, "seed")):
    try:
        change()
    except AttributeError:
        pass
    else:
        raise SystemExit("a config field was changed")
if config.seed != 1 or config != hmetric.config.EvalConfig(**config.describe()):
    raise SystemExit("a config is not equal to its rebuilt copy")
if hash(hmetric.config.EvalConfig()) != hash(hmetric.config.EvalConfig()):
    raise SystemExit("equal configs hash differently")
try:
    hmetric.config.EvalConfig(threshold_mode="bogus")
except hmetric.errors.ConfigError:
    pass
else:
    raise SystemExit("an unknown threshold mode was accepted")
print(sorted({"numpy", "scipy"} & set(sys.modules)))
"""

# python -m hmetric.cli ARGS, from the source tree given as the first argument
CLI = """
import runpy
import sys

sys.path.insert(0, sys.argv.pop(1))
runpy.run_module("hmetric.cli", run_name="__main__", alter_sys=True)
"""


def _python310() -> str | None:
    """A runnable 3.10 interpreter: python3.10 on PATH, else pyenv's."""
    candidates = [shutil.which("python3.10")]
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
        if root:
            candidates += sorted(glob.glob(os.path.join(root, "versions", "3.10.*", "bin",
                                                        "python3.10")))
    for exe in filter(None, candidates):
        try:
            out = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"],
                                 capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if out.returncode == 0 and out.stdout.strip() == "(3, 10)":
            return exe
    return None


def _run_on_python_310(code: str, *args: str) -> subprocess.CompletedProcess:
    exe = _python310()
    if exe is None:
        pytest.skip("no runnable Python 3.10 interpreter (python3.10 on PATH or under pyenv)")
    # -I: no environment, user site or working directory; -B: no .pyc files
    return subprocess.run([exe, "-I", "-B", "-c", code, *args], capture_output=True,
                          text=True, timeout=120)


def test_numpy_free_surface_on_python_310():
    out = _run_on_python_310(CHECK, str(ROOT))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_help_and_config_error_on_python_310():
    help_out = _run_on_python_310(CLI, str(ROOT / "src"), "--help")
    assert help_out.returncode == 0, help_out.stderr
    assert "Usage:" in help_out.stdout
    error = _run_on_python_310(CLI, str(ROOT / "src"), "evaluate",
                               str(ROOT / "tests" / "fixtures" / "golden4.csv"), "--mode", "bogus")
    assert error.returncode == 3, error.stderr
    assert error.stderr.startswith("error: unknown threshold mode 'bogus'")
