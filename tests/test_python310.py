"""The declared minimum, Python 3.10 (pyproject.toml), on a real 3.10
interpreter: every source and test file compiles, and the package, its
config and its errors import and validate there without numpy or scipy."""

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

hmetric.config.EvalConfig(prior="beta", seed=1, screen_proportions=(0.1,),
                          u_dists=("pooled", "point:0.5"))
try:
    hmetric.config.EvalConfig(threshold_mode="bogus")
except hmetric.errors.ConfigError:
    pass
else:
    raise SystemExit("an unknown threshold mode was accepted")
print(sorted({"numpy", "scipy"} & set(sys.modules)))
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


def test_numpy_free_surface_on_python_310():
    exe = _python310()
    if exe is None:
        pytest.skip("no runnable Python 3.10 interpreter (python3.10 on PATH or under pyenv)")
    # -I: no environment, user site or working directory; -B: no .pyc files
    out = subprocess.run([exe, "-I", "-B", "-c", CHECK, str(ROOT)], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
