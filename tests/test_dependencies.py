"""The runtime needs numpy alone: pyproject.toml declares no other
dependency, and no module under src/ imports scipy (read from the source
by its syntax tree, so nothing is imported to check it)."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_runtime_dependency_is_numpy():
    tomllib = pytest.importorskip("tomllib")  # new in Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = sorted(re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in project["dependencies"])
    assert names == ["numpy"]


def test_no_source_module_imports_scipy():
    offenders = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for m in modules
                          if m.split(".")[0] == "scipy"]
    assert offenders == []
