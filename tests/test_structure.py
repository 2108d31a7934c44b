"""Where the CSV format is decided: empirical.py holds the package's only
csv reader, and distributions.py, which computes the cost weights, reads
no file (both read from the source by its syntax tree, so nothing is
imported to check them)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hmetric"


def _nodes(path):
    return ast.walk(ast.parse(path.read_bytes(), str(path)))


def test_distributions_imports_no_csv_reading():
    imported = set()
    for node in _nodes(SRC / "distributions.py"):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.update([base] if node.module else [base + a.name for a in node.names])
    assert imported.isdisjoint({"csv", "io", ".empirical", "hmetric.empirical"}), imported


def test_csv_reader_called_only_in_empirical():
    callers = {
        path.name
        for path in SRC.glob("*.py")
        for node in _nodes(path)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "reader"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "csv"
    }
    assert callers == {"empirical.py"}
