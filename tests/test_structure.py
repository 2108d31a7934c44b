"""Where decisions live, read from the source by its syntax tree, so
nothing is imported to check them: empirical.py holds the package's only
csv reader, and distributions.py, which computes the cost weights, reads
no file; _mc.py alone makes random streams, so the seed's chunk layout is
in one module; and in hmeasure.py only the calibrated class sums call the
bare partial pair, every other partial moment going through
distributions._beta_moments; no code sums by a matrix product, whose
order of addition BLAS picks by its thread count and CPU kernel; no
module imports a name at its top that it never uses; and no module
imports dataclasses, whose generated methods every start would compile
(the value types build on _record.py instead)."""

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


def _called_name(node):
    """The name a call is made by: f(...) or module.f(...)."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_random_streams_made_only_in_mc():
    callers = {
        path.name
        for path in SRC.glob("*.py")
        for node in _nodes(path)
        if isinstance(node, ast.Call) and _called_name(node) in {"default_rng", "SeedSequence"}
    }
    assert callers == {"_mc.py"}


def test_partial_pair_called_only_in_calibrated_coefficients():
    module = ast.parse((SRC / "hmeasure.py").read_bytes())
    callers = {
        top.name if isinstance(top, ast.FunctionDef) else type(top).__name__
        for top in module.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and _called_name(node) == "_partial_pair"
    }
    assert callers == {"_calibrated_coefficients"}


MATRIX_PRODUCTS = {"dot", "vdot", "tensordot", "matmul", "einsum", "inner"}


def test_no_matrix_products_in_src():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SRC.glob("*.py")
        for node in _nodes(path)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in MATRIX_PRODUCTS
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in MATRIX_PRODUCTS
        or isinstance(node, ast.ImportFrom) and any(a.name in MATRIX_PRODUCTS for a in node.names)
    ]
    assert found == []


def _top_imports(module):
    """(bound name, line) of each import in a module's own body, past any
    from __future__ import."""
    for node in module.body:
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)


def test_no_unused_imports_in_src():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        module = ast.parse(path.read_bytes(), str(path))
        used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
        for node in module.body:  # a name __all__ exports counts as used
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
        unused += [f"{path.name}:{line} {name}" for name, line in _top_imports(module)
                   if name not in used]
    assert unused == []


def test_no_module_imports_dataclasses():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SRC.glob("*.py")
        for node in _nodes(path)
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert found == []
