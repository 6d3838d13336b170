"""The package's import structure, read from its source with ``ast``.

Every module imports at its top, so the import graph is what the module
headers say; ``projective`` sits below ``matroids`` and imports nothing
from it.
"""

import ast
from pathlib import Path

import matpoly

SRC = Path(matpoly.__file__).parent


def imported_modules(node):
    """The dotted names an Import or ImportFrom node names, relative
    imports without their leading dots."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    return [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]


def test_no_module_imports_inside_a_function():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10, paths
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [
                    n for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))
                ]
                assert not inner, f"{path.name}:{inner[0].lineno} imports in a function"


def test_projective_imports_nothing_from_matroids():
    tree = ast.parse((SRC / "projective.py").read_text())
    names = [
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in imported_modules(node)
    ]
    assert "algebra" in names and "errors" in names, names
    assert not any("matroids" in name.split(".") for name in names), names
