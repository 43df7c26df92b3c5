"""The package depends on the standard library and numpy alone."""

import ast
import sys
from pathlib import Path

import nclp

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _imported_roots(tree):
    """(line, top-level module) of every absolute import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_only_stdlib_and_numpy_are_imported():
    sources = sorted(Path(nclp.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    stray = [
        f"{path.name}:{line} imports {root}"
        for path in sources
        for line, root in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root not in ALLOWED
    ]
    assert not stray, stray


def test_the_scan_sees_imports_inside_functions():
    tree = ast.parse("def f():\n    import scipy.linalg\n    from .x import y\n    from os import path\n")
    assert [root for _, root in _imported_roots(tree)] == ["scipy", "os"]
