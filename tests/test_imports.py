"""The package depends on the standard library and numpy alone, its base
modules import nothing above them, and each of its public names has a
reader outside the tests."""

import ast
import re
import sys
from pathlib import Path

import nclp

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


#: the modules every subcommand imports, and the modules above them
BASE = ("linalg", "sampling", "spaces")
UPPER = {"superop", "mpc", "classical", "acceptance", "cli"}


def _imports(tree):
    """(line, level, dotted name) of every import, at any depth: the module of
    ``import m`` and each ``m.name`` of ``from m import name``, with ``level``
    the number of leading dots (0 for an absolute import)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, 0, alias.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, node.level, ".".join(filter(None, (node.module, alias.name)))


def _imported_roots(tree):
    """(line, top-level module) of every absolute import, at any depth."""
    for line, level, name in _imports(tree):
        if level == 0:
            yield line, name.split(".")[0]


def _package_modules(tree):
    """(line, nclp submodule) of every import of one, relative or by
    ``nclp.``, at any depth."""
    for line, level, name in _imports(tree):
        parts = name.split(".")
        if level == 0 and parts[0] == "nclp":
            parts = parts[1:]
        elif level != 1:
            continue
        if parts:
            yield line, parts[0]


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
    tree = ast.parse(
        "from . import linalg, mpc\n"
        "def f():\n"
        "    import scipy.linalg\n"
        "    from .superop import y\n"
        "    from os import path\n"
        "    import nclp.cli\n"
        "    from nclp import classical\n"
    )
    assert [root for _, root in _imported_roots(tree)] == ["scipy", "os", "nclp", "nclp"]
    assert [module for _, module in _package_modules(tree)] == ["linalg", "mpc", "superop", "cli", "classical"]


def test_the_base_modules_import_nothing_above_them():
    root = Path(nclp.__file__).parent
    upward = [
        f"{name}.py:{line} imports {module}"
        for name in BASE
        for line, module in _package_modules(ast.parse((root / f"{name}.py").read_text(encoding="utf-8")))
        if module in UPPER
    ]
    assert not upward, upward



ROOT = Path(__file__).resolve().parent.parent


def _read_names(tree):
    """Every name a module reads: its ``Name`` and ``Attribute`` nodes and
    each part of the names it imports; strings, docstrings among them, are
    not read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield from alias.name.split(".")


def test_every_public_name_has_a_reader_outside_the_tests():
    # a public def or class that only the tests run leaves the package
    package = sorted((ROOT / "src" / "nclp").glob("*.py"))
    readers = package + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    read = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    for path in readers:
        read.update(_read_names(ast.parse(path.read_text(encoding="utf-8"))))
    unread = [
        f"{path.stem}.{node.name}"
        for path in package
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]
    assert not unread, unread
