"""No module-level import goes unused, in the library or in the tests.

A stdlib stand-in for a linter's unused-import rule: a name bound by a
module-level ``import`` must be read somewhere in its module.  Names a
package's ``__init__`` re-exports through a literal ``__all__`` count as
read.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "korbits").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            # a derived ``__all__``, such as one sorted from a table, reads nothing
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_guard_catches_an_unused_import():
    source = "import os\nimport sys\nfrom typing import List as L, Tuple\nprint(sys, L)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Tuple"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []
    assert unused_imports("from x import y\n__all__ = sorted(NAMES)\n") == ["line 1: y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []
