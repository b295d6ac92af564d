"""No module-level private name of the library goes unread, and none is
imported by another module.

A stdlib stand-in for a linter's dead-code rule: a function, class or
assignment at module level of ``src/korbits`` whose name starts with a
single underscore must be read somewhere in ``src/korbits``, as a name or
as an attribute.  A helper left behind when its caller is replaced fails
here.  A private name is its module's own: ``from .x import _name`` or
``from korbits.x import _name`` anywhere in a module, also inside a
function or under ``TYPE_CHECKING``, fails, and so does any import of
``algebra`` by ``weyl``, which knows no polynomial layout.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "korbits").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(sources: dict[str, str]) -> list[str]:
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [(node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name, line) for name, line in names if _private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module} line {line}: {name}" for module, name, line in defined if name not in read]


def test_guard_catches_an_unread_private_name():
    sources = {
        "a.py": "_T = 1\n__all__ = []\ndef _used(): return _T\n"
        "def _left(): pass\nclass _Old: pass\n",
        "b.py": "from a import _used\nimport a\n_x: int = 2\nprint(_used(), a._gone)\n",
    }
    assert unread_private_names(sources) == [
        "a.py line 4: _left",
        "a.py line 5: _Old",
        "b.py line 3: _x",
    ]


def test_every_private_library_name_is_read():
    sources = {path.name: path.read_text() for path in MODULES}
    assert unread_private_names(sources) == []


def private_imports(sources: dict[str, str]) -> list[str]:
    """Every import of a korbits module's private name, at any depth."""
    hits = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "korbits":
                hits += [
                    f"{module} line {node.lineno}: {alias.name}"
                    for alias in node.names
                    if _private(alias.name)
                ]
    return hits


def test_guard_catches_a_private_import():
    sources = {
        "a.py": "from .b import _x, y\nfrom os import _exit\nfrom . import b\n"
        "def f():\n    from korbits.c import _z\n"
        "if TYPE_CHECKING:\n    from .d import _w\n",
        "b.py": "from korbits.c import z\nfrom .d import __version__\n",
    }
    assert private_imports(sources) == ["a.py line 1: _x", "a.py line 5: _z", "a.py line 7: _w"]


def test_no_module_imports_another_modules_private_name():
    assert private_imports({path.name: path.read_text() for path in MODULES}) == []


def test_weyl_imports_nothing_from_algebra():
    tree = ast.parse((ROOT / "src" / "korbits" / "weyl.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not [name for name in imported if name.split(".")[-1] == "algebra"]
