"""Every public library name is read by the pipeline or the benchmark.

The public-name twin of ``test_private_names.py``: a module-level function
or class of ``src/korbits``, or a method of a public class, whose name has
no leading underscore must be read somewhere in ``src/korbits`` other than
``__init__.py``'s re-exports, or in ``perfbench/*.py``.  A function or
class counts as read as a name or as an attribute, a method only as an
attribute, so a local variable of the same spelling does not keep a method
alive.  The function names that the tracer's ``SPANS`` table lists as
strings count as reads.  Code that only the tests call belongs in
``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "korbits").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

# read by no pipeline path, and kept on purpose
EXEMPT = {
    "closure_compare",  # the closure order that ROADMAP item 8 tests
    "weight_product_oracle",  # the README sketch's independent check of closed restrictions
}


def _public_definitions(module: str, tree: ast.Module):
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield module, node.name, node.name, node.lineno, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield module, f"{node.name}.{item.name}", item.name, item.lineno, True


def _reads(tree: ast.Module, names: set[str], attributes: set[str]) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            names.update(func for _, func, _ in ast.literal_eval(node.value))


def unread_public_names(library: dict[str, str], benchmark: dict[str, str]) -> list[str]:
    defined = []
    names, attributes = set(), set()
    for module, source in library.items():
        tree = ast.parse(source)
        defined += _public_definitions(module, tree)
        if module != "__init__.py":
            _reads(tree, names, attributes)
    for source in benchmark.values():
        _reads(ast.parse(source), names, attributes)
    return [
        f"{module} line {line}: {shown}"
        for module, shown, name, line, method in defined
        if name not in attributes and (method or name not in names)
    ]


def test_guard_catches_an_unread_public_name():
    library = {
        "__init__.py": "from .a import left, Kept\n__all__ = ['left', 'Kept']\n",
        "a.py": "def used(mate): return Kept().size + mate\n"
        "def left(): pass\n"
        "def traced(): pass\n"
        "class Kept:\n"
        "    def __init__(self): pass\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    def gone(self): pass\n"
        "    def mate(self): pass\n"
        "class Old: pass\n"
        "class _Hidden:\n"
        "    def error(self): pass\n",
        "b.py": "from a import used\nprint(used(1))\n",
    }
    benchmark = {"trace.py": "SPANS = (('a', 'traced', 'a.traced'),)\n"}
    # Kept.mate shares its spelling with the local variable mate only
    assert unread_public_names(library, benchmark) == [
        "a.py line 2: left",
        "a.py line 8: Kept.gone",
        "a.py line 9: Kept.mate",
        "a.py line 10: Old",
    ]


def test_every_public_library_name_is_read():
    library = {path.name: path.read_text() for path in LIBRARY}
    benchmark = {path.name: path.read_text() for path in BENCHMARK}
    unread = unread_public_names(library, benchmark)
    assert [entry for entry in unread if entry.rsplit(" ", 1)[1] not in EXEMPT] == []
    # an exemption that something now reads is stale
    assert {entry.rsplit(" ", 1)[1] for entry in unread} == EXEMPT
