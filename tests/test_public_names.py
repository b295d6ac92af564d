"""Every function, class and method of the library is reached by a command
or by the benchmark, and every record field is read.

A name-based reachability pass over the AST of ``src/korbits``.  The roots
are ``cli.main``, which reaches every subcommand, and every name or
attribute that ``perfbench/*.py`` reads; the function names that the
tracer's ``SPANS`` table lists as strings count as reads.  The statements a
module runs on import that bind no name are roots too.  A reached
definition reaches what its body reads:
- a module-level function, class or assignment, read as a name or as an
  attribute;
- a method, read only as an attribute, so a local variable of the same
  spelling does not keep a method alive.
A reached class also reaches its bases, decorators and class attributes,
its dunders and its methods that override a base class from outside
korbits (``cli._Parser.error``): the interpreter or that base calls them.
Module-level dunders such as the package's ``__getattr__`` are reached.
Code that only the tests call belongs in ``tests/oracles.py``.

A field named in a class's ``__slots__`` must be read as an attribute
somewhere in ``src/korbits``: data that only the tests read belongs beside
them too.
"""

import ast
import builtins
import dataclasses
import pkgutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "korbits").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


@dataclasses.dataclass(eq=False)
class _Definition:
    module: str
    shown: str
    name: str
    line: int
    reported: bool  # a function, class or method, not an assignment
    method: bool
    owner: "_Definition | None" = None  # the class a method is reached with
    names: set = dataclasses.field(default_factory=set)
    attributes: set = dataclasses.field(default_factory=set)


def _reads(nodes, names: set, attributes: set) -> None:
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                attributes.add(sub.attr)
            elif isinstance(sub, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in sub.targets
            ):
                names.update(func for _, func, _ in ast.literal_eval(sub.value))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _outside_bases(tree: ast.Module, node: ast.ClassDef) -> list:
    """The bases of a class that come from outside korbits, as objects."""
    imported = {}
    for statement in tree.body:
        if isinstance(statement, ast.Import):
            for alias in statement.names:
                bound = alias.name if alias.asname else alias.name.split(".")[0]
                imported[alias.asname or bound] = bound
        elif isinstance(statement, ast.ImportFrom) and not statement.level:
            if statement.module.split(".")[0] != "korbits":
                for alias in statement.names:
                    imported[alias.asname or alias.name] = f"{statement.module}.{alias.name}"
    bases = []
    for base in node.bases:
        head, _, rest = ast.unparse(base).partition(".")
        if head in imported:
            bases.append(pkgutil.resolve_name(".".join(filter(None, (imported[head], rest)))))
        elif not rest and hasattr(builtins, head):
            bases.append(getattr(builtins, head))
    return bases


def _definitions(module: str, tree: ast.Module):
    """Every definition at module level and in a class body; the module's
    other statements as one unnamed root."""
    run_on_import = _Definition(module, "", "", 0, False, False)
    yield run_on_import
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            definition = _Definition(module, node.name, node.name, node.lineno, True, False)
            _reads([node], definition.names, definition.attributes)
            yield definition
        elif isinstance(node, ast.ClassDef):
            cls = _Definition(module, node.name, node.name, node.lineno, True, False)
            outside = _outside_bases(tree, node)
            parts = [*node.bases, *node.keywords, *node.decorator_list]
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    parts.append(item)
                    continue
                with_class = _dunder(item.name) or any(hasattr(b, item.name) for b in outside)
                method = _Definition(
                    module, f"{node.name}.{item.name}", item.name, item.lineno, True, True,
                    cls if with_class else None,
                )
                _reads([item], method.names, method.attributes)
                yield method
            _reads(parts, cls.names, cls.attributes)
            yield cls
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        binding = _Definition(module, name.id, name.id, node.lineno, False, False)
                        _reads([node], binding.names, binding.attributes)
                        yield binding
        else:
            _reads([node], run_on_import.names, run_on_import.attributes)


def unreached_names(library: dict[str, str], benchmark: dict[str, str]) -> list[str]:
    defined = []
    for module, source in library.items():
        defined += _definitions(module, ast.parse(source))
    names, attributes = set(), set()
    for source in benchmark.values():
        _reads([ast.parse(source)], names, attributes)

    def read(d: _Definition) -> bool:
        if not d.name:  # what a module runs on import
            return True
        if not d.method and (_dunder(d.name) or (d.module, d.name) == ("cli.py", "main")):
            return True
        if d.owner in reached:
            return True
        return d.name in attributes or (not d.method and d.name in names)

    reached = set()
    while new := [d for d in defined if d not in reached and read(d)]:
        for d in new:
            reached.add(d)
            names |= d.names
            attributes |= d.attributes
    return [
        f"{d.module} line {d.line}: {d.shown}"
        for d in sorted(defined, key=lambda d: (d.module, d.line))
        if d.reported and d not in reached
    ]


def test_guard_catches_an_unreached_name():
    library = {
        "__init__.py": "def __getattr__(name): return _HOME[name]\n_HOME = {}\n",
        "cli.py": "import argparse\n"
        "from a import used\n"
        "class _Parser(argparse.ArgumentParser):\n"
        "    def error(self, message): raise SystemExit(_clean(message))\n"
        "    def extra(self): pass\n"
        "def _clean(message): return message\n"
        "def main(mate=1): return _Parser().parse_args() and used(mate)\n"
        "if __name__ == '__main__':\n"
        "    main()\n",
        "a.py": "def used(mate): return Kept().size + mate\n"
        "def left(): return _helper()\n"
        "def _helper(): pass\n"
        "def traced(): pass\n"
        "class Kept:\n"
        "    def __init__(self): pass\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    def gone(self): pass\n"
        "    def mate(self): pass\n"
        "class Old(ValueError):\n"
        "    def __str__(self): return _Old()\n"
        "class _Old: pass\n",
    }
    benchmark = {"trace.py": "SPANS = (('a', 'traced', 'a.traced'),)\n"}
    # _helper is read, but only by the unreached left; Kept.mate shares its
    # spelling with the local variable mate only; _Parser.error overrides
    # argparse and _Parser.extra overrides nothing; traced is read only
    # through the SPANS string; a dunder is reached only with its class
    assert unreached_names(library, benchmark) == [
        "a.py line 2: left",
        "a.py line 3: _helper",
        "a.py line 9: Kept.gone",
        "a.py line 10: Kept.mate",
        "a.py line 11: Old",
        "a.py line 12: Old.__str__",
        "a.py line 13: _Old",
        "cli.py line 5: _Parser.extra",
    ]


def test_every_library_name_is_reached():
    library = {path.name: path.read_text() for path in LIBRARY}
    benchmark = {path.name: path.read_text() for path in BENCHMARK}
    assert unreached_names(library, benchmark) == []


def unread_fields(library: dict[str, str]) -> list[str]:
    """The ``__slots__`` fields of library classes that no attribute read
    names; setting a field, or reading one by ``getattr``, does not count."""
    fields, read = [], set()
    for module, source in library.items():
        tree = ast.parse(source)
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        for cls in tree.body:
            for item in cls.body if isinstance(cls, ast.ClassDef) else ():
                if isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
                ):
                    slots = ast.literal_eval(item.value)
                    for name in (slots,) if isinstance(slots, str) else slots:
                        fields.append((f"{module} line {item.lineno}: {cls.name}.{name}", name))
    return [shown for shown, name in fields if name not in read]


def test_field_guard_catches_an_unread_field():
    library = {
        "a.py": "class Kept:\n"
        "    __slots__ = ('used', 'stored', 'by_name')\n"
        "    def size(self): return self.used + getattr(self, 'by_name')\n"
        "def fill(kept): kept.stored = 1\n"
        "class Lone:\n"
        "    __slots__ = 'lone'\n",
        "b.py": "def read(kept): return kept.used\n",
    }
    assert unread_fields(library) == [
        "a.py line 2: Kept.stored",
        "a.py line 2: Kept.by_name",
        "a.py line 6: Lone.lone",
    ]


def test_every_record_field_is_read():
    assert unread_fields({path.name: path.read_text() for path in LIBRARY}) == []
