"""Every function, class and method of the library is reached by a command
or by the benchmark, and every record field is read when the commands run.

A name-based reachability pass over the AST of ``src/korbits``.  The roots
are ``cli.main``, which reaches every subcommand, and every name or
attribute that ``perfbench/*.py`` reads; the function names that the
tracer's ``SPANS`` table lists as strings count as reads.  The statements a
module runs on import that bind no name are roots too.  A reached
definition reaches what its body reads:
- a module-level function, class or assignment, read as a name or as an
  attribute;
- a method, read only as an attribute, so a local variable of the same
  spelling does not keep a method alive.  A read ``C.m`` through the name
  of a library class ``C`` reaches only ``m`` on ``C`` and its bases, not
  a method of another class that shares the spelling.
A reached class also reaches its bases, decorators and class attributes,
its dunders and its methods that override a base class from outside
korbits (``cli._Parser.error``): the interpreter or that base calls them.
Module-level dunders such as the package's ``__getattr__`` are reached.
Code that only the tests call belongs in ``tests/oracles.py``.

A field named in a library class's ``__slots__`` must be read while the
commands and the benchmark's library calls run: each slot descriptor is
swapped for a counting property, in a fresh interpreter, so no cached
result hides a read.  Data that only the tests read belongs beside them.
"""

import ast
import builtins
import contextlib
import dataclasses
import importlib
import io
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

from korbits.records import Record, set_fields

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "korbits").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
FIXTURES = ROOT / "src" / "korbits" / "fixtures"


@dataclasses.dataclass(eq=False)
class _Definition:
    module: str
    shown: str
    name: str
    line: int
    reported: bool  # a function, class or method, not an assignment
    method: bool
    owner: "_Definition | None" = None  # the class a method is reached with
    scope: str = ""  # the class a method is defined on
    names: set = dataclasses.field(default_factory=set)
    attributes: set = dataclasses.field(default_factory=set)
    owned: set = dataclasses.field(default_factory=set)  # (class, attribute)


def _reads(nodes, into: _Definition, classes: set) -> None:
    """The names, the attributes and the (class, attribute) reads through
    a name in ``classes`` that the nodes make, added to ``into``."""
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                into.names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                if isinstance(sub.value, ast.Name) and sub.value.id in classes:
                    into.owned.add((sub.value.id, sub.attr))
                else:
                    into.attributes.add(sub.attr)
            elif isinstance(sub, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in sub.targets
            ):
                into.names.update(func for _, func, _ in ast.literal_eval(sub.value))


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


def _definitions(module: str, tree: ast.Module, classes: set):
    """Every definition at module level and in a class body; the module's
    other statements as one unnamed root."""
    run_on_import = _Definition(module, "", "", 0, False, False)
    yield run_on_import
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            definition = _Definition(module, node.name, node.name, node.lineno, True, False)
            _reads([node], definition, classes)
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
                    cls if with_class else None, node.name,
                )
                _reads([item], method, classes)
                yield method
            _reads(parts, cls, classes)
            yield cls
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        binding = _Definition(module, name.id, name.id, node.lineno, False, False)
                        _reads([node], binding, classes)
                        yield binding
        else:
            _reads([node], run_on_import, classes)


def unreached_names(library: dict[str, str], benchmark: dict[str, str]) -> list[str]:
    trees = {module: ast.parse(source) for module, source in library.items()}
    bases = {
        node.name: {ast.unparse(base).rpartition(".")[2] for base in node.bases}
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }

    def lineage(name: str) -> set:
        """The class with its library bases, theirs, and so on."""
        return {name}.union(*(lineage(base) for base in bases.get(name, ())))

    defined = []
    for module, tree in trees.items():
        defined += _definitions(module, tree, set(bases))
    seen = _Definition("", "", "", 0, False, False)  # every read of what is reached
    for source in benchmark.values():
        _reads([ast.parse(source)], seen, set(bases))

    def read(d: _Definition) -> bool:
        if not d.name:  # what a module runs on import
            return True
        if not d.method and (_dunder(d.name) or (d.module, d.name) == ("cli.py", "main")):
            return True
        if d.owner in reached:
            return True
        if d.method and any(m == d.name and d.scope in lineage(c) for c, m in seen.owned):
            return True
        return d.name in seen.attributes or (not d.method and d.name in seen.names)

    reached = set()
    while new := [d for d in defined if d not in reached and read(d)]:
        for d in new:
            reached.add(d)
            seen.names |= d.names
            seen.attributes |= d.attributes
            seen.owned |= d.owned
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
        "a.py": "def used(mate): return Kept().size + mate + Kept.key(Twin())\n"
        "def left(): return _helper()\n"
        "def _helper(): pass\n"
        "def traced(): pass\n"
        "class Base:\n"
        "    def key(self): pass\n"
        "class Kept(Base):\n"
        "    def __init__(self): pass\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    def gone(self): pass\n"
        "    def mate(self): pass\n"
        "class Twin:\n"
        "    def key(self): pass\n"
        "class Old(ValueError):\n"
        "    def __str__(self): return _Old()\n"
        "class _Old: pass\n",
    }
    benchmark = {"trace.py": "SPANS = (('a', 'traced', 'a.traced'),)\n"}
    # _helper is read, but only by the unreached left; Kept.mate shares its
    # spelling with the local variable mate only; Kept.key reaches the key
    # of Kept's base, not Twin's; _Parser.error overrides argparse and
    # _Parser.extra overrides nothing; traced is read only through the SPANS
    # string; a dunder is reached only with its class
    assert unreached_names(library, benchmark) == [
        "a.py line 2: left",
        "a.py line 3: _helper",
        "a.py line 11: Kept.gone",
        "a.py line 12: Kept.mate",
        "a.py line 14: Twin.key",
        "a.py line 15: Old",
        "a.py line 16: Old.__str__",
        "a.py line 17: _Old",
        "cli.py line 5: _Parser.extra",
    ]


def test_every_library_name_is_reached():
    library = {path.name: path.read_text() for path in LIBRARY}
    benchmark = {path.name: path.read_text() for path in BENCHMARK}
    assert unreached_names(library, benchmark) == []


def unread_fields(classes, run) -> list[str]:
    """The ``__slots__`` fields of these classes that ``run()`` never reads.
    Each slot descriptor is swapped for a property that counts its reads and
    passes reads and writes through, and put back afterwards."""
    reads, saved = {}, []
    for cls in classes:
        for name in vars(cls).get("__slots__", ()):
            descriptor, shown = vars(cls)[name], f"{cls.__module__}.{cls.__qualname__}.{name}"
            reads[shown] = 0

            def get(record, descriptor=descriptor, shown=shown):
                reads[shown] += 1
                return descriptor.__get__(record)

            saved.append((cls, name, descriptor))
            setattr(cls, name, property(get, descriptor.__set__, descriptor.__delete__))
    try:
        run()
    finally:
        for cls, name, descriptor in saved:
            setattr(cls, name, descriptor)
    return [shown for shown, count in reads.items() if not count]


class _Kept:
    __slots__ = ("used", "stored")

    def __init__(self):
        self.used, self.stored = 1, 2


class _Lone(Record):
    __slots__ = ("lone",)

    def __init__(self):
        set_fields(self, 0)


def test_field_guard_catches_an_unread_field():
    # setting a field is no read, a read through getattr is one; the slot
    # descriptors are back in place afterwards
    before = [dict(vars(cls)) for cls in (_Kept, _Lone)]
    assert unread_fields([_Kept, _Lone], lambda: _Kept().used) == [
        f"{__name__}._Kept.stored",
        f"{__name__}._Lone.lone",
    ]
    assert unread_fields([_Kept, _Lone], lambda: getattr(_Kept(), "stored") + hash(_Lone())) == [
        f"{__name__}._Kept.used",
    ]
    assert [dict(vars(cls)) for cls in (_Kept, _Lone)] == before
    assert _Kept().stored == 2


# every subcommand on every pair kind, at small ranks
_KIND_SPECS = (
    "A:glpq:2,1", "A:so:3", "A:so-even:4", "A:sp:4", "B:oo:1,1",
    "C:spsp:1,1", "C:gl:2", "D:oo:2,1", "D:gl:2", "D:oo-odd:1,2",
)


def _run_commands(failing_table: str) -> None:
    """``cli.main`` on every subcommand and pair kind, on every shipped
    fixture and on a failing table, then each library function or method
    that the benchmark calls or traces by name once."""
    from korbits import cli
    from korbits.algebra import exact_divide
    from korbits.classes import (
        closed_orbits, equal_via_localization, propagate_all, restrict_at, split_orbit_data,
    )
    from korbits.pairs import INNER_CLASSES, parse_pair_spec

    calls = [
        argv
        for spec in _KIND_SPECS
        for argv in (
            ["orbits", spec], ["orbits", spec, "--format", "json"], ["graph", spec],
            *(["classes", spec, "--format", form] for form in ("table", "csv", "machine")),
        )
    ]
    calls += [["verify", path.name] for path in sorted(FIXTURES.glob("*.txt"))]
    calls += [["count", f"{name}:3"] for name in INNER_CLASSES]
    calls += [["chern", "A:glpq:2,2", "(+,+,-,-)"], ["chern", "A:sp:4", "(1,4)(2,3)"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = [cli.main(argv) for argv in calls]
        failed = cli.main(["verify", failing_table])
    assert (set(codes), failed) == ({0}, 1), [argv for argv, c in zip(calls, codes) if c]

    pair = parse_pair_spec("A:so-even:4")
    classes = propagate_all(pair)
    (param, w), *_ = closed_orbits(pair)
    cls, space = classes[param], pair.variable_space()
    assert equal_via_localization(cls, cls) and not restrict_at(cls, w.images).is_zero
    split_orbit_data(pair)
    assert exact_divide(cls.polynomial * space.y(1), space.y(1)) == cls.polynomial
    assignment = {j: (1, "x", 1) for j in range(1, space.y_count + 1)}
    cls.polynomial.substitute(assignment).homogeneous_degree()


def fields_unread_by_the_commands(failing_table: str) -> list[str]:
    """``unread_fields`` of every library class over ``_run_commands``."""
    layers = [path.stem for path in LIBRARY if path.stem != "__init__"]
    modules = [importlib.import_module(f"korbits.{layer}") for layer in layers]
    classes = [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    defined = [
        node for path in LIBRARY for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
    ]
    assert len(classes) == len(defined)  # every class is found, none twice
    return unread_fields(classes, lambda: _run_commands(failing_table))


def test_every_record_field_is_read(workloads, tmp_path):
    # in a fresh interpreter, where no cached graph, plan table or class
    # hides a read; the benchmark's seeded a-sp-6 table fails and so walks
    # the fixed points
    workloads.make_verify_inputs(1, FIXTURES, tmp_path)
    probe = (
        "import json, sys\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "from test_public_names import fields_unread_by_the_commands as unread\n"
        "print(json.dumps(unread(sys.argv[3])))\n"
    )
    paths = [str(ROOT / "src"), str(Path(__file__).parent), str(tmp_path / "a-sp-6.txt")]
    result = subprocess.run(
        [sys.executable, "-c", probe, *paths], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []
