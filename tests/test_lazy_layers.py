"""Each layer module loads on its first use.

``import korbits`` registers the seven layer modules in ``sys.modules``
without running them; a module runs on its first attribute read.  These
tests pin which layers each subcommand runs, that the package still serves
every public name, that the benchmark's tracer still wraps the spans of
layers it finds unloaded, and that ``python -m korbits.cli`` starts without
a warning.  Each check that depends on what is loaded runs in a fresh
interpreter (``-S``: no site, so no ``.pth`` preloads).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import korbits

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
LAYERS = ("algebra", "clans", "classes", "counting", "orbits", "pairs", "weyl")

# prints the layers still unloaded; a KeyError means one is not registered
UNLOADED = (
    "print(*[m for m in {layers!r} "
    "if type(sys.modules['korbits.' + m]) is not types.ModuleType])"
).format(layers=LAYERS)


def _python(*args):
    return subprocess.run(
        [sys.executable, *args], env=ENV, capture_output=True, text=True, timeout=120
    )


def test_every_public_name_is_served_from_its_home_module():
    assert len(korbits.__all__) == len(set(korbits.__all__)) == 25
    assert set(korbits.__all__) <= set(dir(korbits))
    for name in korbits.__all__:
        value = getattr(korbits, name)
        home = sys.modules[value.__module__]
        assert home.__name__.split(".")[1] in LAYERS, name
        assert value is getattr(home, name), name


def test_names_the_benchmark_imports_load_from_a_fresh_interpreter():
    # perfbench/workloads.py imports these before any layer has run
    probe = (
        "from korbits import closed_orbits, parse_pair_spec, parse_polynomial, restriction_map\n"
        "print(closed_orbits.__module__, parse_pair_spec.__module__,"
        " parse_polynomial.__module__, restriction_map.__module__)"
    )
    result = _python("-S", "-c", probe)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    assert result.stdout == "korbits.classes korbits.pairs korbits.algebra korbits.weyl\n"


@pytest.mark.parametrize("name", ["no_such_name", "format_table"])
def test_an_unserved_name_is_an_attribute_error_naming_it(name):
    # format_table is a classes function the package does not export
    with pytest.raises(AttributeError, match=f"'{name}'"):
        getattr(korbits, name)


@pytest.mark.parametrize("module", ["korbits", "korbits.cli"])
def test_import_runs_no_layer(module):
    result = _python("-S", "-c", f"import sys, types, {module}\n{UNLOADED}")
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    assert result.stdout.split() == list(LAYERS)


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        ("orbits A:glpq:2,2", {"algebra", "classes", "counting"}),
        ("graph A:so:5", {"algebra", "classes", "counting"}),
        ("count B:3", {"algebra", "classes", "orbits"}),
        ("classes A:glpq:1,1", {"counting"}),
    ],
)
def test_each_command_runs_only_the_layers_it_uses(argv, unloaded):
    # the combinatorial commands never run the polynomial and class layers
    probe = (
        "import contextlib, io, sys, types\nfrom korbits.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv.split()!r}) == 0\n{UNLOADED}"
    )
    result = _python("-S", "-c", probe)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    assert set(result.stdout.split()) == unloaded


@pytest.mark.parametrize(
    "argv, span",
    [
        ("orbits D:gl:3", "orbits.build_weak_order_graph"),
        ("count B:3", "counting.count_report"),
    ],
)
def test_tracer_wraps_the_spans_of_unloaded_layers(tmp_path, argv, span):
    # trace_child installs its wrappers right after ``import korbits.cli``,
    # while every layer is still unloaded; its first read of each module
    # runs it, so the wrappers must still catch the command's calls
    plain = _python("-m", "korbits.cli", *argv.split())
    trace = tmp_path / "trace.json"
    traced = _python(str(ROOT / "perfbench" / "trace_child.py"), str(trace), *argv.split())
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    assert plain.returncode == 0, plain.stderr
    assert json.loads(trace.read_text())["spans"][span]["calls"] > 0


def test_module_run_starts_without_a_warning():
    # runpy warns when korbits.cli is in sys.modules before it runs as
    # __main__, which a lazy registration of cli would cause
    result = _python("-W", "error", "-m", "korbits.cli", "orbits", "A:glpq:1,1")
    assert (result.returncode, result.stderr) == (0, "")
