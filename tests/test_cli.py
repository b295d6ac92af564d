import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from korbits.algebra import format_polynomial
from korbits.clans import MINUS, PLUS
from korbits.classes import EquivariantClass, closed_orbit_class, propagate_all, to_chern_basis
from korbits.cli import main
from korbits.orbits import (
    InvolutionOrbit, build_weak_order_graph, closed_orbits, parse_orbit_parameter,
)
from korbits.pairs import parse_pair_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orbits_listing(capsys):
    code, out, _ = run(capsys, "orbits", "A:glpq:2,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("total: 21 orbits")
    assert any("closed" in line for line in lines)
    assert any("dense" in line for line in lines)


def test_orbits_listing_trivial(capsys):
    code, out, _ = run(capsys, "orbits", "A:glpq:1,0")
    assert code == 0
    assert "total: 1 orbits" in out


def test_orbits_json(capsys):
    code, out, _ = run(capsys, "orbits", "B:oo:2,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["orbits"]) == 25
    assert payload["pair"] == "B:oo:2,1"


def test_orbits_deterministic(capsys):
    _, first, _ = run(capsys, "orbits", "D:gl:3")
    _, second, _ = run(capsys, "orbits", "D:gl:3")
    assert first == second


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "A:sp:4")
    assert code == 0
    assert out.count("->") == 3
    assert "color=black" in out and "color=blue" not in out
    # structural round trip: every edge endpoint is a declared node
    import re

    nodes = set(re.findall(r"^\s*(n\d+) \[label=", out, re.M))
    edges = re.findall(r"^\s*(n\d+) -> (n\d+) \[label=\"\d+\", color=(?:black|blue)\];$", out, re.M)
    assert len(edges) == 3
    for a, b in edges:
        assert a in nodes and b in nodes
    code, out, _ = run(capsys, "graph", "A:so:3")
    assert out.count("color=blue") == 2
    assert out.count("color=black") == 2


def test_graph_node_count(capsys):
    code, out, _ = run(capsys, "graph", "D:gl:3")
    assert code == 0
    assert out.count("[label=") - out.count("->") == 10


def test_classes_table(capsys):
    code, out, _ = run(capsys, "classes", "C:gl:2")
    assert code == 0
    assert len(out.strip().splitlines()) == 11
    code, out, _ = run(capsys, "classes", "A:so:3", "--format", "machine")
    assert "id := 1" in out
    code, out, _ = run(capsys, "classes", "A:glpq:1,1", "--format", "csv")
    rows = out.strip().splitlines()
    assert rows[0] == "parameter,formula"
    assert len(rows) == 4


def test_verify_shipped_fixture(capsys):
    code, out, _ = run(capsys, "verify", "a-sp-4.txt")
    assert code == 0
    assert "3/3 rows verified" in out


def test_verify_fails_on_scaled_row(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "# pair: A:sp:4\n(1,4)(2,3) := 2*(y1+y2)*(y1+y3)\n(1,3)(2,4) := y1+y2\n"
    )
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 1
    assert "FAIL (1,4)(2,3)" in out
    assert "ok   (1,3)(2,4)" in out


def test_verify_literal_mode(tmp_path, capsys):
    fixture = tmp_path / "lit.txt"
    fixture.write_text("# pair: A:sp:4\n(1,3)(2,4) := y1+y2\n")
    code, out, _ = run(capsys, "verify", str(fixture), "--literal")
    assert code == 0


def test_verify_unknown_parameter(tmp_path, capsys):
    fixture = tmp_path / "odd.txt"
    fixture.write_text("# pair: A:sp:4\n(1,2) := 1\n")
    code, _, err = run(capsys, "verify", str(fixture))
    assert code == 2
    assert err == "error: '(1,2)' does not label an orbit of (SL(4), Sp(4))\n"


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "orbits", "Z:bad:1")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "orbits", "A:so:4")
    assert code == 2


def test_count_command(capsys):
    code, out, _ = run(capsys, "count", "B:2")
    assert code == 0
    assert "twisted involutions match" in out
    code, _, err = run(capsys, "count", "B:9")
    assert code == 2


def test_chern_command(capsys):
    code, out, _ = run(capsys, "chern", "A:glpq:2,2", "(1,2,2,1)")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run(capsys, "chern", "A:glpq:2,2", "(+,+,-,-)")
    assert "z2^2" in out
    code, _, err = run(capsys, "chern", "B:oo:2,1", "(1,2,3,+,3,2,1)")
    assert code == 2


def test_chern_split_component_uses_euler(capsys):
    code, out, _ = run(capsys, "chern", "A:so-even:4", "+(1,3)(2,4)")
    assert code == 0
    assert "e" in out.replace("y", "").replace("z", "")


def _chern_parameters(spec: str) -> list[str]:
    """Every orbit of the pair, then each untagged split involution."""
    texts = [str(param) for param in build_weak_order_graph(parse_pair_spec(spec)).nodes]
    return texts + sorted({text[1:] for text in texts if text[0] in "+-"})


def test_chern_on_every_orbit_is_unchanged(capsys):
    # each rewrite equals the one read from the whole propagated table, an
    # untagged split involution adding its two components' classes, and the
    # outputs hash as they did when chern propagated the whole table
    digest = hashlib.sha256()
    for spec in ("A:glpq:2,2", "A:so-even:4", "A:sp:6"):
        pair = parse_pair_spec(spec)
        classes = propagate_all(pair)
        for text in _chern_parameters(spec):
            code, out, err = run(capsys, "chern", spec, "--", text)
            param = parse_orbit_parameter(pair, text, allow_union=True)
            parts = [param] if param in classes else [
                InvolutionOrbit(param.involution, tag) for tag in (PLUS, MINUS)
            ]
            polys = [classes[part].polynomial for part in parts]
            want = to_chern_basis(EquivariantClass(pair, sum(polys[1:], polys[0])))
            assert (code, out, err) == (0, f"{want}\n", ""), (spec, text)
            digest.update(f"{spec} {text} {code}\n{out}".encode())
    assert digest.hexdigest() == "a80c12850e3babcbffab622b801a9567a560a3307fd0fd8bc3cb8064990a6d7a"


def test_chern_takes_each_parameter_as_orbits_prints_it(capsys):
    # a parameter such as -(1,3)(2,4) needs no "--" before it
    _, listing, _ = run(capsys, "orbits", "A:so-even:4")
    texts = [line.split("  [")[0] for line in listing.splitlines()[:-1]]
    assert "-(1,3)(2,4)" in texts and "-(1,4)(2,3)" in texts
    for text in texts:
        got = run(capsys, "chern", "A:so-even:4", text)
        assert got[0] == 0 and got == run(capsys, "chern", "A:so-even:4", "--", text), text
    code, out, err = run(capsys, "chern", "A:so-even:4", "--bogus", "x")
    assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1


@pytest.fixture
def yielded(monkeypatch):
    """The nodes the class walk yields, in order."""
    import korbits.classes

    nodes, propagate = [], korbits.classes.propagate

    def counted(pair):
        for node, cls in propagate(pair):
            nodes.append(node)
            yield node, cls

    monkeypatch.setattr(korbits.classes, "propagate", counted)
    return nodes


def test_chern_of_a_closed_orbit_stops_the_walk(capsys, yielded):
    code, out, _ = run(capsys, "chern", "A:glpq:3,3", "(+,+,+,-,-,-)")
    assert code == 0 and out
    table = build_weak_order_graph(parse_pair_spec("A:glpq:3,3")).nodes
    assert 0 < len(yielded) < len(table)


def test_verify_of_closed_rows_stops_the_walk(capsys, tmp_path, yielded):
    # the closed orbits come first in the walk, so nothing above them is computed
    pair = parse_pair_spec("A:glpq:3,3")
    lines = [f"# pair: {pair.spec_string()}"] + [
        f"{param} := {format_polynomial(closed_orbit_class(pair, param).polynomial)}"
        for param, _ in closed_orbits(pair)
    ]
    fixture = tmp_path / "closed.txt"
    fixture.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(fixture))
    assert code == 0 and out.endswith("20/20 rows verified (localization)\n")
    assert 0 < len(yielded) < len(build_weak_order_graph(pair).nodes)


def test_verify_refuses_a_bad_polynomial_before_the_walk(capsys, tmp_path, yielded):
    fixture = tmp_path / "bad.txt"
    fixture.write_text("# pair: C:gl:5\n(1,2,3,4,5,5,4,3,2,1) := x1^\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", str(fixture))
    assert (code, err, yielded) == (2, "error: unexpected end of polynomial\n", [])


def test_fixture_env_override(tmp_path, capsys, monkeypatch):
    fixture = tmp_path / "f.txt"
    fixture.write_text("# pair: A:sp:4\n(1,2)(3,4) := 1\n")
    monkeypatch.setenv("KORBITS_FIXTURES", str(tmp_path))
    code, out, _ = run(capsys, "verify", "f.txt")
    assert code == 0


def test_verify_guard_blocks_large_weyl_groups(tmp_path, capsys):
    fixture = tmp_path / "big.txt"
    fixture.write_text("# pair: A:so:9\n(1,9)(2,8)(3,7)(4,6) := 1\n")
    code, _, err = run(capsys, "verify", str(fixture))
    assert code == 2
    assert "--max-n" in err


def test_verify_max_n_past_the_pair_costs_nothing(capsys):
    # the bound never builds a factorial larger than the pair's own
    code, out, _ = run(capsys, "verify", "a-sp-4.txt", "--max-n", "3000000")
    assert (code, out) == run(capsys, "verify", "a-sp-4.txt")[:2]
    assert code == 0


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["orbits", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: korbits orbits")


def test_verify_pair_flag_overrides_header(tmp_path, capsys):
    fixture = tmp_path / "override.txt"
    fixture.write_text("(1,2)(3,4) := 1\n")  # no header at all
    code, _, err = run(capsys, "verify", str(fixture))
    assert code == 2 and "no pair header" in err
    code, out, _ = run(capsys, "verify", str(fixture), "--pair", "A:sp:4")
    assert code == 0


def test_verify_rejects_malformed_row(tmp_path, capsys):
    fixture = tmp_path / "broken.txt"
    fixture.write_text("# pair: A:sp:4\n(1,2)(3,4) = 1\n")
    code, _, err = run(capsys, "verify", str(fixture))
    assert code == 2 and "':='" in err


def test_orbits_enumerates_once(capsys, monkeypatch):
    import korbits.orbits

    calls = []
    original = korbits.orbits.enumerate_orbits

    def counted(pair):
        calls.append(pair)
        return original(pair)

    monkeypatch.setattr(korbits.orbits, "enumerate_orbits", counted)
    korbits.orbits.build_weak_order_graph.cache_clear()
    code, out, _ = run(capsys, "orbits", "B:oo:2,1")
    assert code == 0 and "total: 25 orbits" in out
    assert len(calls) == 1


SO3 = "# pair: A:so:3\n"
GLPQ11 = "# pair: A:glpq:1,1\n"
GLPQ22 = "# pair: A:glpq:2,2\n"
SIX = "(x1+x2+y1+y2+y3+y4)"


@pytest.mark.parametrize(
    "argv, fixture_text",
    [
        (None, SO3 + "(1,3) := 1/0"),
        (("chern", "A:so:3", "(a,b)"), None),
        (None, SO3 + "(1,3) := " + "(" * 1000 + "y1" + ")" * 1000),
        (None, SO3 + "(1,3) := " + "-" * 3000 + "y1"),
        (None, GLPQ11 + "(+,-) := (x1+y1)^100000"),
        (None, GLPQ11 + "(+,-) := x1+" + "9" * 5000),
        (None, GLPQ11 + "(+,-) := x1+1/" + "9" * 5000),
        (None, GLPQ11 + "(+,-) := x" + "1" * 5000),
        (None, GLPQ11 + "(+,-) := y" + "1" * 5000),
        (None, GLPQ22 + f"(+,+,-,-) := {SIX}^24"),
        (None, GLPQ22 + f"(+,+,-,-) := {SIX}^8*{SIX}^8"),
        (None, GLPQ22 + f"(+,+,-,-) := {SIX}^64"),
        (None, GLPQ11 + "(+,-) := x1^64*x1^64*x1^64*x1^64"),
        (None, GLPQ11 + "(+,-) := x1^\u00b2"),
        (None, GLPQ11 + f"({'9' * 5000},{'9' * 5000}) := x1"),
        (("chern", "A:glpq:1,1", f"({'9' * 5000},{'9' * 5000})"), None),
        (("chern", "A:glpq:1,1", "(\u00b2,\u00b2)"), None),
        (("orbits", "A:glpq:1,1", "--format", "xml"), None),
        ((), None),
        (("orbits",), None),
        (("verify", "a-sp-4.txt", "--max-n", "x"), None),
        (("verify", "a-sp-4.txt", "--max-n", "-5"), None),
        (("verify", "a-sp-4.txt", "--max-n", "0"), None),
        (("chern", "A:so:3", "(1,3)(3,1)"), None),
        (None, SO3 + "(1,3)(1,3) := -2*y1*y2 - 2*y1*y3 - 2*y2^2 - 2*y2*y3"),
        (("orbits", "A:glpq:1_0,1"), None),
        (("orbits", "A:glpq:+1,1"), None),
        (("count", "B:0_3"), None),
        (("count", "B:3", "--max-n", "1_0"), None),
        (("chern", "A:so:3", "(+1,3)"), None),
        (None, SO3 + "(+1,3) := -2*(y1+y2)*(y2+y3)"),
        (("chern", "A:so:3", "(1_0,3)"), None),
        (("chern", "A:so:3", ""), None),
        (None, SO3 + " := 1"),
    ],
    ids=[
        "zero-denominator",
        "non-integer-cycle",
        "deep-parentheses",
        "many-minus-signs",
        "huge-exponent",
        "long-numerator",
        "long-denominator",
        "long-x-index",
        "long-y-index",
        "power-squares-past-term-bound",
        "product-past-term-bound",
        "power-past-term-bound",
        "product-past-degree-cap",
        "superscript-exponent",
        "long-clan-number-in-fixture",
        "long-clan-number",
        "superscript-clan-number",
        "argparse-bad-choice",
        "argparse-no-command",
        "argparse-missing-argument",
        "argparse-bad-int",
        "negative-max-n",
        "zero-max-n",
        "entry-in-two-cycles",
        "entry-in-two-cycles-in-fixture",
        "underscore-in-descriptor",
        "signed-descriptor-number",
        "underscore-in-rank",
        "underscore-in-max-n",
        "signed-cycle-entry",
        "signed-cycle-entry-in-fixture",
        "underscore-in-cycle-entry",
        "empty-parameter",
        "empty-parameter-in-fixture",
    ],
)
def test_bad_input_is_one_line_usage_error(tmp_path, capsys, argv, fixture_text):
    if argv is None:
        fixture = tmp_path / "bad.txt"
        fixture.write_text(f"{fixture_text}\n")
        argv = ("verify", str(fixture))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("chern", "A:so:5", "(1,2"), "bad cycle '(1,2'"),
        (("chern", "A:so:5", "(1,9)"), "cycle entry 9 outside 1..5"),
        (("count", "B3"), "inner class spec looks like B:3 or D-compact:2"),
        (("verify", "nosuch.txt"), "fixture 'nosuch.txt' not found"),
        (("chern", "B:oo:1,1", "(+,-,+)"), "Chern rewriting is supported for type A pairs only"),
    ],
    ids=["unclosed-cycle", "cycle-entry-past-n", "inner-class-without-colon", "missing-fixture",
         "chern-outside-type-a"],
)
def test_refusal_prints_its_message(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_unreadable_fixture_is_usage_error(tmp_path, capsys):
    # a directory, and a file that is not UTF-8 text: one line naming the path
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"# pair: A:sp:4\n(1,3)(2,4) := y1+y2 \xe9\n")
    for path in (tmp_path, latin1):
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2, err
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert repr(str(path)) in err


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    import korbits.orbits

    def broken(graph):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(korbits.orbits, "to_dot", broken)
    code, _, err = run(capsys, "graph", "A:sp:4")
    assert code == 3
    assert err == "internal error: ZeroDivisionError: boom\n"


PINS = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
OUTPUT_PINS = Path(__file__).with_name("output_pins.json")


def test_graph_orbits_count_outputs_match_pins(capsys):
    # graph and orbits --format json on the ten pairs at ranks 2 and 3,
    # graph on eleven rank-4 pairs that reach the type B/C/D last-root
    # patterns and on five rank-5 type D pairs, orbits (plain and json) and
    # graph on A:so-even:8, and count on the four inner classes at n <= 4,
    # byte for byte
    pins = json.loads(OUTPUT_PINS.read_text())
    assert len(pins) == 75
    for call, digest in pins.items():
        code, out, _ = run(capsys, *call.split())
        assert code == 0, call
        assert hashlib.sha256(out.encode()).hexdigest() == digest, call


def test_orbits_count_outputs_match_benchmark_pins(capsys):
    # the pinned orbits, count and graph calls of the benchmark's
    # orbits-count workload, checked byte for byte
    pins = json.loads(PINS.read_text())
    calls = [k for k in pins if k.split()[0] in ("orbits", "count", "graph")]
    assert len(calls) == 7
    for call in calls:
        code, out, _ = run(capsys, *call.split())
        assert code == pins[call]["exit_code"], call
        assert hashlib.sha256(out.encode()).hexdigest() == pins[call]["sha256"], call


def test_classes_sweep_outputs_match_benchmark_pins(capsys, workloads):
    # the pinned classes and chern calls of the benchmark's classes-sweep
    # workload, checked byte for byte
    calls = workloads.fixed_invocations("classes-sweep")
    assert len(calls) == 12
    for call in calls:
        code, out, _ = run(capsys, *call.args)
        assert code == call.exit_code, call.args
        assert hashlib.sha256(out.encode()).hexdigest() == call.sha256, call.args


@pytest.mark.parametrize("seed", [1, 2])
def test_verify_localize_outputs_match_workload(capsys, tmp_path, workloads, seed):
    # the benchmark's seeded verify calls: re-expressed fixture rows that
    # only localization can match, a seeded share of them made wrong
    fixtures = Path(__file__).resolve().parents[1] / "src" / "korbits" / "fixtures"
    calls = workloads.make_verify_inputs(seed, fixtures, tmp_path)
    assert len(calls) == 13
    for call in calls:
        code, out, _ = run(capsys, *call.args)
        assert code == call.exit_code, call.args
        assert hashlib.sha256(out.encode()).hexdigest() == call.sha256, call.args


def test_traced_verify_counts_fixed_points_and_parses(tmp_path, workloads):
    # the benchmark's tracer counts fixed points through
    # classes.ambient_weyl and parses through algebra.parse_polynomial;
    # a walk or a parser that bypassed either would zero its metric.  Each
    # shipped row differs from its class by a multiple of y1*y2*y3, which
    # the kernel certificate settles without a walk, so the table adds the
    # benchmark's W-invariant to every row: it restricts to zero at every
    # fixed point, and only a walk over all of them shows it
    from korbits.classes import parse_fixture
    from korbits.weyl import restriction_map

    root = Path(__file__).resolve().parents[1]
    shipped = root / "src" / "korbits" / "fixtures" / "d-oo-odd-1-2.txt"
    spec, rows = parse_fixture(shipped.read_text(encoding="utf-8"))
    invariant = workloads._invariant_text(restriction_map(parse_pair_spec(spec)))
    fixture = tmp_path / "d-oo-odd-1-2.txt"
    lines = [f"# pair: {spec}"] + [f"{param} := ({text})+({invariant})" for param, text in rows]
    fixture.write_text("\n".join(lines) + "\n", encoding="utf-8")
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    tracer = root / "perfbench" / "trace_child.py"
    result = subprocess.run(
        [sys.executable, str(tracer), str(trace), "verify", str(fixture)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(trace.read_text())
    assert report["counters"]["weyl.fixed_points"] > 0
    assert report["spans"]["algebra.parse_polynomial"]["calls"] == len(rows)


def test_traced_names_resolve(trace_child):
    # --trace 1 runs rebind these names in the korbits modules; a deleted
    # one would crash every traced run
    import importlib

    from test_algebra import exponent_terms, reference_divided_difference

    from korbits.algebra import Polynomial, divided_difference
    from korbits.classes import propagate_all
    from korbits.pairs import parse_pair_spec

    for module_name, func_name, _ in trace_child.SPANS:
        module = importlib.import_module(f"korbits.{module_name}")
        assert callable(getattr(module, func_name, None)), (module_name, func_name)
    assert callable(Polynomial.substitute)
    assert callable(importlib.import_module("korbits.classes").ambient_weyl)
    # the algebra.terms_out hook counts len(result.terms) on each
    # divided_difference result; a change of representation must not zero it
    pair = parse_pair_spec("A:so:5")
    classes, counted = propagate_all(pair), 0
    for edge in build_weak_order_graph(pair).edges:
        f = classes[edge.source].polynomial
        act = pair.root_action(edge.root_index)
        result = divided_difference(f, act)
        assert len(result.terms) == len(reference_divided_difference(exponent_terms(f), act))
        counted += len(result.terms)
    assert counted > 0


def test_cli_import_loads_every_traced_module_and_no_unneeded_stdlib(trace_child):
    # a clean interpreter (-S: no site, so no .pth preloads) shows what
    # ``import korbits.cli`` itself loads; the benchmark's tracer reads every
    # traced module from sys.modules after that import, where each is
    # registered and runs on its first attribute read
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, korbits.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert {f"korbits.{module}" for module, _, _ in trace_child.SPANS} <= loaded
    unneeded = {"dataclasses", "inspect", "json", "importlib.resources", "fractions", "decimal"}
    assert not loaded & unneeded, sorted(loaded & unneeded)


def test_integer_table_never_loads_fractions():
    # every class of A:glpq has integer coefficients, so no rational is made
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import io, sys, contextlib\nfrom korbits.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['classes', 'A:glpq:2,2'])\n"
        "print(code, 'fractions' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "0 False\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("classes", "A:glpq:3,3", "--format", "machine"),
        ("graph", "C:gl:5"),
        ("orbits", "C:gl:6"),
    ],
)
def test_reader_that_stops_early_is_no_error(argv):
    # as `korbits ... | head -c 100`: each output is larger than a pipe buffer
    # and a write block together, so the command still writes after the
    # reader has closed the pipe
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    with subprocess.Popen(
        [sys.executable, "-m", "korbits.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0, err
    assert err == b""


CLASSES_PINS = Path(__file__).with_name("classes_pins.json")


def test_classes_tables_match_pins(capsys):
    # classes --format machine on the ten pairs at ranks 2 and 3, the csv
    # and table formats on two pairs, and the table of A:so-even:6, byte
    # for byte
    pins = json.loads(CLASSES_PINS.read_text())
    assert len(pins) == 25
    for call, digest in pins.items():
        code, out, _ = run(capsys, *call.split())
        assert code == 0, call
        assert hashlib.sha256(out.encode()).hexdigest() == digest, call
