"""The pair-kind table: descriptors, names, and where cases are dispatched."""

import ast
import re
from pathlib import Path

import pytest

from korbits.errors import UsageError
from korbits.pairs import KINDS, parse_pair_spec

ROOT = Path(__file__).resolve().parents[1]

# an expression in n, p, q such as "2n+1", "p+q" or "2q-1", not inside a word
_EXPR = re.compile(r"(?<![A-Za-z0-9])\d*[npq](?:[+-](?:\d*[npq]|\d+))*(?![A-Za-z])")


def _instantiate(text: str, n: int, p: int, q: int) -> str:
    def value(match) -> str:
        expr = re.sub(r"(\d)([npq])", r"\1*\2", match.group(0))
        return str(eval(expr, {}, {"n": n, "p": p, "q": q}))

    return _EXPR.sub(value, text)


def _readme_rows() -> list[tuple[str, str]]:
    """(descriptor, pair) rows of the README's table of the ten pairs."""
    rows = []
    for line in (ROOT / "README.md").read_text().splitlines():
        match = re.match(r"\| `([^`]+)`\s*\| ([^|]+?)\s*\|", line)
        if match:
            rows.append((match.group(1), match.group(2)))
    return rows


def test_readme_table_lists_every_kind():
    descriptors = {descriptor.rsplit(":", 1)[0] for descriptor, _ in _readme_rows()}
    assert descriptors == {kind.descriptor for kind in KINDS.values()}
    assert len(_readme_rows()) == 10


@pytest.mark.parametrize("n, p, q", [(2, 1, 1), (3, 1, 2)])
@pytest.mark.parametrize("descriptor, described", _readme_rows())
def test_descriptor_round_trip_and_description(descriptor, described, n, p, q):
    spec = _instantiate(descriptor, n, p, q)
    pair = parse_pair_spec(spec)
    assert pair.n == n
    assert pair.spec_string() == spec
    assert parse_pair_spec(pair.spec_string()) == pair
    assert pair.describe() == _instantiate(described, n, p, q)


@pytest.mark.parametrize(
    "spec",
    [
        "A:so:4",  # even A:so
        "A:so:1",
        "A:so-even:5",
        "A:sp:5",  # odd A:sp
        "A:sp:0",
        "D:oo-odd:2,0",
        "D:oo:1,0",  # rank 1 in type D
        "D:gl:1",
        "D:oo-odd:0,1",
        "A:glpq:0,0",
        "B:oo:1,-1",
        "C:gl:x",
        "A:glpq:1",
        "Z:bad:1",
        "A:so",
    ],
)
def test_bad_descriptor_is_usage_error(spec):
    with pytest.raises(UsageError):
        parse_pair_spec(spec)


# a read of a pair's case: no module has one, pairs included
_CASE_READ = re.compile(r"\.case\b")
# a pair kind looked up or compared by its descriptor: only pairs does that
_KIND_BY_NAME = re.compile(r"\bKINDS(?:\[|\.get\b)|\.descriptor\s*[!=]=")


def test_no_case_chains_outside_pairs():
    # a pair holds its kind record; other modules read the kind's facts
    # through pair.kind, and key per-rule tables by a field of the kind, so
    # no module reads a case and none but pairs names a kind to find it
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted((ROOT / "src" / "korbits").glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if _CASE_READ.search(line) or (path.name != "pairs.py" and _KIND_BY_NAME.search(line))
    ]
    assert offenders == []


def test_case_guard_catches_a_case_read_and_a_kind_by_name():
    case_hits = ["table[pair.case]", "if self.case == other.case:", "(p.case)"]
    case_misses = ["pair.cases", "pair.is_clan_case()", '"TYPE:case"', "lowercase"]
    name_hits = [
        'KINDS["D:oo-odd"]', 'KINDS.get("A:sp")', 'if pair.kind.descriptor == "A:sp":',
        "kind.descriptor != other.kind.descriptor",
    ]
    name_misses = [
        "KINDS.values()", 'f"{kind.descriptor}:{params}"', "the A:so and D:gl pairs",
        "kind.descriptor_x == 1", "pair.kind.closed",
    ]
    assert all(_CASE_READ.search(line) for line in case_hits)
    assert not any(_CASE_READ.search(line) for line in case_misses)
    assert all(_KIND_BY_NAME.search(line) for line in name_hits)
    assert not any(_KIND_BY_NAME.search(line) for line in name_misses)


# a read of the pair kind's involution policy
_POLICY = re.compile(r"\.involutions\b")
# the functions that generate and classify the involution-labelled orbits
_POLICY_READERS = {("orbits.py", "enumerate_orbits"), ("orbits.py", "classify_simple_root")}


def _reads(pattern: re.Pattern) -> set[tuple[str, str]]:
    """(module, top-level definition) of every library line that matches the pattern."""
    found = set()
    for path in sorted((ROOT / "src" / "korbits").glob("*.py")):
        source = path.read_text()
        spans = [
            (node.lineno, node.end_lineno, node.name)
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        found |= {
            (path.name, next((name for lo, hi, name in spans if lo <= lineno <= hi), "<module>"))
            for lineno, line in enumerate(source.splitlines(), start=1)
            if pattern.search(line)
        }
    return found


def test_involution_policy_is_read_only_where_orbits_are_made():
    # which involutions label orbits is decided where the orbits are
    # generated and classified; every other reader asks the weak-order graph
    assert _reads(_POLICY) == _POLICY_READERS


def test_policy_guard_catches_a_policy_read():
    hits = ["pair.kind.involutions", 'if kind.involutions == "split":', "k.involutions)"]
    misses = [
        "involutions(size)", "from .weyl import involutions", "k.involutions_x", '"involutions",'
    ]
    assert all(_POLICY.search(line) for line in hits)
    assert not any(_POLICY.search(line) for line in misses)


# a read of the pair kind's closed-orbit rule
_CLOSED_RULE = re.compile(r"\bkind\.closed\b")
# the class formulas, the membership test and the closedness test
_CLOSED_RULE_READERS = {
    ("classes.py", "closed_orbit_class"),
    ("classes.py", "_closed_member"),
    ("orbits.py", "_is_closed"),
}


def test_closed_orbit_rule_is_read_only_where_closed_orbits_are_decided():
    # which orbits are closed, their fixed points and their classes are
    # decided by these three; every other reader asks the weak-order graph
    assert _reads(_CLOSED_RULE) == _CLOSED_RULE_READERS


def test_closed_rule_guard_catches_a_rule_read():
    hits = ["_MEMBERS[pair.kind.closed]", 'if kind.closed == "oo_odd":', "(k.kind.closed)"]
    misses = ["graph.closed", "build_weak_order_graph(pair).closed", "kind.closed_x", "'closed'"]
    assert all(_CLOSED_RULE.search(line) for line in hits)
    assert not any(_CLOSED_RULE.search(line) for line in misses)


# a read of the pair kind's Chern form
_CHERN = re.compile(r"\bkind\.chern\b")
# the command's refusal and the rewrite itself
_CHERN_READERS = {("cli.py", "_cmd_chern"), ("classes.py", "to_chern_basis")}


def test_chern_form_is_read_only_where_a_class_is_rewritten():
    # whether a pair has a Chern form is one field, read by the command that
    # refuses a pair without one and by the rewrite; no root family stands in
    assert _reads(_CHERN) == _CHERN_READERS


def test_chern_guard_catches_a_form_read():
    hits = ["if pair.kind.chern is None:", 'kind.chern == "blocks"', "(k.kind.chern)"]
    misses = ["to_chern_basis(cls)", "kind.chern_x", '"chern",', "korbits chern"]
    assert all(_CHERN.search(line) for line in hits)
    assert not any(_CHERN.search(line) for line in misses)
