"""The exit-code contract under random command lines and fixture text.

0 means success, 1 only a failed verification, 2 bad input (one line, no
traceback), 3 a broken internal invariant.  Ranks stay at most 2, so every
drawn call is cheap.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from korbits.cli import main
from korbits.counting import INNER_CLASSES
from korbits.errors import UsageError
from korbits.orbits import enumerate_orbits
from korbits.pairs import parse_pair_spec

SMALL = st.sampled_from([1, 2, 0, 1, -1])


@st.composite
def pair_specs(draw):
    """The ten descriptor forms at rank <= 2, bad ranks and malformed text."""
    p, q = draw(SMALL), draw(SMALL)
    size = draw(st.sampled_from([3, 4, 5, 2, 1, 0, -1]))
    n = draw(SMALL)
    return draw(
        st.sampled_from(
            [
                f"A:glpq:{p},{q}" if p + q <= 2 else "A:glpq:1,1",
                f"A:so:{size}",
                f"A:so-even:{size}",
                f"A:sp:{size}",
                f"B:oo:{p},{q}" if p + q <= 2 else "B:oo:1,1",
                f"C:spsp:{p},{q}" if p + q <= 2 else "C:spsp:0,2",
                f"C:gl:{n}",
                f"D:oo:{p},{q}" if p + q <= 2 else "D:oo:2,0",
                f"D:gl:{n}",
                f"D:oo-odd:{p},{q}" if p + q <= 2 else "D:oo-odd:1,1",
                "Z:bad:1",
                "A:so",
                "A:glpq:x,1",
                "",
            ]
        )
    )


def _atom():
    return st.one_of(
        st.integers(min_value=0, max_value=12).map(str),
        st.tuples(st.integers(0, 9), st.integers(0, 4)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.tuples(st.sampled_from("xy"), st.sampled_from([1, 2, 3, 0, 9])).map(
            lambda t: f"{t[0]}{t[1]}"
        ),
    )


def _extend(inner):
    return st.one_of(
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
        st.tuples(inner, st.sampled_from("+-*"), inner).map("".join),
        st.tuples(inner, st.sampled_from([2, 3, 0, 70])).map(lambda t: f"({t[0]})^{t[1]}"),
    )


# polynomial grammar text, or now and then a string of its characters and others
GRAMMAR = st.recursive(_atom(), _extend, max_leaves=8)
POLYNOMIALS = GRAMMAR | GRAMMAR | st.text(alphabet="xy0123456789+-*^()/ ,a", max_size=12)


def labels(spec):
    """The pair's orbit parameters (when the spec is valid), or bad ones."""
    try:
        params = [str(param) for param in enumerate_orbits(parse_pair_spec(spec))]
    except UsageError:
        params = []
    bad = st.sampled_from(["(+,-)", "(1,1)", "(1,2)", "+(1,2)", "id", "?"])
    return st.sampled_from(params) | st.sampled_from(params) | bad if params else bad


@st.composite
def fixture_text(draw):
    spec = draw(pair_specs())
    rows = draw(st.lists(st.tuples(labels(spec), POLYNOMIALS), max_size=3))
    header = draw(st.sampled_from([f"# pair: {spec}\n"] * 3 + [""]))
    return header + "".join(f"{label} := {poly}\n" for label, poly in rows)


@st.composite
def command_lines(draw, fixture_path):
    command = draw(st.sampled_from(["orbits", "graph", "classes", "verify", "count", "chern"]))
    if command == "verify":
        fixture_path.write_text(draw(fixture_text()))
        argv = ["verify", str(fixture_path)]
        argv += draw(st.sampled_from([[], ["--literal"], ["--pair", "A:sp:4"], ["--max-n", "1"]]))
        return argv
    if command == "count":
        name = draw(st.sampled_from(INNER_CLASSES + ("E", "B3")))
        rank = draw(st.sampled_from(["-1", "0", "1", "2", "3", "99", "x"]))
        return ["count", f"{name}:{rank}"]
    argv = [command, draw(pair_specs())]
    if command == "orbits":
        argv += draw(st.sampled_from([[], ["--format", "json"], ["--format", "xml"]]))
    elif command == "classes":
        argv += draw(st.sampled_from([[], ["--format", "machine"], ["--format", "csv"]]))
    elif command == "chern":
        argv.append(draw(labels(argv[1])))
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_exit_code_contract(tmp_path_factory, data):
    fixture = tmp_path_factory.getbasetemp() / "fuzz-fixture.txt"
    argv = data.draw(command_lines(fixture))
    code, err = _run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 1:
        assert argv[0] in ("verify", "count") and err.startswith("verification failed:"), argv
    if code == 2:
        assert err.startswith("error:") and len(err.splitlines()) == 1, (argv, err)
