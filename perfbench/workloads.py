"""Workload definitions for the korbits benchmark.

Each workload is a list of ``korbits`` command lines run one after another
in fresh processes (a closed loop with a single client).  Two workloads are
fixed lists whose outputs are pinned in ``expected.json``; the third,
``verify-localize``, is generated from the seed by :func:`make_verify_inputs`
and carries its own expected output.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected.json"

CLASSES_PAIRS = (
    "A:glpq:3,3",
    "A:so:5",
    "A:so-even:6",
    "A:sp:8",
    "B:oo:2,1",
    "C:spsp:2,2",
    "C:gl:4",
    "D:oo:2,2",
    "D:gl:4",
    "D:oo-odd:2,2",
)

# Divided differences and table formatting for all ten pairs, plus the Chern
# rewrite for two type A orbits.  Localization only settles path checks.
CLASSES_SWEEP = tuple(
    ("classes", pair, "--format", "machine") for pair in CLASSES_PAIRS
) + (
    ("chern", "A:glpq:2,2", "(+,+,-,-)"),
    ("chern", "A:sp:6", "(1,6)(2,5)(3,4)"),
)

# No polynomial algebra at all: clan enumeration, the weak-order BFS and the
# fiber counting dominate.
ORBITS_COUNT = (
    ("orbits", "D:oo-odd:2,3"),
    ("orbits", "D:gl:5"),
    ("orbits", "C:spsp:2,3"),
    ("count", "D-unequal:5"),
    ("count", "B:4"),
    ("graph", "A:sp:8"),
    ("graph", "A:so:7"),
)

FIXED_WORKLOADS = {"classes-sweep": CLASSES_SWEEP, "orbits-count": ORBITS_COUNT}
WORKLOADS = ("classes-sweep", "orbits-count", "verify-localize")

# verify-localize: re-expressed copies of every row per fixture file, and the
# share of rows in each copy that is deliberately made wrong.
VARIANTS = 4
WRONG_SHARE = 0.2


@dataclass(frozen=True)
class Invocation:
    """One CLI call with the exit code and stdout it must produce."""

    args: tuple[str, ...]
    exit_code: int
    sha256: str


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def count_records(command: str, stdout: bytes) -> int:
    """Output records of one call: orbit parameters, class rows, count rows,
    DOT edges or verified rows."""
    lines = stdout.decode("utf-8", "replace").splitlines()
    if command == "classes":
        return sum(1 for line in lines if " := " in line)
    if command == "chern":
        return len(lines)
    if command == "orbits":
        return sum(1 for line in lines if not line.startswith("total:"))
    if command == "graph":
        return sum(1 for line in lines if "->" in line)
    if command in ("count", "verify"):
        return sum(1 for line in lines if line.startswith(("ok  ", "FAIL")))
    raise ValueError(f"no record rule for {command!r}")


def fixed_invocations(workload: str) -> list[Invocation]:
    pinned = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    out = []
    for args in FIXED_WORKLOADS[workload]:
        entry = pinned[" ".join(args)]
        out.append(Invocation(args, entry["exit_code"], entry["sha256"]))
    return out


def _invariant_text(restriction) -> str:
    """sum_j y_j^2 - sum_i c_i x_i^2 with c_i the number of torus
    coordinates that restrict to +-x_i.  Restriction at any fixed point
    permutes the y's up to sign before applying the map, so this W-invariant
    polynomial restricts to zero everywhere."""
    weights: dict[int, int] = {}
    for target in restriction:
        if target is not None:
            weights[target[1]] = weights.get(target[1], 0) + 1
    ys = "+".join(f"y{j}^2" for j in range(1, len(restriction) + 1))
    xs = "".join(f"-{c}*x{i}^2" for i, c in sorted(weights.items()))
    return ys + xs


def _monomial_text(rng: random.Random, names: list[str], degree: int) -> str:
    coeff = rng.choice((-3, -2, -1, 1, 2, 3))
    factors = [str(coeff)] + [rng.choice(names) for _ in range(degree)]
    return "*".join(factors)


def make_verify_inputs(seed: int, fixtures: Path, workdir: Path) -> list[Invocation]:
    """Write one re-expressed table per shipped fixture and return the
    ``verify`` calls with the output they must produce.

    Every row becomes ``(row) + m*I`` with ``m`` a seeded monomial and ``I``
    the invariant above, so it is no longer literally equal to the computed
    class and verification must localize at every fixed point.  A seeded
    WRONG_SHARE of the rows of each copy also gets ``+c*x1^d``, which
    restricts to itself at every fixed point, so exactly those rows FAIL.
    Wrong rows are drawn from the non-closed orbits, whose computed classes
    restrict in one substitution each; with a fixed number of wrong rows per
    copy every work count is then the same for every seed.
    """
    from korbits import closed_orbits, parse_pair_spec, parse_polynomial, restriction_map
    from korbits.classes import parse_fixture
    from korbits.orbits import parse_orbit_parameter

    rng = random.Random(seed)
    calls = []
    for path in sorted(fixtures.glob("*.txt")):
        spec, rows = parse_fixture(path.read_text(encoding="utf-8"))
        pair = parse_pair_spec(spec)
        space = pair.variable_space()
        names = [f"x{i}" for i in range(1, space.x_count + 1)]
        names += [f"y{j}" for j in range(1, space.y_count + 1)]
        invariant = _invariant_text(restriction_map(pair))
        closed = {param for param, _ in closed_orbits(pair)}
        open_rows = [
            k
            for k, (param, _) in enumerate(rows)
            if parse_orbit_parameter(pair, param, allow_union=True) not in closed
        ]
        degrees = []
        for _, text in rows:
            poly = parse_polynomial(text, space)
            degree = poly.homogeneous_degree()
            degrees.append(poly.total_degree() if degree is None else degree)
        wrong_count = min(len(open_rows), max(1, round(WRONG_SHARE * len(rows))))
        lines = [f"# pair: {spec}"]
        expected = []
        for _ in range(VARIANTS):
            wrong = set(rng.sample(open_rows, wrong_count))
            for k, (param, text) in enumerate(rows):
                mult = _monomial_text(rng, names, max(degrees[k] - 2, 0))
                body = f"({text})+({mult})*({invariant})"
                if k in wrong:
                    body += f"+({rng.choice((-2, -1, 1, 2))})*x1^{max(degrees[k], 1)}"
                lines.append(f"{param} := {body}")
                expected.append((param, k not in wrong))
        table = workdir / path.name
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        failures = sum(1 for _, ok in expected if not ok)
        stdout = "".join(f"{'ok  ' if ok else 'FAIL'} {param}\n" for param, ok in expected)
        stdout += f"{len(expected) - failures}/{len(expected)} rows verified (localization)\n"
        calls.append(
            Invocation(("verify", str(table)), 1 if failures else 0, sha256(stdout.encode()))
        )
    return calls
