"""Command-line interface.

Subcommands: orbits (list parameters), graph (weak order as DOT), classes
(formula tables), verify (check a fixture file by localization), count
(clan totals vs fiber sizes), chern (rewrite a class over Chern
generators).  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys

from .classes import (
    class_for_parameter,
    format_table,
    parse_fixture,
    propagate,
    propagate_all,
    to_chern_basis,
    verify_rows,
)
from .counting import INNER_CLASSES, count_report
from .errors import ContractViolation, InternalError, UsageError, VerificationFailure
from .orbits import build_weak_order_graph, to_dot
from .pairs import SymmetricPair, parse_decimal, parse_pair_spec
from .weyl import group_order

FIXTURE_ENV = "KORBITS_FIXTURES"


def _max_n(text: str) -> int:
    max_n = parse_decimal(text, "--max-n")
    if max_n < 1:
        raise UsageError(f"--max-n must be at least 1, not {max_n}")
    return max_n


def _check_weyl_bound(pair: SymmetricPair, max_n: int) -> None:
    import math

    # the hyperoctahedral order at max-n; every ambient Weyl group of size N
    # has order at most N! 2^N, so max-n past N changes no outcome
    bound = min(max_n, pair.ambient_family()[1])
    limit = math.factorial(bound) << bound
    order = group_order(*pair.ambient_family())
    if order > limit:
        raise UsageError(
            f"localization would enumerate {order} fixed points, beyond the "
            f"--max-n {max_n} bound ({limit}); raise --max-n to proceed"
        )


def _cmd_orbits(args) -> int:
    pair = parse_pair_spec(args.pair)
    graph = build_weak_order_graph(pair)
    params = graph.level  # keyed in enumerate_orbits order
    closed, dense = set(graph.closed), graph.dense
    if args.format == "json":
        import json
        payload = [
            {
                "parameter": str(param),
                "closed": param in closed,
                "dense": param == dense,
            }
            for param in params
        ]
        print(json.dumps({"pair": pair.spec_string(), "orbits": payload}, indent=2))
        return 0
    for param in params:
        marks = []
        if param in closed:
            marks.append("closed")
        if param == dense:
            marks.append("dense")
        suffix = f"  [{', '.join(marks)}]" if marks else ""
        print(f"{param}{suffix}")
    print(f"total: {len(params)} orbits of {pair.describe()}")
    return 0


def _cmd_graph(args) -> int:
    pair = parse_pair_spec(args.pair)
    print(to_dot(build_weak_order_graph(pair)), end="")
    return 0


def _cmd_classes(args) -> int:
    pair = parse_pair_spec(args.pair)
    format_table(pair, propagate(pair), args.format, sys.stdout.write)
    return 0


def _fixture_text(path: str) -> str:
    """The path itself, else the path under $KORBITS_FIXTURES, else a
    packaged fixture; one that cannot be read as UTF-8 text is bad input."""
    override = os.environ.get(FIXTURE_ENV)
    try:
        for candidate in [path] + ([os.path.join(override, path)] if override else []):
            if os.path.exists(candidate):
                with open(candidate, "r", encoding="utf-8") as handle:
                    return handle.read()
        from importlib import resources
        packaged = resources.files("korbits").joinpath("fixtures", path)
        if packaged.is_file():
            return packaged.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"fixture {path!r} cannot be read: {exc}") from None
    raise UsageError(f"fixture {path!r} not found")


def _cmd_verify(args) -> int:
    max_n = _max_n(args.max_n)
    text = _fixture_text(args.fixture)
    pair_spec, rows = parse_fixture(text)
    if args.pair:
        pair = parse_pair_spec(args.pair)
    elif pair_spec:
        pair = parse_pair_spec(pair_spec)
    else:
        raise UsageError("fixture has no pair header; pass --pair")
    _check_weyl_bound(pair, max_n)
    results = verify_rows(pair, rows, literal=args.literal)
    failures = 0
    for param_text, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {param_text}")
        failures += 0 if ok else 1
    mode = "literal" if args.literal else "localization"
    print(f"{len(results) - failures}/{len(results)} rows verified ({mode})")
    if failures:
        raise VerificationFailure(f"{failures} rows failed")
    return 0


def _cmd_count(args) -> int:
    spec = args.inner_class
    if ":" not in spec:
        raise UsageError("inner class spec looks like B:3 or D-compact:2")
    max_n = _max_n(args.max_n)
    name, rank_text = spec.rsplit(":", 1)
    rank = parse_decimal(rank_text, "rank")
    if rank < 1 or rank > max_n:
        raise UsageError(f"rank must be between 1 and --max-n ({max_n})")
    rows = count_report(name, rank)
    failures = 0
    for row in rows:
        status = "ok  " if row.ok else "FAIL"
        print(f"{status} {row.involution}: clans={row.clan_count} fiber={row.fiber_count}")
        failures += 0 if row.ok else 1
    print(f"{len(rows) - failures}/{len(rows)} twisted involutions match")
    if failures:
        raise VerificationFailure(f"{failures} fibers mismatch")
    return 0


def _cmd_chern(args) -> int:
    pair = parse_pair_spec(args.pair)
    if pair.root_family() != "A":
        raise UsageError("Chern rewriting is supported for type A pairs only")
    classes = propagate_all(pair)
    cls = class_for_parameter(pair, classes, args.parameter)
    print(to_chern_basis(cls))
    return 0


class _Parser(argparse.ArgumentParser):
    """Rejects a command line with a one-line usage error (exit 2), not
    argparse's usage block; ``--help`` still prints help and exits 0."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="korbits",
        description=(
            "Orbit parametrizations, weak-order graphs and exact equivariant "
            "classes of symmetric-subgroup orbit closures on flag varieties."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_orbits = sub.add_parser("orbits", help="list orbit parameters")
    p_orbits.add_argument("pair")
    p_orbits.add_argument("--format", choices=("plain", "json"), default="plain")
    p_orbits.set_defaults(func=_cmd_orbits)

    p_graph = sub.add_parser("graph", help="weak order graph as DOT")
    p_graph.add_argument("pair")
    p_graph.set_defaults(func=_cmd_graph)

    p_classes = sub.add_parser("classes", help="table of class formulas")
    p_classes.add_argument("pair")
    p_classes.add_argument("--format", choices=("table", "csv", "machine"), default="table")
    p_classes.set_defaults(func=_cmd_classes)

    p_verify = sub.add_parser("verify", help="check a fixture file")
    p_verify.add_argument("fixture")
    p_verify.add_argument("--pair", default=None)
    p_verify.add_argument("--literal", action="store_true")
    p_verify.add_argument("--max-n", default="5")
    p_verify.set_defaults(func=_cmd_verify)

    p_count = sub.add_parser("count", help="clan totals vs fiber sizes")
    p_count.add_argument(
        "inner_class", help=f"NAME:n with NAME one of {', '.join(INNER_CLASSES)}"
    )
    p_count.add_argument("--max-n", default="5")
    p_count.set_defaults(func=_cmd_count)

    p_chern = sub.add_parser("chern", help="class over Chern generators")
    p_chern.add_argument("pair")
    p_chern.add_argument("parameter")
    p_chern.set_defaults(func=_cmd_chern)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader took what it wanted (as `| head` does): send the rest of
        # the output nowhere and succeed, as the Python docs recommend
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # anything else is a bug too, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
