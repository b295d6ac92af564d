"""Run one ``korbits`` command with per-layer tracing.

    python3 perfbench/trace_child.py TRACE_JSON korbits-args...

Wraps public functions of the korbits modules in spans, runs
``korbits.cli.main`` on the remaining arguments, and writes per-span call
counts, inclusive and self times, caller edges and work counters to
TRACE_JSON.  The command's stdout and exit code are left untouched, so the
caller checks them exactly as for an untraced run.  The library itself is
not modified: wrappers are installed into every korbits module namespace
that binds the wrapped function, because the modules import names with
``from .x import f``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (defining module, function, span name)
SPANS = (
    ("algebra", "divided_difference", "algebra.divided_difference"),
    ("algebra", "exact_divide", "algebra.exact_divide"),
    ("algebra", "poly_determinant", "algebra.poly_determinant"),
    ("algebra", "parse_polynomial", "algebra.parse_polynomial"),
    ("clans", "enumerate_clans", "clans.enumerate_clans"),
    ("orbits", "enumerate_orbits", "orbits.enumerate_orbits"),
    ("orbits", "build_weak_order_graph", "orbits.build_weak_order_graph"),
    ("classes", "closed_orbit_class", "classes.closed_orbit_class"),
    ("classes", "propagate_all", "classes.propagate_all"),
    ("classes", "split_orbit_data", "classes.split_orbit_data"),
    ("classes", "equal_via_localization", "classes.equal_via_localization"),
    ("classes", "restrict_at", "classes.restrict_at"),
    ("classes", "format_table", "classes.format_table"),
    ("classes", "to_chern_basis", "classes.to_chern_basis"),
    ("classes", "verify_rows", "classes.verify_rows"),
    ("counting", "count_report", "counting.count_report"),
)


class Tracer:
    """In-memory span aggregation: a stack of open spans, per-name call
    counts with inclusive and self time, and per caller-callee edge call
    counts.  Self time is a span's duration minus that of its child spans."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, time spent in child spans]
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: Counter = Counter()
        self.counters: Counter = Counter()

    def wrap(self, name, fn, after=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else "root"
            frame = [name, 0.0]
            self.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += elapsed
                stats = self.spans.setdefault(name, [0, 0.0, 0.0])
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                self.edges[f"{parent}>{name}"] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.spans[name][0] if name in self.spans else 0

    def report(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in self.spans.items()
            },
            "edges": dict(self.edges),
            "counters": dict(self.counters),
        }


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever a korbits module binds it."""
    import korbits.cli  # noqa: F401  (imports every korbits module)
    from korbits.algebra import Polynomial

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "korbits"]
    counters = tracer.counters

    def count_terms(args, result):
        counters["algebra.terms_out"] += len(result.terms)

    def count_generated(args, result):
        counters["clans.generated"] += len(result)

    def count_kept_orbits(args, result):
        if args[0].is_clan_case():
            counters["clans.kept"] += len(result)

    def count_kept_rows(args, result):
        counters["clans.kept"] += sum(row.clan_count for row in result)

    after = {
        "algebra.divided_difference": count_terms,
        "clans.enumerate_clans": count_generated,
        "orbits.enumerate_orbits": count_kept_orbits,
        "counting.count_report": count_kept_rows,
    }

    def path_check(fn):
        # a check that never restricts at a fixed point settled literally
        @functools.wraps(fn)
        def check(c1, c2):
            before = tracer.calls("classes.restrict_at")
            result = fn(c1, c2)
            kind = "localized" if tracer.calls("classes.restrict_at") > before else "literal"
            counters[f"classes.path_checks.{kind}"] += 1
            return result

        return check

    for module_name, func_name, span in SPANS:
        original = getattr(sys.modules[f"korbits.{module_name}"], func_name)
        inner = path_check(original) if func_name == "equal_via_localization" else original
        wrapper = tracer.wrap(span, inner, after.get(span))
        for module in modules:
            if getattr(module, func_name, None) is original:
                setattr(module, func_name, wrapper)

    Polynomial.substitute = tracer.wrap("algebra.substitute", Polynomial.substitute)

    classes = sys.modules["korbits.classes"]
    ambient_weyl = classes.ambient_weyl

    def counted_ambient_weyl(pair):
        for element in ambient_weyl(pair):
            counters["weyl.fixed_points"] += 1
            yield element

    classes.ambient_weyl = counted_ambient_weyl


def main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from korbits import cli

    try:
        return tracer.wrap("cli.main", cli.main)(args)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.report(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
