"""Check that the benchmark is steady and that its workloads stress what
they claim, and record the measured baseline.

    python3 perfbench/prove.py

Runs the command in BENCHMARK.json from the checkout root, once per seed
for every workload, for SETS sets of RUNS seeds.  For every end-to-end
metric it prints the median and the quartile spread (Q3 - Q1) / median, as
``statistics.quantiles(values, n=4)`` gives them, next to the metric's
bound; it fails if a spread exceeds the bound or if the second set's median
is worse than the first's by more than the bound.  TRACE_RUNS traced
runs per workload check that every count metric is identical across seeds
and that each workload loads the layer it was chosen for.  Writes the results, with the
Python version, CPU count and load average, to ``perfbench/baseline.json``.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, environment

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
RUNS = 10
SETS = 2
TRACE_RUNS = 3

# What each workload was chosen to stress, checked on its traced metrics.
STRESS_CHECKS = {
    "classes-sweep": [
        (
            "algebra.exact_divide.self_s is the largest self time",
            lambda m: max((k for k in m if k.endswith(".self_s")), key=m.get)
            == "algebra.exact_divide.self_s",
        ),
    ],
    "orbits-count": [
        ("algebra.divided_difference.calls is 0", lambda m: m["algebra.divided_difference.calls"] == 0),
    ],
    "verify-localize": [
        ("classes.path_checks.localized > 0", lambda m: m["classes.path_checks.localized"] > 0),
        ("weyl.fixed_points > 0", lambda m: m["weyl.fixed_points"] > 0),
    ],
}


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    result = {"environment": environment(), "claim": None, "run_seconds": bench["run_seconds"],
              "workloads": {name: {"sets": [], "per_layer": {}} for name in names}}
    ok = True

    def fail(message: str) -> None:
        nonlocal ok
        ok = False
        print(f"FAIL {message}")

    for set_index in range(SETS):
        values = {name: {m["name"]: [] for m in bench["end_to_end"]} for name in names}
        for run in range(RUNS):
            seed = set_index * RUNS + run + 1
            for name in names:  # interleaved, so host drift hits every workload alike
                out = run_once(bench, name, seed, trace=0)
                if not out["correct"] or out["failed"]:
                    fail(f"{name} seed {seed}: {out['failed']}/{out['attempted']} calls wrong")
                for metric, series in values[name].items():
                    series.append(out["metrics"][metric]["value"])
        for name in names:
            summary = {}
            for metric in bench["end_to_end"]:
                series = values[name][metric["name"]]
                median, q1, q3, rel = spread(series)
                summary[metric["name"]] = {
                    "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                    "spread": rel, "bound": metric["bound"], "values": series,
                }
                print(f"set {set_index + 1} {name:16s} {metric['name']:12s} "
                      f"{median:12.6g} {metric['unit']:5s} spread {rel:.4f} "
                      f"(bound {metric['bound']}, third {metric['bound'] / 3:.4f})")
                if rel > metric["bound"]:
                    fail(f"{name} {metric['name']} spread {rel:.4f} > bound {metric['bound']}")
                first = result["workloads"][name]["sets"][:1]
                if first:
                    base = first[0][metric["name"]]["median"]
                    worse = (median - base) / base
                    if metric["better"] == "higher":
                        worse = -worse
                    print(f"      second median worse by {worse:+.4f} of the first")
                    if worse > metric["bound"]:
                        fail(f"{name} {metric['name']} median worse by {worse:.4f}")
            result["workloads"][name]["sets"].append(summary)

    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name in names:
        traced = [run_once(bench, name, seed, trace=1) for seed in range(1, TRACE_RUNS + 1)]
        for seed, out in enumerate(traced, start=1):
            if not out["correct"] or out["failed"]:
                fail(f"{name} traced seed {seed}: {out['failed']}/{out['attempted']} calls wrong")
        per_layer = {}
        for metric, unit in layer_units.items():
            series = [out["metrics"][metric]["value"] for out in traced]
            if unit != "s" and len(set(series)) != 1:
                fail(f"{name} {metric} differs across seeds: {series}")
            per_layer[metric] = statistics.median(series)
        for claim, check in STRESS_CHECKS.get(name, []):
            held = check(per_layer)
            print(f"{name:16s} {'holds' if held else 'FAILS'}: {claim}")
            if not held:
                fail(f"{name}: {claim}")
        result["workloads"][name]["per_layer"] = per_layer

    BASELINE.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print("all checks passed" if ok else "some checks failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
