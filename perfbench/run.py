"""korbits benchmark: pinned CLI workloads in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every ``korbits`` call runs in its
own process (``python -m korbits.cli`` with ``src`` on PYTHONPATH), one after
another: a closed loop with a single client.  A pass runs the workload's
calls once; passes repeat until ``--seconds`` have been spent, and every
call's exit code and stdout SHA-256 is checked against its expectation.

``--trace 0`` prints the end-to-end metrics: the median pass wall time, the
output records per second, the largest child max-RSS of a pass and the
median cold ``import korbits.cli`` time, sampled between the calls all
through the run.  ``--trace 1`` runs every call untraced and then under
``trace_child.py`` and prints per-layer counts and self times, and the
tracing overhead in child CPU time.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed``
counts calls whose exit code or stdout differed from the expectation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "korbits" / "fixtures"
# share of a run spent on cold start-up samples, spread between the calls
SETUP_SHARE = 0.15

TIME = "s"
COUNT = "count"
# per-layer metric -> (source in the merged trace, unit); a source is
# "span:<name>:<field>" or "counter:<name>"
LAYER_METRICS = {
    "algebra.divided_difference.calls": ("span:algebra.divided_difference:calls", COUNT),
    "algebra.divided_difference.self_s": ("span:algebra.divided_difference:self_s", TIME),
    "algebra.exact_divide.calls": ("span:algebra.exact_divide:calls", COUNT),
    "algebra.exact_divide.self_s": ("span:algebra.exact_divide:self_s", TIME),
    "algebra.terms_out": ("counter:algebra.terms_out", COUNT),
    "algebra.poly_determinant.self_s": ("span:algebra.poly_determinant:self_s", TIME),
    "algebra.substitute.calls": ("span:algebra.substitute:calls", COUNT),
    "algebra.substitute.self_s": ("span:algebra.substitute:self_s", TIME),
    "algebra.parse_polynomial.self_s": ("span:algebra.parse_polynomial:self_s", TIME),
    "clans.enumerate_clans.self_s": ("span:clans.enumerate_clans:self_s", TIME),
    "clans.generated": ("counter:clans.generated", COUNT),
    "weyl.fixed_points": ("counter:weyl.fixed_points", COUNT),
    "orbits.enumerate_orbits.calls": ("span:orbits.enumerate_orbits:calls", COUNT),
    "orbits.enumerate_orbits.self_s": ("span:orbits.enumerate_orbits:self_s", TIME),
    "orbits.build_weak_order_graph.calls": ("span:orbits.build_weak_order_graph:calls", COUNT),
    "orbits.build_weak_order_graph.self_s": ("span:orbits.build_weak_order_graph:self_s", TIME),
    "classes.closed_orbit_class.self_s": ("span:classes.closed_orbit_class:self_s", TIME),
    "classes.propagate_all.self_s": ("span:classes.propagate_all:self_s", TIME),
    "classes.split_orbit_data.self_s": ("span:classes.split_orbit_data:self_s", TIME),
    "classes.path_checks.literal": ("counter:classes.path_checks.literal", COUNT),
    "classes.path_checks.localized": ("counter:classes.path_checks.localized", COUNT),
    "classes.restrict_at.calls": ("span:classes.restrict_at:calls", COUNT),
    "classes.restrict_at.self_s": ("span:classes.restrict_at:self_s", TIME),
    "classes.format_table.self_s": ("span:classes.format_table:self_s", TIME),
    "classes.to_chern_basis.self_s": ("span:classes.to_chern_basis:self_s", TIME),
    "classes.verify_rows.self_s": ("span:classes.verify_rows:self_s", TIME),
    "counting.count_report.self_s": ("span:counting.count_report:self_s", TIME),
    "cli.main.s": ("span:cli.main:total_s", TIME),
}


class Runner:
    """Runs the calls of one workload and checks their outputs."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )
        self.attempted = 0
        self.failures: list[str] = []  # calls whose exit code or stdout was wrong
        self.problems: list[str] = []  # other broken checks
        self.started = time.perf_counter()
        self.setup: list[float] = []  # cold import start times

    def spawn(self, cmd: list[str]):
        """Run cmd to completion: (wall seconds, exit code, stdout, resource
        usage of this child alone)."""
        with open(self.workdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env)
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, stdout, usage

    def run_call(self, call, traced: bool = False):
        """Run one call and check its exit code and stdout: (wall seconds,
        CPU seconds, records, max-RSS in KiB, trace report or None)."""
        if traced:
            trace_file = self.workdir / "trace.json"
            trace_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(trace_file)]
        else:
            cmd = [sys.executable, "-m", "korbits.cli"]
        seconds, code, stdout, usage = self.spawn(cmd + list(call.args))
        self.attempted += 1
        digest = workloads.sha256(stdout)
        if code != call.exit_code or digest != call.sha256:
            err = (self.workdir / "stderr.txt").read_text(errors="replace")[-500:]
            self.failures.append(
                f"{' '.join(call.args)}: exit {code} (want {call.exit_code}), "
                f"stdout sha256 {digest[:12]} (want {call.sha256[:12]}) {err}"
            )
        trace = json.loads(trace_file.read_text()) if traced else None
        return (seconds, usage.ru_utime + usage.ru_stime,
                workloads.count_records(call.args[0], stdout), usage.ru_maxrss, trace)

    def cold_start(self) -> None:
        """Time cold ``import korbits.cli`` starts, the start-up cost every
        CLI call pays, until they have taken SETUP_SHARE of the run so far.
        Called after every call, this spreads the samples over the whole
        run, so that host drift within it averages out."""
        while sum(self.setup) < SETUP_SHARE * (time.perf_counter() - self.started):
            self.setup.append(self.spawn([sys.executable, "-c", "import korbits.cli"])[0])

    def run_pass(self, calls) -> dict:
        """One untraced pass: wall time summed over the calls, records and
        the largest child max-RSS.  Start-up samples between the calls are
        not part of the pass."""
        wall = 0.0
        records = 0
        peak_kib = 0
        for call in calls:
            seconds, _, rows, rss, _ = self.run_call(call)
            wall += seconds
            records += rows
            peak_kib = max(peak_kib, rss)
            self.cold_start()
        return {"wall_s": wall, "records": records, "peak_kib": peak_kib}

    def run_paired_pass(self, calls) -> dict:
        """Run every call untraced and then traced, back to back.  The
        tracing overhead is the traced minus the untraced child CPU time,
        summed over the calls; pairing each call cancels host drift that is
        slower than one call."""
        overhead = 0.0
        traces = []
        for call in calls:
            plain_cpu = self.run_call(call)[1]
            _, traced_cpu, _, _, trace = self.run_call(call, traced=True)
            overhead += traced_cpu - plain_cpu
            traces.append((call.args, trace))
        return {"overhead_s": overhead, "traces": traces}


def merge_traces(traces) -> dict:
    """Sum span fields and counters over the calls of one traced pass."""
    merged: dict[str, float] = {}
    for _, report in traces:
        for name, stats in report["spans"].items():
            for field, value in stats.items():
                key = f"span:{name}:{field}"
                merged[key] = merged.get(key, 0) + value
        for name, value in report["counters"].items():
            key = f"counter:{name}"
            merged[key] = merged.get(key, 0) + value
    return merged


def layer_metrics(merged: dict) -> dict:
    """Per-layer metric -> (value, unit) from one merged traced pass."""
    values = {
        name: (merged.get(source, 0), unit) for name, (source, unit) in LAYER_METRICS.items()
    }
    generated = merged.get("counter:clans.generated", 0)
    kept = merged.get("counter:clans.kept", 0)  # orbits and counted clans kept
    values["clans.kept_ratio"] = (kept / generated if generated else 0.0, "ratio")
    return values


def build_calls(workload: str, seed: int, workdir: Path):
    if workload == "verify-localize":
        sys.path.insert(0, str(SRC))
        return workloads.make_verify_inputs(seed, FIXTURES, workdir)
    return workloads.fixed_invocations(workload)


def environment() -> dict:
    load = [round(x, 2) for x in os.getloadavg()]
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(), "loadavg": load}


def repeat(seconds: float, step, at_least: int = 1) -> list:
    """Run step as many times as fit in about ``seconds``, judged from the
    first, so that a run lasts close to ``seconds`` whatever the pass time."""
    start = time.perf_counter()
    results = [step()]
    count = max(at_least, round(seconds / (time.perf_counter() - start)))
    return results + [step() for _ in range(count - 1)]


def measure(runner: Runner, calls, seconds: float) -> dict:
    runner.spawn([sys.executable, "-c", "import korbits.cli"])  # writes bytecode
    runner.started = time.perf_counter()
    passes = repeat(seconds, lambda: runner.run_pass(calls))
    walls = [p["wall_s"] for p in passes]
    for p in passes:
        print(f"pass: wall_s={p['wall_s']:.4f} records={p['records']} "
              f"peak_rss_mb={p['peak_kib'] / 1024:.2f}")
    print(f"setup: {len(runner.setup)} cold starts")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "rows_per_s": (statistics.median(p["records"] / p["wall_s"] for p in passes), "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_kib"] / 1024 for p in passes), "MB"),
        "setup_s": (statistics.median(runner.setup), "s"),
    }


def measure_traced(runner: Runner, calls, seconds: float) -> dict:
    """Paired passes, at least two; report per-layer medians.  Every count
    must repeat exactly from one traced pass to the next."""
    passes = repeat(seconds, lambda: runner.run_paired_pass(calls), at_least=2)
    layers = [layer_metrics(merge_traces(p["traces"])) for p in passes]
    for args, report in passes[-1]["traces"]:
        print(f"cli.main.s={report['spans']['cli.main']['total_s']:.4f} {' '.join(args)}")
    metrics = {}
    for name, (_, unit) in layers[0].items():
        values = [layer[name][0] for layer in layers]
        if unit != TIME and len(set(values)) != 1:
            runner.problems.append(f"count {name} differs between traced passes: {values}")
        metrics[name] = (statistics.median(values), unit)
    metrics["trace.overhead_s"] = (statistics.median(p["overhead_s"] for p in passes), TIME)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "korbits" / "cli.py").is_file():
        print(f"error: no korbits sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    print("environment: " + json.dumps(environment()))
    # inside the checkout: the benchmark reads and writes nothing outside it
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workdir)
        calls = build_calls(args.workload, args.seed, workdir)
        if args.trace:
            metrics = measure_traced(runner, calls, args.seconds)
        else:
            metrics = measure(runner, calls, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in runner.failures + runner.problems:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not (runner.failures or runner.problems),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
