"""Shared fixtures."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FIXTURES = PERFBENCH.parent / "src" / "korbits" / "fixtures"


def _load_perfbench(stem: str):
    """Import ``perfbench/<stem>.py`` (only read, never changed)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{stem}", PERFBENCH / f"{stem}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's workload definitions."""
    return _load_perfbench("workloads")


@pytest.fixture(scope="session")
def trace_child():
    """The benchmark's tracing wrapper, loaded without installing it."""
    return _load_perfbench("trace_child")


@pytest.fixture(scope="session")
def verify_tables(workloads, tmp_path_factory):
    """(pair spec, rows) of every shipped fixture and of the benchmark's
    seeded verify tables for seeds 1 to 3."""
    from korbits.classes import parse_fixture

    paths = sorted(FIXTURES.glob("*.txt"))
    for seed in (1, 2, 3):
        workdir = tmp_path_factory.mktemp(f"verify-seed-{seed}")
        calls = workloads.make_verify_inputs(seed, FIXTURES, workdir)
        paths += [Path(call.args[1]) for call in calls]
    return [parse_fixture(path.read_text(encoding="utf-8")) for path in paths]
