"""Shared fixtures."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
