"""The names and settings the benchmark in perfbench/ relies on still exist.

perfbench/ wraps fedleak functions by name and builds its workloads from
the config dataclasses. A rename or deletion there would break
`perfbench/run.py --trace 1` without failing any test of the package
itself, so these checks pin the contract from this side.
"""
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from fedleak import _kernels, cli

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name):
    """perfbench/<name>.py as a module, without putting perfbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_every_traced_name_resolves():
    for module_name, attr, span, _ in load_perfbench("tracing").TARGETS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} ({span})"


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_config_builds(name):
    assert isinstance(load_perfbench("workloads").config(name, 0), cli.ExperimentConfig)


def test_numba_flag_exists():
    # perfbench/run.py records it with every result
    assert isinstance(_kernels.NUMBA_ENABLED, bool)
