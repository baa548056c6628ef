"""The names and settings the benchmark in perfbench/ relies on still exist.

perfbench/ wraps fedleak functions by name and builds its workloads from
the config dataclasses. A rename or deletion there would break
`perfbench/run.py --trace 1` without failing any test of the package
itself, so these checks pin the contract from this side.
"""
import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fedleak import _kernels, attack, cli

from _helpers import fedavg_cfg, full_batch_world, one_round

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name):
    """perfbench/<name>.py as a module, without putting perfbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def test_every_traced_name_resolves():
    for module_name, attr, span, _ in load_perfbench("tracing").TARGETS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} ({span})"


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_config_builds(name):
    assert isinstance(load_perfbench("workloads").config(name, 0), cli.ExperimentConfig)


def test_posterior_search_is_looked_up_once_per_one_batch_attack(monkeypatch):
    # the tracer's attack.posterior_search span counts calls through the
    # module global: one per multi-epoch update whose shard is one batch
    calls = []
    original = attack.posterior_search

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(attack, "posterior_search", counting)
    cfg = fedavg_cfg(eta=0.01, epochs=5, batch_size=32)
    for shard_size, expected in [(32, 1), (33, 0)]:
        data, aux, partition, model = full_batch_world(2, shard_size=shard_size)
        _, updates, _, _, histories, _ = one_round(data, partition, model, cfg, seed=2)
        calls.clear()
        attack.rlu_attack(attack.prepare_round(model, aux, attack.AttackParams()), updates[0], cfg, histories[0])
        assert len(calls) == expected, shard_size


@pytest.mark.parametrize("epochs", [1, 5])
def test_solve_simplex_ls_is_looked_up_once_per_attack(monkeypatch, epochs):
    # the tracer's attack.solve_simplex_ls span and its solver counters
    # wrap the module global: a single-epoch update, solved against the
    # round's prebuilt system, must still go through it
    calls = []
    original = attack.solve_simplex_ls

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    cfg = fedavg_cfg(eta=0.01, epochs=epochs, batch_size=16)
    data, aux, partition, model = full_batch_world(4, shard_size=16, clients=3)
    _, updates, _, _, histories, _ = one_round(data, partition, model, cfg, seed=4)
    context = attack.prepare_round(model, aux, attack.AttackParams())
    monkeypatch.setattr(attack, "solve_simplex_ls", counting)
    for k, update in enumerate(updates):
        calls.clear()
        attack.rlu_attack(context, update, cfg, histories[k])
        assert len(calls) == 1, k


def test_numba_flag_exists():
    # perfbench/run.py records it with every result
    assert isinstance(_kernels.NUMBA_ENABLED, bool)


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_runs_one_second_of_single_epoch(tmp_path, trace):
    # on a copy, so the traced run's spans land outside the checkout
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single_epoch", "--seconds", "1", "--seed", "0",
         "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    if trace == 0:
        assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
