"""The process's glibc malloc policy (fedsim._keep_heap, set by run_experiment).

On glibc, run_experiment keeps each round's freed heap for the next round,
so a warm experiment takes almost no minor page faults. The helper itself
runs once per process and does nothing off glibc.
"""
import ctypes
import os
import subprocess
import sys

import pytest

from fedleak import cli, fedsim

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Minor faults allowed across one warm single_epoch experiment (about 400
# without the policy, 0-7 with it).
FAULT_BUDGET = 50

WARM_EXPERIMENT_FAULTS = """
import resource
from dataclasses import replace
from fedleak import cli
cfg = replace(cli.ExperimentConfig(seed=0), rounds=3)
cli.run_experiment(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
cli.run_experiment(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the malloc policy is set only on glibc")
def test_a_warm_experiment_stays_within_the_fault_budget():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", WARM_EXPERIMENT_FAULTS], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < FAULT_BUDGET


class FakeLibc:
    """Stands in for ctypes.CDLL(None): records every library load and mallopt call."""

    loads = []
    calls = []
    answer = 1

    def __init__(self, name):
        FakeLibc.loads.append(name)

    def mallopt(self, param, value):
        FakeLibc.calls.append((param, value))
        return FakeLibc.answer


@pytest.fixture
def fake_libc(monkeypatch):
    FakeLibc.loads, FakeLibc.calls, FakeLibc.answer = [], [], 1
    monkeypatch.setattr(ctypes, "CDLL", FakeLibc)
    fedsim._keep_heap.cache_clear()
    yield FakeLibc
    # the next real call sets the policy again; mallopt takes a repeat as is
    fedsim._keep_heap.cache_clear()


def test_keep_heap_sets_the_policy_once_per_process(fake_libc, monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
    fedsim._keep_heap()
    fedsim._keep_heap()
    assert fake_libc.loads == [None]
    assert fake_libc.calls == [(-8, 1), (-3, 32 << 20), (-1, 128 << 20)]


def test_keep_heap_stops_quietly_at_a_refused_setting(fake_libc, monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
    fake_libc.answer = 0
    assert fedsim._keep_heap() is None
    assert fake_libc.calls == [(-8, 1)]


@pytest.mark.parametrize("answer", [ValueError, OSError, None], ids=["unknown-name", "os-error", "no-value"])
def test_keep_heap_does_nothing_off_glibc(fake_libc, monkeypatch, answer):
    def confstr(name):
        if answer is None:
            return None
        raise answer(name)

    monkeypatch.setattr(os, "confstr", confstr, raising=False)
    fedsim._keep_heap()
    assert fake_libc.loads == [] and fake_libc.calls == []


def test_run_experiment_sets_the_policy_before_it_builds_the_world(monkeypatch):
    order = []
    monkeypatch.setattr(fedsim, "_keep_heap", lambda: order.append("keep_heap"))

    def build_world(cfg):
        order.append("build_world")
        raise RuntimeError("stop")

    monkeypatch.setattr(cli, "_build_world", build_world)
    with pytest.raises(RuntimeError, match="stop"):
        cli.run_experiment(cli.ExperimentConfig())
    assert order == ["keep_heap", "build_world"]
