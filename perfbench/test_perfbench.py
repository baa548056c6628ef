"""Self-checks of the benchmark: exact counts, tracing, output checking.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fedleak import attack, cli, fedsim  # noqa: E402


def _traced(cfg):
    tracer = tracing.Tracer()
    start = time.perf_counter()
    with tracer.installed():
        rows = cli.run_experiment(cfg)
    return rows, tracer.summary(time.perf_counter() - start)


def _small_config():
    cfg = workloads.config("multi_epoch_search", 3)
    return replace(cfg, rounds=1, attack=replace(cfg.attack, mc_samples=300, search_mc_samples=100))


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_exact_counts_repeat_between_traced_runs(workload):
    cfg = workloads.config(workload, 0)
    _, first = _traced(cfg)
    _, second = _traced(cfg)
    assert {k: first[k] for k in run.EXACT_COUNTS} == {k: second[k] for k in run.EXACT_COUNTS}
    assert first["attack.rlu_attack.calls"] > 0
    assert (first["attack.posterior_search.calls"] > 0) == (workload == "multi_epoch_search")


def test_tracing_keeps_results_and_restores_functions():
    originals = (attack.mean_softmax, attack.rlu_attack, fedsim.backward, cli._build_world)
    cfg = _small_config()
    plain = cli.run_experiment(cfg)
    traced, summary = _traced(cfg)
    assert run._without_wall(traced) == run._without_wall(plain)
    assert (attack.mean_softmax, attack.rlu_attack, fedsim.backward, cli._build_world) == originals
    assert summary["attack.rlu_attack.calls"] == cfg.partition.clients
    assert summary["cli.build_world.calls"] == 1
    assert 0.0 < summary["trace.coverage"] <= 1.0


def test_self_time_subtracts_direct_children_only():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["attack.rlu_attack", 0.0, 10.0, -1],
        ["attack.mc_confusion", 1.0, 5.0, 0],
        ["kernels.mean_softmax", 2.0, 3.0, 1],
        ["attack.solve_simplex_ls", 6.0, 7.0, 0],
        ["fedsim.run_round", 12.0, 14.0, -1],
    ]
    out = tracer.summary(wall_s=20.0)
    assert out["attack.rlu_attack.self_ms"] == pytest.approx(5000.0)
    assert out["attack.mc_confusion.self_ms"] == pytest.approx(3000.0)
    assert out["kernels.mean_softmax.self_ms"] == pytest.approx(1000.0)
    assert out["attack.mc_confusion.calls"] == 1
    assert out["trace.coverage"] == pytest.approx(0.6)


def _row(client, iacc="1.0", wall="1.0", status="ok"):
    return {"round": 1, "client": client, "status": status, "iacc": iacc, "cacc": "1.0", "train_acc": "0.5", "wall_ms": wall}


def _experiment(rows):
    return {"traced": False, "wall_s": 1.0, "rows": rows, "trace": None}


def test_check_counts_failures_and_mismatches():
    good = [_row(0), _row(1, status="degenerate", iacc="")]
    runs = [
        _experiment(good),
        _experiment([_row(0, wall="9.0"), good[1]]),  # differs only in wall_ms
        _experiment(None),  # raised
        _experiment([_row(0, iacc="0.5"), good[1]]),  # differs from the first
        _experiment([_row(0, iacc="1.5"), good[1]]),  # out of range
    ]
    out = run.check(runs, n_updates=2)
    assert not out["correct"]
    assert out["attempted"] == 10
    assert out["lost_to_exception"] == 2
    assert out["failed"] == 6
    assert out["not_ok_rows"] == 2
    assert out["failed_share"] == pytest.approx(8 / 10)
    assert [e["valid"] for e in runs] == [True, True, False, False, False]


def test_check_accepts_repeats():
    rows = [_row(0), _row(1)]
    out = run.check([_experiment(rows), _experiment([dict(r, wall_ms="2.0") for r in rows])], n_updates=2)
    assert out["correct"] and out["failed"] == 0 and out["failed_share"] == 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single_epoch", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
