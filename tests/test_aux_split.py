"""The auxiliary forward pass cut in two and forwarded through fedsim._map.

The threading itself (context, error order, the kept pool, forks) is
tested once, on fedsim._map, in tests/test_fedsim.py.
"""
import threading
from dataclasses import replace

import numpy as np
import pytest

from fedleak import attack, cli, fedsim
from fedleak.cli import ExperimentConfig, run_experiment
from fedleak.data import make_auxiliary
from fedleak.nn import forward_batch, init_model


def _cpus(monkeypatch, n):
    monkeypatch.setattr(fedsim, "_usable_cpus", lambda: n)


def _count_forwards(monkeypatch):
    """Threads that ran each forward_batch the attack module called."""
    threads = []
    real = attack.forward_batch

    def counting(model, features):
        threads.append(threading.current_thread())
        return real(model, features)

    monkeypatch.setattr(attack, "forward_batch", counting)
    return threads


def _no_map(*args):
    raise AssertionError("the auxiliary pass went through fedsim._map")


def _world(sizes, per_class, seed=0):
    """A model and its class-ordered auxiliary features."""
    aux = make_auxiliary(sizes[-1], sizes[0], per_class, 4.0, seed=5000 + seed)
    model = init_model(sizes, "relu", seed=3000 + seed)
    return model, attack.class_order(aux, sizes[-1])[0]


# the train_heavy benchmark model on 100 aux rows per class, and a 100-class
# world of the default model on 10000 rows
SPLIT_WORLDS = {"train_heavy": ([64, 256, 256, 10], 100), "n100": ([16, 32, 16, 100], 100)}

# A small run whose every auxiliary pass is split: 640 aux rows through a
# 16-256-10 model, 320 rows and 2.1M multiply-adds per half.
SPLIT_CONFIG = ExperimentConfig(
    data=cli.DataSpec(per_class=30),
    partition=cli.PartitionSpec(clients=4),
    model=cli.ModelSpec(hidden=(256,)),
    scheme=fedsim.SchemeConfig(epochs=2, batch_size=16),
    attack=cli.AttackSpec(aux_per_class=64),
    rounds=2,
    seed=3,
)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("world", sorted(SPLIT_WORLDS))
def test_split_logits_equal_one_pass_bit_for_bit(monkeypatch, world, cpus):
    model, features = _world(*SPLIT_WORLDS[world])
    one_pass = forward_batch(model, features)[0]
    _cpus(monkeypatch, cpus)
    threads = _count_forwards(monkeypatch)
    split = attack._aux_logits(model, features)
    # one CPU forwards both halves in the caller, two forward them on the pool
    assert [t is threading.current_thread() for t in threads] == [cpus == 1] * 2
    assert split.dtype == one_pass.dtype and np.array_equal(split.view(np.int64), one_pass.view(np.int64))


def test_helper_keeps_the_callers_errstate(monkeypatch):
    # np.errstate is context-local; the pool's threads forward each half in a
    # copy of the caller's context
    model, features = _world(*SPLIT_WORLDS["train_heavy"])
    features = features.copy()
    features[:10] = np.inf  # inf - inf in the first half's matmul only
    _cpus(monkeypatch, 2)
    threads = _count_forwards(monkeypatch)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        attack._aux_logits(model, features)
    assert len(threads) == 2 and threading.current_thread() not in threads


def test_run_experiment_rows_do_not_depend_on_the_cpu_count(monkeypatch):
    threads = _count_forwards(monkeypatch)
    rows = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        rows[cpus] = [{k: v for k, v in r.items() if k != "wall_ms"} for r in run_experiment(SPLIT_CONFIG)]
    assert rows[1] == rows[2]
    # every round splits prepare_round's pass and each attacked update's,
    # in the caller with one CPU and on the pool with two
    attacked = sum(r["status"] == "ok" for r in rows[1])
    assert attacked >= 4
    pooled = [t for t in threads if t is not threading.current_thread()]
    assert len(pooled) == 2 * (SPLIT_CONFIG.rounds + attacked)
    assert len(threads) == 2 * len(pooled)


def test_class_logits_splits_its_pass(monkeypatch):
    _cpus(monkeypatch, 2)
    threads = _count_forwards(monkeypatch)
    model = init_model([64, 256, 256, 10], "relu", seed=3000)
    aux = make_auxiliary(10, 64, 100, 4.0, seed=5000)
    logits, bounds = attack.class_logits(model, aux)
    assert len(threads) == 2
    assert np.array_equal(logits, forward_batch(model, aux.features)[0])
    assert np.array_equal(bounds, np.arange(11) * 100)


@pytest.mark.parametrize(
    "cfg",
    [
        ExperimentConfig(rounds=2),
        replace(
            ExperimentConfig(rounds=2),
            scheme=fedsim.SchemeConfig(scheme="fedprox", lam=25.0, eta=0.01, epochs=10),
        ),
    ],
    ids=["default", "multi_epoch_search"],
)
def test_small_worlds_start_no_helper(monkeypatch, cfg):
    # the default model's 1000-row pass is 592k multiply-adds a half, and its
    # local step is below the same gate, so neither the attack nor the
    # training reaches fedsim._map
    _cpus(monkeypatch, 64)
    monkeypatch.setattr(fedsim, "_map", _no_map)
    before = threading.active_count()
    assert len(run_experiment(cfg)) == 20
    assert threading.active_count() == before


def test_a_wide_pass_under_the_row_gate_is_not_cut(monkeypatch):
    # 255 rows a half through train_heavy's model is 21M multiply-adds, but
    # blocks this small are where a BLAS takes other kernels
    model, features = _world([64, 256, 256, 10], 51)
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(fedsim, "_map", _no_map)
    threads = _count_forwards(monkeypatch)
    attack._aux_logits(model, features)
    assert len(threads) == 1
