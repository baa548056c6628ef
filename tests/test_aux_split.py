"""The auxiliary forward pass split across the calling thread and one kept helper."""
import multiprocessing
import os
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


def _no_helper():
    raise AssertionError("the auxiliary pass asked for its helper thread")


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
    assert [t is threading.current_thread() for t in threads].count(True) == (2 if cpus == 1 else 1)
    assert split.dtype == one_pass.dtype and np.array_equal(split.view(np.int64), one_pass.view(np.int64))


def test_run_experiment_rows_do_not_depend_on_the_cpu_count(monkeypatch):
    threads = _count_forwards(monkeypatch)
    rows = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        rows[cpus] = [{k: v for k, v in r.items() if k != "wall_ms"} for r in run_experiment(SPLIT_CONFIG)]
    assert rows[1] == rows[2]
    # every round splits prepare_round's pass and each attacked update's,
    # in the caller alone with one CPU and with the helper with two
    attacked = sum(r["status"] == "ok" for r in rows[1])
    assert attacked >= 4
    helped = [t for t in threads if t is not threading.current_thread()]
    assert len(helped) == SPLIT_CONFIG.rounds + attacked
    assert len(threads) == 4 * len(helped)


def test_class_logits_splits_its_pass(monkeypatch):
    _cpus(monkeypatch, 2)
    threads = _count_forwards(monkeypatch)
    model = init_model([64, 256, 256, 10], "relu", seed=3000)
    aux = make_auxiliary(10, 64, 100, 4.0, seed=5000)
    blocks = attack.class_logits(model, aux)
    assert len(threads) == 2
    assert np.array_equal(np.concatenate(blocks), forward_batch(model, aux.features)[0])


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
    # the default model's 1000-row pass is 592k multiply-adds a half, below the gate
    _cpus(monkeypatch, 64)
    monkeypatch.setattr(attack, "_forward_helper", _no_helper)
    before = threading.active_count()
    assert len(run_experiment(cfg)) == 20
    assert threading.active_count() == before


def test_a_wide_pass_under_the_row_gate_is_not_cut(monkeypatch):
    # 255 rows a half through train_heavy's model is 21M multiply-adds, but
    # blocks this small are where a BLAS takes other kernels
    model, features = _world([64, 256, 256, 10], 51)
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(attack, "_forward_helper", _no_helper)
    threads = _count_forwards(monkeypatch)
    attack._aux_logits(model, features)
    assert len(threads) == 1


def test_helper_keeps_the_callers_errstate(monkeypatch):
    # np.errstate is context-local; the helper runs in a copy of the caller's context
    model, features = _world(*SPLIT_WORLDS["train_heavy"])
    features = features.copy()
    features[:10] = np.inf  # inf - inf in the first half's matmul only
    _cpus(monkeypatch, 2)
    threads = _count_forwards(monkeypatch)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        attack._aux_logits(model, features)
    assert [t is threading.current_thread() for t in threads].count(False) == 1


class HalfError(Exception):
    pass


@pytest.mark.parametrize("tail_fails", [False, True])
def test_helper_error_reaches_the_caller_unchanged(monkeypatch, tail_fails):
    model, features = _world(*SPLIT_WORLDS["train_heavy"])
    _cpus(monkeypatch, 2)
    raised = []

    caller = threading.current_thread()

    def failing(model, rows):
        in_helper = threading.current_thread() is not caller
        if in_helper or tail_fails:
            raised.append((in_helper, HalfError()))
            raise raised[-1][1]
        return forward_batch(model, rows)

    monkeypatch.setattr(attack, "forward_batch", failing)
    with pytest.raises(HalfError) as err:
        attack._aux_logits(model, features)
    helper_errors = [e for in_helper, e in raised if in_helper]
    assert len(helper_errors) == 1 and err.value is helper_errors[0]


def test_one_helper_thread_over_many_runs(monkeypatch):
    _cpus(monkeypatch, 2)
    run_experiment(SPLIT_CONFIG)
    before = threading.active_count()
    for _ in range(20):
        run_experiment(SPLIT_CONFIG)
    assert threading.active_count() == before
    # the helper outlives every pass instead of being started per call
    assert sum(t.name.startswith("fedleak-aux-forward") for t in threading.enumerate()) == 1


def _split_pass_in_child(model, features, expected):
    ok = np.array_equal(attack._aux_logits(model, features), expected) and attack._helper[0] == os.getpid()
    os._exit(0 if ok else 1)


def test_forked_child_starts_its_own_helper(monkeypatch):
    model, features = _world(*SPLIT_WORLDS["train_heavy"])
    _cpus(monkeypatch, 2)
    expected = attack._aux_logits(model, features)
    assert attack._helper[0] == os.getpid()
    child = multiprocessing.get_context("fork").Process(target=_split_pass_in_child, args=(model, features, expected))
    child.start()
    child.join(timeout=60)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join(timeout=10)
    assert not alive, "a forked child's split pass waited on its parent's helper"
    assert child.exitcode == 0
