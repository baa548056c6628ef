import multiprocessing
import os
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from fedleak import fedsim
from fedleak.attack import scheme_coefficients
from fedleak.data import Dataset, Partition, derive_seed, dirichlet_partition, make_synthetic, plan_batches
from fedleak.fedsim import (
    LocalUpdate,
    SchemeConfig,
    UpdateHistory,
    local_train,
    run_round,
    scaffold_update_control,
    server_aggregate,
)
from fedleak.nn import ParamVec, accuracy, backward, init_model, zeros_like_params

from _helpers import fedavg_cfg, one_round


SCHEME_GRID = [
    ("fedavg", "sgd", 0.0, 0.0),
    ("fedavg", "sgdm", 0.0, 0.5),
    ("fedavg", "nag", 0.0, 0.5),
    ("scaffold", "sgd", 0.0, 0.0),
    ("fedprox", "sgd", 10.0, 0.0),
    ("feddyn", "sgd", 10.0, 0.0),
    ("feddc", "sgd", 10.0, 0.0),
]
GRID_IDS = ["fedavg", "sgdm", "nag", "scaffold", "fedprox", "feddyn", "feddc"]


def small_world(seed=0, n_classes=4, clients=2):
    data = make_synthetic(n_classes, 6, 60, 3.0, seed=seed)
    partition = dirichlet_partition(data, clients, 0.8, seed=seed)
    model = init_model([6, 10, n_classes], "tanh", seed=seed)
    return data, partition, model


def client_shard(data, partition, k):
    """Client k's rows of data, as a Dataset of their own."""
    idx = partition.assignments[k]
    return Dataset(data.features[idx], data.labels[idx], data.n_classes)


def recombined_bias_delta(update: LocalUpdate, coeffs, cfg):
    """Reassemble the bias delta from the recorded per-epoch gradients."""
    grads = update.debug_ce_bias_grads
    acc = np.zeros(grads.shape[1])
    for tau in range(cfg.epochs):
        acc += coeffs.rho[tau] * grads[tau]
    h = np.zeros(grads.shape[1]) if coeffs.h is None else coeffs.h
    return -cfg.eta * acc - h


# ------------------------------------------------------------ local_train

def _distinct_vec(model, offset):
    """A ParamVec shaped like model with a different value on every layer."""
    vec = zeros_like_params(model)
    for i, arr in enumerate(vec.weights + vec.biases):
        arr[...] = offset + 0.1 * (i + 1)
    return vec


def test_round_correction_per_scheme():
    _, _, model = small_world(seed=18)
    fresh = UpdateHistory.fresh(model)
    c_k, c, cum, prev_local, prev_global = (_distinct_vec(model, v) for v in (1.0, 2.0, 3.0, 5.0, 7.0))
    history = replace(fresh, completed_rounds=2, client_variate=c_k, server_variate=c,
                      cum_local_delta=cum, prev_local_delta=prev_local, prev_global_delta=prev_global)
    eta, lam, m = 0.05, 4.0, 3
    expected = {
        "fedavg": (0.0, None),
        "fedprox": (lam, None),
        "scaffold": (0.0, lambda k: c[k] - c_k[k]),
        "feddyn": (lam, lambda k: lam * cum[k]),
        "feddc": (lam, lambda k: lam * cum[k] + (prev_local[k] - prev_global[k]) / (eta * m)),
    }
    assert set(expected) == set(fedsim.SCHEMES)

    def layers(vec):
        return vec.weights + vec.biases

    c_k, c, cum, prev_local, prev_global = map(layers, (c_k, c, cum, prev_local, prev_global))
    for scheme, (scheme_lam, want_drift) in expected.items():
        cfg = SchemeConfig(scheme=scheme, optimizer="sgd", eta=eta, lam=scheme_lam, epochs=m, batch_size=8)
        drift = fedsim.round_correction(cfg, history)
        if want_drift is None:
            assert drift is None, scheme
        else:
            got = layers(drift)
            assert len(got) == len(c_k)
            for k, arr in enumerate(got):
                npt.assert_allclose(arr, want_drift(k), rtol=1e-14, err_msg=f"{scheme} layer {k}")
        assert fedsim.round_correction(cfg, fresh) is None, scheme


# The record fields each scheme keeps once a round has run, written out here
# rather than read from fedsim.HISTORY_READS.
KEPT_FIELDS = {
    "fedavg": set(),
    "fedprox": set(),
    "scaffold": {"client_variate", "server_variate"},
    "feddyn": {"cum_local_delta"},
    "feddc": {"cum_local_delta", "prev_local_delta", "prev_global_delta"},
}
RECORD_FIELDS = ("client_variate", "server_variate", "cum_local_delta", "prev_local_delta", "prev_global_delta")


def _same_vec(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.weights + a.biases, b.weights + b.biases))


@pytest.mark.parametrize("scheme", fedsim.SCHEMES)
def test_records_hold_only_the_fields_their_scheme_reads(scheme):
    assert set(KEPT_FIELDS) == set(fedsim.SCHEMES)
    assert {f.name for f in fields(UpdateHistory)} == {"completed_rounds", *RECORD_FIELDS}
    data, partition, model = small_world(seed=21, clients=3)
    lam = 1.0 if scheme in ("fedprox", "feddyn", "feddc") else 0.0
    cfg = SchemeConfig(scheme=scheme, optimizer="sgd", eta=0.05, lam=lam, epochs=2, batch_size=16)
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    current, deltas = model, []
    for t in (1, 2):
        previous = current
        current, updates, _, _, histories = run_round(current, data, partition, cfg, histories, t, seed=21)
        deltas.append([u.delta for u in updates])
    for k, h in enumerate(histories):
        assert h.completed_rounds == 2
        assert {name for name in RECORD_FIELDS if getattr(h, name) is not None} == KEPT_FIELDS[scheme]
        # what is kept is this round's value, never a stale one
        if h.cum_local_delta is not None:
            assert _same_vec(h.cum_local_delta, deltas[0][k].copy().add_(deltas[1][k]))
        if h.prev_local_delta is not None:
            assert h.prev_local_delta is deltas[1][k]
        if h.prev_global_delta is not None:
            assert _same_vec(h.prev_global_delta, current.params().sub(previous.params()))
    if scheme == "scaffold":
        assert len({id(h.server_variate) for h in histories}) == 1


def test_round_correction_rejects_a_record_without_its_fields():
    # a fedavg record keeps no cumulative delta, so feddyn cannot read one
    data, partition, model = small_world(seed=22)
    cfg = fedavg_cfg(eta=0.05, epochs=2, batch_size=16)
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    histories = run_round(model, data, partition, cfg, histories, 1, seed=22)[4]
    feddyn = SchemeConfig(scheme="feddyn", eta=0.05, lam=1.0, epochs=2, batch_size=16)
    with pytest.raises(ValueError, match="feddyn reads cum_local_delta, which this client record does not keep"):
        fedsim.round_correction(feddyn, histories[0])


def test_fedprox_lambda_zero_matches_fedavg():
    data, partition, model = small_world(seed=5)
    client = client_shard(data, partition, 0)
    plan = plan_batches(len(client), 16, 3, seed=5)
    cfg_avg = fedavg_cfg(eta=0.05, epochs=3, batch_size=16)
    cfg_prox = SchemeConfig(scheme="fedprox", optimizer="sgd", eta=0.05, lam=0.0,
                            epochs=3, batch_size=16)
    upd_a, _ = local_train(model, client, plan, cfg_avg, UpdateHistory.fresh(model), 1, 0)
    upd_p, _ = local_train(model, client, plan, cfg_prox, UpdateHistory.fresh(model), 1, 0)
    for a, b in zip(upd_a.delta.weights, upd_p.delta.weights):
        assert np.array_equal(a, b)
    for a, b in zip(upd_a.delta.biases, upd_p.delta.biases):
        assert np.array_equal(a, b)


def test_single_epoch_sgd_delta_is_scaled_mean_gradient():
    data, partition, model = small_world(seed=7)
    client = client_shard(data, partition, 0)
    cfg = fedavg_cfg(eta=0.02, epochs=1, batch_size=16)
    plan = plan_batches(len(client), 16, 1, seed=7)
    update, _ = local_train(model, client, plan, cfg, UpdateHistory.fresh(model), 1, 0)
    _, grad = backward(model, client.features[plan[0]], client.labels[plan[0]])
    npt.assert_allclose(update.delta_b_out, -0.02 * grad.biases[-1], atol=1e-15)
    npt.assert_allclose(update.delta.weights[-1], -0.02 * grad.weights[-1], atol=1e-15)


def test_fedavg_sgd_bias_delta_sums_to_zero():
    data, partition, model = small_world(seed=2)
    cfg = fedavg_cfg(eta=0.05, epochs=4, batch_size=16)
    _, updates, _, _, _, _ = one_round(data, partition, model, cfg, seed=2)
    for update in updates:
        assert abs(update.delta_b_out.sum()) <= 1e-10


# SCHEME_GRID at m = 3, and large-m momentum, where the step weights' last
# bits depend most on how the step is computed
RECOMBINATION_CASES = [pytest.param(*case, 3, id="-".join(map(str, case))) for case in SCHEME_GRID] + [
    pytest.param("fedavg", optimizer, 0.0, 0.9, 10, id=f"fedavg-{optimizer}-0.0-0.9-m10") for optimizer in ("sgdm", "nag")
]


@pytest.mark.parametrize("scheme,optimizer,lam,gamma,m", RECOMBINATION_CASES)
def test_recombination_identity_three_rounds(scheme, optimizer, lam, gamma, m):
    # the transmitted bias delta must reassemble from the recorded
    # per-epoch gradients and the scheme's weights at every round
    data, partition, model = small_world(seed=11)
    cfg = SchemeConfig(scheme=scheme, optimizer=optimizer, eta=0.05, lam=lam,
                       gamma=gamma, epochs=m, batch_size=16)
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    current = model
    for t in (1, 2, 3):
        current, updates, _, _, new_histories = run_round(
            current, data, partition, cfg, histories, t, seed=11
        )
        for k, update in enumerate(updates):
            coeffs = scheme_coefficients(cfg, t, histories[k])
            expected = recombined_bias_delta(update, coeffs, cfg)
            scale = max(np.abs(update.delta_b_out).max(), 1e-30)
            err = np.abs(update.delta_b_out - expected).max() / scale
            assert err <= 1e-8, f"round {t} client {k}: {err}"
        histories = new_histories


def test_nonfinite_loss_raises():
    data, partition, _ = small_world(seed=3)
    client = client_shard(data, partition, 0)
    model = init_model([6, 10, 4], "relu", seed=3)
    plan = plan_batches(len(client), 16, 3, seed=3)
    cfg = fedavg_cfg(eta=1e160, epochs=3, batch_size=16)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError):
        local_train(model, client, plan, cfg, UpdateHistory.fresh(model), 1, 0)


def test_nonfinite_final_params_raise():
    # the loss is finite at the single step, but the step overflows the parameters
    data, partition, _ = small_world(seed=3)
    client = client_shard(data, partition, 0)
    client = Dataset(client.features * 100.0, client.labels, client.n_classes)
    model = init_model([6, 10, 4], "relu", seed=3)
    plan = plan_batches(len(client), 16, 1, seed=3)
    cfg = fedavg_cfg(eta=1e308, epochs=1, batch_size=16)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(RuntimeError, match="parameters .* round 1 client 7"):
        local_train(model, client, plan, cfg, UpdateHistory.fresh(model), 1, 7)


# -------------------------------------------------------------- aggregation

def test_aggregate_single_client_identity():
    _, _, model = small_world(seed=4)
    cfg = fedavg_cfg(eta=0.05, epochs=1, batch_size=16)
    data, partition, _ = small_world(seed=4)
    client = client_shard(data, partition, 0)
    plan = plan_batches(len(client), 16, 1, seed=4)
    update, local = local_train(model, client, plan, cfg, UpdateHistory.fresh(model), 1, 0)
    merged = server_aggregate([update], np.array([1.0]), model)
    for a, b in zip(merged.weights, local.weights):
        npt.assert_allclose(a, b, atol=1e-15)


def test_aggregate_zero_deltas_noop():
    _, _, model = small_world(seed=6)
    zero = LocalUpdate(zeros_like_params(model), 1, 0, 32, np.zeros((1, model.n_classes)))
    merged = server_aggregate([zero, zero], np.array([0.5, 0.5]), model)
    for a, b in zip(merged.weights, model.weights):
        assert np.array_equal(a, b)


def test_aggregate_opposite_deltas_cancel():
    _, _, model = small_world(seed=6)
    v = zeros_like_params(model)
    for w in v.weights:
        w[:] = 0.37
    plus = LocalUpdate(v, 1, 0, 32, np.zeros((1, model.n_classes)))
    minus = LocalUpdate(v.scaled(-1.0), 1, 1, 32, np.zeros((1, model.n_classes)))
    merged = server_aggregate([plus, minus], np.array([0.5, 0.5]), model)
    for a, b in zip(merged.weights, model.weights):
        npt.assert_allclose(a, b, atol=1e-15)


def test_aggregate_weight_validation():
    _, _, model = small_world(seed=6)
    zero = LocalUpdate(zeros_like_params(model), 1, 0, 32, np.zeros((1, model.n_classes)))
    with pytest.raises(ValueError):
        server_aggregate([zero], np.array([0.5]), model)
    with pytest.raises(ValueError):
        server_aggregate([zero, zero], np.array([1.5, -0.5]), model)


def test_aggregate_linearity():
    data, partition, model = small_world(seed=9)
    cfg = fedavg_cfg(eta=0.05, epochs=2, batch_size=16)
    _, updates, _, _, _, _ = one_round(data, partition, model, cfg, seed=9)
    weights = np.array([0.3, 0.7])
    merged = server_aggregate(updates, weights, model)
    scaled_updates = [
        LocalUpdate(u.delta.scaled(2.0), u.round, u.client_id, u.n_samples, u.debug_ce_bias_grads)
        for u in updates
    ]
    merged2 = server_aggregate(scaled_updates, weights, model)
    base = model.params()
    delta1 = merged.params().sub(base)
    delta2 = merged2.params().sub(base)
    for a, b in zip(delta2.weights, delta1.weights):
        npt.assert_allclose(a, 2.0 * b, rtol=1e-12, atol=1e-18)


# ---------------------------------------------------------------- run_round

def test_run_round_two_equal_clients_mean():
    data = make_synthetic(4, 6, 50, 3.0, seed=20)
    rng = np.random.default_rng(20)
    order = rng.permutation(200)
    from fedleak.data import Partition

    partition = Partition([np.sort(order[:100]), np.sort(order[100:])])
    model = init_model([6, 10, 4], "relu", seed=20)
    cfg = fedavg_cfg(eta=0.05, epochs=2, batch_size=16)
    histories = [UpdateHistory.fresh(model) for _ in range(2)]
    # two 100-sample shards: the shard-weighted mean is the plain mean
    new_model, updates, _, _, _ = run_round(model, data, partition, cfg, histories, 1, seed=20)
    for layer in range(len(model.weights)):
        manual = model.weights[layer] + 0.5 * (
            updates[0].delta.weights[layer] + updates[1].delta.weights[layer]
        )
        npt.assert_allclose(new_model.weights[layer], manual, atol=1e-12)


def test_run_round_training_progresses():
    data = make_synthetic(10, 16, 100, 6.0, seed=1)
    partition = dirichlet_partition(data, 10, 0.5, seed=1)
    model = init_model([16, 32, 16, 10], "relu", seed=1)
    cfg = fedavg_cfg(eta=0.2, epochs=2, batch_size=16)
    histories = [UpdateHistory.fresh(model) for _ in range(10)]
    accs = [accuracy(model, data.features, data.labels)]
    current = model
    for t in range(1, 6):
        current, _, _, _, histories = run_round(
            current, data, partition, cfg, histories, t, seed=1
        )
        accs.append(accuracy(current, data.features, data.labels))
    assert all(b > a for a, b in zip(accs, accs[1:])), accs


def test_run_round_under_provisioned_client_zero_update():
    data = make_synthetic(3, 4, 30, 2.0, seed=30)
    from fedleak.data import Partition

    partition = Partition([np.arange(5), np.arange(5, 90)])
    model = init_model([4, 8, 3], "relu", seed=30)
    cfg = fedavg_cfg(eta=0.05, epochs=2, batch_size=16)
    histories = [UpdateHistory.fresh(model) for _ in range(2)]
    new_model, updates, truths, stats, _ = run_round(
        model, data, partition, cfg, histories, 1, seed=30
    )
    assert updates[0].delta.max_abs() == 0.0
    assert truths[0] is None and stats[0] is None
    assert truths[1] is not None
    # the idle client still reports its shard size, and keeps its weight
    assert [u.n_samples for u in updates] == [5, 85]
    expected = server_aggregate(updates, np.array([5.0, 85.0]) / 90.0, model)
    for a, b in zip(new_model.weights + new_model.biases, expected.weights + expected.biases):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("shards", [[5, 15], [0, 0], []], ids=["small", "empty_shards", "no_clients"])
def test_run_round_without_a_full_batch_raises_before_training(monkeypatch, shards):
    # a round of zero updates only would carry no signal; an empty
    # partition is the same case
    data = make_synthetic(3, 4, 30, 2.0, seed=31)
    bounds = np.cumsum([0, *shards])
    partition = Partition([np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])])
    model = init_model([4, 8, 3], "relu", seed=31)
    calls = []
    monkeypatch.setattr(fedsim, "train_stack", lambda *args, **kwargs: calls.append(1))
    histories = [UpdateHistory.fresh(model) for _ in shards]
    with pytest.raises(ValueError, match=rf"batch_size 16 .*\({max(shards, default=0)} samples\)"):
        run_round(model, data, partition, fedavg_cfg(eta=0.05, epochs=2, batch_size=16), histories, 1, seed=31)
    assert calls == []


def test_run_round_one_backward_per_epoch(monkeypatch):
    # below the gate the round's clients train as one stack: one backward
    # per epoch for all of them, and the round log's first-batch loss comes
    # from the first epoch, not from a second backward pass
    data, partition, model = small_world(seed=16, clients=3)
    cfg = fedavg_cfg(eta=0.05, epochs=3, batch_size=16)
    stacks = []
    original = fedsim.backward_stack

    def counting(params, activation, features, labels):
        stacks.append(len(labels))
        return original(params, activation, features, labels)

    monkeypatch.setattr(fedsim, "backward_stack", counting)
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    _, updates, truths, stats, _ = run_round(model, data, partition, cfg, histories, 1, seed=16)
    trained = sum(1 for t in truths if t is not None)
    assert trained >= 2
    assert stacks == [trained] * cfg.epochs
    for update, train_acc in zip(updates, stats):
        if train_acc is not None:
            assert np.isfinite(update.first_loss) and 0.0 <= train_acc <= 1.0


def test_run_round_deterministic():
    data, partition, model = small_world(seed=15)
    cfg = fedavg_cfg(eta=0.05, epochs=2, batch_size=16)
    outs = []
    for _ in range(2):
        histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
        _, updates, _, _, _ = run_round(model, data, partition, cfg, histories, 1, seed=15)
        outs.append(updates)
    for a, b in zip(*outs):
        for wa, wb in zip(a.delta.weights, b.delta.weights):
            assert np.array_equal(wa, wb)


def _record_arrays(history):
    """Every array reachable from a history record, in field order."""
    arrays = []
    for f in fields(history):
        value = getattr(history, f.name)
        if isinstance(value, ParamVec):
            arrays.extend(value.weights + value.biases)
    return arrays


@pytest.mark.parametrize("scheme", ["scaffold", "feddyn", "feddc"])
def test_run_round_leaves_input_histories_unchanged(scheme):
    # the records run_round returns share arrays with each other and with
    # the updates, so nothing may write into a record it was given
    data, partition, model = small_world(seed=17, clients=3)
    lam = 0.0 if scheme == "scaffold" else 2.0
    cfg = SchemeConfig(scheme=scheme, optimizer="sgd", eta=0.05, lam=lam, epochs=2, batch_size=16)
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    current = model
    for t in (1, 2, 3):
        saved = [[a.copy() for a in _record_arrays(h)] for h in histories]
        current, _, _, _, new_histories = run_round(current, data, partition, cfg, histories, t, seed=17)
        for h, before in zip(histories, saved):
            assert h.completed_rounds == t - 1
            after = _record_arrays(h)
            assert len(after) == len(before)
            for a, b in zip(after, before):
                assert a.tobytes() == b.tobytes()
        assert [h.completed_rounds for h in new_histories] == [t] * partition.n_clients
        histories = new_histories


# ------------------------------------------------------- threaded clients

def _threaded_world():
    """Four clients on the small world: one below the batch, three training."""
    data, _, model = small_world(seed=21)
    order = np.random.default_rng(21).permutation(len(data.labels))
    shards = [np.sort(order[a:b]) for a, b in ((0, 5), (5, 80), (80, 160), (160, 240))]
    return data, Partition(shards), model


def _record_maps(monkeypatch):
    """Record how many one-client stacks each round maps through fedsim._map."""
    mapped = []
    real = fedsim._map

    def recording(fn, *iterables):
        calls = list(zip(*iterables))
        mapped.append(len(calls))
        return real(fn, *zip(*calls))

    monkeypatch.setattr(fedsim, "_map", recording)
    return mapped


def _force_pool(monkeypatch, cpus=2):
    monkeypatch.setattr(fedsim, "_PARALLEL_MIN_STEP_MACS", 0)
    monkeypatch.setattr(fedsim, "_usable_cpus", lambda: cpus)


def test_run_round_workers_keep_the_callers_errstate(monkeypatch):
    # np.errstate is context-local; each worker runs in a copy of the caller's context
    data, partition, _ = _threaded_world()
    model = init_model([6, 10, 4], "relu", seed=21)
    cfg = fedavg_cfg(eta=1e160, epochs=3, batch_size=16)
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    _force_pool(monkeypatch)
    mapped = _record_maps(monkeypatch)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        run_round(model, data, partition, cfg, histories, 1, seed=21)
    assert mapped == [3]


def _three_rounds(world, cfg):
    data, partition, model = world
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    current, outs = model, []
    for t in (1, 2, 3):
        out = run_round(current, data, partition, cfg, histories, t, seed=21)
        outs.append(out)
        current, histories = out[0], out[4]
    return outs


def _assert_rounds_identical(seq, par):
    for (g_a, u_a, t_a, s_a, h_a), (g_b, u_b, t_b, s_b, h_b) in zip(seq, par, strict=True):
        for a, b in zip(g_a.weights + g_a.biases, g_b.weights + g_b.biases, strict=True):
            assert np.array_equal(a, b)
        for a, b in zip(u_a, u_b, strict=True):
            assert (a.round, a.client_id, a.n_samples, a.first_loss) == (b.round, b.client_id, b.n_samples, b.first_loss)
            assert np.array_equal(a.debug_ce_bias_grads, b.debug_ce_bias_grads)
            for x, y in zip(a.delta.weights + a.delta.biases, b.delta.weights + b.delta.biases, strict=True):
                assert np.array_equal(x, y)
        assert [t is None for t in t_a] == [t is None for t in t_b]
        for a, b in zip(t_a, t_b):
            assert a is None or np.array_equal(a, b)
        assert s_a == s_b
        for a, b in zip(h_a, h_b, strict=True):
            assert a.completed_rounds == b.completed_rounds
            for x, y in zip(_record_arrays(a), _record_arrays(b), strict=True):
                assert np.array_equal(x, y)


def _grid_cfg(scheme, optimizer, lam, gamma, batch_size=16):
    return SchemeConfig(
        scheme=scheme, optimizer=optimizer, eta=0.05, lam=lam, gamma=gamma, epochs=3, batch_size=batch_size
    )


def _one_stack_against_the_pool(monkeypatch, world, cfg, trainers):
    """Three rounds as one stack and as one-client stacks on a 2-thread pool, compared bit for bit."""
    mapped = _record_maps(monkeypatch)
    stacked = _three_rounds(world, cfg)
    assert mapped == []
    _force_pool(monkeypatch)
    pooled = _three_rounds(world, cfg)
    assert mapped == [trainers] * 3
    assert sum(s is not None for s in pooled[0][3]) == trainers
    _assert_rounds_identical(stacked, pooled)


@pytest.mark.parametrize(
    "scheme, optimizer, lam, gamma",
    SCHEME_GRID,
    ids=GRID_IDS,
)
def test_run_round_threaded_clients_bit_identical(monkeypatch, scheme, optimizer, lam, gamma):
    # every scheme and optimizer over three rounds, so drift and velocity are live
    _one_stack_against_the_pool(monkeypatch, _threaded_world(), _grid_cfg(scheme, optimizer, lam, gamma), trainers=3)


@pytest.mark.parametrize(
    "sizes, activation, batch_size",
    [
        ([6, 10, 4], "relu", 16),
        ([6, 4], "tanh", 16),  # linear: no hidden layer
        ([6, 13, 7, 4], "tanh", 16),  # widths that are not multiples of 8
        ([6, 9, 4], "relu", 1),
        ([6, 4], "relu", 1),
    ],
    ids=["relu", "linear", "odd-widths", "relu-batch1", "linear-batch1"],
)
@pytest.mark.parametrize("scheme, optimizer, lam, gamma", SCHEME_GRID, ids=GRID_IDS)
def test_run_round_stack_bit_identical_across_models(monkeypatch, sizes, activation, batch_size, scheme, optimizer,
                                                     lam, gamma):
    data, partition, _ = _threaded_world()
    world = (data, partition, init_model(sizes, activation, seed=21))
    cfg = _grid_cfg(scheme, optimizer, lam, gamma, batch_size)
    _one_stack_against_the_pool(monkeypatch, world, cfg, trainers=4 if batch_size == 1 else 3)


def test_run_round_more_workers_than_cores_with_fast_switching(monkeypatch):
    # three workers on a 2-CPU host, switching threads every microsecond:
    # any state the clients shared and wrote would show up as a difference
    world = _threaded_world()
    cfg = SchemeConfig(scheme="scaffold", optimizer="sgd", eta=0.05, epochs=3, batch_size=16)
    sequential = _three_rounds(world, cfg)
    mapped = _record_maps(monkeypatch)
    _force_pool(monkeypatch, cpus=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _three_rounds(world, cfg)
    finally:
        sys.setswitchinterval(interval)
    assert mapped == [3, 3, 3]
    _assert_rounds_identical(sequential, threaded)


def test_run_round_threaded_client_error_matches_sequential(monkeypatch):
    data, partition, _ = _threaded_world()
    model = init_model([6, 10, 4], "relu", seed=21)
    cfg = fedavg_cfg(eta=1e160, epochs=3, batch_size=16)
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    messages = []
    for force in (False, True):
        if force:
            _force_pool(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError) as err:
            run_round(model, data, partition, cfg, histories, 1, seed=21)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "non-finite" in messages[0]


def _diverging_world():
    """The threaded world where clients 1 and 2 train to non-finite
    parameters and client 3's features are infinite, so its loss is
    non-finite at epoch 1."""
    data, partition, _ = _threaded_world()
    features = data.features * 100.0
    features[partition.assignments[3]] = np.inf
    data = Dataset(features, data.labels, data.n_classes)
    model = init_model([6, 10, 4], "relu", seed=21)
    return data, partition, model, fedavg_cfg(eta=1e308, epochs=1, batch_size=16)


def test_run_round_first_error_is_the_client_order_one_in_both_paths(monkeypatch):
    # the one stack meets client 3's loss first, but client-order
    # training, and so run_round on either path, raises client 1's error
    data, partition, model, cfg = _diverging_world()
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    messages = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in (1, 3):
            client = client_shard(data, partition, k)
            plan = plan_batches(len(client), 16, 1, derive_seed(21, fedsim._STREAM_PLAN, 1, k))
            with pytest.raises(RuntimeError) as err:
                local_train(model, client, plan, cfg, histories[k], 1, k)
            messages.append(str(err.value))
        assert messages == [
            "non-finite parameters after local training at round 1 client 1",
            "non-finite loss at round 1 epoch 1 client 3",
        ]
        for force in (False, True):
            if force:
                _force_pool(monkeypatch)
            with pytest.raises(RuntimeError) as err:
                run_round(model, data, partition, cfg, histories, 1, seed=21)
            assert str(err.value) == messages[0]


def test_run_round_trains_a_failing_round_once_on_the_plans_it_drew(monkeypatch):
    # a below-gate round whose stack fails raises client 1's error from that
    # one stack: nothing is trained again, and plan_batches runs once per trainer
    data, partition, model, cfg = _diverging_world()
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    drawn, stacks = [], []
    original_plan, original_train = fedsim.plan_batches, fedsim.train_stack

    def counting(n_samples, batch_size, epochs, seed):
        drawn.append(n_samples)
        return original_plan(n_samples, batch_size, epochs, seed)

    def recording(model, data, batches, cfg, histories, round_idx, client_ids, sizes):
        stacks.append(list(client_ids))
        return original_train(model, data, batches, cfg, histories, round_idx, client_ids, sizes)

    monkeypatch.setattr(fedsim, "plan_batches", counting)
    monkeypatch.setattr(fedsim, "train_stack", recording)
    mapped = _record_maps(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError, match="client 1$"):
        run_round(model, data, partition, cfg, histories, 1, seed=21)
    assert mapped == []
    assert stacks == [[1, 2, 3]]
    assert drawn == [len(partition.assignments[k]) for k in (1, 2, 3)]


def test_run_round_rejects_a_stale_record_of_an_idle_client_before_training(monkeypatch):
    # client 0's shard is below the batch, so it never trains, but its
    # record is advanced with the others and must be checked like them
    data, partition, model = _threaded_world()
    cfg = fedavg_cfg(eta=0.05, epochs=2, batch_size=16)
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    histories[0] = replace(histories[0], completed_rounds=7)

    def untouched(*args):
        raise AssertionError("run_round drew a plan or trained")

    monkeypatch.setattr(fedsim, "plan_batches", untouched)
    monkeypatch.setattr(fedsim, "train_stack", untouched)
    with pytest.raises(RuntimeError, match=r"^history covers 7 rounds; round 1 expects 0$"):
        run_round(model, data, partition, cfg, histories, 1, seed=21)


@pytest.mark.parametrize("path", ["one_stack", "pool"])
def test_run_round_truths_are_a_recount_of_its_own_batches(monkeypatch, path):
    data, partition, model = _threaded_world()
    cfg = fedavg_cfg(eta=0.05, epochs=3, batch_size=16)
    trained = {}
    original = fedsim.train_stack

    def recording(model, data, batches, cfg, histories, round_idx, client_ids, sizes):
        trained.update(zip(client_ids, batches))
        return original(model, data, batches, cfg, histories, round_idx, client_ids, sizes)

    monkeypatch.setattr(fedsim, "train_stack", recording)
    mapped = _record_maps(monkeypatch)
    if path == "pool":
        _force_pool(monkeypatch)
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    _, _, truths, _, _ = run_round(model, data, partition, cfg, histories, 1, seed=21)
    assert mapped == ([3] if path == "pool" else [])
    assert truths[0] is None  # client 0's shard is below the batch
    assert sorted(trained) == [1, 2, 3]
    for k, batches in trained.items():
        assert batches.shape == (cfg.epochs, cfg.batch_size)
        assert np.isin(batches, partition.assignments[k]).all()
        npt.assert_array_equal(truths[k], np.bincount(data.labels[batches].ravel(), minlength=data.n_classes))
        assert truths[k].sum() == cfg.epochs * cfg.batch_size


def test_train_stack_names_the_first_client_with_a_non_finite_loss():
    data, partition, _ = _threaded_world()
    features = data.features.copy()
    features[partition.assignments[3]] = np.inf
    data = Dataset(features, data.labels, data.n_classes)
    model = init_model([6, 10, 4], "relu", seed=21)
    cfg = fedavg_cfg(eta=0.05, epochs=2, batch_size=16)
    clients = [1, 3, 2]
    batches = np.stack([partition.assignments[k][:32].reshape(2, 16) for k in clients])
    histories = [UpdateHistory.fresh(model)] * 3
    sizes = [len(partition.assignments[k]) for k in clients]
    expected = r"^non-finite loss at round 1 epoch 1 client 3$"
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match=expected):
        fedsim.train_stack(model, data, batches, cfg, histories, 1, clients, sizes)


def test_train_stack_raises_for_the_first_failing_client_in_stack_order():
    # stack index 1's loss is non-finite at epoch 1 and index 0's at epoch 2;
    # training index 0 alone fails first, so its error is the one raised
    data, partition, _ = _threaded_world()
    features = data.features.copy()
    features[partition.assignments[3]] = np.inf
    data = Dataset(features, data.labels, data.n_classes)
    model = init_model([6, 10, 4], "relu", seed=21)
    cfg = fedavg_cfg(eta=0.05, epochs=2, batch_size=16)
    finite, infinite = partition.assignments[1], partition.assignments[3]
    batches = np.stack([[finite[:16], infinite[:16]], [infinite[16:32], finite[16:32]]])
    histories = [UpdateHistory.fresh(model)] * 2
    expected = r"^non-finite loss at round 1 epoch 2 client 1$"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError, match=expected):
        fedsim.train_stack(model, data, batches, cfg, histories, 1, [1, 2], [75, 75])


def test_run_round_nonfinite_loss_names_the_client_in_both_paths(monkeypatch):
    data, partition, _ = _threaded_world()
    model = init_model([6, 10, 4], "relu", seed=21)
    cfg = fedavg_cfg(eta=1e160, epochs=3, batch_size=16)
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    messages = []
    for force in (False, True):
        if force:
            _force_pool(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError) as err:
            run_round(model, data, partition, cfg, histories, 1, seed=21)
        messages.append(str(err.value))
    assert messages == ["non-finite loss at round 1 epoch 2 client 1"] * 2


def test_run_round_trains_through_train_stack(monkeypatch):
    # the tests that prove a rejected round or run trains nothing patch
    # fedsim.train_stack, so a normal round must call it on either path
    stacks = []
    original = fedsim.train_stack

    def recording(model, data, batches, cfg, histories, round_idx, client_ids, sizes):
        stacks.append(list(client_ids))
        return original(model, data, batches, cfg, histories, round_idx, client_ids, sizes)

    monkeypatch.setattr(fedsim, "train_stack", recording)
    world = _threaded_world()
    cfg = fedavg_cfg(eta=0.05, epochs=2, batch_size=16)
    _three_rounds(world, cfg)
    assert stacks == [[1, 2, 3]] * 3
    stacks.clear()
    _force_pool(monkeypatch)
    _three_rounds(world, cfg)
    assert sorted(stacks) == [[1]] * 3 + [[2]] * 3 + [[3]] * 3


def _no_map(*args):
    raise AssertionError("run_round went through fedsim._map")


@pytest.mark.parametrize("case", ["one_cpu", "one_trainer"])
def test_run_round_above_the_gate_stays_sequential_without_two_workers(monkeypatch, case):
    # above the gate the round trains one-client stacks through _map, which
    # with one CPU, or one trainer, runs them in the calling thread, in client order
    data, partition, model = _threaded_world()
    cfg = fedavg_cfg(eta=0.05, epochs=2, batch_size=16)
    affinity = {0} if case == "one_cpu" else {0, 1}
    monkeypatch.setattr(fedsim.os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(fedsim, "_PARALLEL_MIN_STEP_MACS", 0)
    if case == "one_trainer":
        big = np.concatenate(partition.assignments[1:])
        partition = Partition([partition.assignments[0], big])
    stacks = []
    original = fedsim.train_stack

    def recording(model, data, batches, cfg, histories, round_idx, client_ids, sizes):
        stacks.append((list(client_ids), threading.current_thread()))
        return original(model, data, batches, cfg, histories, round_idx, client_ids, sizes)

    monkeypatch.setattr(fedsim, "train_stack", recording)
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    _, _, truths, _, _ = run_round(model, data, partition, cfg, histories, 1, seed=21)
    trainers = [k for k, t in enumerate(truths) if t is not None]
    assert trainers
    assert stacks == [([k], threading.current_thread()) for k in trainers]


def test_default_small_world_never_opens_a_pool(monkeypatch):
    # the default small world's local step is far below the gate, even with CPUs to spare
    data, partition, model = small_world(seed=22, clients=3)
    monkeypatch.setattr(fedsim, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(fedsim, "_map", _no_map)
    for scheme, lam in (("fedavg", 0.0), ("scaffold", 0.0), ("feddc", 2.0)):
        cfg = SchemeConfig(scheme=scheme, optimizer="sgd", eta=0.05, lam=lam, epochs=2, batch_size=16)
        _three_rounds((data, partition, model), cfg)


# ------------------------------------------------------------------- _map

def _map_on(monkeypatch, cpus):
    monkeypatch.setattr(fedsim, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("cpus", [1, 2])
def test_map_returns_results_in_call_order(monkeypatch, cpus):
    _map_on(monkeypatch, cpus)
    caller = threading.current_thread()
    out = fedsim._map(lambda a, b: (a * b, threading.current_thread() is caller), range(6), range(10, 16))
    assert [r for r, _ in out] == [a * b for a, b in zip(range(6), range(10, 16))]
    # one CPU runs every call inline, two run them all on the pool
    assert [inline for _, inline in out] == [cpus == 1] * 6
    assert fedsim._map(abs, []) == []
    # a single call is not worth a worker
    assert fedsim._map(lambda x: threading.current_thread(), [0]) == [caller]


def test_map_keeps_the_callers_errstate(monkeypatch):
    # np.errstate is context-local; every call runs in a copy of the caller's context
    _map_on(monkeypatch, 2)
    caller = threading.current_thread()
    threads = []

    def overflow(x):
        threads.append(threading.current_thread())
        return np.array([x]) * 1e10

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        fedsim._map(overflow, [1.0, 1e300])
    assert len(threads) == 2 and caller not in threads
    with np.errstate(over="ignore"):
        assert np.isinf(fedsim._map(overflow, [1.0, 1e300])[1]).all()


class CallError(Exception):
    pass


@pytest.mark.parametrize("later_fails", [False, True])
@pytest.mark.parametrize("cpus", [1, 2])
def test_map_raises_the_earliest_failing_calls_error(monkeypatch, cpus, later_fails):
    # on the pool call 0 fails after call 1 has failed or returned; inline
    # call 1 never runs. Either way call 0's error is raised, as in map
    _map_on(monkeypatch, cpus)
    raised = {}
    done = threading.Event()

    def call(i):
        if i == 0:
            done.wait(0.2)
        elif i == 1:
            done.set()
            if not later_fails:
                return i
        raised[i] = CallError(i)
        raise raised[i]

    with pytest.raises(CallError) as err:
        fedsim._map(call, [0, 1])
    assert err.value is raised[0]


def test_map_leaves_nothing_running_when_a_call_fails(monkeypatch):
    # call 0 fails once call 1 has started; call 1 and any call a worker
    # took meanwhile must have finished, and the rest never start
    _map_on(monkeypatch, 2)
    started, finished = [], []
    running = threading.Event()
    slow = threading.Event()  # never set: a started call takes its full wait

    def call(i):
        if i == 0:
            assert running.wait(10)
            raise CallError(i)
        started.append(i)
        running.set()
        slow.wait(0.2)
        finished.append(i)

    calls = range(8)
    with pytest.raises(CallError):
        fedsim._map(call, calls)
    assert 1 in started and sorted(finished) == sorted(started)
    assert len(started) < len(calls) - 1
    slow.wait(0.3)
    assert sorted(finished) == sorted(started)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_map_runs_on_one_kept_thread_per_usable_cpu_at_most(monkeypatch, cpus):
    _map_on(monkeypatch, cpus)
    threads = set()

    def call(i):
        threads.add(threading.current_thread())
        time.sleep(0.01)

    for _ in range(5):
        fedsim._map(call, range(8))
    if cpus == 1:
        assert threads == {threading.current_thread()}
    else:
        # the same workers serve every call, and they are still there
        assert 2 <= len(threads) <= cpus
        assert all(t.is_alive() and t.name.startswith("fedleak-worker") for t in threads)


def _map_in_child(expected):
    ok = fedsim._map(abs, [-1, -2, -3]) == expected and fedsim._pool[0][0] == os.getpid()
    os._exit(0 if ok else 1)


def test_map_in_a_forked_child_builds_its_own_pool(monkeypatch):
    _map_on(monkeypatch, 2)
    expected = fedsim._map(abs, [-1, -2, -3])
    assert fedsim._pool[0][0] == os.getpid()
    child = multiprocessing.get_context("fork").Process(target=_map_in_child, args=(expected,))
    child.start()
    child.join(timeout=60)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join(timeout=10)
    assert not alive, "a forked child's _map waited on its parent's pool"
    assert child.exitcode == 0


def test_import_starts_no_thread():
    code = "import threading, fedleak, fedleak.cli; print(threading.active_count())"
    src = str(Path(fedsim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


# ----------------------------------------------------------------- scaffold

def test_scaffold_zero_deltas_keep_variates_zero():
    _, _, model = small_world(seed=8)
    cfg = SchemeConfig(scheme="scaffold", optimizer="sgd", eta=0.1, epochs=2, batch_size=16)
    histories = [UpdateHistory.fresh(model) for _ in range(2)]
    deltas = [zeros_like_params(model), zeros_like_params(model)]
    new_histories = scaffold_update_control(histories, deltas, cfg)
    assert len(new_histories) == len(histories)
    for h in new_histories:
        assert h.client_variate.max_abs() == 0.0
        assert h.server_variate.max_abs() == 0.0


def test_scaffold_closed_form_three_rounds():
    # iterate the recurrence through the simulator and compare against the
    # telescoped expression in terms of past server variates and deltas
    data, partition, model = small_world(seed=13)
    cfg = SchemeConfig(scheme="scaffold", optimizer="sgd", eta=0.05, epochs=3, batch_size=16)
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    server_variates = []  # c^(r) for r = 2, 3, ... (c^(1) = 0)
    client_deltas = {k: [] for k in range(partition.n_clients)}
    current = model
    for t in (1, 2, 3):
        current, updates, _, _, new_histories = run_round(
            current, data, partition, cfg, histories, t, seed=13
        )
        for k, u in enumerate(updates):
            client_deltas[k].append(u.delta)
        server_variates.append(new_histories[0].server_variate.copy())
        histories = new_histories

    inv = 1.0 / (cfg.eta * cfg.epochs)
    for k in range(partition.n_clients):
        expected = zeros_like_params(model)
        # closed form after 3 completed rounds: minus the summed server
        # variates installed after rounds 2..3 never applies because the
        # next-round variate is built from rounds 1..t-1; reconstruct
        # c_k^(4) = -sum_{r=2}^{3} c^(r) - inv * sum_{r=1}^{3} delta_k^(r)
        for c in server_variates[:-1]:
            expected.add_(c, -1.0)
        for delta in client_deltas[k]:
            expected.add_(delta, -inv)
        got = histories[k].client_variate
        diff = got.sub(expected).max_abs()
        scale = max(expected.max_abs(), 1e-30)
        assert diff / scale <= 1e-10


@pytest.mark.parametrize("scheme", fedsim.SCHEMES)
def test_scheme_config_rejects_eta_zero_for_every_scheme(scheme):
    with pytest.raises(ValueError, match=r"\beta\b"):
        SchemeConfig(scheme=scheme, optimizer="sgd", eta=0.0, epochs=1, batch_size=8)


@pytest.mark.parametrize("optimizer", ["sgdm", "nag"])
@pytest.mark.parametrize("scheme", [s for s in fedsim.SCHEMES if s != "fedavg"])
def test_scheme_config_momentum_only_under_fedavg(scheme, optimizer):
    # lambda stays valid for the scheme, so only the optimizer can be at fault
    lam = 0.0 if scheme == "scaffold" else 1.0
    with pytest.raises(ValueError, match=rf"^{optimizer} is only defined under fedavg$"):
        SchemeConfig(scheme=scheme, optimizer=optimizer, eta=0.1, lam=lam, gamma=0.5, epochs=1, batch_size=8)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(scheme="scaffold", optimizer="sgdm", eta=0.1, epochs=1, batch_size=8)
    with pytest.raises(ValueError):
        SchemeConfig(scheme="fedprox", optimizer="nag", eta=0.1, epochs=1, batch_size=8)
    with pytest.raises(ValueError):
        SchemeConfig(scheme="fedavg", optimizer="sgd", eta=-0.1, epochs=1, batch_size=8)
    with pytest.raises(ValueError):
        SchemeConfig(scheme="fedavg", optimizer="sgdm", eta=0.1, gamma=1.0, epochs=1, batch_size=8)
    with pytest.raises(ValueError):
        SchemeConfig(scheme="nosuch", optimizer="sgd", eta=0.1, epochs=1, batch_size=8)
