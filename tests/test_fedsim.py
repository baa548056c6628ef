from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest

from fedleak import fedsim
from fedleak.attack import scheme_coefficients
from fedleak.data import Dataset, dirichlet_partition, make_synthetic, plan_batches
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


def small_world(seed=0, n_classes=4, clients=2):
    data = make_synthetic(n_classes, 6, 60, 3.0, seed=seed)
    partition = dirichlet_partition(data, clients, 0.8, seed=seed)
    model = init_model([6, 10, n_classes], "tanh", seed=seed)
    return data, partition, model


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
    for scheme, (want_prox, want_drift) in expected.items():
        cfg = SchemeConfig(scheme=scheme, optimizer="sgd", eta=eta,
                           lam=lam if want_prox else 0.0, epochs=m, batch_size=8)
        prox, drift = fedsim.round_correction(cfg, history)
        assert prox == want_prox, scheme
        if want_drift is None:
            assert drift is None, scheme
        else:
            got = layers(drift)
            assert len(got) == len(c_k)
            for k, arr in enumerate(got):
                npt.assert_allclose(arr, want_drift(k), rtol=1e-14, err_msg=f"{scheme} layer {k}")
        assert fedsim.round_correction(cfg, fresh) == (want_prox, None), scheme


def test_eta_zero_produces_zero_delta():
    data, partition, model = small_world()
    cfg = fedavg_cfg(eta=0.0, epochs=3, batch_size=16)
    plan = plan_batches(data.subset(partition.assignments[0]), 16, 3, seed=1)
    update, local = local_train(
        model, data.subset(partition.assignments[0]), plan, cfg, UpdateHistory.fresh(model), 1, 0
    )
    assert update.delta.max_abs() == 0.0
    assert local.params().sub(model.params()).max_abs() == 0.0


def test_fedprox_lambda_zero_matches_fedavg():
    data, partition, model = small_world(seed=5)
    client = data.subset(partition.assignments[0])
    plan = plan_batches(client, 16, 3, seed=5)
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
    client = data.subset(partition.assignments[0])
    cfg = fedavg_cfg(eta=0.02, epochs=1, batch_size=16)
    plan = plan_batches(client, 16, 1, seed=7)
    update, _ = local_train(model, client, plan, cfg, UpdateHistory.fresh(model), 1, 0)
    _, grad = backward(model, client.features[plan.batches[0]], client.labels[plan.batches[0]])
    npt.assert_allclose(update.delta_b_out, -0.02 * grad.biases[-1], atol=1e-15)
    npt.assert_allclose(update.delta_w_out, -0.02 * grad.weights[-1], atol=1e-15)


def test_fedavg_sgd_bias_delta_sums_to_zero():
    data, partition, model = small_world(seed=2)
    cfg = fedavg_cfg(eta=0.05, epochs=4, batch_size=16)
    _, updates, _, _, _, _ = one_round(data, partition, model, cfg, seed=2)
    for update in updates:
        assert abs(update.delta_b_out.sum()) <= 1e-10


@pytest.mark.parametrize("scheme,optimizer,lam,gamma", SCHEME_GRID)
def test_recombination_identity_three_rounds(scheme, optimizer, lam, gamma):
    # the transmitted bias delta must reassemble from the recorded
    # per-epoch gradients and the scheme's weights at every round
    data, partition, model = small_world(seed=11)
    cfg = SchemeConfig(scheme=scheme, optimizer=optimizer, eta=0.05, lam=lam,
                       gamma=gamma, epochs=3, batch_size=16)
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
    client = data.subset(partition.assignments[0])
    model = init_model([6, 10, 4], "relu", seed=3)
    plan = plan_batches(client, 16, 3, seed=3)
    cfg = fedavg_cfg(eta=1e160, epochs=3, batch_size=16)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError):
        local_train(model, client, plan, cfg, UpdateHistory.fresh(model), 1, 0)


def test_nonfinite_final_params_raise():
    # the loss is finite at the single step, but the step overflows the parameters
    data, partition, _ = small_world(seed=3)
    client = data.subset(partition.assignments[0])
    client = Dataset(client.features * 100.0, client.labels, client.n_classes)
    model = init_model([6, 10, 4], "relu", seed=3)
    plan = plan_batches(client, 16, 1, seed=3)
    cfg = fedavg_cfg(eta=1e308, epochs=1, batch_size=16)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(RuntimeError, match="parameters .* round 1 client 7"):
        local_train(model, client, plan, cfg, UpdateHistory.fresh(model), 1, 7)


# -------------------------------------------------------------- aggregation

def test_aggregate_single_client_identity():
    _, _, model = small_world(seed=4)
    cfg = fedavg_cfg(eta=0.05, epochs=1, batch_size=16)
    data, partition, _ = small_world(seed=4)
    client = data.subset(partition.assignments[0])
    plan = plan_batches(client, 16, 1, seed=4)
    update, local = local_train(model, client, plan, cfg, UpdateHistory.fresh(model), 1, 0)
    merged = server_aggregate([update], np.array([1.0]), model)
    for a, b in zip(merged.weights, local.weights):
        npt.assert_allclose(a, b, atol=1e-15)


def test_aggregate_zero_deltas_noop():
    _, _, model = small_world(seed=6)
    zero = LocalUpdate(zeros_like_params(model), 1, 0, np.zeros((1, model.n_classes)))
    merged = server_aggregate([zero, zero], np.array([0.5, 0.5]), model)
    for a, b in zip(merged.weights, model.weights):
        assert np.array_equal(a, b)


def test_aggregate_opposite_deltas_cancel():
    _, _, model = small_world(seed=6)
    v = zeros_like_params(model)
    for w in v.weights:
        w[:] = 0.37
    plus = LocalUpdate(v, 1, 0, np.zeros((1, model.n_classes)))
    minus = LocalUpdate(v.scaled(-1.0), 1, 1, np.zeros((1, model.n_classes)))
    merged = server_aggregate([plus, minus], np.array([0.5, 0.5]), model)
    for a, b in zip(merged.weights, model.weights):
        npt.assert_allclose(a, b, atol=1e-15)


def test_aggregate_weight_validation():
    _, _, model = small_world(seed=6)
    zero = LocalUpdate(zeros_like_params(model), 1, 0, np.zeros((1, model.n_classes)))
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
        LocalUpdate(u.delta.scaled(2.0), u.round, u.client_id, u.debug_ce_bias_grads)
        for u in updates
    ]
    merged2 = server_aggregate(scaled_updates, weights, model)
    base = model.params()
    delta1 = merged.params().sub(base)
    delta2 = merged2.params().sub(base)
    for a, b in zip(delta2.weights, delta1.weights):
        npt.assert_allclose(a, 2.0 * b, rtol=1e-12, atol=1e-18)


# ---------------------------------------------------------------- run_round

def test_run_round_eta_zero_global_unchanged():
    data, partition, model = small_world(seed=10)
    cfg = fedavg_cfg(eta=0.0, epochs=2, batch_size=16)
    new_model, _, truths, _, _, _ = one_round(data, partition, model, cfg, seed=10)
    for a, b in zip(new_model.weights, model.weights):
        assert np.array_equal(a, b)
    assert any(t is not None for t in truths)


def test_run_round_two_equal_clients_mean():
    data = make_synthetic(4, 6, 50, 3.0, seed=20)
    rng = np.random.default_rng(20)
    order = rng.permutation(200)
    from fedleak.data import Partition

    partition = Partition([np.sort(order[:100]), np.sort(order[100:])], alpha=0.0, seed=0)
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

    partition = Partition(
        [np.arange(5), np.arange(5, 90)], alpha=0.0, seed=0
    )
    model = init_model([4, 8, 3], "relu", seed=30)
    cfg = fedavg_cfg(eta=0.05, epochs=2, batch_size=16)
    histories = [UpdateHistory.fresh(model) for _ in range(2)]
    _, updates, truths, stats, _ = run_round(
        model, data, partition, cfg, histories, 1, seed=30
    )
    assert updates[0].delta.max_abs() == 0.0
    assert truths[0] is None and stats[0] is None
    assert truths[1] is not None


def test_run_round_one_backward_per_epoch(monkeypatch):
    # the round log's first-batch loss comes from local_train's first epoch,
    # not from a second backward pass
    data, partition, model = small_world(seed=16, clients=3)
    cfg = fedavg_cfg(eta=0.05, epochs=3, batch_size=16)
    calls = []
    original = fedsim.backward

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fedsim, "backward", counting)
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    _, _, truths, stats, _ = run_round(model, data, partition, cfg, histories, 1, seed=16)
    trained = sum(1 for t in truths if t is not None)
    assert trained >= 2
    assert len(calls) == cfg.epochs * trained
    for st in stats:
        if st is not None:
            assert np.isfinite(st["loss"])


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
