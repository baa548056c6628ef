"""Shared world-building helpers for the test suite."""
import os
from pathlib import Path

import numpy as np

from fedleak.data import Partition, dirichlet_partition, make_synthetic
from fedleak.fedsim import SchemeConfig, UpdateHistory, run_round
from fedleak.nn import backward, init_model


def blob_world(seed, n_classes=10, dim=16, per_class=100, separation=4.0,
               clients=10, alpha=0.5, hidden=(32, 16), activation="relu",
               aux_per_class=100):
    """Dataset, auxiliary set, Dirichlet partition, and untrained model."""
    dataset = make_synthetic(n_classes, dim, per_class, separation, seed=1000 + seed)
    aux = make_synthetic(n_classes, dim, aux_per_class, separation, seed=5000 + seed)
    partition = dirichlet_partition(dataset, clients, alpha, seed=2000 + seed)
    model = init_model([dim, *hidden, n_classes], activation, seed=3000 + seed)
    return dataset, aux, partition, model


def full_batch_world(seed, n_classes=10, dim=16, separation=4.0, shard_size=32, clients=1):
    """Clients whose shards all hold shard_size samples, one client by default.

    With shard_size equal to the batch size every local epoch passes over
    the whole shard, so the per-epoch label counts are one fixed vector and
    the round totals are exact multiples of the epoch count. The shards
    are disjoint slices of one permutation of the dataset.
    """
    dataset = make_synthetic(n_classes, dim, 10, separation, seed=1000 + seed)
    aux = make_synthetic(n_classes, dim, 100, separation, seed=5000 + seed)
    rng = np.random.default_rng(2000 + seed)
    order = rng.permutation(len(dataset.labels))
    shards = [np.sort(order[k * shard_size:(k + 1) * shard_size]) for k in range(clients)]
    partition = Partition(shards)
    model = init_model([dim, 32, 16, n_classes], "relu", seed=3000 + seed)
    return dataset, aux, partition, model


def one_round(dataset, partition, model, cfg, seed, round_idx=1, histories=None):
    """Run a single round from fresh histories, returning attack-ready pieces."""
    if histories is None:
        histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    new_model, updates, truths, stats, new_histories = run_round(
        model, dataset, partition, cfg, histories, round_idx, seed
    )
    return new_model, updates, truths, stats, histories, new_histories


def sgd_train(model, dataset, epochs, eta, batch_size, seed):
    """Plain minibatch SGD, used to reach a trained stage in tests."""
    trained = model.copy()
    rng = np.random.default_rng(seed)
    n = len(dataset.labels)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            idx = order[start:start + batch_size]
            _, grad = backward(trained, dataset.features[idx], dataset.labels[idx])
            trained.params().add_(grad, -eta)
    return trained


def fedavg_cfg(eta=0.01, epochs=1, batch_size=32, optimizer="sgd", gamma=0.0):
    return SchemeConfig(scheme="fedavg", optimizer=optimizer, eta=eta,
                        gamma=gamma, epochs=epochs, batch_size=batch_size)


def file_tree(root) -> dict:
    """Everything under root: {relative path: a file's bytes, a symlink's target, or None for a directory}."""
    tree = {}
    for path in Path(root).rglob("*"):
        key = path.relative_to(root).as_posix()
        tree[key] = ("link", os.readlink(path)) if path.is_symlink() else None if path.is_dir() else path.read_bytes()
    return tree
