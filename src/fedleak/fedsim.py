"""Federated round simulator: FedAvg/FedProx/Scaffold/FedDyn/FedDC locals.

Every scheme runs m local epochs of one batch each; the per-epoch
cross-entropy bias gradient (batch mean) is recorded on a debug channel
of the LocalUpdate so tests can recombine the transmitted bias delta
exactly. Attack code never reads that channel.

Schemes differ only in what they add to every local gradient of a round,
and round_correction is the one place that says it: a proximal pull
prox * (theta - theta0) and a drift term fixed for the round (scaffold's
c - c_k, feddyn's and feddc's linear terms). Both apply to all
parameters, not only the output layer; the attack reads its offset from
the same pair. Histories are immutable round-start records
(UpdateHistory): run_round builds the next round's records and never
writes into the ones it was given.

run_round trains a round's clients one after another, or on a thread pool
of at most one worker per usable CPU when one local step is large enough
for BLAS, which releases the GIL, to dominate (_PARALLEL_MIN_STEP_MACS).
local_train is pure and every client works on its own arrays, so both
orders give bit-identical results.

Round-log CSV layout (append_round_log):
round,client,scheme,optimizer,eta,lambda,gamma,m,batch,loss,train_acc
"""

import contextvars
import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .data import BatchPlan, Dataset, Partition, derive_seed, plan_batches
from .nn import Model, ParamVec, backward, accuracy, zeros_like_params

SCHEMES = ("fedavg", "fedprox", "scaffold", "feddyn", "feddc")
OPTIMIZERS = ("sgd", "sgdm", "nag")

# Seed-stream tag so every (round, client) gets an independent batch plan.
_STREAM_PLAN = 1

# Multiply-adds of one local step (batch_size times the weight count) from
# which run_round trains a round's clients on worker threads. numpy releases
# the GIL only inside BLAS and large ufuncs; below this the Python between
# those calls holds it and threads only add overhead. Median round training
# time on a 2-CPU host with one BLAS thread (20 clients, scaffold, m = 10),
# sequential vs 2 threads: 38k MACs 39 vs 67 ms, 1.5M 106 vs 120 ms, 2.1M
# 150 vs 132 ms, 4.3M 253 vs 182 ms, 10.8M (train_heavy's step) 501 vs
# 316 ms. Break-even lies near 2M.
_PARALLEL_MIN_STEP_MACS = 1 << 21


@dataclass(frozen=True)
class SchemeConfig:
    """Local-training recipe shared by all clients in a run; every scheme needs 0 < eta < inf."""

    scheme: str = "fedavg"
    optimizer: str = "sgd"
    eta: float = 0.01
    lam: float = 0.0
    gamma: float = 0.0
    epochs: int = 1
    batch_size: int = 32

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.optimizer in ("sgdm", "nag") and self.scheme != "fedavg":
            raise ValueError(f"{self.optimizer} is only defined under fedavg")
        if self.scheme in ("scaffold", "feddyn", "feddc") and self.optimizer != "sgd":
            raise ValueError(f"{self.scheme} requires the sgd optimizer")
        if not 0.0 < self.eta < np.inf:
            raise ValueError(f"eta must be finite and above 0, got {self.eta!r}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError("lambda must be finite and non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.scheme in ("fedprox", "feddyn", "feddc") and self.lam * self.eta >= 1.0:
            # the proximal pull must contract: q = 1 - lambda * eta in [0, 1)
            raise ValueError(f"{self.scheme} needs lambda * eta below 1, got {self.lam!r} * {self.eta!r}")


@dataclass
class LocalUpdate:
    """What a client transmits for one round, plus debug-only extras.

    n_samples is the client's shard size n_k. The server knows it without
    any leak, because it weights the aggregate by it; run_round sets it
    from the shard for every client, idle ones included, and takes the
    aggregate weights from it. It is a count of samples held, never of
    labels.
    """

    delta: ParamVec
    round: int
    client_id: int
    n_samples: int
    # Debug/test channel: (m, N) batch-mean CE bias gradients per epoch.
    # The attack pipeline must never read this.
    debug_ce_bias_grads: np.ndarray = field(repr=False, default=None)
    # Cross-entropy of the first batch at the round-start parameters, for
    # the round log. Not transmitted either.
    first_loss: float = field(repr=False, default=None)

    @property
    def delta_b_out(self) -> np.ndarray:
        return self.delta.biases[-1]


@dataclass(frozen=True)
class UpdateHistory:
    """One client's state at the start of a round, as an immutable record.

    A record's ParamVecs are never written in place, so one array may back
    several fields or records; run_round builds the next round's record
    instead of copying this one. Everything here is known to a curious
    server: the scaffold client variate c_k is the sum of the control
    deltas the client transmits (here they follow from its deltas and c),
    the server variate c is the mean of the c_k, cum_local_delta and
    prev_local_delta are sums of the client's transmitted deltas, and
    prev_global_delta is the server's own aggregate.
    """

    completed_rounds: int = 0
    client_variate: ParamVec = None  # scaffold c_k, full parameters
    server_variate: ParamVec = None  # scaffold c (current), full parameters
    cum_local_delta: ParamVec = None  # sum of past delta theta_k, full
    prev_local_delta: ParamVec = None  # last round's delta theta_k, full
    prev_global_delta: ParamVec = None  # last round's aggregated delta, full

    @classmethod
    def fresh(cls, model: Model) -> "UpdateHistory":
        zero = zeros_like_params(model)
        return cls(client_variate=zero, server_variate=zero, cum_local_delta=zero)


def check_history(history: UpdateHistory, round_idx: int) -> None:
    """Raise unless history is a client's record at the start of round round_idx."""
    if round_idx < 1:
        raise ValueError("round index starts at 1")
    if history.completed_rounds != round_idx - 1:
        raise RuntimeError(
            f"history covers {history.completed_rounds} rounds; round {round_idx} expects {round_idx - 1}"
        )


def round_correction(cfg: SchemeConfig, history: UpdateHistory):
    """What cfg's scheme adds to every local gradient of a round: (prox, drift).

    Each local step uses grad + drift + prox * (theta - theta0). prox is
    lambda for the proximal schemes and 0 otherwise. drift is fixed for
    the round and read from the client's round-start record: scaffold's
    c - c_k (Karimireddy et al. 2020, Alg. 1), feddyn's lambda *
    cum_local_delta (Acar et al. 2021), and for feddc that term plus
    (prev_local_delta - prev_global_delta) / (eta m). It is None for
    fedavg and fedprox, and for every scheme before the first round.
    """
    prox = cfg.lam if cfg.scheme in ("fedprox", "feddyn", "feddc") else 0.0
    if cfg.scheme in ("fedavg", "fedprox") or history.completed_rounds == 0:
        return prox, None
    if cfg.scheme == "scaffold":
        return prox, history.server_variate.sub(history.client_variate)
    drift = history.cum_local_delta.scaled(cfg.lam)
    if cfg.scheme == "feddc":
        drift.add_(history.prev_local_delta.sub(history.prev_global_delta), 1.0 / (cfg.eta * cfg.epochs))
    return prox, drift


def local_train(
    model: Model,
    data: Dataset,
    plan: BatchPlan,
    cfg: SchemeConfig,
    history: UpdateHistory,
    round_idx: int,
    client_id: int,
):
    """Run m local epochs from `model`; returns (LocalUpdate, trained Model).

    Every step adds round_correction's drift and then its proximal pull to
    the cross-entropy gradient; sgdm and nag then fold it into a velocity.
    Pure: neither `model` nor `history` is modified. Raises on non-finite
    loss or final parameters (diverging step size) and on history/round
    mismatches.
    """
    check_history(history, round_idx)
    if len(plan.batches) != cfg.epochs:
        raise ValueError("plan epochs do not match cfg.epochs")

    local = model.copy()
    params = local.params()
    theta0 = model.params()  # read-only reference copy of round-start params
    eta, gamma, m = cfg.eta, cfg.gamma, cfg.epochs
    prox, drift = round_correction(cfg, history)

    # sgdm: v <- gamma v + g; nag: v <- gamma v + (1 + gamma) g - gamma g_prev
    lead = gamma if cfg.optimizer == "nag" else 0.0
    velocity = prev_grad = None if cfg.optimizer == "sgd" else zeros_like_params(model)
    ce_bias_grads = np.zeros((m, model.n_classes))

    for tau in range(m):
        idx = plan.batches[tau]
        loss, grad = backward(local, data.features[idx], data.labels[idx])
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite loss at round {round_idx} epoch {tau + 1}")
        if tau == 0:
            first_loss = float(loss)
        ce_bias_grads[tau] = grad.biases[-1]

        if drift is not None:
            grad.add_(drift, 1.0)
        if prox:
            grad.add_(params.sub(theta0), prox)

        if cfg.optimizer != "sgd":
            velocity = velocity.scaled(gamma)
            velocity.add_(grad, 1.0 + lead)
            if lead:
                velocity.add_(prev_grad, -lead)
            prev_grad = grad
            grad = velocity

        params.add_(grad, -eta)

    delta = params.sub(theta0)
    if not np.isfinite(delta.max_abs()):
        raise RuntimeError(f"non-finite parameters after local training at round {round_idx} client {client_id}")
    update = LocalUpdate(delta, round_idx, client_id, len(data), ce_bias_grads, first_loss)
    return update, local


def server_aggregate(updates, weights, global_model: Model) -> Model:
    """theta + sum_k p_k * delta_k. Weights must be non-negative and sum to 1."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(updates) != len(weights) or len(updates) == 0:
        raise ValueError("updates and weights must be non-empty and aligned")
    if (weights < 0).any() or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be non-negative and sum to 1")
    new = global_model.copy()
    agg = new.params()
    for upd, w in zip(updates, weights):
        agg.add_(upd.delta, float(w))
    return new


def scaffold_update_control(histories, deltas, cfg: SchemeConfig) -> list:
    """Scaffold control variates after a round, as new records.

    Returns one record per history with c_k <- c_k - c + (theta_t -
    theta_k_final) / (eta m) (theta_t - theta_k_final = -delta_k) and every
    record's server variate set to one shared object, the unweighted mean
    of the new client variates. The input records are left unchanged.
    """
    if len(histories) != len(deltas) or not histories:
        raise ValueError("histories and deltas must be non-empty and aligned")
    scale = 1.0 / (cfg.eta * cfg.epochs)
    variates = [h.client_variate.sub(h.server_variate).add_(d, -scale) for h, d in zip(histories, deltas)]
    mean = variates[0].scaled(1.0 / len(variates))
    for ck in variates[1:]:
        mean.add_(ck, 1.0 / len(variates))
    return [replace(h, client_variate=ck, server_variate=mean) for h, ck in zip(histories, variates)]


def _record_round(history: UpdateHistory, local_delta: ParamVec, global_delta: ParamVec) -> UpdateHistory:
    return replace(
        history,
        completed_rounds=history.completed_rounds + 1,
        cum_local_delta=history.cum_local_delta.copy().add_(local_delta, 1.0),
        prev_local_delta=local_delta,
        prev_global_delta=global_delta,
    )


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _client_workers(model: Model, partition: Partition, cfg: SchemeConfig) -> int:
    """Threads to train a round's clients on; 1 means in the calling thread.

    More than 1 only when one local step reaches _PARALLEL_MIN_STEP_MACS
    multiply-adds, and then min(usable CPUs, clients that fill a batch).
    """
    if cfg.batch_size * sum(w.size for w in model.weights) < _PARALLEL_MIN_STEP_MACS:
        return 1
    trainers = sum(len(shard) >= cfg.batch_size for shard in partition.assignments)
    return min(_usable_cpus(), trainers)


def run_round(
    global_model: Model,
    dataset: Dataset,
    partition: Partition,
    cfg: SchemeConfig,
    histories,
    round_idx: int,
    seed: int,
):
    """One synchronous round over every client.

    Returns (new_global, updates, truth_counts, stats, new_histories).
    updates[k] is the k-th client's LocalUpdate; clients whose shard is
    smaller than batch_size participate with a zero update and get
    truth_counts[k] = None, stats[k] = None, and when no shard fills a
    batch ValueError is raised before any client trains. Every update
    carries its shard size as n_samples, and the aggregate weights are
    those sizes over their sum. truth_counts is ground truth for
    evaluation only. new_histories are new records for the start of round
    round_idx + 1; they share arrays with the updates and with each other,
    and the input records stay at round-start state.

    Clients train in the calling thread, or on worker threads when
    _client_workers allows more than one; the results, and the first
    client error raised, are the same either way. local_train, backward
    and accuracy are looked up in this module at call time.
    """
    n_clients = partition.n_clients
    if len(histories) != n_clients:
        raise ValueError("one history per client required")
    largest = max(map(len, partition.assignments), default=0)
    if largest < cfg.batch_size:
        raise ValueError(
            f"batch_size {cfg.batch_size} is above the largest client shard ({largest} samples):"
            " no client can fill a batch, so no update carries a signal to attack"
        )

    def train_client(k):
        shard = partition.assignments[k]
        if len(shard) < cfg.batch_size:
            zero = LocalUpdate(
                zeros_like_params(global_model),
                round_idx,
                k,
                len(shard),
                np.zeros((cfg.epochs, global_model.n_classes)),
            )
            return zero, None, None
        client_data = dataset.subset(shard)
        plan = plan_batches(client_data, cfg.batch_size, cfg.epochs, derive_seed(seed, _STREAM_PLAN, round_idx, k))
        update, local = local_train(global_model, client_data, plan, cfg, histories[k], round_idx, k)
        stat = {
            "loss": update.first_loss,
            "train_acc": accuracy(local, client_data.features, client_data.labels),
        }
        return update, plan.true_counts.copy(), stat

    workers = _client_workers(global_model, partition, cfg)
    if workers > 1:
        # each task runs in a copy of the caller's context, so np.errstate
        # and other context-local settings hold in the workers too
        contexts = [contextvars.copy_context() for _ in range(n_clients)]
        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(lambda ctx, k: ctx.run(train_client, k), contexts, range(n_clients)))
    else:
        results = [train_client(k) for k in range(n_clients)]
    updates = [r[0] for r in results]
    truths = [r[1] for r in results]
    stats = [r[2] for r in results]

    sizes = np.array([u.n_samples for u in updates], dtype=np.float64)
    new_global = server_aggregate(updates, sizes / sizes.sum(), global_model)
    global_delta = new_global.params().sub(global_model.params())
    new_histories = [_record_round(h, u.delta, global_delta) for h, u in zip(histories, updates)]
    if cfg.scheme == "scaffold":
        new_histories = scaffold_update_control(new_histories, [u.delta for u in updates], cfg)
    return new_global, updates, truths, stats, new_histories


def append_round_log(path, round_idx: int, cfg: SchemeConfig, stats) -> None:
    """Write one row per training client to the round-log CSV; round 1 starts the file afresh."""
    first = round_idx == 1
    with open(path, "w" if first else "a", newline="") as fh:
        writer = csv.writer(fh)
        if first:
            writer.writerow(
                ["round", "client", "scheme", "optimizer", "eta", "lambda", "gamma", "m", "batch", "loss", "train_acc"]
            )
        for k, st in enumerate(stats):
            if st is None:
                continue
            writer.writerow(
                [
                    round_idx,
                    k,
                    cfg.scheme,
                    cfg.optimizer,
                    repr(cfg.eta),
                    repr(cfg.lam),
                    repr(cfg.gamma),
                    cfg.epochs,
                    cfg.batch_size,
                    repr(st["loss"]),
                    repr(st["train_acc"]),
                ]
            )
