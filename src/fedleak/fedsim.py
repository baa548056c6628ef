"""Federated round simulator: FedAvg/FedProx/Scaffold/FedDyn/FedDC locals.

Every scheme runs m local epochs of one batch each; the per-epoch
cross-entropy bias gradient (batch mean) is recorded on a debug channel
of the LocalUpdate so tests can recombine the transmitted bias delta
exactly. Attack code never reads that channel.

Regularizer and correction terms (proximal pulls, control variates,
drift) apply to all parameters, not only the output layer. Histories are
never mutated in place by run_round; it returns advanced copies so that
callers keep round-start state for analysis.

Round-log CSV layout (append_round_log):
round,client,scheme,optimizer,eta,lambda,gamma,m,batch,loss,train_acc
"""

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .data import BatchPlan, Dataset, Partition, plan_batches
from .nn import Model, ParamVec, backward, accuracy, zeros_like_params

SCHEMES = ("fedavg", "fedprox", "scaffold", "feddyn", "feddc")
OPTIMIZERS = ("sgd", "sgdm", "nag")

# Seed-stream tag so every (round, client) gets an independent batch plan.
_STREAM_PLAN = 1


@dataclass(frozen=True)
class SchemeConfig:
    """Local-training recipe shared by all clients in a run."""

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
        if not np.isfinite(self.eta) or self.eta < 0:
            raise ValueError("eta must be finite and non-negative")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError("lambda must be finite and non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


@dataclass
class LocalUpdate:
    """What a client transmits for one round, plus debug-only extras."""

    delta: ParamVec
    round: int
    client_id: int
    # Debug/test channel: (m, N) batch-mean CE bias gradients per epoch.
    # The attack pipeline must never read this.
    debug_ce_bias_grads: np.ndarray = field(repr=False, default=None)
    # Cross-entropy of the first batch at the round-start parameters, for
    # the round log. Not transmitted either.
    first_loss: float = field(repr=False, default=None)

    @property
    def delta_w_out(self) -> np.ndarray:
        return self.delta.weights[-1]

    @property
    def delta_b_out(self) -> np.ndarray:
        return self.delta.biases[-1]


@dataclass
class UpdateHistory:
    """Per-client view of everything past rounds left behind.

    Bias-slice lists are what a curious server can reconstruct from the
    transmissions it received; the full-parameter fields are the client's
    own optimizer state (variates, drift, cumulative deltas).
    """

    past_local_bias: list = field(default_factory=list)  # delta b per round
    past_global_bias: list = field(default_factory=list)  # aggregated delta b per round
    server_variate_bias: list = field(default_factory=list)  # c^(r) bias, r = 1..t
    client_variate: ParamVec = None  # scaffold c_k, full parameters
    server_variate: ParamVec = None  # scaffold c (current), full parameters
    cum_local_delta: ParamVec = None  # sum of past delta theta_k, full
    prev_local_delta: ParamVec = None  # last round's delta theta_k, full
    prev_global_delta: ParamVec = None  # last round's aggregated delta, full

    @property
    def completed_rounds(self) -> int:
        """Rounds recorded so far; every round adds one local bias slice."""
        return len(self.past_local_bias)

    @classmethod
    def fresh(cls, model: Model) -> "UpdateHistory":
        n = model.n_classes
        return cls(
            past_local_bias=[],
            past_global_bias=[],
            server_variate_bias=[np.zeros(n)],
            client_variate=zeros_like_params(model),
            server_variate=zeros_like_params(model),
            cum_local_delta=zeros_like_params(model),
            prev_local_delta=None,
            prev_global_delta=None,
        )

    def copy(self) -> "UpdateHistory":
        def pv(x):
            return x.copy() if x is not None else None

        return UpdateHistory(
            past_local_bias=[b.copy() for b in self.past_local_bias],
            past_global_bias=[b.copy() for b in self.past_global_bias],
            server_variate_bias=[b.copy() for b in self.server_variate_bias],
            client_variate=pv(self.client_variate),
            server_variate=pv(self.server_variate),
            cum_local_delta=pv(self.cum_local_delta),
            prev_local_delta=pv(self.prev_local_delta),
            prev_global_delta=pv(self.prev_global_delta),
        )


def _check_history(history: UpdateHistory, cfg: SchemeConfig, round_idx: int) -> None:
    if round_idx < 1:
        raise ValueError("round index starts at 1")
    if history.completed_rounds != round_idx - 1:
        raise RuntimeError(
            f"history covers {history.completed_rounds} rounds; round {round_idx} expects {round_idx - 1}"
        )
    if cfg.scheme == "scaffold" and len(history.server_variate_bias) != round_idx:
        raise RuntimeError("server_variate_bias must cover rounds 1..t for scaffold")


def local_train(
    model: Model,
    data: Dataset,
    plan: BatchPlan,
    cfg: SchemeConfig,
    history: UpdateHistory,
    round_idx: int = 1,
    client_id: int = 0,
):
    """Run m local epochs from `model`; returns (LocalUpdate, trained Model).

    Pure: neither `model` nor `history` is modified. Raises on non-finite
    loss or final parameters (diverging step size) and on history/round
    mismatches.
    """
    _check_history(history, cfg, round_idx)
    if len(plan.batches) != cfg.epochs:
        raise ValueError("plan epochs do not match cfg.epochs")

    local = model.copy()
    params = local.params()
    theta0 = model.params()  # read-only reference copy of round-start params
    eta, lam, gamma, m = cfg.eta, cfg.lam, cfg.gamma, cfg.epochs

    velocity = zeros_like_params(model) if cfg.optimizer in ("sgdm", "nag") else None
    prev_grad = None
    ce_bias_grads = np.zeros((m, model.n_classes))

    # Per-round constant correction terms.
    feddc_linear = None
    if cfg.scheme == "feddc" and history.prev_local_delta is not None:
        if eta * m == 0:
            raise ValueError("feddc linear term undefined for eta = 0")
        feddc_linear = history.prev_local_delta.sub(history.prev_global_delta).scaled(1.0 / (eta * m))

    for tau in range(m):
        idx = plan.batches[tau]
        loss, grad = backward(local, data.features[idx], data.labels[idx])
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite loss at round {round_idx} epoch {tau + 1}")
        if tau == 0:
            first_loss = float(loss)
        ce_bias_grads[tau] = grad.biases[-1]

        if cfg.scheme == "fedprox":
            grad.add_(params.sub(theta0), lam)
        elif cfg.scheme == "scaffold":
            grad.add_(history.server_variate, 1.0)
            grad.add_(history.client_variate, -1.0)
        elif cfg.scheme == "feddyn":
            grad.add_(history.cum_local_delta, lam)
            grad.add_(params.sub(theta0), lam)
        elif cfg.scheme == "feddc":
            grad.add_(params.sub(theta0), lam)
            grad.add_(history.cum_local_delta, lam)
            if feddc_linear is not None:
                grad.add_(feddc_linear, 1.0)

        if cfg.optimizer == "sgd":
            step = grad
        elif cfg.optimizer == "sgdm":
            velocity = velocity.scaled(gamma)
            velocity.add_(grad, 1.0)
            step = velocity
        else:  # nag
            if prev_grad is None:
                velocity = grad.scaled(1.0 + gamma)
            else:
                velocity = velocity.scaled(gamma)
                velocity.add_(grad, 1.0 + gamma)
                velocity.add_(prev_grad, -gamma)
            prev_grad = grad
            step = velocity

        params.add_(step, -eta)

    delta = params.sub(theta0)
    if not np.isfinite(delta.max_abs()):
        raise RuntimeError(f"non-finite parameters after local training at round {round_idx} client {client_id}")
    update = LocalUpdate(delta, round_idx, client_id, ce_bias_grads, first_loss)
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


def scaffold_update_control(histories, deltas, cfg: SchemeConfig) -> None:
    """Advance scaffold control variates after a round, in place.

    Applies c_k <- c_k - c + (theta_t - theta_k_final) / (eta m) for every
    client (theta_t - theta_k_final = -delta_k), then sets the server
    variate on every history to the unweighted mean of the new client
    variates and appends its bias slice.
    """
    if cfg.eta * cfg.epochs == 0:
        raise ValueError("scaffold control update undefined for eta = 0")
    if len(histories) != len(deltas) or not histories:
        raise ValueError("histories and deltas must be non-empty and aligned")
    scale = 1.0 / (cfg.eta * cfg.epochs)
    for hist, delta in zip(histories, deltas):
        ck = hist.client_variate
        ck.add_(hist.server_variate, -1.0)
        ck.add_(delta, -scale)
    mean = histories[0].client_variate.scaled(1.0 / len(histories))
    for hist in histories[1:]:
        mean.add_(hist.client_variate, 1.0 / len(histories))
    for hist in histories:
        hist.server_variate = mean.copy()
        hist.server_variate_bias.append(mean.biases[-1].copy())


def _record_round(history: UpdateHistory, local_delta: ParamVec, global_delta: ParamVec) -> None:
    history.past_local_bias.append(local_delta.biases[-1].copy())
    history.past_global_bias.append(global_delta.biases[-1].copy())
    history.cum_local_delta.add_(local_delta, 1.0)
    history.prev_local_delta = local_delta.copy()
    history.prev_global_delta = global_delta.copy()


def run_round(
    global_model: Model,
    dataset: Dataset,
    partition: Partition,
    cfg: SchemeConfig,
    histories,
    round_idx: int,
    seed: int,
    weights=None,
):
    """One synchronous round over every client.

    Returns (new_global, updates, truth_counts, stats, new_histories).
    updates[k] is the k-th client's LocalUpdate; clients whose shard is
    smaller than batch_size participate with a zero update and get
    truth_counts[k] = None, stats[k] = None. truth_counts is ground truth
    for evaluation only. Histories are advanced on copies; the inputs
    stay at round-start state.
    """
    n_clients = partition.n_clients
    if len(histories) != n_clients:
        raise ValueError("one history per client required")
    if weights is None:
        sizes = np.array([len(a) for a in partition.assignments], dtype=np.float64)
        if sizes.sum() == 0:
            raise ValueError("empty partition")
        weights = sizes / sizes.sum()

    new_histories = [h.copy() for h in histories]
    updates, truths, stats = [], [], []
    for k in range(n_clients):
        shard = partition.assignments[k]
        if len(shard) < cfg.batch_size:
            zero = LocalUpdate(
                zeros_like_params(global_model),
                round_idx,
                k,
                np.zeros((cfg.epochs, global_model.n_classes)),
            )
            updates.append(zero)
            truths.append(None)
            stats.append(None)
            continue
        client_data = dataset.subset(shard)
        plan_seed = np.random.SeedSequence([seed, _STREAM_PLAN, round_idx, k]).generate_state(1)[0]
        plan = plan_batches(client_data, cfg.batch_size, cfg.epochs, int(plan_seed))
        update, local = local_train(global_model, client_data, plan, cfg, histories[k], round_idx, k)
        updates.append(update)
        truths.append(plan.true_counts.copy())
        stats.append(
            {
                "loss": update.first_loss,
                "train_acc": accuracy(local, client_data.features, client_data.labels),
            }
        )

    new_global = server_aggregate(updates, weights, global_model)
    global_delta = new_global.params().sub(global_model.params())
    for k in range(n_clients):
        _record_round(new_histories[k], updates[k].delta, global_delta)
    if cfg.scheme == "scaffold":
        scaffold_update_control(new_histories, [u.delta for u in updates], cfg)
    return new_global, updates, truths, stats, new_histories


def append_round_log(path, round_idx: int, cfg: SchemeConfig, stats) -> None:
    """Append one row per client to the round-log CSV, creating the header once."""
    new_file = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
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
