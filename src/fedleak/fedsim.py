"""Federated round simulator: FedAvg/FedProx/Scaffold/FedDyn/FedDC locals.

Every scheme runs m local epochs of one batch each; the per-epoch
cross-entropy bias gradient (batch mean) is recorded on a debug channel
of the LocalUpdate so tests can recombine the transmitted bias delta
exactly. Attack code never reads that channel. run_round draws each
client's (m, B) batch plan once per round and counts the truth from it.

local_steps is the one definition of a local step: the drift, the
proximal pull lambda * (theta - theta0), the sgdm/nag velocity and the
move by -eta. train_stack runs it on the clients' parameters, and
step_weights runs it on unit gradients to give the attack its per-step
weights rho, so the attack weights each step as the simulator takes it.
Schemes differ only in what they add to every local gradient of a round:
the pull, which the step reads from cfg.lam, and a drift fixed for the
round (scaffold's c - c_k, feddyn's and feddc's linear terms), which
round_correction alone computes. Both apply to all parameters, not only
the output layer; the attack reads its offset from the same drift.
Histories are immutable round-start records (UpdateHistory): run_round
builds the next round's records and never writes into the ones it was
given. HISTORY_READS, next to round_correction, names the record fields
each scheme reads; from round 2 on a record holds only those (the others
are None), so a round keeps no full-parameter state that nothing reads.

train_stack trains a stack of K clients from one global model: its
ParamVecs (parameters, gradients, velocity, drift) carry a leading client
axis, so an epoch costs one gather, one backward (nn.backward_stack) and
one update for the whole stack, and vec[k] is bit for bit what client k
gives alone; a stack raises the error of its first failing client.
local_train is its one-client case. run_round trains each round once.
While one local step stays below _PARALLEL_MIN_STEP_MACS multiply-adds,
the round trains as one stack in the calling thread, so each epoch's
Python dispatch is paid once for the round. From the gate up, where BLAS
(which releases the GIL) dominates, it trains one-client stacks through
_map. train_stack is pure and every stack works on its own arrays, so
both give bit-identical results and errors.

_map is the package's one way onto a second CPU: list(map(...)) on a
kept pool of one worker thread per usable CPU, or inline with one CPU.
run_round and the attack's auxiliary forward pass (attack._aux_logits)
both go through it.

_keep_heap is the package's one allocator policy. On glibc it tells
malloc, once per process, to keep freed memory for reuse: one malloc
arena for every thread (so _map's pool threads hold no arena of their
own), a fixed mmap threshold of 32 MiB and a fixed trim threshold of
128 MiB. Each round then reuses the previous round's heap instead of
handing it back to the kernel and faulting it in again. It changes where
memory comes from, never a computed bit; cli.run_experiment applies it,
and importing this module does not.

Nothing here writes a file: the round log and the reports are the CLI's.
"""

import contextvars
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, Partition, derive_seed, plan_batches
from .nn import Model, ParamVec, accuracy, backward_stack, zeros_like_params
# unused here; perfbench/tracing.py looks nn.backward up under this name
from .nn import backward  # noqa: F401

SCHEMES = ("fedavg", "fedprox", "scaffold", "feddyn", "feddc")
OPTIMIZERS = ("sgd", "sgdm", "nag")

# Seed-stream tag so every (round, client) gets an independent batch plan.
_STREAM_PLAN = 1

# Multiply-adds of one local step (batch_size times the weight count) from
# which run_round trains a round's clients as one-client stacks through _map.
# numpy releases the GIL only inside BLAS and large ufuncs; below this the
# Python between those calls holds it and threads only add overhead. Median round training
# time on a 2-CPU host with one BLAS thread (20 clients, scaffold, m = 10),
# sequential vs 2 threads: 38k MACs 39 vs 67 ms, 1.5M 106 vs 120 ms, 2.1M
# 150 vs 132 ms, 4.3M 253 vs 182 ms, 10.8M (train_heavy's step) 501 vs
# 316 ms. Break-even lies near 2M.
_PARALLEL_MIN_STEP_MACS = 1 << 21


@dataclass(frozen=True)
class SchemeConfig:
    """Local-training recipe shared by all clients in a run; every scheme needs 0 < eta < inf.

    The one place that decides which schemes take lambda (it is 0 under
    fedavg and scaffold) and that sgdm and nag run only under fedavg.
    """

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
        if not 0.0 < self.eta < np.inf:
            raise ValueError(f"eta must be finite and above 0, got {self.eta!r}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError("lambda must be finite and non-negative")
        # a value the recipe never reads would be silently ignored
        if self.gamma and self.optimizer == "sgd":
            raise ValueError(f"gamma {self.gamma!r} has no effect under sgd, only under sgdm and nag")
        if self.lam and self.scheme in ("fedavg", "scaffold"):
            raise ValueError(f"lambda {self.lam!r} has no effect under {self.scheme}, only under the proximal schemes")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.lam * self.eta >= 1.0:
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
    instead of copying this one. fresh(model) is the record before round 1
    under every scheme: zero variates and a zero cum_local_delta, and no
    previous deltas. The records run_round builds keep only the fields
    HISTORY_READS names for the scheme and set the others to None:
    scaffold keeps the variates, feddyn cum_local_delta, feddc
    cum_local_delta, prev_local_delta and prev_global_delta, and fedavg
    and fedprox none. Each is a full-parameter vector per client, so a
    field nothing reads would only hold memory, and a None never passes
    for a value (a zero standing in for a sum, say). Everything here is
    known to a curious server: the scaffold client variate c_k is the sum
    of the control deltas the client transmits (here they follow from its
    deltas and c), the server variate c is the mean of the c_k,
    cum_local_delta and prev_local_delta are sums of the client's
    transmitted deltas, and prev_global_delta is the server's own
    aggregate.
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


# The UpdateHistory fields round_correction reads under each scheme. The
# records run_round builds hold these and set every other field to None.
HISTORY_READS = {
    "fedavg": (),
    "fedprox": (),
    "scaffold": ("client_variate", "server_variate"),
    "feddyn": ("cum_local_delta",),
    "feddc": ("cum_local_delta", "prev_local_delta", "prev_global_delta"),
}


def round_correction(cfg: SchemeConfig, history: UpdateHistory):
    """The drift cfg's scheme adds to every local gradient of a round, or None.

    The drift is fixed for the round and read from the client's
    round-start record: scaffold's c - c_k (Karimireddy et al. 2020, Alg.
    1), feddyn's lambda * cum_local_delta (Acar et al. 2021), and for feddc
    that term plus (prev_local_delta - prev_global_delta) / (eta m). It is
    None for fedavg and fedprox, and for every scheme before the first
    round. The proximal pull is the step's own (local_steps reads cfg.lam).
    Raises ValueError when the record lacks a field the scheme reads (a
    record run_round built under another scheme).
    """
    if cfg.scheme in ("fedavg", "fedprox") or history.completed_rounds == 0:
        return None
    for name in HISTORY_READS[cfg.scheme]:
        if getattr(history, name) is None:
            raise ValueError(f"{cfg.scheme} reads {name}, which this client record does not keep")
    if cfg.scheme == "scaffold":
        return history.server_variate.sub(history.client_variate)
    drift = history.cum_local_delta.scaled(cfg.lam)
    if cfg.scheme == "feddc":
        drift.add_(history.prev_local_delta.sub(history.prev_global_delta), 1.0 / (cfg.eta * cfg.epochs))
    return drift


def local_steps(cfg: SchemeConfig, params: ParamVec, theta0: ParamVec, drift, gradient) -> ParamVec:
    """Run cfg's m local steps on params in place and return it: the one definition of a local step.

    gradient(tau, params) returns the raw gradient of step tau (0-based) at
    params as a new ParamVec, which the step then writes into. Every step
    adds the round's drift (None: none) and then the proximal pull
    cfg.lam * (params - theta0); sgdm folds the sum into a velocity
    v <- gamma v + g, nag into v <- gamma v + (1 + gamma) g - gamma g_prev,
    which is g plus gamma times the heavy-ball velocity (Sutskever et al.
    2013); then params moves by -eta times the result. train_stack runs it on stacked parameters and
    step_weights on unit impulses.
    """
    eta, gamma = cfg.eta, cfg.gamma
    lead = gamma if cfg.optimizer == "nag" else 0.0
    velocity = prev_grad = None if cfg.optimizer == "sgd" else params.map(np.zeros_like)
    for tau in range(cfg.epochs):
        grad = gradient(tau, params)
        if drift is not None:
            grad.add_(drift, 1.0)
        if cfg.lam:
            grad.add_(params.sub(theta0), cfg.lam)
        if cfg.optimizer != "sgd":
            velocity = velocity.scaled(gamma)
            velocity.add_(grad, 1.0 + lead)
            if lead:
                velocity.add_(prev_grad, -lead)
            prev_grad = grad
            grad = velocity
        params.add_(grad, -eta)
    return params


@functools.cache
def step_weights(cfg: SchemeConfig) -> np.ndarray:
    """rho: the read-only (m,) weights of each step's gradient in the round's displacement.

    The displacement of a round whose step tau sees gradient g_tau (and no
    drift) is -eta * sum_tau rho_tau g_tau. local_steps is linear in the
    gradients, so running it from theta0 = 0 on m coordinates, with a unit
    gradient on coordinate tau at step tau, leaves -eta * rho_tau on
    coordinate tau. Plain sgd, and momentum at gamma = 0, give exactly
    ones. Memoized per config: a repeated call returns the same array.
    """
    m = cfg.epochs

    def impulse(tau, params):
        unit = np.zeros(m)
        unit[tau] = 1.0
        return ParamVec([], [unit])

    theta0 = ParamVec([], [np.zeros(m)])
    rho = local_steps(cfg, theta0.copy(), theta0, None, impulse).biases[0] / -cfg.eta
    rho.flags.writeable = False
    return rho


def local_train(
    model: Model,
    data: Dataset,
    plan: np.ndarray,
    cfg: SchemeConfig,
    history: UpdateHistory,
    round_idx: int,
    client_id: int,
):
    """Run m local epochs from `model`; returns (LocalUpdate, trained Model).

    plan is an (m, B) index array into `data`, as plan_batches draws it.
    The one-client case of train_stack; see there for the step and the
    errors. Pure: neither `model` nor `history` is modified.
    """
    return train_stack(model, data, plan[None], cfg, [history], round_idx, [client_id], [len(data)])[0]


def train_stack(model: Model, data: Dataset, batches, cfg: SchemeConfig, histories, round_idx: int, client_ids, sizes):
    """Run m local epochs for a stack of K clients from `model`.

    batches is a (K, m, B) index array into `data`: client k's batch of
    epoch tau is batches[k, tau]. histories, client_ids and sizes (the
    shard sizes, for LocalUpdate.n_samples) hold one entry per client.
    Returns one (LocalUpdate, trained Model) pair per client; every array
    carries a leading client axis while training, and the pairs hold views
    into those arrays. The trained models skip Model's scan for non-finite
    entries: their deltas were just scanned, and a finite delta from finite
    round-start parameters means finite trained ones.

    The epochs are local_steps on the stacked parameters, with each
    client's round_correction drift and a gradient that runs
    backward_stack on the epoch's batches and records the first loss and
    the cross-entropy bias gradients. Each client's numbers are bit for
    bit those of training it alone.
    Pure: neither `model` nor any history is modified. Raises on a
    history/round mismatch before training (first client first). After
    training, the first client in stack order that failed raises, at its
    first epoch with a non-finite loss or else on its non-finite final
    parameters: what training the clients one by one would raise. Under
    an np.errstate that raises, the first FloatingPointError met is
    raised; its message may differ from client-order training's.
    """
    for history in histories:
        check_history(history, round_idx)
    stack, m = batches.shape[:2]
    if m != cfg.epochs:
        raise ValueError("plan epochs do not match cfg.epochs")

    theta0 = model.params()  # read-only reference to the round-start params
    params = theta0.map(lambda arr: np.stack([arr] * stack))
    # every history has completed round_idx - 1 rounds, so the drift is
    # None for all of them or for none
    drifts = [round_correction(cfg, h) for h in histories]
    drift = drifts[0]
    if drift is not None:
        drift = drift.map(lambda *layer: np.stack(layer), *drifts[1:])

    ce_bias_grads = np.zeros((stack, m, model.n_classes))
    bad_epoch = np.zeros(stack, dtype=int)  # first non-finite-loss epoch, 0 for none
    first_losses = np.zeros(stack)

    def gradient(tau, params):
        idx = batches[:, tau]
        losses, grad = backward_stack(params, model.activation, data.features[idx], data.labels[idx])
        if not np.isfinite(losses).all():
            bad_epoch[(bad_epoch == 0) & ~np.isfinite(losses)] = tau + 1
        if tau == 0:
            first_losses[:] = losses
        ce_bias_grads[:, tau] = grad.biases[-1]
        return grad

    local_steps(cfg, params, theta0, drift, gradient)

    delta = params.sub(theta0)
    failed = bad_epoch > 0
    for arr in delta.weights + delta.biases:
        failed |= ~np.isfinite(arr.reshape(stack, -1)).all(axis=1)
    if failed.any():
        k = int(np.argmax(failed))
        if bad_epoch[k]:
            raise RuntimeError(f"non-finite loss at round {round_idx} epoch {bad_epoch[k]} client {client_ids[k]}")
        raise RuntimeError(f"non-finite parameters after local training at round {round_idx} client {client_ids[k]}")

    out = []
    for k, (client_id, size) in enumerate(zip(client_ids, sizes)):
        update = LocalUpdate(delta[k], round_idx, client_id, size, ce_bias_grads[k], float(first_losses[k]))
        local = params[k]
        out.append((update, Model._prechecked(local.weights, local.biases, model.activation)))
    return out


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


def _record_round(scheme: str, history: UpdateHistory, local_delta: ParamVec, global_delta) -> UpdateHistory:
    """history one round on, holding the fields HISTORY_READS[scheme] names and None for the rest.

    The variates pass through unchanged; scaffold_update_control moves them.
    """
    reads = HISTORY_READS[scheme]
    cum = history.cum_local_delta.copy().add_(local_delta, 1.0) if "cum_local_delta" in reads else None
    values = {
        "client_variate": history.client_variate,
        "server_variate": history.server_variate,
        "cum_local_delta": cum,
        "prev_local_delta": local_delta,
        "prev_global_delta": global_delta,
    }
    return UpdateHistory(history.completed_rounds + 1, **{name: values[name] for name in reads})


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# glibc's mallopt parameters (malloc.h) and the values _keep_heap gives them.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_HEAP_POLICY = (
    # one arena: pool threads allocate from the main heap and free into it
    (_M_ARENA_MAX, 1),
    # fixed thresholds: a layer's transients stay on the heap, and the heap
    # keeps up to 128 MiB of free top between rounds. Setting either also
    # stops glibc from moving the mmap threshold as large blocks are freed.
    (_M_MMAP_THRESHOLD, 32 << 20),
    (_M_TRIM_THRESHOLD, 128 << 20),
)


@functools.cache
def _keep_heap() -> None:
    """Set the process's glibc malloc policy (_HEAP_POLICY), once per process.

    A process-wide side effect: it holds for every later allocation of
    the process, not only fedleak's, and threads that already own an
    arena keep it (a _map pool born before the first call keeps its
    threads' arenas). Off glibc (os.confstr has no CS_GNU_LIBC_VERSION)
    it does nothing; it stops at the first setting mallopt refuses, and
    it never raises.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if not glibc:
        return
    # ctypes passes the ints, and reads the result, as C ints by default
    mallopt = ctypes.CDLL(None).mallopt
    for param, value in _HEAP_POLICY:
        if not mallopt(param, value):
            return


# The kept pool of _map: ((pid, workers), executor). A forked child inherits
# the executor but not its threads, so it builds its own; a dropped executor's
# idle threads exit once it is collected.
_pool_lock = threading.Lock()
_pool = (None, None)


def _map(fn, *iterables) -> list:
    """list(map(fn, *iterables)), on a kept pool of one thread per usable CPU.

    Each call runs on the pool in a copy of the caller's context, so
    np.errstate holds there too. The pool is built on first use and again
    when the pid (in a forked child) or the usable-CPU count changes. With
    fewer than two calls or one usable CPU the calls run inline instead.
    Results come back in call order. When a call raises, the calls not yet
    started are cancelled, the running ones are waited for, and the
    earliest failing call's error is raised, as in map. fn must not call
    _map itself: a worker waiting on its own pool can block them all.
    """
    calls = list(zip(*iterables))
    workers = _usable_cpus()
    if len(calls) < 2 or workers < 2:
        return [fn(*args) for args in calls]
    global _pool
    with _pool_lock:
        built_for, executor = _pool
        if built_for != (os.getpid(), workers):
            executor = ThreadPoolExecutor(workers, thread_name_prefix="fedleak-worker")
            _pool = ((os.getpid(), workers), executor)
        futures = [executor.submit(contextvars.copy_context().run, fn, *args) for args in calls]
    try:
        return [future.result() for future in futures]
    finally:
        for future in futures:
            future.cancel()
        wait(futures)


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
    batch ValueError is raised before any client trains. When every
    client that trained sends an exactly-zero delta (a step size eta too
    small to move any parameter), ValueError is raised after training,
    before anything is returned: that round, too, carries no signal. Every update
    carries its shard size as n_samples, and the aggregate weights are
    those sizes over their sum. truth_counts[k] counts the labels of the
    batches client k trained on, ground truth for evaluation only.
    stats[k] is client k's train_acc, the accuracy of its trained local
    model on its whole shard; its first loss is updates[k].first_loss.
    new_histories are new records for the start of round round_idx + 1,
    holding only the fields HISTORY_READS names for cfg.scheme. Scaffold's
    share one server variate; feddc's share the aggregate delta and hold
    the updates' deltas themselves. The input records stay at round-start
    state.

    Every record, idle clients' included, is checked before a plan is
    drawn. Each trainer's (m, B) plan is drawn once, in the calling
    thread, and the round trains once: below _PARALLEL_MIN_STEP_MACS as
    one stack in the calling thread, from the gate up as one-client stacks
    in client order through _map. Results, and the error of the first
    failing client in client order, are the same either way (but see
    train_stack on FloatingPointError). plan_batches, train_stack,
    backward_stack and accuracy are looked up in this module at call time.
    """
    shards = partition.assignments
    if len(histories) != len(shards):
        raise ValueError("one history per client required")
    for history in histories:
        check_history(history, round_idx)
    largest = max(map(len, shards), default=0)
    if largest < cfg.batch_size:
        raise ValueError(
            f"batch_size {cfg.batch_size} is above the largest client shard ({largest} samples):"
            " no client can fill a batch, so no update carries a signal to attack"
        )
    # each trainer's (m, B) batch indices into the whole dataset, drawn once
    # for the round and shared by both training paths; the keys are the trainers
    plans = {
        k: shard[plan_batches(len(shard), cfg.batch_size, cfg.epochs, derive_seed(seed, _STREAM_PLAN, round_idx, k))]
        for k, shard in enumerate(shards)
        if len(shard) >= cfg.batch_size
    }

    def train(ks):
        batches = np.stack([plans[k] for k in ks])
        sizes = [len(shards[k]) for k in ks]
        trained = train_stack(global_model, dataset, batches, cfg, [histories[k] for k in ks], round_idx, ks, sizes)
        return [
            (update, accuracy(local, dataset.features[shards[k]], dataset.labels[shards[k]]))
            for k, (update, local) in zip(ks, trained)
        ]

    if cfg.batch_size * sum(w.size for w in global_model.weights) < _PARALLEL_MIN_STEP_MACS:
        results = train(list(plans))
    else:
        results = [result for [result] in _map(train, [[k] for k in plans])]

    results = dict(zip(plans, results))
    if not any(update.delta.max_abs() for update, _ in results.values()):
        raise ValueError(
            f"every client that trained in round {round_idx} sent an all-zero delta: eta {cfg.eta!r} is too"
            " small to move any parameter, so no update carries a signal to attack"
        )
    updates, truths, stats = [], [], []
    for k, shard in enumerate(shards):
        if k in results:
            update, train_acc = results[k]
            truth = np.bincount(dataset.labels[plans[k]].ravel(), minlength=dataset.n_classes)
        else:
            idle = np.zeros((cfg.epochs, global_model.n_classes))
            update = LocalUpdate(zeros_like_params(global_model), round_idx, k, len(shard), idle)
            truth = train_acc = None
        updates.append(update)
        truths.append(truth)
        stats.append(train_acc)

    sizes = np.array([u.n_samples for u in updates], dtype=np.float64)
    new_global = server_aggregate(updates, sizes / sizes.sum(), global_model)
    global_delta = None
    if "prev_global_delta" in HISTORY_READS[cfg.scheme]:
        global_delta = new_global.params().sub(global_model.params())
    new_histories = [_record_round(cfg.scheme, h, u.delta, global_delta) for h, u in zip(histories, updates)]
    if cfg.scheme == "scaffold":
        new_histories = scaffold_update_control(new_histories, [u.delta for u in updates], cfg)
    return new_global, updates, truths, stats, new_histories

