"""Label-count recovery from a transmitted model update.

Pipeline: forward the auxiliary set through the model, average the
softmax of each class's logits into an erroneous-confidence matrix (the
plug-in estimate), recombine the update's output-bias delta into a
scheme-normalized target, solve a least-squares problem on the probability
simplex, and round to integer counts. For a multi-epoch update whose
shard is exactly one batch, every epoch sees the same labels, so the
round's counts are the epoch count times one per-epoch vector, and the
crude counts are rounded onto that lattice. The shard size is the one
piece of client metadata the attack reads; the server knows it because it
weights the aggregate by it. Every update of a round is attacked against
the same global model and auxiliary set: prepare_round builds what depends
only on them once into a RoundContext (the auxiliary features in class
order, the global model's confusion matrix, the simplex system of that
matrix with its warm-start inverse, the matrix's largest standard error
and the model's largest absolute parameter), and rlu_attack takes the context
with each update. A single-epoch update then costs its target and the
KKT solves on its own supports; a multi-epoch one also forwards the
class-ordered auxiliary features through its local model and builds its
own system, which it solves once: a one-use system, with no KKT inverse.
Class-grouped logits travel as (logits, bounds), class n's rows at
bounds[n]:bounds[n + 1], and are stored class-major (F-ordered), as
forward_batch returns them, so the softmax and the per-class reductions
of plugin_confusion run over contiguous class vectors. Nothing on the
attack path draws random numbers. mc_confusion, the Gaussian Monte Carlo
model of the same matrix, stays as a diagnostic of how far the logits
are from Gaussian.

Every forward pass of the auxiliary set goes through _aux_logits. A pass
large enough for BLAS to dominate (each half at least
fedsim._PARALLEL_MIN_STEP_MACS multiply-adds and _SPLIT_MIN_ROWS rows, as
on the train_heavy benchmark model) is cut in two, and fedsim._map
forwards the halves, on two CPUs where there are two, so a multi-epoch
attack uses a second CPU. Where the pass is cut depends only on the row
and weight counts, never on the CPU count, so a run's results do not
depend on how many CPUs it has.

Everything here sees only what a curious server would: the global model,
the transmitted update, past transmissions, the training recipe, and an
auxiliary dataset. Ground-truth label counts never enter. Nothing here
writes a file: AttackReport.to_json is a report's format, and the CLI
writes the reports.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import fedsim
from ._kernels import SimplexSystem, active_set_simplex_ls, mean_softmax, one_use_system, simplex_system
# Kept only for perfbench/tracing.py, which looks the name up here; the attack
# no longer calls it.
from ._kernels import pgd_simplex_ls  # noqa: F401
from .data import Dataset, _apportion, largest_remainder
from .fedsim import LocalUpdate, SchemeConfig, UpdateHistory, check_history, round_correction
from .nn import Model, ParamVec, forward_batch, softmax_rows

METHOD_SINGLE = "single_epoch"
METHOD_CRUDE = "crude_multi_epoch"
METHOD_SEARCH = "posterior_search"

_JITTER_SCALE = 1e-6

# Rows in each half of a split auxiliary pass (_aux_logits), at least.
# Whether the halves give the one-pass logits bit for bit is up to the BLAS
# and the layer shapes. With OpenBLAS 0.3.31 on an AVX-512 x86-64 CPU,
# blocks of up to 120 rows through the train_heavy model took a
# small-matrix kernel with other last bits; halves of 1000 rows matched one
# pass through 64-256-256-10 and 16-256-10, but not 16-299-10 or 16-300-10.
_SPLIT_MIN_ROWS = 256


class DegenerateUpdateError(RuntimeError):
    """The update carries no usable signal: its delta is identically zero."""


@dataclass
class LogitMoments:
    """Per-class mean and covariance of the output logits."""

    mu: np.ndarray  # (N, N): row n = mean logit vector for true class n
    sigma: np.ndarray  # (N, N, N): sigma[n] = covariance for true class n


@dataclass
class ConfusionMatrix:
    """Erroneous confidences: s[n, j] = E[softmax_j | true class n], j != n.

    The diagonal is stored as zero and never read. se, when known, holds
    the standard error of each entry, with the same zero diagonal.
    """

    s: np.ndarray
    se: np.ndarray = None

    @property
    def n_classes(self) -> int:
        return self.s.shape[0]


@dataclass(frozen=True)
class AttackParams:
    """Settings shared by every attack of a run.

    search_iters switches the one-batch rounding of posterior_search: 0
    keeps the crude multi-epoch counts, any positive value rounds them.
    """

    search_iters: int = 5

    def __post_init__(self):
        if self.search_iters < 0:
            raise ValueError(f"search_iters must be non-negative, got {self.search_iters}")


@dataclass(frozen=True)
class RoundContext:
    """Everything an attack needs that is fixed for one round.

    Every update of a round is attacked against the same round-start global
    model, auxiliary set and settings; prepare_round builds the rest once.
    aux_features holds the auxiliary rows grouped by class, class n's rows
    at aux_bounds[n]:aux_bounds[n + 1] in their order in the set, so a
    local model's per-class logits are slices of one forward pass. system
    is the SimplexSystem of build_system(s_first), which every
    single-epoch update is solved against. Its arrays are read-only, which
    keeps attacks from writing into shared state. confusion_se and
    global_peak are not arguments: they are computed from s_first and
    global_model when the context is built, once for the round.
    """

    global_model: Model
    params: AttackParams
    s_first: ConfusionMatrix  # plug-in confusion matrix of global_model on the auxiliary set
    aux_features: np.ndarray  # (rows, d), grouped by class
    aux_bounds: np.ndarray  # (N + 1,) class offsets into aux_features
    system: SimplexSystem
    confusion_se: float = field(init=False)  # largest entry of s_first.se
    global_peak: float = field(init=False)  # largest absolute parameter of global_model

    def __post_init__(self):
        object.__setattr__(self, "confusion_se", float(self.s_first.se.max()))
        object.__setattr__(self, "global_peak", self.global_model.params().max_abs())


@dataclass
class SchemeCoefficients:
    """Per-epoch weights rho and additive history offset h for one round.

    h is None for schemes whose offset is identically zero.
    """

    rho: np.ndarray  # (m,)
    h: np.ndarray = None  # (N,) or None


@dataclass
class AttackReport:
    z_star: np.ndarray
    counts: np.ndarray
    residual: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialize with a stable key order so reports diff cleanly."""
        payload = {
            "method": self.method,
            "counts": [int(c) for c in self.counts],
            "z_star": [float(z) for z in self.z_star],
            "residual": float(self.residual),
            "diagnostics": {k: self.diagnostics[k] for k in sorted(self.diagnostics)},
        }
        return json.dumps(payload, indent=2)


def _psd_factor(sigma: np.ndarray) -> np.ndarray:
    """Factor L with L L^T ~= sigma, from the eigendecomposition of its symmetric part.

    L is the eigenvector matrix with each column scaled by the root of its
    eigenvalue clipped at 0; it is square but not symmetric. sigma must be
    finite.
    """
    w, v = np.linalg.eigh(0.5 * (sigma + sigma.T))
    return v * np.sqrt(np.clip(w, 0.0, None))


def class_order(aux: Dataset, n_classes: int) -> tuple:
    """aux's features grouped by class, and the class bounds.

    Returns (features, bounds): class n's rows are
    features[bounds[n]:bounds[n + 1]], in their order in aux. features is a
    read-only view of aux.features when aux is already sorted by label, as
    make_synthetic builds it, and a grouped copy otherwise. Raises
    ValueError unless aux has n_classes classes, each with a sample.
    """
    if aux.n_classes != n_classes:
        raise ValueError(f"auxiliary set has {aux.n_classes} classes, the model {n_classes}")
    labels = aux.labels
    counts = np.bincount(labels, minlength=n_classes)
    if not counts.all():
        raise ValueError(f"dataset has no samples for class {np.argmin(counts)}")
    bounds = np.concatenate(([0], np.cumsum(counts)))
    # a view, so that making it read-only leaves aux.features writable
    features = aux.features[:] if (labels[1:] >= labels[:-1]).all() else aux.features[np.argsort(labels, kind="stable")]
    features.flags.writeable = False
    bounds.flags.writeable = False
    return features, bounds


def _aux_logits(model: Model, features: np.ndarray) -> np.ndarray:
    """forward_batch(model, features)[0], on up to two CPUs.

    Every forward pass of the auxiliary set comes through here. A pass
    whose halves each reach _SPLIT_MIN_ROWS rows and
    fedsim._PARALLEL_MIN_STEP_MACS multiply-adds (rows times the weight
    count) is cut at rows // 2, and fedsim._map forwards the two halves:
    on its kept pool, where BLAS releases the GIL, with two usable CPUs,
    and one after the other in the calling thread with one. The cut
    depends only on the row and weight counts, so the logits never depend
    on the CPU count. Whether they equal one pass bit for bit is up to the
    BLAS; on the benchmark's models they do. They are class-major either
    way: np.concatenate gives its result the memory order of its inputs.
    An error in the first half is raised before one in the second, as in
    one pass. forward_batch is looked up in this module at call time.
    """
    half = len(features) // 2
    if half < _SPLIT_MIN_ROWS or half * sum(w.size for w in model.weights) < fedsim._PARALLEL_MIN_STEP_MACS:
        return forward_batch(model, features)[0]
    return np.concatenate(fedsim._map(lambda rows: forward_batch(model, rows)[0], (features[:half], features[half:])))


def class_logits(model: Model, aux: Dataset) -> tuple:
    """The model's logits on the auxiliary set in class order, and the class bounds.

    Returns (logits, bounds), as class_order's features forwarded in one
    pass (_aux_logits): class n's rows are logits[bounds[n]:bounds[n + 1]],
    in their order in aux. logits is read-only.
    """
    features, bounds = class_order(aux, model.n_classes)
    logits = _aux_logits(model, features)
    logits.flags.writeable = False
    return logits, bounds


def estimate_moments(model: Model, aux: Dataset) -> LogitMoments:
    """Empirical logit moments per true class over the auxiliary set.

    Covariances use denominator max(count - 1, 1) and get _JITTER_SCALE *
    mean(diagonal) added on the diagonal, which keeps later factorizations
    stable without moving zero-variance cases off exact zero.
    """
    return _logit_moments(*class_logits(model, aux))


def _logit_moments(logits, bounds) -> LogitMoments:
    """estimate_moments of class-grouped logits, as from class_logits."""
    n = len(bounds) - 1
    mu = np.zeros((n, n))
    sigma = np.zeros((n, n, n))
    for cls, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        rows = logits[lo:hi]
        mu[cls] = rows.mean(axis=0)
        centered = rows - mu[cls]
        cov = centered.T @ centered / max(len(rows) - 1, 1)
        cov = 0.5 * (cov + cov.T)
        jitter = _JITTER_SCALE * float(np.mean(np.diag(cov)))
        sigma[cls] = cov + jitter * np.eye(n)
    return LogitMoments(mu, sigma)


def plugin_confusion(logits, bounds) -> ConfusionMatrix:
    """Confusion matrix of (rows, N) logits grouped by class, as class_logits gives them.

    Class n's rows are logits[bounds[n]:bounds[n + 1]]; bounds must run
    from 0 to the row count, and a class with no rows is a ValueError that
    names it. Row n is the mean softmax over class n's rows: the plug-in
    estimate of the expected erroneous confidences. se holds each entry's
    standard error over those rows, the sample standard deviation over
    sqrt(count) (0 for a single row).

    All rows go through one softmax together, and the probabilities are
    then centred and squared in place. When every class has the same row
    count, as make_synthetic builds it, the means and the centring come
    from one (classes, count, N) view of the probabilities, and the pass
    allocates no other (rows, N) array; other counts take one mean per
    class slice. Both give the bits of mean_softmax on each class's rows
    alone. The probabilities keep the logits' memory order, so on
    class-major logits, as forward_batch returns them, every class's
    probabilities of one logit are contiguous and each reduction runs
    over contiguous vectors.
    """
    bounds = np.asarray(bounds)
    if bounds[0] != 0 or bounds[-1] != len(logits):
        raise ValueError(f"bounds must run from 0 to the {len(logits)} logit rows, got {bounds[0]} to {bounds[-1]}")
    counts = np.diff(bounds)
    empty = np.flatnonzero(counts < 1)
    if empty.size:
        raise ValueError(f"class {empty[0]} has no logit rows")
    probs = softmax_rows(logits)
    if (counts == counts[0]).all():
        blocks = probs.reshape(len(counts), counts[0], -1)
        s = blocks.mean(axis=1)
        blocks -= s[:, None, :]
    else:
        s = np.array([probs[lo:hi].mean(axis=0) for lo, hi in zip(bounds[:-1], bounds[1:])])
        probs -= np.repeat(s, counts, axis=0)
    probs *= probs
    # reduceat for both: blocks.sum(axis=1) adds in another order and moves
    # the last bits of se
    sq_sums = np.add.reduceat(probs, bounds[:-1], axis=0)
    se = np.sqrt(sq_sums / np.maximum(counts - 1, 1)[:, None]) / np.sqrt(counts)[:, None]
    np.fill_diagonal(s, 0.0)
    np.fill_diagonal(se, 0.0)
    return ConfusionMatrix(s, se)


def _check_normals(normals: np.ndarray, n: int) -> None:
    if normals.ndim != 2 or normals.shape[0] < 1 or normals.shape[1] != n:
        raise ValueError(f"normals must be an (M, {n}) block with M >= 1, got shape {normals.shape}")


def mc_confusion(moments: LogitMoments, normals: np.ndarray) -> ConfusionMatrix:
    """Monte Carlo confusion matrix from Gaussian logit moments.

    normals is an (M, N) block of standard normals. Every class turns the
    same block into M logit draws through a factor of its covariance, so
    the result is a deterministic function of the moments and the block.
    """
    mu = moments.mu
    n = mu.shape[0]
    _check_normals(normals, n)
    if not (np.isfinite(mu).all() and np.isfinite(moments.sigma).all()):
        raise ValueError("logit moments must be finite")
    s = np.array([mean_softmax(mu[cls] + normals @ _psd_factor(moments.sigma[cls]).T) for cls in range(n)])
    np.fill_diagonal(s, 0.0)
    return ConfusionMatrix(s)


def prepare_round(global_model: Model, aux: Dataset, params: AttackParams) -> RoundContext:
    """The attack context of one round, built once from its global model.

    Pass the result to rlu_attack for every update of the round. It groups
    aux by class, forwards it through global_model once, keeps the
    confusion matrix of the per-class logits, and builds that matrix's
    simplex system.
    """
    features, bounds = class_order(aux, global_model.n_classes)
    s_first = plugin_confusion(_aux_logits(global_model, features), bounds)
    s_first.s.flags.writeable = False
    s_first.se.flags.writeable = False
    return RoundContext(global_model, params, s_first, features, bounds, simplex_system(build_system(s_first)))


def scheme_coefficients(cfg: SchemeConfig, round_idx: int, history: UpdateHistory) -> SchemeCoefficients:
    """Per-epoch weights and history offset for attacking round `round_idx`.

    rho is fedsim.step_weights(cfg), the simulator's own local step run on
    unit gradients, so it holds for every optimizer and proximal pull the
    simulator runs. The drift (fedsim.round_correction) enters every step
    like a gradient term, so its share of the output-bias delta is -h with
    h = eta * sum(rho) * drift. Only the drift's output bias is formed:
    round_correction reads a record whose fields are history's cut to
    their output-bias arrays, which gives the bits of the full drift's.
    history must be the client's record at the start of round_idx.
    """
    check_history(history, round_idx)
    rho = fedsim.step_weights(cfg)
    reads = fedsim.HISTORY_READS[cfg.scheme]
    if reads:
        history = UpdateHistory(history.completed_rounds, **{name: _output_bias(getattr(history, name)) for name in reads})
    drift = round_correction(cfg, history)
    h = None if drift is None else cfg.eta * rho.sum() * drift.biases[-1]
    return SchemeCoefficients(rho, h)


def _output_bias(vec: ParamVec):
    """vec cut to its output-layer bias, as a one-array ParamVec; None stays None."""
    return None if vec is None else ParamVec([], [vec.biases[-1]])


def build_system(confusion: ConfusionMatrix) -> np.ndarray:
    """System matrix A with (A z)_j = z_j sum_n s[j, n] - sum_n z_n s[n, j]."""
    s = confusion.s
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("confusion matrix must be square")
    return np.diag(s.sum(axis=1)) - s.T


def make_target(update: LocalUpdate, coeffs: SchemeCoefficients, cfg: SchemeConfig) -> np.ndarray:
    """Normalized target u = (delta_b + h) / (eta * sum(rho)).

    Solving A z = u over the simplex then reads z as the batch class
    proportions. For a single plain-SGD epoch this reduces to delta_b/eta.
    """
    sum_rho = float(coeffs.rho.sum())
    if sum_rho <= 0:
        raise ValueError("sum of rho must be positive")
    u = update.delta_b_out + (0.0 if coeffs.h is None else coeffs.h)
    u /= cfg.eta * sum_rho
    return u


def solve_simplex_ls(a, u: np.ndarray):
    """min ||A z - u||^2 over the probability simplex, solved exactly.

    a is the SimplexSystem that _kernels.simplex_system built from the
    system matrix A, which holds G = A^T A and the warm start's KKT
    inverse, or A itself. A matrix is solved once, so it is turned into a
    _kernels.one_use_system, which forms no inverse: its warm start is one
    KKT solve. Only b = A^T u is formed per call. The primal active-set
    method of _kernels.active_set_simplex_ls then warm-starts from the KKT
    solution on every class and makes one small KKT solve per support
    change until the KKT conditions hold. Returns (z, info) where info carries
    iterations (the number of KKT solves, the warm start included),
    converged, and the objective at z. If the solve stops at
    _kernels.MAX_KKT_SOLVES first, z is the last point reached, still on
    the simplex, and converged is False. An all-zero A returns the uniform
    point after no solve.
    """
    system = a if isinstance(a, SimplexSystem) else one_use_system(a)
    u = np.ascontiguousarray(u, dtype=np.float64)
    if system.a.shape[0] != u.size:
        raise ValueError("u must match A")
    if not np.isfinite(u).all():
        raise ValueError("non-finite target")
    z, solves, converged = active_set_simplex_ls(system, system.a.T @ u)
    resid = system.a @ z - u
    return z, {"iterations": int(solves), "converged": bool(converged), "objective": float(resid @ resid)}


def round_counts(z: np.ndarray, total: int) -> np.ndarray:
    """Integer counts from simplex weights, conserving the exact total.

    largest_remainder of max(z, 0) * total, with z checked once: for a 1-D
    z and a non-negative total, the checks here imply all of
    largest_remainder's, the sum included, so data._apportion rounds
    unchecked. Any other z or total goes through largest_remainder, which
    names the fault. A z on the simplex within its tolerance can still
    scale to a sum a unit or more off a large total; that raises here,
    naming z and the total.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.isfinite(z).all() or (z < -1e-9).any():
        raise ValueError("z must be finite and non-negative")
    if abs(z.sum() - 1.0) > 1e-6:
        raise ValueError("z must lie on the probability simplex")
    if total < 0 or z.ndim != 1:
        return largest_remainder(np.maximum(z, 0.0) * total, total)
    values = np.maximum(z, 0.0)
    values *= total
    if not abs(values.sum() - total) < 1.0:
        raise ValueError(
            f"z sums to {float(z.sum())!r}; times total {total} that is {float(values.sum())!r}, "
            "not within one unit of the total"
        )
    return _apportion(values, total)


def posterior_search(crude_counts: np.ndarray, cfg: SchemeConfig) -> np.ndarray:
    """Round crude multi-epoch counts onto the one-batch lattice.

    When a client's shard is exactly one batch, every local epoch sees the
    same labels, so the round's counts are m * g for one per-epoch vector g
    that sums to batch_size. g is the largest-remainder rounding of
    crude / m to batch_size, and the result is m * g. crude_counts must
    sum to epochs * batch_size.
    """
    crude = np.asarray(crude_counts, dtype=np.int64)
    m, batch = cfg.epochs, cfg.batch_size
    if crude.sum() != m * batch:
        raise ValueError("crude counts must sum to epochs * batch_size")
    return largest_remainder(crude / m, batch) * m


def rlu_attack(context: RoundContext, update: LocalUpdate, cfg: SchemeConfig, history: UpdateHistory) -> AttackReport:
    """Recover the label counts behind one transmitted update.

    context comes from prepare_round on the global model that update
    started from; history must be the round-start state for update.round.
    The system is built from the mean of the round's confusion matrices:
    the context's alone for a single epoch, whose prebuilt system the
    update is solved against, and for m > 1 also the local model's, from
    its logits on the context's class-ordered auxiliary features, which
    gives the update its own system, solved once as a one-use system (no
    KKT inverse). Its solution is rounded to the m * batch_size labels of
    the round. A multi-epoch update whose shard is
    exactly one batch (update.n_samples == batch_size, the server-known
    shard size) then has its counts rounded to m times a per-epoch vector
    by posterior_search, unless search_iters is 0: only then does every
    epoch see the same labels. Other multi-epoch updates return the crude
    counts. Nothing here is random: the result is a deterministic function
    of the four arguments. diagnostics["confusion_se"] is the largest
    standard error of an entry of the matrices the system was built from;
    the rounding adds the L1 distance it moved the counts from the crude
    ones. Raises ValueError on a non-finite delta and DegenerateUpdateError
    on an all-zero one, the update of a client too small to fill a batch;
    both checks come before the context is read. The delta is scanned once,
    for its peak. The local model of a multi-epoch update is not scanned
    again: every entry of global + delta is at most global_peak + peak in
    size, so when that sum is finite no entry overflowed, and only when it
    is not does Model scan the local parameters (and raise on an overflow).
    """
    peak = update.delta.max_abs()
    if not math.isfinite(peak):
        raise ValueError("update delta is not finite")
    if peak == 0.0:
        raise DegenerateUpdateError("an all-zero delta carries no gradient signal")
    m = cfg.epochs
    coeffs = scheme_coefficients(cfg, update.round, history)
    u = make_target(update, coeffs, cfg)

    system = context.system
    confusion_se = context.confusion_se
    if m > 1:
        local = context.global_model.params().map(np.add, update.delta)
        build = Model._prechecked if math.isfinite(context.global_peak + peak) else Model
        local_model = build(local.weights, local.biases, context.global_model.activation)
        s_local = plugin_confusion(_aux_logits(local_model, context.aux_features), context.aux_bounds)
        system = build_system(ConfusionMatrix((context.s_first.s + s_local.s) / 2))
        confusion_se = max(confusion_se, float(s_local.se.max()))
    diagnostics = {"confusion_se": confusion_se}
    z, info = solve_simplex_ls(system, u)
    counts = round_counts(z, m * cfg.batch_size)
    method = METHOD_SINGLE
    if m > 1:
        crude = counts
        diagnostics["crude_counts"] = [int(c) for c in crude]
        method = METHOD_CRUDE
        if context.params.search_iters and update.n_samples == cfg.batch_size:
            counts = posterior_search(crude, cfg)
            diagnostics["search_l1_from_crude"] = int(np.abs(counts - crude).sum())
            method = METHOD_SEARCH
    diagnostics["solver_iterations"] = info["iterations"]
    diagnostics["solver_converged"] = info["converged"]
    return AttackReport(z, counts, info["objective"], method, diagnostics)
