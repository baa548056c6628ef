"""Label-count recovery from a transmitted model update.

Pipeline: forward the auxiliary set through the model, average the
softmax of each class's logits into an erroneous-confidence matrix (the
plug-in estimate), recombine the update's output-bias delta into a
scheme-normalized target, solve a least-squares problem on the probability
simplex, and round to integer counts. For a multi-epoch update whose
shard is exactly one batch, every epoch sees the same labels, and a
posterior search refines the crude solution by simulating how the
confidences drift over the local epochs. The shard size is the one piece
of client metadata the attack reads; the server knows it because it
weights the aggregate by it. Every update of a round is attacked against
the same global model: prepare_round builds that model's per-class logits
and confusion matrix once into a RoundContext, and rlu_attack takes the
context with each update. Nothing on the attack path draws random numbers.
mc_confusion, the Gaussian Monte Carlo model of the same matrix, stays as
a diagnostic of how far the logits are from Gaussian.

Everything here sees only what a curious server would: the global model,
the transmitted update, past transmissions, the training recipe, and an
auxiliary dataset. Ground-truth label counts never enter.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from ._kernels import active_set_simplex_ls, mean_softmax
# Kept only for perfbench/tracing.py, which looks the name up here; the attack
# no longer calls it.
from ._kernels import pgd_simplex_ls  # noqa: F401
from .data import Dataset, largest_remainder
from .fedsim import LocalUpdate, SchemeConfig, UpdateHistory, check_history, round_correction
from .nn import Model, forward_batch, softmax_rows

METHOD_SINGLE = "single_epoch"
METHOD_CRUDE = "crude_multi_epoch"
METHOD_SEARCH = "posterior_search"

_JITTER_SCALE = 1e-6
_JITTER_CAP = 1e-2
# the posterior search moves a count unit only while the spread of its
# per-class confidence gaps exceeds this
_SEARCH_MIN_GAP = 0.01


class DegenerateUpdateError(RuntimeError):
    """The update carries no usable signal (zero delta, eta = 0, ...)."""


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
    """Search and solver settings shared by every attack of a run.

    mc_samples and search_mc_samples are still validated, so configs that
    set them keep loading, but the attack no longer reads them: its
    confusion matrices come from the auxiliary logits, not from draws.
    """

    mc_samples: int = 10000
    search_iters: int = 5
    search_mc_samples: int = 1000

    def __post_init__(self):
        if self.mc_samples < 1:
            raise ValueError(f"mc_samples must be at least 1, got {self.mc_samples}")
        if self.search_mc_samples < 1:
            raise ValueError(f"search_mc_samples must be at least 1, got {self.search_mc_samples}")
        if self.search_iters < 0:
            raise ValueError(f"search_iters must be non-negative, got {self.search_iters}")


@dataclass(frozen=True)
class RoundContext:
    """Everything an attack needs that is fixed for one round.

    Every update of a round is attacked against the same round-start global
    model, auxiliary set and settings; prepare_round builds the model's
    per-class auxiliary logits and their confusion matrix once. Those
    arrays are read-only, which keeps attacks from writing into shared
    state.
    """

    global_model: Model
    aux: Dataset
    params: AttackParams
    logits: tuple  # logits[n]: (count of class n in aux, N) logits of global_model
    s_first: ConfusionMatrix  # their plug-in confusion matrix


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


def save_report(path, report: AttackReport) -> None:
    with open(path, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")


def _psd_factor(sigma: np.ndarray) -> np.ndarray:
    """Factor L with L L^T ~= sigma, jitter-escalating on failure.

    L is the eigenvector matrix with each column scaled by the root of its
    clipped eigenvalue; it is square but not symmetric.
    """
    sym = 0.5 * (sigma + sigma.T)
    diag_scale = float(np.mean(np.diag(sym)))
    scale = diag_scale if diag_scale > 0 else 1.0
    extra = 0.0
    while True:
        try:
            w, v = np.linalg.eigh(sym + extra * np.eye(sym.shape[0]))
        except np.linalg.LinAlgError:
            extra = _JITTER_SCALE * scale if extra == 0.0 else extra * 10.0
            if extra > _JITTER_CAP * scale:
                raise RuntimeError("covariance factorization failed at maximum jitter")
            continue
        return v * np.sqrt(np.clip(w, 0.0, None))


def class_logits(model: Model, aux: Dataset) -> tuple:
    """The model's logits on the auxiliary set, one read-only block per class.

    Block n is the (count, N) array of logits of aux's class-n rows, in
    their order in aux. The whole set goes through one forward pass, so
    each row's logits do not depend on which rows share its batch; only
    the logits are kept from it, so the embedding is freed before the
    blocks are gathered.
    """
    logits = forward_batch(model, aux.features)[0]
    blocks = []
    for cls in range(model.n_classes):
        rows = logits[aux.labels == cls]
        if len(rows) == 0:
            raise ValueError(f"dataset has no samples for class {cls}")
        rows.flags.writeable = False
        blocks.append(rows)
    return tuple(blocks)


def estimate_moments(model: Model, aux: Dataset) -> LogitMoments:
    """Empirical logit moments per true class over the auxiliary set.

    Covariances use denominator max(count - 1, 1) and get _JITTER_SCALE *
    mean(diagonal) added on the diagonal, which keeps later factorizations
    stable without moving zero-variance cases off exact zero.
    """
    n = model.n_classes
    mu = np.zeros((n, n))
    sigma = np.zeros((n, n, n))
    for cls, rows in enumerate(class_logits(model, aux)):
        mu[cls] = rows.mean(axis=0)
        centered = rows - mu[cls]
        cov = centered.T @ centered / max(len(rows) - 1, 1)
        cov = 0.5 * (cov + cov.T)
        jitter = _JITTER_SCALE * float(np.mean(np.diag(cov)))
        sigma[cls] = cov + jitter * np.eye(n)
    return LogitMoments(mu, sigma)


def _stack(logits):
    """One (total rows, N) array of the class blocks, and each block's row bounds."""
    return np.concatenate(logits), np.cumsum([0, *map(len, logits)])


def _block_means(probs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Row n is the mean of probs' rows bounds[n]:bounds[n + 1].

    Each mean is taken over a slice of probs, which gives the same bits as
    the mean of that block's own softmax (mean_softmax on the block).
    """
    return np.array([probs[lo:hi].mean(axis=0) for lo, hi in zip(bounds[:-1], bounds[1:])])


def plugin_confusion(logits) -> ConfusionMatrix:
    """Confusion matrix of per-class logits, as from class_logits.

    Row n is the mean softmax over class n's rows: the plug-in estimate of
    the expected erroneous confidences. se holds each entry's standard
    error over those rows, the sample standard deviation over sqrt(count)
    (0 for a single row). The blocks go through one softmax together.
    """
    stacked, bounds = _stack(logits)
    probs = softmax_rows(stacked)
    s = _block_means(probs, bounds)
    counts = np.diff(bounds)
    centered = probs - np.repeat(s, counts, axis=0)
    sq_sums = np.add.reduceat(centered * centered, bounds[:-1], axis=0)
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
    s = np.array([mean_softmax(mu[cls] + normals @ _psd_factor(moments.sigma[cls]).T) for cls in range(n)])
    np.fill_diagonal(s, 0.0)
    return ConfusionMatrix(s)


def prepare_round(global_model: Model, aux: Dataset, params: AttackParams) -> RoundContext:
    """The attack context of one round, built once from its global model.

    Pass the result to rlu_attack for every update of the round. It
    forwards aux through global_model once and keeps the logits of each
    class, which give the global confusion matrix and drive the posterior
    search.
    """
    logits = class_logits(global_model, aux)
    s_first = plugin_confusion(logits)
    s_first.s.flags.writeable = False
    s_first.se.flags.writeable = False
    return RoundContext(global_model, aux, params, logits, s_first)


def _geometric_rho(decay: float, m: int) -> np.ndarray:
    # rho_tau = (1 - decay^(m + 1 - tau)) / (1 - decay), the tail-sum of a
    # geometric momentum series; at decay = 0 every entry is exactly 1.
    taus = np.arange(1, m + 1)
    return (1.0 - decay ** (m + 1 - taus)) / (1.0 - decay)


def scheme_coefficients(cfg: SchemeConfig, round_idx: int, history: UpdateHistory) -> SchemeCoefficients:
    """Per-epoch weights and history offset for attacking round `round_idx`.

    Both follow from fedsim.round_correction, the scheme's (prox, drift)
    for the round. A proximal pull decays epoch tau's gradient by q^(m -
    tau), q = 1 - prox * eta; without one the optimizer sets the weights.
    The drift enters every step like a gradient term, so its share of the
    output-bias delta is -h with h = eta * sum(rho) * drift. history must
    be the client's record at the start of round_idx.
    """
    m, eta, gamma = cfg.epochs, cfg.eta, cfg.gamma
    check_history(history, round_idx)
    prox, drift = round_correction(cfg, history)
    if prox:
        rho = (1.0 - prox * eta) ** (m - np.arange(1, m + 1))
    elif cfg.optimizer == "sgdm":
        rho = _geometric_rho(gamma, m)
    elif cfg.optimizer == "nag":
        # one extra power of gamma in every tail sum
        rho = _geometric_rho(gamma, m + 1)[:m]
    else:
        rho = np.ones(m)
    h = None if drift is None else eta * rho.sum() * drift.biases[-1]
    return SchemeCoefficients(rho, h)


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
    if cfg.eta == 0:
        raise DegenerateUpdateError("eta = 0 transmits no gradient signal")
    sum_rho = float(coeffs.rho.sum())
    if sum_rho <= 0:
        raise ValueError("sum of rho must be positive")
    offset = 0.0 if coeffs.h is None else coeffs.h
    return (update.delta_b_out + offset) / (cfg.eta * sum_rho)


def solve_simplex_ls(a: np.ndarray, u: np.ndarray):
    """min ||A z - u||^2 over the probability simplex, solved exactly.

    Forms G = A^T A and b = A^T u once and runs the primal active-set
    method of _kernels.active_set_simplex_ls: a warm start from the KKT
    solution on every class, then one small KKT solve per support change
    until the KKT conditions hold. Returns (z, info) where info carries
    iterations (the number of KKT solves), converged, and the objective at
    z. If the solve stops at _kernels.MAX_KKT_SOLVES first, z is the last
    point reached, still on the simplex, and converged is False. An
    all-zero A returns the uniform point after no solve.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    u = np.ascontiguousarray(u, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != u.size:
        raise ValueError("A must be square and match u")
    if not (np.isfinite(a).all() and np.isfinite(u).all()):
        raise ValueError("non-finite system")
    n = u.size
    gram = a.T @ a
    if not gram.any():
        z = np.full(n, 1.0 / n)
        resid = a @ z - u
        return z, {"iterations": 0, "converged": True, "objective": float(resid @ resid)}
    z, solves, converged = active_set_simplex_ls(gram, a.T @ u)
    resid = a @ z - u
    return z, {"iterations": int(solves), "converged": bool(converged), "objective": float(resid @ resid)}


def round_counts(z: np.ndarray, total: int) -> np.ndarray:
    """Integer counts from simplex weights, conserving the exact total."""
    z = np.asarray(z, dtype=np.float64)
    if total < 0:
        raise ValueError("total must be non-negative")
    if not np.isfinite(z).all() or (z < -1e-9).any():
        raise ValueError("z must be finite and non-negative")
    if abs(z.sum() - 1.0) > 1e-6:
        raise ValueError("z must lie on the probability simplex")
    return largest_remainder(np.maximum(z, 0.0) * total, total)


def estimate_embedding_norm(delta_w: np.ndarray, delta_b: np.ndarray) -> float:
    """Estimate sum_l e_l^2 of the batch-mean embedding from the output slice.

    Each admissible row j (|delta_b_j| at least a tenth of the max) votes
    delta_W[j, :] / delta_b_j; the componentwise median is squared and
    summed.
    """
    delta_w = np.asarray(delta_w, dtype=np.float64)
    delta_b = np.asarray(delta_b, dtype=np.float64)
    if delta_w.ndim != 2 or delta_w.shape[0] != delta_b.size:
        raise ValueError("delta_w must be (N, L) aligned with delta_b")
    peak = float(np.abs(delta_b).max()) if delta_b.size else 0.0
    if peak == 0.0:
        raise DegenerateUpdateError("all bias deltas are zero")
    mask = np.abs(delta_b) >= 0.1 * peak
    candidates = delta_w[mask] / delta_b[mask, None]
    ebar = np.median(candidates, axis=0)
    return float(np.sum(ebar * ebar))


def posterior_search(
    crude_counts: np.ndarray,
    logits: tuple,
    s_first: ConfusionMatrix,
    s_last_observed: ConfusionMatrix,
    embed_norm: float,
    cfg: SchemeConfig,
    search_iters: int = 5,
):
    """Refine crude multi-epoch counts by simulating the confidence drift.

    Returns (counts, moves, stop). logits are the global model's per-class
    auxiliary logits (as from class_logits) and s_first their confusion
    matrix. The search assumes every epoch sees the same per-epoch counts
    g, which holds when the client's shard is exactly one batch. It starts
    from g = crude/m (largest-remainder repaired to batch_size). Each outer
    iteration simulates the m local epochs: the expected bias movement
    under g moves logit j by delta_W_j . e + delta_b_j = delta_b_j
    (embed_norm + 1), and the confusion matrix is re-estimated on the
    shifted logits, all classes in one softmax. Comparing the simulated
    final matrix against the observed one column-wise moves one count unit
    from the most over-represented class to the most under-represented.
    counts is m * g; moves is the number of units moved, and stop says why
    the search ended: "fixed_point" (no per-class gap spread above
    _SEARCH_MIN_GAP), "count_floor" (the class to take from has no unit
    left) or "iteration_cap" (search_iters iterations ran).
    """
    crude = np.asarray(crude_counts, dtype=np.int64)
    n = crude.size
    m, batch = cfg.epochs, cfg.batch_size
    if search_iters < 0:
        raise ValueError("search_iters must be non-negative")
    if len(logits) != n:
        raise ValueError(f"logits must hold one block per class, got {len(logits)} for {n} classes")
    if crude.sum() != m * batch:
        raise ValueError("crude counts must sum to epochs * batch_size")

    g = largest_remainder(crude / m, batch)
    factor = embed_norm + 1.0
    scale = cfg.eta / batch
    stacked, bounds = _stack(logits)
    moves, stop = 0, "iteration_cap"
    for _ in range(search_iters):
        shift = np.zeros(n)
        s_cur = s_first.s
        for _tau in range(m):
            exp_db = scale * (g * s_cur.sum(axis=1) - s_cur.T @ g)
            shift += exp_db * factor
            # every class's logits move by the same accumulated drift
            s_cur = _block_means(softmax_rows(stacked + shift), bounds)
            np.fill_diagonal(s_cur, 0.0)
        d = (s_last_observed.s - s_cur).sum(axis=0) / (n - 1)
        hi = int(np.argmax(d))
        lo = int(np.argmin(d))
        if d[hi] - d[lo] <= _SEARCH_MIN_GAP:
            stop = "fixed_point"
            break
        if g[lo] < 1:
            stop = "count_floor"
            break
        g[hi] += 1
        g[lo] -= 1
        moves += 1
    return g * m, moves, stop


def carries_signal(update: LocalUpdate, cfg: SchemeConfig) -> bool:
    """Whether the update has a gradient signal to invert.

    False for eta = 0 or an identically zero delta, the updates rlu_attack
    rejects as degenerate. Raises ValueError for a NaN or infinite delta,
    which is invalid input rather than a missing signal.
    """
    peak = update.delta.max_abs()
    if not np.isfinite(peak):
        raise ValueError("update delta is not finite")
    return cfg.eta != 0 and peak != 0.0


def rlu_attack(context: RoundContext, update: LocalUpdate, cfg: SchemeConfig, history: UpdateHistory) -> AttackReport:
    """Recover the label counts behind one transmitted update.

    context comes from prepare_round on the global model that update
    started from; history must be the round-start state for update.round.
    The system is built from the mean of the round's confusion matrices:
    the context's alone for a single epoch, and for m > 1 also the local
    model's, from its auxiliary logits. Its solution is rounded to the
    m * batch_size labels of the round. A multi-epoch update whose shard is
    exactly one batch (update.n_samples == batch_size, the server-known
    shard size) then runs the posterior search on the context's logits,
    unless search_iters is 0: only then does every epoch see the same
    labels, as the search assumes. Other multi-epoch updates return the
    crude counts. Nothing here is random: the result is a deterministic
    function of the four arguments. diagnostics["confusion_se"] is the
    largest standard error of an entry of the matrices the system was
    built from; a search adds the L1 distance it moved the counts from the
    crude ones, the units it moved and why it stopped. Raises ValueError
    on a non-finite update and DegenerateUpdateError when the update
    carries no signal; both checks come before the context is read.
    """
    if not carries_signal(update, cfg):
        raise DegenerateUpdateError("eta = 0 or an all-zero delta carries no gradient signal")
    m = cfg.epochs
    coeffs = scheme_coefficients(cfg, update.round, history)
    u = make_target(update, coeffs, cfg)

    matrices = [context.s_first]
    if m > 1:
        local_model = context.global_model.copy()
        local_model.params().add_(update.delta, 1.0)
        matrices.append(plugin_confusion(class_logits(local_model, context.aux)))
    diagnostics = {"confusion_se": float(max(c.se.max() for c in matrices))}
    a = build_system(ConfusionMatrix(sum(c.s for c in matrices) / len(matrices)))
    z, info = solve_simplex_ls(a, u)
    counts = round_counts(z, m * cfg.batch_size)
    method = METHOD_SINGLE
    if m > 1:
        crude = counts
        diagnostics["crude_counts"] = [int(c) for c in crude]
        method = METHOD_CRUDE
        search_iters = context.params.search_iters
        if search_iters and update.n_samples == cfg.batch_size:
            embed_norm = estimate_embedding_norm(update.delta_w_out, update.delta_b_out)
            diagnostics["embedding_norm"] = float(embed_norm)
            counts, moves, stop = posterior_search(
                crude, context.logits, context.s_first, matrices[-1], embed_norm, cfg, search_iters
            )
            diagnostics["search_l1_from_crude"] = int(np.abs(counts - crude).sum())
            diagnostics["search_moves"] = moves
            diagnostics["search_stop"] = stop
            method = METHOD_SEARCH
    diagnostics["solver_iterations"] = info["iterations"]
    diagnostics["solver_converged"] = info["converged"]
    return AttackReport(z, counts, info["objective"], method, diagnostics)
