"""Label-count recovery from a transmitted model update.

Pipeline: estimate per-class logit moments on an auxiliary set, turn them
into an erroneous-confidence matrix by Monte Carlo, recombine the update's
output-bias delta into a scheme-normalized target, solve a least-squares
problem on the probability simplex, and round to integer counts. For
multi-epoch updates a posterior search refines the crude solution by
simulating how the confidences drift over the local epochs. Every update
of a round is attacked against the same global model: prepare_round builds
that model's moments and confusion matrix once into a RoundContext, and
rlu_attack takes the context with each update. The context also holds the
round's one block of standard normals; every Monte Carlo estimate of the
round reads its rows, so the attack itself draws nothing.

Everything here sees only what a curious server would: the global model,
the transmitted update, past transmissions, the training recipe, and an
auxiliary dataset. Ground-truth label counts never enter.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from ._kernels import mean_softmax, pgd_simplex_ls
from .data import Dataset, largest_remainder
from .fedsim import LocalUpdate, SchemeConfig, UpdateHistory
from .nn import Model, forward_batch

METHOD_SINGLE = "single_epoch"
METHOD_CRUDE = "crude_multi_epoch"
METHOD_SEARCH = "posterior_search"

_JITTER_SCALE = 1e-6
_JITTER_CAP = 1e-2


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

    The diagonal is stored as zero and never read.
    """

    s: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.s.shape[0]


@dataclass(frozen=True)
class AttackParams:
    """Monte Carlo and solver settings shared by every attack of a run."""

    mc_samples: int = 10000
    search_iters: int = 5
    search_mc_samples: int = 1000
    tol: float = 1e-10

    def __post_init__(self):
        if self.mc_samples < 1:
            raise ValueError(f"mc_samples must be at least 1, got {self.mc_samples}")
        if self.search_mc_samples < 1:
            raise ValueError(f"search_mc_samples must be at least 1, got {self.search_mc_samples}")
        if self.search_iters < 0:
            raise ValueError(f"search_iters must be non-negative, got {self.search_iters}")
        if not (np.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and non-negative, got {self.tol}")


@dataclass(frozen=True)
class RoundContext:
    """Everything an attack needs that is fixed for one round.

    Every update of a round is attacked against the same round-start global
    model, auxiliary set and settings; prepare_round builds the model's
    logit moments and confusion matrix from them once, and draws the block
    of standard normals that every Monte Carlo estimate of the round reads
    (common random numbers). It marks those arrays read-only, which keeps
    attacks from writing into shared state.
    """

    global_model: Model
    aux: Dataset
    params: AttackParams
    normals: np.ndarray  # (max(mc_samples, search_mc_samples), N) standard normals
    moments: LogitMoments  # logit moments of global_model on aux
    s_first: ConfusionMatrix  # their Monte Carlo confusion matrix


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


def estimate_moments(model: Model, aux: Dataset) -> LogitMoments:
    """Empirical logit moments per true class over the auxiliary set.

    Covariances use denominator max(count - 1, 1) and get _JITTER_SCALE *
    mean(diagonal) added on the diagonal, which keeps later factorizations
    stable without moving zero-variance cases off exact zero.
    """
    n = model.n_classes
    logits, _ = forward_batch(model, aux.features)
    mu = np.zeros((n, n))
    sigma = np.zeros((n, n, n))
    for cls in range(n):
        rows = logits[aux.labels == cls]
        if len(rows) == 0:
            raise ValueError(f"auxiliary set has no samples for class {cls}")
        mu[cls] = rows.mean(axis=0)
        centered = rows - mu[cls]
        cov = centered.T @ centered / max(len(rows) - 1, 1)
        cov = 0.5 * (cov + cov.T)
        jitter = _JITTER_SCALE * float(np.mean(np.diag(cov)))
        sigma[cls] = cov + jitter * np.eye(n)
    return LogitMoments(mu, sigma)


def _confusion_core(mu: np.ndarray, draws) -> np.ndarray:
    """Confusion matrix whose row n is the mean softmax of mu[n] + draws[n].

    draws yields one (M, N) block of centred logit draws per class, in
    class order; only one block needs to exist at a time.
    """
    n = mu.shape[0]
    s = np.empty((n, n))
    draws = iter(draws)
    for cls in range(n):
        # next() leaves no name or loop tuple holding a generated block, so
        # it is freed before mean_softmax allocates its temporaries
        s[cls] = mean_softmax(mu[cls] + next(draws))
        s[cls, cls] = 0.0
    return s


def _check_normals(normals: np.ndarray, n: int) -> None:
    if normals.ndim != 2 or normals.shape[0] < 1 or normals.shape[1] != n:
        raise ValueError(f"normals must be an (M, {n}) block with M >= 1, got shape {normals.shape}")


def mc_confusion(moments: LogitMoments, normals: np.ndarray) -> ConfusionMatrix:
    """Monte Carlo confusion matrix from Gaussian logit moments.

    normals is an (M, N) block of standard normals. Every class turns the
    same block into M logit draws through a factor of its covariance, so
    the result is a deterministic function of the moments and the block.
    """
    n = moments.mu.shape[0]
    _check_normals(normals, n)
    draws = (normals @ _psd_factor(moments.sigma[cls]).T for cls in range(n))
    return ConfusionMatrix(_confusion_core(moments.mu, draws))


def prepare_round(global_model: Model, aux: Dataset, params: AttackParams, seed: int) -> RoundContext:
    """The attack context of one round, built once from its global model.

    Pass the result to rlu_attack for every update of the round. seed
    drives the round's only random draw: one block of standard normals
    whose first mc_samples rows give the global and local confusion
    matrices and whose first search_mc_samples rows drive the posterior
    search.
    """
    moments = estimate_moments(global_model, aux)
    rows = max(params.mc_samples, params.search_mc_samples)
    normals = np.random.default_rng(seed).standard_normal((rows, global_model.n_classes))
    normals.flags.writeable = False
    s_first = mc_confusion(moments, normals[: params.mc_samples])
    for arr in (moments.mu, moments.sigma, s_first.s):
        arr.flags.writeable = False
    return RoundContext(global_model, aux, params, normals, moments, s_first)


def _geometric_rho(decay: float, m: int) -> np.ndarray:
    # rho_tau = (1 - decay^(m + 1 - tau)) / (1 - decay), the tail-sum of a
    # geometric momentum series; decay = 0 collapses to all-ones.
    taus = np.arange(1, m + 1)
    if decay == 0.0:
        return np.ones(m)
    return (1.0 - decay ** (m + 1 - taus)) / (1.0 - decay)


def scheme_coefficients(cfg: SchemeConfig, round_idx: int, history: UpdateHistory) -> SchemeCoefficients:
    """Per-epoch weights and history offset for attacking round `round_idx`.

    history must be the client's record at the start of round_idx; the
    offsets are read from its state in closed form. Raises on lambda * eta
    >= 1, where the proximal recursions stop contracting.
    """
    m, eta, lam, gamma = cfg.epochs, cfg.eta, cfg.lam, cfg.gamma
    if round_idx < 1:
        raise ValueError("round index starts at 1")
    if history.completed_rounds != round_idx - 1:
        raise RuntimeError(
            f"history covers {history.completed_rounds} rounds; round {round_idx} needs {round_idx - 1}"
        )
    if cfg.scheme in ("fedprox", "feddyn", "feddc") and lam * eta >= 1.0:
        raise ValueError("lambda * eta must be below 1")

    if cfg.scheme == "fedavg":
        if cfg.optimizer == "sgd":
            return SchemeCoefficients(np.ones(m), None)
        if cfg.optimizer == "sgdm":
            return SchemeCoefficients(_geometric_rho(gamma, m), None)
        # nag: one extra power of gamma in every tail sum
        return SchemeCoefficients(_geometric_rho(gamma, m + 1)[:m], None)

    if cfg.scheme == "scaffold":
        if round_idx == 1:
            return SchemeCoefficients(np.ones(m), None)
        # each of the m local steps moves the bias by -eta * (g - c_k + c)
        gap = history.server_variate.biases[-1] - history.client_variate.biases[-1]
        return SchemeCoefficients(np.ones(m), eta * m * gap)

    # fedprox / feddyn / feddc share the proximal decay profile.
    q = 1.0 - lam * eta
    taus = np.arange(1, m + 1)
    rho = q ** (m - taus)
    if cfg.scheme == "fedprox" or round_idx == 1:
        # fedprox carries no history; the others have none yet at round 1
        return SchemeCoefficients(rho, None)
    shrink = 1.0 - q**m
    h = shrink * history.cum_local_delta.biases[-1]
    if cfg.scheme == "feddc":
        # previous-round drift correction on top of the feddyn offset
        coef = 1.0 if lam * eta == 0.0 else shrink / (lam * eta * m)
        h = h + coef * (history.prev_local_delta.biases[-1] - history.prev_global_delta.biases[-1])
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


def solve_simplex_ls(a: np.ndarray, u: np.ndarray, tol: float = 1e-10, max_iters: int = 10000):
    """min ||A z - u||^2 over the probability simplex, by projected gradient.

    Step size is 1/||A^T A||_2, the largest eigenvalue of the symmetric
    positive semidefinite A^T A. Returns (z, info) where info carries
    iterations, converged, and the objective at z. On non-convergence the
    best iterate is returned with converged False.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    u = np.ascontiguousarray(u, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != u.size:
        raise ValueError("A must be square and match u")
    if not (np.isfinite(a).all() and np.isfinite(u).all()):
        raise ValueError("non-finite system")
    n = u.size
    lam = float(np.linalg.eigvalsh(a.T @ a)[-1])
    if lam <= 1e-300:
        z = np.full(n, 1.0 / n)
        resid = a @ z - u
        return z, {"iterations": 0, "converged": True, "objective": float(resid @ resid)}
    z, iters, converged = pgd_simplex_ls(a, u, 1.0 / lam, tol, max_iters)
    resid = a @ z - u
    return z, {"iterations": int(iters), "converged": bool(converged), "objective": float(resid @ resid)}


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
    moments: LogitMoments,
    s_first: ConfusionMatrix,
    s_last_observed: ConfusionMatrix,
    embed_norm: float,
    cfg: SchemeConfig,
    normals: np.ndarray,
    search_iters: int = 5,
    eps_adj: float = 0.01,
    include_bias_factor: bool = False,
) -> np.ndarray:
    """Refine crude multi-epoch counts by simulating the confidence drift.

    Starts from per-epoch counts g = crude/m (largest-remainder repaired to
    batch_size). Each outer iteration simulates the m local epochs: the
    expected bias movement under g shifts every class's logit mean by
    embed_norm (optionally +1 for the bias coordinate itself), and the
    confusion matrix is re-estimated by Monte Carlo on normals, an (M, N)
    block of standard normals. Comparing the simulated final matrix against
    the observed one column-wise moves one count unit from the most
    over-represented class to the most under-represented, stopping early at
    a fixed point. Returns m * g.
    """
    crude = np.asarray(crude_counts, dtype=np.int64)
    n = crude.size
    m, batch = cfg.epochs, cfg.batch_size
    if search_iters < 0:
        raise ValueError("search_iters must be non-negative")
    _check_normals(normals, n)
    if crude.sum() != m * batch:
        raise ValueError("crude counts must sum to epochs * batch_size")

    g = largest_remainder(crude / m, batch)
    if search_iters == 0:
        return g * m

    factor = embed_norm + (1.0 if include_bias_factor else 0.0)
    # One fixed draw set for the whole search (common random numbers): the
    # adjustment signal becomes a deterministic function of g instead of a
    # noise-driven walk across outer iterations, and the drift below is a
    # paired difference whose sampling error largely cancels.
    draws = [normals @ _psd_factor(moments.sigma[cls]).T for cls in range(n)]
    base = _confusion_core(moments.mu, draws)
    scale = cfg.eta / batch
    for _ in range(search_iters):
        mu = moments.mu.copy()
        s_cur = s_first.s
        for _tau in range(m):
            exp_db = scale * (g * s_cur.sum(axis=1) - s_cur.T @ g)
            mu += exp_db[None, :] * factor
            # Control variate: the M-sample estimate only carries the drift
            # relative to the same draws at the starting moments, anchored
            # at the higher-precision starting matrix.
            s_cur = s_first.s + (_confusion_core(mu, draws) - base)
        d = (s_last_observed.s - s_cur).sum(axis=0) / (n - 1)
        hi = int(np.argmax(d))
        lo = int(np.argmin(d))
        if d[hi] - d[lo] > eps_adj and g[lo] >= 1:
            g[hi] += 1
            g[lo] -= 1
        else:
            break
    return g * m


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
    Multi-epoch updates also build the local model's confusion matrix and
    run the posterior search, both on the context's normals, so the result
    is a deterministic function of the four arguments. Raises ValueError on
    a non-finite update and DegenerateUpdateError when the update carries
    no signal; both checks come before the context is read.
    """
    if not carries_signal(update, cfg):
        raise DegenerateUpdateError("eta = 0 or an all-zero delta carries no gradient signal")
    params, s_first, normals = context.params, context.s_first, context.normals

    coeffs = scheme_coefficients(cfg, update.round, history)
    u = make_target(update, coeffs, cfg)

    diagnostics = {"mc_samples": params.mc_samples}
    if cfg.epochs == 1:
        a = build_system(s_first)
        z, info = solve_simplex_ls(a, u, params.tol)
        counts = round_counts(z, cfg.batch_size)
        method = METHOD_SINGLE
    else:
        local_model = context.global_model.copy()
        local_model.params().add_(update.delta, 1.0)
        s_last = mc_confusion(estimate_moments(local_model, context.aux), normals[: params.mc_samples])
        a = build_system(ConfusionMatrix(0.5 * (s_first.s + s_last.s)))
        z, info = solve_simplex_ls(a, u, params.tol)
        crude = round_counts(z, cfg.epochs * cfg.batch_size)
        diagnostics["crude_counts"] = [int(c) for c in crude]
        if params.search_iters == 0:
            counts = crude
            method = METHOD_CRUDE
        else:
            embed_norm = estimate_embedding_norm(update.delta_w_out, update.delta_b_out)
            diagnostics["embedding_norm"] = float(embed_norm)
            counts = posterior_search(
                crude,
                context.moments,
                s_first,
                s_last,
                embed_norm,
                cfg,
                normals[: params.search_mc_samples],
                params.search_iters,
            )
            method = METHOD_SEARCH
    diagnostics["solver_iterations"] = info["iterations"]
    diagnostics["solver_converged"] = info["converged"]
    return AttackReport(z, counts, info["objective"], method, diagnostics)
