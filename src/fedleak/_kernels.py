"""Hot numeric kernels of the attack, in plain numpy.

mean_softmax averages row-wise softmax over a block of logits (one row of
a confusion matrix). active_set_simplex_ls solves least squares on the
probability simplex exactly: a primal active-set method in the style of
Lawson-Hanson NNLS, where each iteration solves one small KKT system on
the current support and then drops a class that went non-positive or adds
the zero class whose multiplier is most negative. Everything it needs that
depends on A alone (G = A^T A, the bordered KKT matrix and the linear map
of its warm start) is a SimplexSystem that simplex_system builds once, so
each u solved against a prebuilt system pays only for A^T u, one matvec
and the KKT solves on its own supports.
pgd_simplex_ls solves the same problem by projected gradient, with
project_simplex as its projection; the attack no longer calls it, and
tests keep it as an independent reference.
"""

from dataclasses import dataclass

import numpy as np

from .nn import softmax_rows

# Kept only for perfbench/run.py's environment record; there is no jitted path.
NUMBA_ENABLED = False

# Most KKT solves active_set_simplex_ls makes before it gives up. Each one
# adds or drops one class of the support, and the systems the attack builds
# take two or three.
MAX_KKT_SOLVES = 500

# A KKT solution more than this many times the right-hand side over the
# matrix scale (a lower bound on the condition number) marks the system
# as numerically singular. The attack's systems give about 1.
_KKT_COND_LIMIT = 1e10

# A multiplier above -_KKT_RTOL times the gradient scale counts as
# non-negative, which keeps rounding noise from re-adding a class.
_KKT_RTOL = 1e-12


def mean_softmax(draws: np.ndarray) -> np.ndarray:
    """Mean of row-wise softmax over a (M, N) matrix of logits."""
    return softmax_rows(draws).mean(axis=0)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based, exact)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    cond = u + (1.0 - css) / ks > 0.0
    hits = np.nonzero(cond)[0]
    if hits.size == 0:
        # k = 0 always satisfies cond exactly (u[0] + 1 - u[0] = 1), but near
        # 1e16 and above every entry rounds to False and v - theta would
        # round as well; the k = 0 projection is the largest entry's vertex
        out = np.zeros(v.shape)
        out[np.argmax(v)] = 1.0
        return out
    k = hits[-1]
    theta = (css[k] - 1.0) / (k + 1.0)
    return np.maximum(v - theta, 0.0)


def pgd_simplex_ls(a, u, step, tol, max_iters):
    """Projected gradient for min ||A z - u||^2 over the simplex.

    Returns (z, iterations, converged). Stops when the max-abs change of
    the iterate drops to tol or below.
    """
    n = u.size
    z = np.full(n, 1.0 / n)
    for it in range(max_iters):
        grad = a.T @ (a @ z - u)
        z_new = project_simplex(z - step * grad)
        delta = np.abs(z_new - z).max()
        z = z_new
        if delta <= tol:
            return z, it + 1, True
    return z, max_iters, False


def _kkt_solve(kkt, rhs, rows, limit):
    """Solve the bordered KKT system on rows; zeros in the other entries.

    kkt is [G 1; 1^T 0] and rhs is [b; 1] for n classes, and rows lists
    the support followed by row n, the sum constraint. The first n entries
    of the result minimize z^T G z - 2 b^T z over sum(z) = 1 with z = 0
    off the support, and entry n is the multiplier nu, with G z - b = -nu
    on the support. LU may solve a singular system (duplicate or zero
    columns of A, say) to a huge point instead of failing, so a solution
    whose largest entry exceeds limit is replaced by the least-squares one.
    rhs may also be a matrix, solved column by column under one limit.
    """
    sub = kkt.take(rows, 0).take(rows, 1)
    part = rhs.take(rows, 0)
    try:
        sol = np.linalg.solve(sub, part)
        singular = not abs(sol).max() <= limit
    except np.linalg.LinAlgError:
        singular = True
    if singular:
        sol = np.linalg.lstsq(sub, part, rcond=None)[0]
    x = np.zeros(rhs.shape)
    x[rows] = sol
    return x


@dataclass(frozen=True)
class SimplexSystem:
    """The part of min ||A z - u||^2 over the simplex that does not depend on u.

    kkt is the bordered matrix [G 1; 1^T 0] of G = A^T A, and warm is the
    linear map of the warm start: warm @ [A^T u; 1] is the KKT solution on
    every class. It is kkt's inverse, or, when _kkt_solve finds kkt
    singular, its least-squares inverse, so a singular system starts from
    _kkt_solve's least-squares point. warm is None when A is all zero.
    The arrays are read-only.
    """

    a: np.ndarray
    gram: np.ndarray
    kkt: np.ndarray
    warm: np.ndarray
    gram_scale: float  # max |G|; max |kkt| is max(gram_scale, 1.0)


def simplex_system(a) -> SimplexSystem:
    """The SimplexSystem of a square, finite matrix A.

    Costs one Gram product and one inversion of the (n + 1)-square KKT
    matrix, the warm-start solve of every u against A at once.
    """
    a = np.ascontiguousarray(a, dtype=np.float64).view()
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    if not np.isfinite(a).all():
        raise ValueError("non-finite system")
    n = a.shape[0]
    gram = a.T @ a
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = gram
    kkt[n, n] = 0.0
    gram_scale = float(abs(gram).max())
    # the limit _kkt_solve applies to a right-hand side of largest entry 1
    limit = _KKT_COND_LIMIT / max(gram_scale, 1.0)
    warm = _kkt_solve(kkt, np.eye(n + 1), np.arange(n + 1), limit) if gram.any() else None
    for arr in (a, gram, kkt, warm):
        if arr is not None:
            arr.flags.writeable = False
    return SimplexSystem(a, gram, kkt, warm, gram_scale)


def active_set_simplex_ls(system, b):
    """Exact min ||A z - u||^2 over the simplex, from A's SimplexSystem and b = A^T u.

    Returns (z, kkt_solves, converged). An all-zero A returns the uniform
    point after no solve. Otherwise the warm start is the KKT solution on
    every class, system.warm @ [b; 1], and counts as one solve; if that
    point is positive it is the answer, otherwise its simplex projection
    starts the primal active-set iteration. A KKT solve on the support
    that leaves a coordinate at or below zero steps to the boundary and
    drops the first coordinate to reach it; one that does not moves there
    and adds the zero coordinate whose multiplier (G z - b + nu) is most
    negative. The solve is converged when no multiplier is below
    -_KKT_RTOL times the gradient scale. After MAX_KKT_SOLVES solves the
    current point, which is always on the simplex, is returned with
    converged False.
    """
    n = b.size
    if system.warm is None:
        return np.full(n, 1.0 / n), 0, True
    kkt, gram = system.kkt, system.gram
    rhs = np.append(b, 1.0)
    limit = _KKT_COND_LIMIT * abs(rhs).max() / max(system.gram_scale, 1.0)
    tol = _KKT_RTOL * (system.gram_scale + abs(b).max())
    x = system.warm @ rhs
    solves = 1
    if x[:n].min() > 0.0:
        return x[:n], solves, True
    z = project_simplex(x[:n])
    support = np.append(z > 0.0, True)
    while solves < MAX_KKT_SOLVES:
        x = _kkt_solve(kkt, rhs, np.flatnonzero(support), limit)
        solves += 1
        y = x[:n]
        blocking = np.flatnonzero(support[:n] & (y <= 0.0))
        if blocking.size:
            ratios = z[blocking] / (z[blocking] - y[blocking])
            first = int(np.argmin(ratios))
            z = z + ratios[first] * (y - z)
            support[blocking[first]] = False
            support[:n] &= z > 0.0
            z[~support[:n]] = 0.0
            continue
        z = y
        mult = gram @ z - b + x[n]
        mult[support[:n]] = np.inf
        j = int(np.argmin(mult))
        if mult[j] >= -tol:
            return z, solves, True
        support[j] = True
    return z, solves, False
