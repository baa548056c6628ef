"""Hot numeric kernels of the attack, in plain numpy.

mean_softmax averages row-wise softmax over a block of logits (one row of
a confusion matrix). active_set_simplex_ls solves least squares on the
probability simplex exactly: a primal active-set method in the style of
Lawson-Hanson NNLS, where each iteration solves one small KKT system on
the current support and then drops a class that went non-positive or adds
the zero class whose multiplier is most negative. pgd_simplex_ls solves
the same problem by projected gradient, with project_simplex as its
projection; the attack no longer calls it, and tests keep it as an
independent reference.
"""

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
    k = np.nonzero(cond)[0][-1]
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
    """
    sub = kkt.take(rows, 0).take(rows, 1)
    part = rhs.take(rows)
    try:
        sol = np.linalg.solve(sub, part)
        singular = not abs(sol).max() <= limit
    except np.linalg.LinAlgError:
        singular = True
    if singular:
        sol = np.linalg.lstsq(sub, part, rcond=None)[0]
    x = np.zeros(rhs.size)
    x[rows] = sol
    return x


def active_set_simplex_ls(gram, b):
    """Exact min ||A z - u||^2 over the simplex, from G = A^T A and b = A^T u.

    Returns (z, kkt_solves, converged). The warm start solves the KKT
    system on every class; if that point is positive it is the answer,
    otherwise its simplex projection starts the primal active-set
    iteration. A KKT solve on the support that leaves a coordinate at or
    below zero steps to the boundary and drops the first coordinate to
    reach it; one that does not moves there and adds the zero coordinate
    whose multiplier (G z - b + nu) is most negative. The solve is
    converged when no multiplier is below -_KKT_RTOL times the gradient
    scale. After MAX_KKT_SOLVES solves the current point, which is always
    on the simplex, is returned with converged False.
    """
    n = b.size
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = gram
    kkt[n, n] = 0.0
    rhs = np.append(b, 1.0)
    limit = _KKT_COND_LIMIT * abs(rhs).max() / abs(kkt).max()
    tol = _KKT_RTOL * (abs(gram).max() + abs(b).max())
    x = _kkt_solve(kkt, rhs, np.arange(n + 1), limit)
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
