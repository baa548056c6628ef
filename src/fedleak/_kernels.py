"""Hot numeric kernels of the attack, in plain numpy.

mean_softmax averages row-wise softmax over a block of logits (one row of
a confusion matrix); pgd_simplex_ls solves least squares on the probability
simplex by projected gradient, with project_simplex as its projection.
"""

import numpy as np

from .nn import softmax_rows

# Kept only for perfbench/run.py's environment record; there is no jitted path.
NUMBA_ENABLED = False


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
