"""The numpy kernels of the attack: softmax averaging, simplex projection, PGD, KKT solves."""
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from fedleak._kernels import _kkt_solve, mean_softmax, pgd_simplex_ls, project_simplex

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_mean_softmax_matches_rowwise_oracle():
    rng = np.random.default_rng(0)
    draws = rng.normal(size=(200, 7)) * 3.0
    rows = np.empty_like(draws)
    for i, row in enumerate(draws):
        e = np.exp(row - row.max())
        rows[i] = e / e.sum()
    npt.assert_allclose(mean_softmax(draws), rows.mean(axis=0), atol=1e-12)


def test_mean_softmax_extreme_logits_stay_finite():
    draws = np.array([[800.0, -800.0, 0.0], [0.0, 0.0, 0.0]])
    out = mean_softmax(draws)
    assert np.isfinite(out).all()
    npt.assert_allclose(out, [(1.0 + 1 / 3) / 2, (0.0 + 1 / 3) / 2, (0.0 + 1 / 3) / 2],
                        atol=1e-12)


def check_projection_kkt(v, out):
    assert out.min() >= 0.0
    assert abs(out.sum() - 1.0) <= 1e-9
    support = out > 0.0
    theta = (v[support] - out[support]).mean()
    npt.assert_allclose(v[support] - out[support], theta, atol=1e-9)
    assert (v[~support] <= theta + 1e-9).all()


def test_project_simplex_kkt_conditions():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.normal(size=int(rng.integers(2, 12))) * rng.uniform(0.1, 50.0)
        check_projection_kkt(v, project_simplex(v.copy()))


def test_project_simplex_fixed_points():
    z = np.array([0.2, 0.3, 0.5])
    npt.assert_allclose(project_simplex(z), z, atol=1e-12)
    one_hot = np.array([0.0, 1.0, 0.0])
    npt.assert_allclose(project_simplex(one_hot), one_hot, atol=1e-12)


@pytest.mark.parametrize("v", [[1e16, -1e16, 0.5], [1e17, 0.2, 0.3]])
def test_project_simplex_huge_entries_give_the_vertex(v):
    # at this scale the support condition rounds to False for every k,
    # although k = 0 always meets it exactly
    out = project_simplex(np.array(v))
    assert out.min() >= 0.0 and out.sum() == 1.0
    assert np.array_equal(out, [1.0, 0.0, 0.0])


def test_pgd_reaches_feasible_target():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 5))
    z_true = rng.dirichlet(np.ones(5))
    u = a @ z_true
    step = 1.0 / np.linalg.norm(a.T @ a, 2)
    z, _, converged = pgd_simplex_ls(a, u, step, 1e-12, 50000)
    assert converged
    npt.assert_allclose(z, z_true, atol=1e-5)


def test_pgd_iteration_budget_respected():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(5, 5))
    u = rng.normal(size=5)
    step = 1.0 / np.linalg.norm(a.T @ a, 2)
    z, iters, converged = pgd_simplex_ls(a, u, step, 0.0, 7)
    assert iters == 7
    assert not converged
    assert abs(z.sum() - 1.0) <= 1e-9


@pytest.mark.parametrize(
    "corner, rhs",
    [
        # LU pivots on 2^-52 here and returns entries near 4.5e12
        (1.0 + 2.0**-52, [0.5, 0.501, 1.0]),
        # exactly singular: LU raises
        (1.0, [0.5, 0.5, 1.0]),
    ],
    ids=["huge_lu_solution", "lu_raises"],
)
def test_kkt_solve_takes_least_squares_on_a_singular_system(corner, rhs):
    # G = [[1, 1], [1, corner]]: two (nearly) duplicate columns of A
    kkt = np.array([[1.0, 1.0, 1.0], [1.0, corner, 1.0], [1.0, 1.0, 0.0]])
    rhs = np.array(rhs)
    x = _kkt_solve(kkt, rhs, np.arange(3), 1e10)
    lsq = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    npt.assert_array_equal(x, lsq)
    npt.assert_allclose(x[:2], [0.5, 0.5], atol=1e-12)


def test_single_path_ignores_an_importable_numba(tmp_path):
    # a numba whose njit raises must not matter: fedleak never imports it
    stub = tmp_path / "numba"
    stub.mkdir()
    (stub / "__init__.py").write_text(
        "def njit(*args, **kwargs):\n    raise RuntimeError('numba stub called')\n"
    )
    code = (
        "import sys\n"
        "from dataclasses import replace\n"
        "import fedleak\n"
        "from fedleak.cli import ExperimentConfig, run_experiment\n"
        "base = ExperimentConfig(rounds=1)\n"
        "cfg = replace(base, data=replace(base.data, n_classes=3, dim=4, per_class=20),\n"
        "              partition=replace(base.partition, clients=2),\n"
        "              scheme=replace(base.scheme, batch_size=8),\n"
        "              attack=replace(base.attack, mc_samples=200, aux_per_class=20))\n"
        "rows = run_experiment(cfg)\n"
        "assert len(rows) == 2, rows\n"
        "assert 'numba' not in sys.modules\n"
    )
    path = os.pathsep.join(p for p in (str(tmp_path), SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
