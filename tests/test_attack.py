import json
import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from fedleak.attack import (
    AttackParams,
    AttackReport,
    ConfusionMatrix,
    DegenerateUpdateError,
    carries_signal,
    class_logits,
    LogitMoments,
    build_system,
    estimate_embedding_norm,
    estimate_moments,
    make_target,
    mc_confusion,
    plugin_confusion,
    posterior_search,
    prepare_round,
    rlu_attack,
    round_counts,
    save_report,
    scheme_coefficients,
    solve_simplex_ls,
)
from fedleak import _kernels
from fedleak._kernels import mean_softmax, pgd_simplex_ls
from fedleak.data import Dataset, largest_remainder, make_synthetic, plan_batches
from fedleak.fedsim import (
    LocalUpdate,
    SchemeConfig,
    UpdateHistory,
    run_round,
)
from fedleak.metrics import iacc
from fedleak import attack as attack_module
from fedleak.nn import Model, forward_batch, init_model, softmax_rows, zeros_like_params

from _helpers import blob_world, fedavg_cfg, full_batch_world, one_round


def zero_weight_model(n_classes, bias):
    w = [np.zeros((4, 3)), np.zeros((n_classes, 4))]
    b = [np.zeros(4), np.asarray(bias, dtype=np.float64)]
    return Model(weights=w, biases=b, activation="relu")


# ---------------------------------------------------------------- moments

def test_moments_constant_logit_model():
    model = zero_weight_model(3, [0.5, -1.0, 2.0])
    aux = make_synthetic(3, 3, 10, 1.0, seed=0)
    moments = estimate_moments(model, aux)
    for n in range(3):
        npt.assert_allclose(moments.mu[n], [0.5, -1.0, 2.0], atol=1e-12)
        off = moments.sigma[n] - np.diag(np.diag(moments.sigma[n]))
        assert np.abs(off).max() == 0.0


def test_moments_single_sample_per_class():
    aux = make_synthetic(4, 6, 1, 2.0, seed=5)
    model = init_model([6, 5, 4], "tanh", seed=5)
    moments = estimate_moments(model, aux)
    logits, _ = forward_batch(model, aux.features)
    for n in range(4):
        npt.assert_allclose(moments.mu[n], logits[aux.labels == n][0], atol=1e-12)


def test_moments_two_pass_oracle():
    aux = make_synthetic(5, 8, 100, 3.0, seed=3)
    model = init_model([8, 12, 5], "relu", seed=3)
    moments = estimate_moments(model, aux)
    logits, _ = forward_batch(model, aux.features)
    for n in range(5):
        rows = logits[aux.labels == n]
        mean = rows.sum(axis=0) / len(rows)
        centered = rows - mean
        cov = np.zeros((5, 5))
        for r in centered:
            cov += np.outer(r, r)
        cov /= len(rows) - 1
        npt.assert_allclose(moments.mu[n], mean, atol=1e-10)
        # jitter is a scaled identity added on top of the empirical covariance
        jitter = moments.sigma[n] - cov
        npt.assert_allclose(jitter, np.eye(5) * jitter[0, 0], atol=1e-10)
        assert 0 < jitter[0, 0] < 1e-4


def test_moments_missing_class_is_named():
    aux = make_synthetic(4, 6, 3, 2.0, seed=1)
    keep = aux.labels != 2
    broken = Dataset(aux.features[keep], aux.labels[keep], 4)
    model = init_model([6, 5, 4], "relu", seed=1)
    with pytest.raises(ValueError, match="2"):
        estimate_moments(model, broken)


# -------------------------------------------------------------- confusion

def test_mc_confusion_uniform_exact():
    n = 5
    moments = LogitMoments(np.zeros((n, n)), np.zeros((n, n, n)))
    s = mc_confusion(moments, np.random.default_rng(0).standard_normal((100, n)))
    for i in range(n):
        for j in range(n):
            expected = 0.0 if i == j else 1.0 / n
            assert abs(s.s[i, j] - expected) <= 1e-12


def test_mc_confusion_deterministic_ratio():
    mu = np.array([[math.log(3.0), 0.0], [0.0, 0.0]])
    moments = LogitMoments(mu, np.zeros((2, 2, 2)))
    s = mc_confusion(moments, np.random.default_rng(1).standard_normal((50, 2)))
    assert abs(s.s[0, 1] - 0.25) <= 1e-12


def test_mc_confusion_symmetric_gaussian():
    mu = np.zeros((2, 2))
    sigma = np.stack([np.eye(2), np.eye(2)])
    s = mc_confusion(LogitMoments(mu, sigma), np.random.default_rng(7).standard_normal((100000, 2)))
    assert abs(s.s[0, 1] - 0.5) <= 0.005


def test_mc_confusion_large_m_oracle():
    rng = np.random.default_rng(11)
    n = 3
    mu = rng.normal(size=(n, n))
    sigma = np.zeros((n, n, n))
    for c in range(n):
        root = rng.normal(size=(n, n)) * 0.6
        sigma[c] = root @ root.T
    moments = LogitMoments(mu, sigma)
    s = mc_confusion(moments, np.random.default_rng(11).standard_normal((100000, n)))
    # brute-force estimate with 20x the samples and an independent stream
    oracle = np.zeros((n, n))
    for c in range(n):
        orng = np.random.default_rng(999 + c)
        draws = orng.multivariate_normal(mu[c], sigma[c], size=2000000)
        shifted = draws - draws.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        oracle[c] = probs.mean(axis=0)
        oracle[c, c] = 0.0
    assert np.abs(s.s - oracle).max() <= 0.01


def test_mc_confusion_deterministic_per_seed():
    rng = np.random.default_rng(2)
    moments = LogitMoments(rng.normal(size=(3, 3)), np.stack([np.eye(3)] * 3))
    a = mc_confusion(moments, np.random.default_rng(4).standard_normal((500, 3)))
    b = mc_confusion(moments, np.random.default_rng(4).standard_normal((500, 3)))
    assert np.array_equal(a.s, b.s)


@pytest.mark.parametrize("shape", [(0, 3), (10, 2), (10, 4), (30,)], ids=["no-rows", "narrow", "wide", "1d"])
def test_monte_carlo_rejects_malformed_normals(shape):
    moments = LogitMoments(np.zeros((3, 3)), np.stack([np.eye(3)] * 3))
    bad = np.zeros(shape)
    with pytest.raises(ValueError, match="normals"):
        mc_confusion(moments, bad)


def test_untrained_sum_rule():
    # column means of the confusion matrix sum to about one on a fresh model
    _, aux, _, model = blob_world(0)
    s = mc_confusion(estimate_moments(model, aux), np.random.default_rng(0).standard_normal((10000, 10)))
    n = s.n_classes
    col = s.s.sum(axis=0) / (n - 1)
    assert abs(col.sum() - 1.0) <= 0.1


# ------------------------------------------------------------ coefficients

def fresh_history(n_classes=4):
    model = init_model([3, 4, n_classes], "relu", seed=0)
    return UpdateHistory.fresh(model), model


def test_coefficients_fedavg_sgd():
    history, _ = fresh_history()
    cfg = fedavg_cfg(eta=0.1, epochs=4, batch_size=8)
    coeffs = scheme_coefficients(cfg, 1, history)
    npt.assert_array_equal(coeffs.rho, np.ones(4))
    assert coeffs.h is None


def test_coefficients_sgdm():
    history, _ = fresh_history()
    cfg = SchemeConfig(scheme="fedavg", optimizer="sgdm", eta=0.1, gamma=0.5,
                       epochs=2, batch_size=8)
    coeffs = scheme_coefficients(cfg, 1, history)
    npt.assert_allclose(coeffs.rho, [1.5, 1.0], atol=1e-12)


def test_coefficients_nag():
    history, _ = fresh_history()
    cfg = SchemeConfig(scheme="fedavg", optimizer="nag", eta=0.1, gamma=0.5,
                       epochs=2, batch_size=8)
    coeffs = scheme_coefficients(cfg, 1, history)
    npt.assert_allclose(coeffs.rho, [1.75, 1.5], atol=1e-12)


@pytest.mark.parametrize("optimizer", ["sgdm", "nag"])
@pytest.mark.parametrize("m", [1, 3, 10])
def test_coefficients_momentum_at_gamma_zero_are_ones(optimizer, m):
    history, _ = fresh_history()
    cfg = SchemeConfig(scheme="fedavg", optimizer=optimizer, eta=0.1, gamma=0.0,
                       epochs=m, batch_size=8)
    npt.assert_array_equal(scheme_coefficients(cfg, 1, history).rho, np.ones(m))


def test_coefficients_fedprox():
    history, _ = fresh_history()
    cfg = SchemeConfig(scheme="fedprox", optimizer="sgd", eta=0.1, lam=1.0,
                       epochs=3, batch_size=8)
    coeffs = scheme_coefficients(cfg, 1, history)
    npt.assert_allclose(coeffs.rho, [0.81, 0.9, 1.0], atol=1e-12)
    assert coeffs.h is None


def test_coefficients_first_round_offsets_vanish():
    for scheme, lam in (("scaffold", 0.0), ("feddyn", 2.0), ("feddc", 2.0)):
        history, _ = fresh_history()
        cfg = SchemeConfig(scheme=scheme, optimizer="sgd", eta=0.1, lam=lam,
                           epochs=2, batch_size=8)
        coeffs = scheme_coefficients(cfg, 1, history)
        assert coeffs.h is None


def test_coefficients_first_round_empty_history():
    # a default UpdateHistory() holds no past updates to size an offset from,
    # but at round 1 the offset is zero anyway
    for scheme in ("feddyn", "feddc"):
        cfg = SchemeConfig(scheme=scheme, optimizer="sgd", eta=0.1, lam=2.0,
                           epochs=3, batch_size=8)
        coeffs = scheme_coefficients(cfg, 1, UpdateHistory())
        npt.assert_allclose(coeffs.rho, [0.64, 0.8, 1.0], atol=1e-12)
        assert coeffs.h is None


def bias_vec(model, bias):
    """A zero ParamVec shaped like model with output bias `bias`."""
    vec = zeros_like_params(model)
    vec.biases[-1][:] = bias
    return vec


def test_coefficients_feddyn_offset_from_history():
    history, model = fresh_history()
    d1 = np.array([0.1, -0.2, 0.05, 0.05])
    d2 = np.array([-0.3, 0.1, 0.1, 0.1])
    history = replace(history, completed_rounds=2, cum_local_delta=bias_vec(model, d1 + d2))
    cfg = SchemeConfig(scheme="feddyn", optimizer="sgd", eta=0.1, lam=2.0,
                       epochs=3, batch_size=8)
    coeffs = scheme_coefficients(cfg, 3, history)
    shrink = 1.0 - (1.0 - 0.2) ** 3
    npt.assert_allclose(coeffs.rho, [0.64, 0.8, 1.0], atol=1e-12)
    npt.assert_allclose(coeffs.h, shrink * (d1 + d2), atol=1e-12)


def test_coefficients_feddc_adds_drift_gap_term():
    history, model = fresh_history()
    d1 = np.array([0.1, -0.2, 0.05, 0.05])
    g1 = np.array([0.02, -0.1, 0.04, 0.04])
    history = replace(history, completed_rounds=1, cum_local_delta=bias_vec(model, d1),
                      prev_local_delta=bias_vec(model, d1),
                      prev_global_delta=bias_vec(model, g1))
    cfg = SchemeConfig(scheme="feddc", optimizer="sgd", eta=0.1, lam=2.0,
                       epochs=3, batch_size=8)
    coeffs = scheme_coefficients(cfg, 2, history)
    shrink = 1.0 - 0.8 ** 3
    expected = shrink * d1 + (shrink / (0.2 * 3)) * (d1 - g1)
    npt.assert_allclose(coeffs.h, expected, atol=1e-12)


def test_coefficients_scaffold_offset():
    history, model = fresh_history()
    c2 = np.array([0.01, 0.02, -0.02, -0.01])
    d1 = np.array([0.1, -0.2, 0.05, 0.05])
    # after round 1 (c^(1) = 0): c_k = -d1 / (eta m), c = c^(2)
    history = replace(history, completed_rounds=1, server_variate=bias_vec(model, c2),
                      client_variate=bias_vec(model, -d1 / (0.1 * 4)))
    cfg = SchemeConfig(scheme="scaffold", optimizer="sgd", eta=0.1, epochs=4,
                       batch_size=8)
    coeffs = scheme_coefficients(cfg, 2, history)
    npt.assert_array_equal(coeffs.rho, np.ones(4))
    npt.assert_allclose(coeffs.h, 0.1 * 4 * c2 + d1, atol=1e-12)


def test_coefficients_reject_contraction_violation():
    # lambda * eta >= 1 is rejected when the config is built, before any
    # training or attack could use it
    with pytest.raises(ValueError):
        SchemeConfig(scheme="fedprox", optimizer="sgd", eta=0.1, lam=10.0,
                     epochs=2, batch_size=8)


# ---------------------------------------------------------------- system

def test_build_system_uniform_collapse():
    n = 6
    s = np.full((n, n), 1.0 / n)
    np.fill_diagonal(s, 0.0)
    a = build_system(ConfusionMatrix(s))
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = rng.dirichlet(np.ones(n))
        npt.assert_allclose(a @ z, z - 1.0 / n, atol=1e-12)


def test_build_system_symmetric_rows_sum_zero():
    rng = np.random.default_rng(5)
    raw = rng.random((4, 4)) * 0.2
    s = (raw + raw.T) / 2
    np.fill_diagonal(s, 0.0)
    a = build_system(ConfusionMatrix(s))
    npt.assert_allclose(a.sum(axis=1), np.zeros(4), atol=1e-12)


def test_build_system_single_class_batch_direction():
    # one-hot z reproduces the expected-gradient formula computed directly
    rng = np.random.default_rng(5)
    s = rng.random((5, 5)) * 0.3
    np.fill_diagonal(s, 0.0)
    a = build_system(ConfusionMatrix(s))
    for k in range(5):
        z = np.zeros(5)
        z[k] = 1.0
        direct = np.zeros(5)
        for j in range(5):
            if j == k:
                direct[j] = s[k].sum()
            else:
                direct[j] = -s[k, j]
        npt.assert_allclose(a @ z, direct, atol=1e-12)


def test_build_system_columns_sum_to_zero():
    rng = np.random.default_rng(8)
    s = rng.random((6, 6)) * 0.25
    np.fill_diagonal(s, 0.0)
    a = build_system(ConfusionMatrix(s))
    npt.assert_allclose(a.sum(axis=0), np.zeros(6), atol=1e-12)


# ---------------------------------------------------------------- target

def snap_update(model, delta_b, round_idx=1):
    delta = zeros_like_params(model)
    delta.biases[-1][:] = delta_b
    return LocalUpdate(delta, round_idx, 0, 32, np.zeros((1, model.n_classes)))


def test_make_target_single_epoch_is_delta_over_eta():
    _, model = fresh_history()
    cfg = fedavg_cfg(eta=0.05, epochs=1, batch_size=8)
    history = UpdateHistory.fresh(model)
    coeffs = scheme_coefficients(cfg, 1, history)
    db = np.array([0.2, -0.1, -0.05, -0.05])
    u = make_target(snap_update(model, db), coeffs, cfg)
    npt.assert_allclose(u, db / 0.05, atol=1e-14)


def test_make_target_zero_update():
    _, model = fresh_history()
    cfg = fedavg_cfg(eta=0.05, epochs=2, batch_size=8)
    coeffs = scheme_coefficients(cfg, 1, UpdateHistory.fresh(model))
    u = make_target(snap_update(model, np.zeros(4)), coeffs, cfg)
    npt.assert_allclose(u, np.zeros(4), atol=1e-15)


def test_make_target_recombination_all_schemes():
    # the inverted target must equal the rho-weighted mean of the recorded
    # per-epoch gradients, negated: this ties the attack's normalization to
    # the simulator's update algebra for every scheme and optimizer row
    grid = [
        ("fedavg", "sgd", 0.0, 0.0),
        ("fedavg", "sgdm", 0.0, 0.5),
        ("fedavg", "nag", 0.0, 0.5),
        ("scaffold", "sgd", 0.0, 0.0),
        ("fedprox", "sgd", 10.0, 0.0),
        ("feddyn", "sgd", 10.0, 0.0),
        ("feddc", "sgd", 10.0, 0.0),
    ]
    data = make_synthetic(4, 6, 60, 3.0, seed=21)
    from fedleak.data import dirichlet_partition

    partition = dirichlet_partition(data, 2, 0.8, seed=21)
    model = init_model([6, 10, 4], "tanh", seed=21)
    for scheme, optimizer, lam, gamma in grid:
        cfg = SchemeConfig(scheme=scheme, optimizer=optimizer, eta=0.05, lam=lam,
                           gamma=gamma, epochs=3, batch_size=16)
        histories = [UpdateHistory.fresh(model) for _ in range(2)]
        current = model
        for t in (1, 2, 3):
            current, updates, _, _, new_histories = run_round(
                current, data, partition, cfg, histories, t, seed=21
            )
            for k, update in enumerate(updates):
                coeffs = scheme_coefficients(cfg, t, histories[k])
                u = make_target(update, coeffs, cfg)
                expected = -(coeffs.rho @ update.debug_ce_bias_grads) / coeffs.rho.sum()
                scale = max(np.abs(expected).max(), 1e-30)
                assert np.abs(u - expected).max() / scale <= 1e-8, (scheme, t, k)
            histories = new_histories


def test_make_target_eta_zero_degenerate():
    _, model = fresh_history()
    cfg = fedavg_cfg(eta=0.0, epochs=1, batch_size=8)
    coeffs = scheme_coefficients(fedavg_cfg(eta=0.1, epochs=1, batch_size=8), 1,
                                 UpdateHistory.fresh(model))
    with pytest.raises(DegenerateUpdateError):
        make_target(snap_update(model, np.ones(4)), coeffs, cfg)


# ---------------------------------------------------------------- solver

def test_solver_identity_feasible_target():
    z, info = solve_simplex_ls(np.eye(3), np.array([0.2, 0.3, 0.5]))
    npt.assert_allclose(z, [0.2, 0.3, 0.5], atol=1e-8)
    assert info["objective"] <= 1e-12


def test_solver_identity_projection():
    z, _ = solve_simplex_ls(np.eye(3), np.array([2.0, 0.0, 0.0]))
    npt.assert_allclose(z, [1.0, 0.0, 0.0], atol=1e-8)


def test_solver_consistent_system_recovery():
    rng = np.random.default_rng(6)
    s = rng.random((6, 6)) * 0.3
    np.fill_diagonal(s, 0.0)
    a = build_system(ConfusionMatrix(s))
    z_true = rng.dirichlet(np.ones(6))
    z, info = solve_simplex_ls(a, a @ z_true)
    assert np.abs(z - z_true).max() <= 1e-5
    assert info["objective"] <= 1e-10


def simplex_grid(n, step):
    ticks = int(round(1.0 / step))
    pts = []
    def rec(prefix, left):
        if len(prefix) == n - 1:
            pts.append(prefix + [left])
            return
        for i in range(left + 1):
            rec(prefix + [i], left - i)
    rec([], ticks)
    return np.array(pts, dtype=np.float64) / ticks


def test_solver_beats_grid_on_random_instances():
    rng = np.random.default_rng(9)
    grid = simplex_grid(4, 0.02)
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        u = rng.normal(size=4)
        z, info = solve_simplex_ls(a, u)
        assert z.min() >= -1e-12 and abs(z.sum() - 1.0) <= 1e-9
        grid_best = ((grid @ a.T - u) ** 2).sum(axis=1).min()
        assert info["objective"] <= grid_best + 1e-6


def test_solver_zero_matrix_returns_uniform():
    z, _ = solve_simplex_ls(np.zeros((4, 4)), np.ones(4))
    npt.assert_allclose(z, np.full(4, 0.25), atol=1e-12)


def test_solver_reports_unconverged_at_the_solve_cap(monkeypatch):
    # this instance needs two KKT solves: the warm start and one on the
    # support of its projection
    rng = np.random.default_rng(6)
    a = rng.normal(size=(5, 5))
    u = rng.normal(size=5)
    z_full, info = solve_simplex_ls(a, u)
    assert info["converged"] and info["iterations"] == 2
    monkeypatch.setattr(_kernels, "MAX_KKT_SOLVES", 1)
    z, info = solve_simplex_ls(a, u)
    assert info["converged"] is False
    assert info["iterations"] == 1
    assert z.min() >= 0.0 and abs(z.sum() - 1.0) <= 1e-12
    resid = a @ z_full - u
    assert info["objective"] > resid @ resid


def test_solver_descends_on_the_simplex_under_every_solve_cap(monkeypatch):
    # each KKT solve moves toward the minimizer on the current face, so a
    # lower cap returns a point on the simplex that is no better
    rng = np.random.default_rng(12)
    default_cap = _kernels.MAX_KKT_SOLVES
    for _ in range(20):
        a, u = rng.normal(size=(10, 10)), rng.normal(size=10)
        monkeypatch.setattr(_kernels, "MAX_KKT_SOLVES", default_cap)
        _, info = solve_simplex_ls(a, u)
        full = info["iterations"]
        previous = np.inf
        for cap in range(1, full + 1):
            monkeypatch.setattr(_kernels, "MAX_KKT_SOLVES", cap)
            z, info = solve_simplex_ls(a, u)
            assert info["converged"] is (cap == full)
            assert z.min() >= 0.0 and abs(z.sum() - 1.0) <= 1e-12
            assert info["objective"] <= previous * (1.0 + 1e-12)
            previous = info["objective"]


def kkt_violations(a, u, z):
    """How far z is from the simplex KKT conditions of min ||A z - u||^2.

    Returns (most negative entry, |sum - 1|, spread of the gradient
    A^T (A z - u) on the support, most negative multiplier off it), the last
    two over the gradient scale max|A^T A| + max|A^T u|.
    """
    grad = a.T @ (a @ z - u)
    scale = np.abs(a.T @ a).max() + np.abs(a.T @ u).max()
    support = z > 0.0
    level = grad[support].mean()
    off = grad[~support] - level
    return (
        min(float(z.min()), 0.0),
        abs(float(z.sum()) - 1.0),
        float(np.ptp(grad[support])) / scale,
        min(float(off.min()), 0.0) / scale if off.size else 0.0,
    )


def random_confusion_system(rng, n):
    s = rng.random((n, n)) * 0.3
    np.fill_diagonal(s, 0.0)
    a = build_system(ConfusionMatrix(s))
    z_true = rng.dirichlet(np.full(n, 0.3))
    return a, a @ z_true + rng.normal(size=n) * 1e-3


@pytest.mark.parametrize("kind, n", [("general", 4), ("general", 10), ("confusion", 10), ("confusion", 100)])
def test_solver_meets_kkt_conditions(kind, n):
    rng = np.random.default_rng(40 + n)
    for _ in range(20 if n < 100 else 5):
        if kind == "general":
            a, u = rng.normal(size=(n, n)), rng.normal(size=n)
        else:
            a, u = random_confusion_system(rng, n)
        z, info = solve_simplex_ls(a, u)
        assert info["converged"]
        negative, sum_gap, spread, multiplier = kkt_violations(a, u, z)
        assert negative == 0.0
        assert sum_gap <= 1e-12
        assert spread <= 1e-12
        assert multiplier >= -1e-12


def test_solver_adds_a_class_whose_multiplier_is_small():
    # G = diag(w) and b put the optimum at [0.6, 0.4 - eps, eps, 0]; the
    # warm start's projection drops class 2, whose multiplier on support
    # {0, 1} is then only -10.5 eps, yet far above rounding
    eps = 1e-7
    w = np.array([1.0, 1.0, 10.0, 1.0])
    b = np.array([0.6, 0.4 - eps, 10.0 * eps, -0.5])
    z, info = solve_simplex_ls(np.diag(np.sqrt(w)), b / np.sqrt(w))
    assert info["converged"] and info["iterations"] == 3
    npt.assert_allclose(z, [0.6, 0.4 - eps, eps, 0.0], rtol=0.0, atol=1e-15)


def test_solver_counts_match_converged_pgd_on_single_epoch_worlds():
    # the criterion-06 worlds: projected gradient run to an iterate change
    # of 1e-14 rounds to the same counts
    compared = 0
    for seed in range(20):
        data, aux, partition, model = blob_world(seed)
        cfg = fedavg_cfg(eta=0.01, epochs=1, batch_size=32)
        _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=seed)
        a = build_system(prepare_round(model, aux, AttackParams()).s_first)
        step = 1.0 / float(np.linalg.eigvalsh(a.T @ a)[-1])
        for k, update in enumerate(updates):
            if truths[k] is None:
                continue
            u = make_target(update, scheme_coefficients(cfg, 1, histories[k]), cfg)
            z, _ = solve_simplex_ls(a, u)
            z_pgd, _, converged = pgd_simplex_ls(a, u, step, 1e-14, 100000)
            assert converged
            npt.assert_array_equal(round_counts(z, 32), round_counts(z_pgd, 32))
            compared += 1
    assert compared == 196


def rank_deficient_system(kind, rng):
    a = rng.normal(size=(4, 4))
    u = rng.normal(size=4)
    if kind == "duplicate_columns":
        a[:, 2] = a[:, 0]
    elif kind == "zero_column":
        a[:, 1] = 0.0
    else:
        # rank 3, and a generic u has a component outside the range of A
        a[:, 3] = a[:, 0] + a[:, 1]
        u = u + 10.0 * np.linalg.svd(a)[0][:, -1]
    return a, u


@pytest.mark.parametrize("kind", ["duplicate_columns", "zero_column", "u_outside_range"])
def test_solver_rank_deficient_systems(kind):
    rng = np.random.default_rng(11)
    grid = simplex_grid(4, 0.02)
    for _ in range(50):
        a, u = rank_deficient_system(kind, rng)
        z, info = solve_simplex_ls(a, u)
        assert info["converged"]
        assert z.min() >= 0.0 and abs(z.sum() - 1.0) <= 1e-12
        grid_best = float(((grid @ a.T - u) ** 2).sum(axis=1).min())
        assert info["objective"] <= grid_best + 1e-12


# ---------------------------------------------------------------- rounding

def test_round_counts_examples():
    npt.assert_array_equal(round_counts(np.array([0.5, 0.5]), 32), [16, 16])
    npt.assert_array_equal(round_counts(np.array([1.0, 0.0, 0.0]), 7), [7, 0, 0])
    npt.assert_array_equal(round_counts(np.ones(3) / 3, 32), [11, 11, 10])


def test_round_counts_properties():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        total = int(rng.integers(0, 400))
        z = rng.dirichlet(np.ones(n) * 0.5)
        counts = round_counts(z, total)
        assert counts.sum() == total
        assert np.abs(counts - total * z).max() <= 1.0


def test_round_counts_validation():
    with pytest.raises(ValueError):
        round_counts(np.array([0.5, 0.5]), -1)
    with pytest.raises(ValueError):
        round_counts(np.array([0.7, 0.7]), 10)


# ---------------------------------------------------------- embedding norm

def test_embedding_norm_exact_proportional_rows():
    c = np.array([0.3, -1.2, 0.8])
    db = np.array([0.5, -0.25, 0.1, -0.35])
    dw = np.outer(db, c)
    est = estimate_embedding_norm(dw, db)
    assert est == pytest.approx(float(np.sum(c * c)), abs=1e-12)


def test_embedding_norm_zero_bias_degenerate():
    with pytest.raises(DegenerateUpdateError):
        estimate_embedding_norm(np.zeros((3, 2)), np.zeros(3))


def test_embedding_norm_threshold_excludes_noisy_rows():
    c = np.array([1.0, 2.0])
    db = np.array([1.0, -1.0, 1e-6])
    dw = np.vstack([c, -c, np.array([5.0, 5.0])])
    est = estimate_embedding_norm(dw, db)
    assert est == pytest.approx(5.0, abs=1e-12)


def test_embedding_norm_single_epoch_run_oracle():
    # median over the run's clients of the relative estimation error
    data, aux, partition, model = blob_world(9)
    cfg = fedavg_cfg(eta=0.01, epochs=1, batch_size=32)
    _, updates, truths, _, _, _ = one_round(data, partition, model, cfg, seed=9)
    errors = []
    for k, update in enumerate(updates):
        if truths[k] is None:
            continue
        shard = partition.assignments[k]
        plan_seed = np.random.SeedSequence([9, 1, 1, k]).generate_state(1)[0]
        plan = plan_batches(data.subset(shard), 32, 1, int(plan_seed))
        _, e = forward_batch(model, data.subset(shard).features[plan.batches[0]])
        true_val = float(np.sum(e.mean(axis=0) ** 2))
        est = estimate_embedding_norm(update.delta_w_out, update.delta_b_out)
        errors.append(abs(est - true_val) / true_val)
    assert np.median(errors) <= 0.10


# --------------------------------------------------------- posterior search

def noisy_logits(n, rows, seed=0):
    """Per-class logit blocks scattered around zero, as class_logits returns."""
    rng = np.random.default_rng(seed)
    return tuple(0.3 * rng.standard_normal((rows, n)) for _ in range(n))


def test_posterior_search_zero_iterations_passthrough():
    _, model = fresh_history(4)
    cfg = fedavg_cfg(eta=0.01, epochs=4, batch_size=8)
    logits = noisy_logits(4, 100)
    s = plugin_confusion(logits)
    crude = np.array([13, 9, 6, 4])
    refined, moves, stop = posterior_search(crude, logits, s, s, 0.5, cfg, search_iters=0)
    # 32 total over 4 epochs: per-epoch counts repaired to sum 8, times 4
    assert refined.sum() == 32
    npt.assert_array_equal(refined % 4, np.zeros(4))
    assert (moves, stop) == (0, "iteration_cap")


def test_posterior_search_validates_sum():
    _, model = fresh_history(4)
    cfg = fedavg_cfg(eta=0.01, epochs=4, batch_size=8)
    logits = noisy_logits(4, 50)
    s = plugin_confusion(logits)
    with pytest.raises(ValueError):
        posterior_search(np.array([5, 5, 5, 5]), logits, s, s, 0.5, cfg)


def test_posterior_search_needs_one_logit_block_per_class():
    cfg = fedavg_cfg(eta=0.01, epochs=2, batch_size=3)
    logits = noisy_logits(3, 10)
    s = plugin_confusion(logits)
    with pytest.raises(ValueError, match="one block per class"):
        posterior_search(np.array([2, 2, 2]), logits[:2], s, s, 0.5, cfg)


def test_posterior_search_fixed_point_on_full_batch_run():
    data, aux, partition, model = full_batch_world(3)
    cfg = fedavg_cfg(eta=0.01, epochs=10, batch_size=32)
    _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=3)
    context = prepare_round(model, aux, AttackParams())
    report = rlu_attack(context, updates[0], cfg, histories[0])
    crude = np.array(report.diagnostics["crude_counts"])
    # the simulated drift matches the observed one at the crude answer, so
    # the search keeps the lattice-snapped counts
    per_epoch = np.array(truths[0]) // 10
    npt.assert_array_equal(report.counts, per_epoch * 10)
    assert report.method == "posterior_search"
    assert report.diagnostics["search_stop"] == "fixed_point"
    assert iacc(report.counts, truths[0], 10, 32) >= iacc(crude, truths[0], 10, 32)


def test_posterior_search_repairs_corrupted_counts():
    data, aux, partition, model = full_batch_world(1)
    cfg = fedavg_cfg(eta=0.05, epochs=10, batch_size=32)
    _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=1)
    update = updates[0]
    logits = class_logits(model, aux)
    s_first = plugin_confusion(logits)
    local = model.copy()
    local.params().add_(update.delta, 1.0)
    s_last = plugin_confusion(class_logits(local, aux))
    embed = estimate_embedding_norm(update.delta_w_out, update.delta_b_out)
    g_true = np.asarray(truths[0]) // 10
    g_bad = g_true.copy()
    hi, lo = int(np.argmax(g_bad)), int(np.argmin(g_bad))
    g_bad[hi] -= 3
    g_bad[lo] += 3
    refined, _, _ = posterior_search(g_bad * 10, logits, s_first, s_last, embed, cfg, search_iters=5)
    before = np.abs(g_bad * 10 - truths[0]).sum()
    after = np.abs(refined - truths[0]).sum()
    assert after < before


def uneven_logits(n, seed):
    """Per-class logit blocks of uneven sizes; class 1 has a single row."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 40, size=n)
    sizes[1] = 1
    return tuple(rng.standard_normal((k, n)) for k in sizes)


def reference_search(crude, logits, s_first, s_last_observed, embed_norm, cfg, search_iters):
    """posterior_search with one mean_softmax call per class block and epoch."""
    n, m, batch = crude.size, cfg.epochs, cfg.batch_size
    g = largest_remainder(crude / m, batch)
    moves, stop = 0, "iteration_cap"
    for _ in range(search_iters):
        shift = np.zeros(n)
        s_cur = s_first.s
        for _tau in range(m):
            shift += cfg.eta / batch * (g * s_cur.sum(axis=1) - s_cur.T @ g) * (embed_norm + 1.0)
            s_cur = np.array([mean_softmax(rows + shift) for rows in logits])
            np.fill_diagonal(s_cur, 0.0)
        d = (s_last_observed.s - s_cur).sum(axis=0) / (n - 1)
        hi, lo = int(np.argmax(d)), int(np.argmin(d))
        if d[hi] - d[lo] <= 0.01:
            stop = "fixed_point"
            break
        if g[lo] < 1:
            stop = "count_floor"
            break
        g[hi] += 1
        g[lo] -= 1
        moves += 1
    return g * m, moves, stop


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plugin_confusion_matches_per_block_reference(seed):
    logits = uneven_logits(6, seed)
    confusion = plugin_confusion(logits)
    expected_s = np.array([mean_softmax(rows) for rows in logits])
    np.fill_diagonal(expected_s, 0.0)
    assert np.array_equal(confusion.s, expected_s)
    for n, rows in enumerate(logits):
        probs = softmax_rows(rows)
        se = probs.std(axis=0, ddof=1 if len(rows) > 1 else 0) / np.sqrt(len(rows))
        se[n] = 0.0
        assert confusion.se[n] == pytest.approx(se, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_posterior_search_matches_per_block_reference(seed):
    logits = uneven_logits(6, seed)
    cfg = fedavg_cfg(eta=0.5, epochs=4, batch_size=12)
    s_first = plugin_confusion(logits)
    rng = np.random.default_rng(100 + seed)
    s_last = plugin_confusion(tuple(rows + rng.standard_normal(6) for rows in logits))
    crude = np.array([8, 4, 12, 8, 12, 4])
    counts, moves, stop = posterior_search(crude, logits, s_first, s_last, 2.0, cfg, search_iters=8)
    ref_counts, ref_moves, ref_stop = reference_search(crude, logits, s_first, s_last, 2.0, cfg, 8)
    assert np.array_equal(counts, ref_counts)
    assert (moves, stop) == (ref_moves, ref_stop)
    assert moves > 0


def test_posterior_search_stops_at_count_floor():
    logits = uneven_logits(4, 3)
    cfg = fedavg_cfg(eta=0.5, epochs=2, batch_size=8)
    s_first = plugin_confusion(logits)
    # the observed matrix says class 2 is over-counted, but it has no unit left
    observed = np.zeros((4, 4))
    observed[:, 2] = -1.0
    crude = np.array([6, 4, 0, 6])
    counts, moves, stop = posterior_search(crude, logits, s_first, ConfusionMatrix(observed), 1.0, cfg)
    assert (moves, stop) == (0, "count_floor")
    npt.assert_array_equal(counts, crude)


# ---------------------------------------------------------------- pipeline

def test_rlu_single_epoch_recovers_counts():
    per_seed = []
    for seed in range(3):
        data, aux, partition, model = blob_world(seed)
        cfg = fedavg_cfg(eta=0.01, epochs=1, batch_size=32)
        _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=seed)
        context = prepare_round(model, aux, AttackParams())
        scores = []
        for k, update in enumerate(updates):
            if truths[k] is None:
                continue
            report = rlu_attack(context, update, cfg, histories[k])
            assert report.method == "single_epoch"
            assert report.counts.sum() == 32
            scores.append(iacc(report.counts, truths[k], 1, 32))
        per_seed.append(np.mean(scores))
    assert np.mean(per_seed) >= 0.97


def test_rlu_single_class_batch_sign_structure():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(64, 16)) + 2.0
    labels = np.zeros(64, dtype=int)
    data = Dataset(feats, labels, 10)
    from fedleak.data import Partition

    partition = Partition([np.arange(64)], alpha=0.0, seed=0)
    aux = make_synthetic(10, 16, 100, 4.0, seed=123)
    model = init_model([16, 32, 16, 10], "relu", seed=9)
    cfg = fedavg_cfg(eta=0.01, epochs=1, batch_size=32)
    histories = [UpdateHistory.fresh(model)]
    _, updates, truths, _, _ = run_round(model, data, partition, cfg, histories, 1, seed=0)
    update = updates[0]
    assert update.delta_b_out[0] > 0
    assert (update.delta_b_out[1:] < 0).all()
    report = rlu_attack(prepare_round(model, aux, AttackParams()), update, cfg, histories[0])
    # the auxiliary set only approximates the batch distribution, so allow
    # one unit of leakage away from the true all-class-0 answer
    assert report.counts[0] >= 31
    assert iacc(report.counts, truths[0], 1, 32) >= 0.95


def test_rlu_scheme_aware_beats_naive_on_fedprox():
    data, aux, partition, model = blob_world(0, alpha=0.1)
    cfg = SchemeConfig(scheme="fedprox", optimizer="sgd", eta=0.01, lam=25.0,
                       epochs=5, batch_size=32)
    naive_cfg = fedavg_cfg(eta=0.01, epochs=5, batch_size=32)
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    _, updates, truths, _, _ = run_round(model, data, partition, cfg, histories, 1, seed=0)
    context = prepare_round(model, aux, AttackParams())
    aware_scores, naive_scores = [], []
    for k, update in enumerate(updates):
        if truths[k] is None:
            continue
        aware = rlu_attack(context, update, cfg, histories[k])
        naive = rlu_attack(context, update, naive_cfg, histories[k])
        aware_scores.append(iacc(aware.counts, truths[k], 5, 32))
        naive_scores.append(iacc(naive.counts, truths[k], 5, 32))
    assert np.mean(aware_scores) > np.mean(naive_scores) + 0.1


def test_rlu_degenerate_updates_raise():
    data, aux, partition, model = blob_world(2)
    cfg = fedavg_cfg(eta=0.0, epochs=1, batch_size=32)
    history = UpdateHistory.fresh(model)
    zero = LocalUpdate(zeros_like_params(model), 1, 0, 32, np.zeros((1, 10)))
    # the checks come before the context is read, so rounds without a
    # context (run_experiment builds none when no update carries signal)
    # still get the error
    with pytest.raises(DegenerateUpdateError):
        rlu_attack(None, zero, cfg, history)
    cfg2 = fedavg_cfg(eta=0.01, epochs=1, batch_size=32)
    with pytest.raises(DegenerateUpdateError):
        rlu_attack(None, zero, cfg2, history)
    assert not carries_signal(zero, cfg2)
    nonzero = LocalUpdate(zeros_like_params(model), 1, 0, 32, np.zeros((1, 10)))
    nonzero.delta.biases[-1][0] = 1e-3
    assert carries_signal(nonzero, cfg2) and not carries_signal(nonzero, cfg)


def test_rlu_non_finite_update_raises_value_error():
    data, aux, partition, model = full_batch_world(4)
    cfg = fedavg_cfg(eta=0.01, epochs=1, batch_size=32)
    _, updates, _, _, histories, _ = one_round(data, partition, model, cfg, seed=4)
    for bad in (np.nan, np.inf):
        delta = zeros_like_params(model)
        for arr in delta.weights + delta.biases:
            arr[...] = bad
        broken = LocalUpdate(delta, 1, 0, 32, updates[0].debug_ce_bias_grads)
        with pytest.raises(ValueError, match="not finite"):
            rlu_attack(None, broken, cfg, histories[0])
    # one NaN entry among finite ones is caught too
    delta = updates[0].delta.copy()
    delta.biases[-1][2] = np.nan
    broken = LocalUpdate(delta, 1, 0, 32, updates[0].debug_ce_bias_grads)
    with pytest.raises(ValueError, match="not finite"):
        rlu_attack(None, broken, cfg, histories[0])


def test_rlu_ignores_debug_channel():
    # the recorded per-epoch gradients exist for tests only; zeroing them
    # must not change the attack output
    data, aux, partition, model = full_batch_world(5)
    cfg = fedavg_cfg(eta=0.01, epochs=4, batch_size=32)
    _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=5)
    update = updates[0]
    blinded = LocalUpdate(update.delta, update.round, update.client_id, update.n_samples,
                          np.zeros_like(update.debug_ce_bias_grads))
    context = prepare_round(model, aux, AttackParams())
    a = rlu_attack(context, update, cfg, histories[0])
    b = rlu_attack(context, blinded, cfg, histories[0])
    assert np.array_equal(a.counts, b.counts)
    assert a.residual == b.residual


def test_rlu_deterministic_per_seed():
    data, aux, partition, model = full_batch_world(6)
    cfg = fedavg_cfg(eta=0.01, epochs=2, batch_size=32)
    _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=6)
    a = rlu_attack(prepare_round(model, aux, AttackParams()), updates[0], cfg, histories[0])
    b = rlu_attack(prepare_round(model, aux, AttackParams()), updates[0], cfg, histories[0])
    assert np.array_equal(a.counts, b.counts)
    assert a.to_json() == b.to_json()


def test_report_json_layout(tmp_path):
    report = AttackReport(
        z_star=np.array([0.5, 0.5]),
        counts=np.array([16, 16]),
        residual=1.5e-9,
        method="single_epoch",
        diagnostics={"confusion_se": 0.01, "alpha": 0.5},
    )
    text = report.to_json()
    keys = list(json.loads(text))
    assert keys == ["method", "counts", "z_star", "residual", "diagnostics"]
    path = tmp_path / "report.json"
    save_report(path, report)
    assert json.loads(path.read_text())["counts"] == [16, 16]


def test_report_simplex_invariant():
    data, aux, partition, model = full_batch_world(7)
    cfg = fedavg_cfg(eta=0.01, epochs=1, batch_size=32)
    _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=7)
    report = rlu_attack(prepare_round(model, aux, AttackParams()), updates[0], cfg, histories[0])
    assert report.z_star.min() >= -1e-8
    assert abs(report.z_star.sum() - 1.0) <= 1e-8
    assert (report.counts >= 0).all()


def test_rlu_crude_multi_epoch_returns_crude_counts():
    data, aux, partition, model = blob_world(2, clients=4)
    cfg = fedavg_cfg(eta=0.01, epochs=3, batch_size=16)
    _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=2)
    context = prepare_round(model, aux, AttackParams(search_iters=0))
    attacked = 0
    for k, update in enumerate(updates):
        if truths[k] is None:
            continue
        report = rlu_attack(context, update, cfg, histories[k])
        assert report.method == "crude_multi_epoch"
        assert report.counts.sum() == 3 * 16
        assert [int(c) for c in report.counts] == report.diagnostics["crude_counts"]
        attacked += 1
    assert attacked >= 2


@pytest.mark.parametrize("shard_size, method", [(32, "posterior_search"), (33, "crude_multi_epoch")])
def test_rlu_searches_only_when_the_shard_is_one_batch(shard_size, method):
    # the search assumes every epoch sees the same labels, which holds only
    # when the shard is exactly one batch
    data, aux, partition, model = full_batch_world(2, shard_size=shard_size)
    cfg = fedavg_cfg(eta=0.01, epochs=5, batch_size=32)
    _, updates, _, _, histories, _ = one_round(data, partition, model, cfg, seed=2)
    assert updates[0].n_samples == shard_size
    report = rlu_attack(prepare_round(model, aux, AttackParams(search_iters=5)), updates[0], cfg, histories[0])
    assert report.method == method
    if method == "crude_multi_epoch":
        assert [int(c) for c in report.counts] == report.diagnostics["crude_counts"]
        assert "embedding_norm" not in report.diagnostics


@pytest.mark.parametrize("alpha", [0.05, 0.5, 5.0])
def test_default_attack_not_worse_than_its_crude_counts(alpha):
    # criterion 08's worlds: m = 10 on Dirichlet shards larger than a batch
    crude_scores, scores = [], []
    for seed in range(10):
        data, aux, partition, model = blob_world(seed, alpha=alpha)
        cfg = fedavg_cfg(eta=0.01, epochs=10, batch_size=32)
        _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=seed)
        context = prepare_round(model, aux, AttackParams())
        for k, update in enumerate(updates):
            if truths[k] is None:
                continue
            report = rlu_attack(context, update, cfg, histories[k])
            crude_scores.append(iacc(np.array(report.diagnostics["crude_counts"]), truths[k], 10, 32))
            scores.append(iacc(report.counts, truths[k], 10, 32))
    assert np.mean(scores) >= np.mean(crude_scores)


BASE_DIAGNOSTICS = {"confusion_se", "solver_iterations", "solver_converged"}


@pytest.mark.parametrize(
    "epochs, search_iters, method, extra",
    [
        (1, 5, "single_epoch", set()),
        (3, 0, "crude_multi_epoch", {"crude_counts"}),
        (
            3,
            5,
            "posterior_search",
            {"crude_counts", "embedding_norm", "search_l1_from_crude", "search_moves", "search_stop"},
        ),
    ],
    ids=["single", "crude", "search"],
)
def test_rlu_diagnostics_keys_per_method(epochs, search_iters, method, extra):
    data, aux, partition, model = full_batch_world(4)
    cfg = fedavg_cfg(eta=0.01, epochs=epochs, batch_size=32)
    _, updates, _, _, histories, _ = one_round(data, partition, model, cfg, seed=4)
    context = prepare_round(model, aux, AttackParams(search_iters=search_iters))
    report = rlu_attack(context, updates[0], cfg, histories[0])
    assert report.method == method
    assert set(report.diagnostics) == BASE_DIAGNOSTICS | extra
    if method == "posterior_search":
        assert report.diagnostics["search_stop"] in ("fixed_point", "iteration_cap", "count_floor")
        assert type(report.diagnostics["search_moves"]) is int


def test_rlu_search_reports_its_distance_from_crude():
    data, aux, partition, model = full_batch_world(3, shard_size=16, clients=4)
    cfg = fedavg_cfg(eta=0.01, epochs=3, batch_size=16)
    _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=3)
    k = next(k for k, truth in enumerate(truths) if truth is not None)
    report = rlu_attack(prepare_round(model, aux, AttackParams()), updates[k], cfg, histories[k])
    assert report.method == "posterior_search"
    moved = report.diagnostics["search_l1_from_crude"]
    assert type(moved) is int
    assert moved == np.abs(report.counts - np.array(report.diagnostics["crude_counts"])).sum()


# ------------------------------------------------------------ round context

def _counting(monkeypatch, name):
    calls = []
    original = getattr(attack_module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(attack_module, name, wrapper)
    return calls


def test_rlu_single_epoch_with_context_runs_no_monte_carlo(monkeypatch):
    # a single-epoch attack only solves: the context already holds the one
    # confusion matrix it needs, so it forwards and averages nothing
    data, aux, partition, model = full_batch_world(9)
    cfg = fedavg_cfg(eta=0.01, epochs=1, batch_size=32)
    _, updates, _, _, histories, _ = one_round(data, partition, model, cfg, seed=9)
    context = prepare_round(model, aux, AttackParams(mc_samples=2000))
    calls = [
        _counting(monkeypatch, name)
        for name in ("mc_confusion", "estimate_moments", "plugin_confusion", "forward_batch", "mean_softmax")
    ]
    report = rlu_attack(context, updates[0], cfg, histories[0])
    assert report.method == "single_epoch"
    assert calls == [[]] * 5


def test_round_context_first_matrix_is_mean_aux_softmax():
    _, aux, _, model = blob_world(4, n_classes=5, aux_per_class=30)
    context = prepare_round(model, aux, AttackParams())
    logits, _ = forward_batch(model, aux.features)
    for n in range(5):
        rows = logits[aux.labels == n]
        probs = np.exp(rows - rows.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        for j in range(5):
            expected = 0.0 if j == n else probs[:, j].mean()
            assert context.s_first.s[n, j] == pytest.approx(expected, rel=1e-12, abs=1e-15)
        npt.assert_array_equal(context.logits[n], rows)


def test_round_context_unchanged_by_multi_epoch_attacks():
    data, aux, partition, model = full_batch_world(3, shard_size=16, clients=4)
    cfg = fedavg_cfg(eta=0.01, epochs=3, batch_size=16)
    _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=3)
    params = AttackParams(search_iters=3)
    context = prepare_round(model, aux, params)
    assert len(context.logits) == 10
    assert all(block.shape == (100, 10) for block in context.logits)
    shared = [*context.logits, context.s_first.s, context.s_first.se]
    before = [arr.copy() for arr in shared]
    attacked = 0
    for k, update in enumerate(updates):
        if truths[k] is None:
            continue
        report = rlu_attack(context, update, cfg, histories[k])
        assert report.method == "posterior_search"
        attacked += 1
    assert attacked >= 2
    for old, new in zip(before, shared):
        npt.assert_array_equal(old, new)
        assert not new.flags.writeable
    # the global-model matrix is the one plugin_confusion gives on the logits
    again = plugin_confusion(class_logits(model, aux))
    assert np.array_equal(again.s, context.s_first.s)
    assert np.array_equal(again.se, context.s_first.se)


def test_rlu_attack_draws_no_random_numbers(monkeypatch):
    # neither building the round's context nor attacking with it draws
    # random numbers, so both run with numpy's generator and seed
    # constructors disabled
    data, aux, partition, model = full_batch_world(3, shard_size=16, clients=4)
    cfg = fedavg_cfg(eta=0.01, epochs=3, batch_size=16)
    _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=3)

    def forbidden(*args, **kwargs):
        raise AssertionError("the attack drew its own random numbers")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    context = prepare_round(model, aux, AttackParams(mc_samples=500, search_mc_samples=100))
    attacked = 0
    for k, update in enumerate(updates):
        if truths[k] is None:
            continue
        assert rlu_attack(context, update, cfg, histories[k]).method == "posterior_search"
        attacked += 1
    assert attacked >= 2


# --------------------------------------------------------- confusion noise

def identity_model(n):
    """relu MLP whose logits equal its (non-negative) features."""
    return Model(weights=[np.eye(n), np.eye(n)], biases=[np.zeros(n), np.zeros(n)], activation="relu")


def hand_confusion_se(blocks):
    """Largest off-diagonal std / sqrt(count) of the per-class softmax, in plain Python."""
    worst = 0.0
    for n, rows in enumerate(blocks):
        probs = []
        for row in rows:
            e = [math.exp(v) for v in row]
            probs.append([x / sum(e) for x in e])
        count = len(rows)
        for j in range(len(rows[0])):
            if j == n:
                continue
            vals = [p[j] for p in probs]
            mean = sum(vals) / count
            var = sum((v - mean) ** 2 for v in vals) / (count - 1)
            worst = max(worst, math.sqrt(var / count))
    return worst


def test_plugin_confusion_single_row_has_zero_se():
    logits = (np.array([[1.0, 0.0, -1.0]]), np.array([[0.0, 2.0, 0.5]]), np.array([[0.3, 0.1, 1.0]]))
    with np.errstate(all="raise"):
        confusion = plugin_confusion(logits)
    npt.assert_array_equal(confusion.se, np.zeros((3, 3)))
    probs = np.exp(logits[0][0]) / np.exp(logits[0][0]).sum()
    npt.assert_allclose(confusion.s[0], [0.0, probs[1], probs[2]], rtol=1e-14)


def test_plugin_confusion_rows_are_mean_softmax():
    logits = noisy_logits(5, 40, seed=2)
    confusion = plugin_confusion(logits)
    for n, rows in enumerate(logits):
        expected = mean_softmax(rows)
        for j in range(5):
            assert confusion.s[n, j] == (0.0 if j == n else expected[j])


@pytest.mark.parametrize("epochs", [1, 2])
def test_confusion_se_matches_hand_computation(epochs):
    blocks = [
        [[2.0, 0.5, 0.1], [1.5, 1.0, 0.2]],
        [[0.3, 2.0, 0.4], [0.1, 1.2, 0.9], [0.5, 1.8, 0.1]],
        [[0.2, 0.7, 3.0], [0.4, 0.2, 2.5]],
    ]
    features = np.array([row for rows in blocks for row in rows])
    labels = np.array([n for n, rows in enumerate(blocks) for _ in rows])
    aux = Dataset(features, labels, 3)
    model = identity_model(3)
    cfg = fedavg_cfg(eta=0.1, epochs=epochs, batch_size=4)
    delta = zeros_like_params(model)
    delta.biases[-1][:] = [0.4, -0.1, -0.3]
    update = LocalUpdate(delta, 1, 0, 4, np.zeros((epochs, 3)))
    report = rlu_attack(prepare_round(model, aux, AttackParams()), update, cfg, UpdateHistory.fresh(model))
    expected = hand_confusion_se(blocks)
    if epochs > 1:
        # the system also uses the local model, whose logits moved by the bias delta
        shifted = [[[v + d for v, d in zip(row, [0.4, -0.1, -0.3])] for row in rows] for rows in blocks]
        expected = max(expected, hand_confusion_se(shifted))
    assert report.diagnostics["confusion_se"] == pytest.approx(expected, rel=1e-12)
    assert "mc_samples" not in report.diagnostics
