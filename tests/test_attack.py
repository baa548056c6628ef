import json
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest

from fedleak.attack import (
    AttackParams,
    AttackReport,
    ConfusionMatrix,
    DegenerateUpdateError,
    class_logits,
    LogitMoments,
    build_system,
    estimate_moments,
    make_target,
    mc_confusion,
    plugin_confusion,
    posterior_search,
    prepare_round,
    RoundContext,
    SchemeCoefficients,
    rlu_attack,
    round_counts,
    scheme_coefficients,
    solve_simplex_ls,
)
from fedleak import _kernels
from fedleak._kernels import _KKT_COND_LIMIT, _kkt_solve, mean_softmax, pgd_simplex_ls, simplex_system
from fedleak.data import Dataset, largest_remainder, make_synthetic
from fedleak.fedsim import (
    LocalUpdate,
    SchemeConfig,
    UpdateHistory,
    run_round,
)
from fedleak.metrics import iacc
from fedleak import attack as attack_module
from fedleak import fedsim
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


@pytest.mark.parametrize("field", ["mu", "sigma"])
@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_mc_confusion_rejects_non_finite_moments(field, bad):
    # the eigendecomposition behind each class's draws needs finite input
    moments = LogitMoments(np.zeros((3, 3)), np.stack([np.eye(3)] * 3))
    getattr(moments, field)[1, 0, ...] = bad
    with pytest.raises(ValueError, match="moments must be finite"):
        mc_confusion(moments, np.random.default_rng(0).standard_normal((10, 3)))


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


def _closed_form_rho(cfg):
    """The step weights as closed forms, an independent reference for fedsim.step_weights."""
    m = cfg.epochs
    taus = np.arange(1, m + 1)
    if cfg.lam:
        # a proximal pull shrinks step tau's displacement by q = 1 - lambda eta
        # at each later step (Li et al. 2020)
        return (1.0 - cfg.lam * cfg.eta) ** (m - taus)
    # momentum's geometric tail sums (Sutskever et al. 2013):
    # (1 - gamma^(m + 1 - tau)) / (1 - gamma) for sgdm, one more power for nag
    extra = 2 if cfg.optimizer == "nag" else 1
    return (1.0 - cfg.gamma ** (m + extra - taus)) / (1.0 - cfg.gamma)


STEP_RECIPES = (
    [("fedavg", "sgd", 0.0, 0.0), ("scaffold", "sgd", 0.0, 0.0)]
    + [("fedavg", optimizer, 0.0, gamma) for optimizer in ("sgdm", "nag") for gamma in (0.0, 0.5, 0.9)]
    + [(scheme, "sgd", lam, 0.0) for scheme in ("fedprox", "feddyn", "feddc") for lam in (1.0, 25.0)]
)
STEP_CASES = [
    pytest.param(scheme, optimizer, lam, gamma, eta, m,
                 id=f"{scheme}-{optimizer}-{'lam' if lam else 'gamma'}{lam or gamma}-eta{eta}-m{m}")
    for scheme, optimizer, lam, gamma in STEP_RECIPES
    for eta in (0.01, 0.05, 0.1)
    for m in (1, 2, 5, 10, 20)
    if lam * eta < 1.0
]


@pytest.mark.parametrize("scheme, optimizer, lam, gamma, eta, m", STEP_CASES)
def test_step_weights_match_closed_forms(scheme, optimizer, lam, gamma, eta, m):
    cfg = SchemeConfig(scheme=scheme, optimizer=optimizer, eta=eta, lam=lam, gamma=gamma, epochs=m, batch_size=8)
    rho = fedsim.step_weights(cfg)
    if not lam and not gamma:
        assert rho.tobytes() == np.ones(m).tobytes()
    npt.assert_allclose(rho, _closed_form_rho(cfg), rtol=1e-14, atol=0)
    assert not rho.flags.writeable
    assert fedsim.step_weights(cfg) is rho
    assert scheme_coefficients(cfg, 1, fresh_history()[0]).rho is rho


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


SCHEME_RECIPES = {
    "scaffold": SchemeConfig(scheme="scaffold", eta=0.05, epochs=3, batch_size=16),
    "feddyn": SchemeConfig(scheme="feddyn", eta=0.05, lam=1.0, epochs=3, batch_size=16),
    "feddc": SchemeConfig(scheme="feddc", eta=0.05, lam=1.0, epochs=3, batch_size=16),
}


@pytest.mark.parametrize("scheme", sorted(SCHEME_RECIPES))
def test_coefficients_offset_is_the_full_drifts_output_bias_bit_for_bit(scheme):
    # h reads only the output bias of round_correction's drift, formed from
    # the output biases of the record alone
    cfg = SCHEME_RECIPES[scheme]
    data, aux, partition, model = blob_world(6, clients=4)
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    for t in (1, 2, 3):
        for history in histories:
            h = scheme_coefficients(cfg, t, history).h
            drift = fedsim.round_correction(cfg, history)
            if drift is None:
                assert t == 1 and h is None
                continue
            expected = cfg.eta * fedsim.step_weights(cfg).sum() * drift.biases[-1]
            assert h.tobytes() == expected.tobytes()
        model, _, _, _, histories = run_round(model, data, partition, cfg, histories, t, seed=6)


def test_coefficients_reject_a_record_without_the_fields_they_read():
    data, aux, partition, model = blob_world(6, clients=4)
    fedavg = fedavg_cfg(eta=0.05, epochs=3, batch_size=16)
    histories = [UpdateHistory.fresh(model) for _ in range(partition.n_clients)]
    histories = run_round(model, data, partition, fedavg, histories, 1, seed=6)[4]
    with pytest.raises(ValueError, match="scaffold reads client_variate, which this client record does not keep"):
        scheme_coefficients(SCHEME_RECIPES["scaffold"], 2, histories[0])


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


@pytest.mark.parametrize("rho", [[0.0], [0.5, -0.5], [-1.0]])
def test_make_target_rejects_a_rho_sum_of_zero_or_less(rho):
    _, model = fresh_history()
    coeffs = SchemeCoefficients(np.array(rho))
    with pytest.raises(ValueError, match="sum of rho must be positive"):
        make_target(snap_update(model, np.zeros(4)), coeffs, fedavg_cfg(epochs=len(rho)))


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


# ---------------------------------------------------------------- solver

def test_solver_identity_feasible_target():
    z, info = solve_simplex_ls(np.eye(3), np.array([0.2, 0.3, 0.5]))
    npt.assert_allclose(z, [0.2, 0.3, 0.5], atol=1e-8)
    assert info["objective"] <= 1e-12


@pytest.mark.parametrize(
    "u, message",
    [([0.5, 0.5], "u must match A"), ([0.5, np.nan, 0.5], "non-finite target"), ([np.inf, 0.0, 0.0], "non-finite target")],
    ids=["wrong_length", "nan", "inf"],
)
def test_solver_rejects_a_bad_target(u, message):
    with pytest.raises(ValueError, match=message):
        solve_simplex_ls(np.eye(3), np.array(u))


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


def one_use_case(kind, n, rng):
    """A confusion system A and target u, with A's columns 1 and 2 zeroed, column 0 copied to 1, or A zeroed."""
    a, u = random_confusion_system(rng, n)
    if kind == "zero_columns":
        a[:, 1:3] = 0.0
    elif kind == "duplicate_columns":
        a[:, 1] = a[:, 0]
    elif kind == "zero":
        a = np.zeros((n, n))
    return a, u


@pytest.mark.parametrize("n", [3, 10, 100])
@pytest.mark.parametrize("kind", ["confusion", "zero_columns", "zero"])
def test_one_use_solve_matches_the_prebuilt_system_solve(kind, n):
    # a matrix is solved without the KKT inverse that a prebuilt system
    # keeps for its warm start; both take the same steps to the same point,
    # also where zero columns (saturated classes) make the KKT matrix singular
    rng = np.random.default_rng(80 + n)
    for _ in range(20 if n < 100 else 5):
        a, u = one_use_case(kind, n, rng)
        z, info = solve_simplex_ls(a, u)
        z_shared, info_shared = solve_simplex_ls(simplex_system(a), u)
        npt.assert_array_equal(z > 0.0, z_shared > 0.0)
        assert info["iterations"] == info_shared["iterations"]
        assert info["converged"] and info_shared["converged"]
        npt.assert_allclose(z, z_shared, rtol=0.0, atol=1e-12)
        if kind == "zero":
            npt.assert_array_equal(z, np.full(n, 1.0 / n))
            assert info["iterations"] == 0


@pytest.mark.parametrize("n", [3, 10, 100])
def test_one_use_solve_on_duplicate_columns_reaches_the_same_optimum(n):
    # with two equal nonzero columns every split of z_0 + z_1 is optimal.
    # The prebuilt system's inverse sees the singular KKT matrix and starts
    # from the least-squares point; one LU solve of a right-hand side in its
    # range does not see it, so the two may return other splits
    rng = np.random.default_rng(80 + n)
    for _ in range(20 if n < 100 else 5):
        a, u = one_use_case("duplicate_columns", n, rng)
        z, info = solve_simplex_ls(a, u)
        z_shared, info_shared = solve_simplex_ls(simplex_system(a), u)
        assert info["converged"] and info_shared["converged"]
        merged, merged_shared = np.r_[z[0] + z[1], z[2:]], np.r_[z_shared[0] + z_shared[1], z_shared[2:]]
        npt.assert_allclose(merged, merged_shared, rtol=0.0, atol=1e-12)
        npt.assert_allclose(info["objective"], info_shared["objective"], rtol=1e-9, atol=1e-20)


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


def test_round_counts_names_z_and_the_total_when_the_scaled_sum_is_off():
    # on the simplex within its 1e-6 tolerance, yet 1.5 units off the total
    z = np.array([0.5, 0.5 + 5e-7])
    with pytest.raises(ValueError) as err:
        round_counts(z, 3_000_000)
    message = str(err.value)
    assert message.startswith(f"z sums to {float(z.sum())!r}; times total 3000000 that is 3000001.5")
    assert "np." not in message
    # a scaled sum less than a unit off rounds as before
    assert round_counts(np.array([0.5, 0.5 + 1e-7]), 3_000_000).tolist() == [1_500_000, 1_500_000]


def lexsort_apportion(values, total):
    """The rounding step as it was before the stable argsort: a lexsort of the fractions."""
    base = np.floor(values).astype(np.int64)
    leftover = int(total - base.sum())
    order = np.lexsort((np.arange(values.size), -(values - base)))
    base[order[:leftover]] += 1
    return base


def lexsort_largest_remainder(values, total):
    """largest_remainder as it was before the stable argsort: checks, then lexsort_apportion."""
    values = np.asarray(values, dtype=np.float64)
    if total < 0:
        raise ValueError("total must be non-negative")
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a non-empty 1-D array")
    if (values < -1e-9).any():
        raise ValueError("values must be non-negative")
    values = np.maximum(values, 0.0)
    if not abs(values.sum() - total) < 1.0:
        raise ValueError(f"values sum to {float(values.sum())!r}, not within one unit of total {total}")
    return lexsort_apportion(values, total)


def lexsort_round_counts(z, total):
    """round_counts with the lexsort rounding: its own checks, then lexsort_largest_remainder's or its own sum check."""
    z = np.asarray(z, dtype=np.float64)
    if not np.isfinite(z).all() or (z < -1e-9).any():
        raise ValueError("z must be finite and non-negative")
    if abs(z.sum() - 1.0) > 1e-6:
        raise ValueError("z must lie on the probability simplex")
    values = np.maximum(z, 0.0) * total
    if total < 0 or z.ndim != 1:
        return lexsort_largest_remainder(values, total)
    if not abs(values.sum() - total) < 1.0:
        raise ValueError(
            f"z sums to {float(z.sum())!r}; times total {total} that is {float(values.sum())!r}, "
            "not within one unit of the total"
        )
    return lexsort_apportion(values, total)


def outcome(fn, *args):
    """fn's counts as a list, or its error's type and message."""
    try:
        return fn(*args).tolist()
    except ValueError as exc:
        return type(exc), str(exc)


def rounding_cases():
    """(z, total) pairs: random, tied and boundary points, valid and not."""
    rng = np.random.default_rng(33)
    cases = []
    for _ in range(300):
        n = int(rng.integers(1, 12))
        z = rng.dirichlet(np.full(n, rng.choice([0.05, 0.5, 5.0])))
        cases.append((z, int(rng.integers(0, 2000))))
    # ties: equal fractions everywhere, or in pairs
    for n in (1, 2, 3, 7, 10):
        cases += [(np.ones(n) / n, total) for total in (0, 1, n - 1, n + 1, 32, 320)]
    cases += [(np.array([0.125, 0.375, 0.125, 0.375]), total) for total in (1, 2, 3, 5, 7)]
    cases += [
        (np.array([0.5, 0.5]), 33),  # two halves: the lower index takes the unit
        (np.array([0.1, 0.2, 0.3, 0.4]), 10),  # exact-looking products with rounding in the fractions
        (np.array([1.0, 0.0, 0.0]), 7),  # whole counts, no leftover
        (np.array([0.5, 0.5, 0.0]) + np.array([0.0, 0.0, -1e-9]), 9),  # a slightly negative entry, at the bound
        (np.array([0.6, 0.4 + 1e-6]), 5),  # off the simplex by the tolerance
        (np.array([0.6, 0.4 + 2e-6]), 5),  # and beyond it
        (np.array([0.5, 0.5 + 5e-7]), 3_000_000),  # on the simplex, but more than a unit off the total
        (np.array([0.25, 0.75]), 0),
        (np.array([0.5, 0.5]), -1),  # negative total
        (np.array([[0.5, 0.5]]), 4),  # 2-D, on the simplex
        (np.array(1.0), 4),  # 0-d
        (np.array([]), 4),  # empty
        (np.array([0.5, np.nan, 0.5]), 4),
        (np.array([np.inf, 0.0]), 4),
        (np.array([1.5, -0.5]), 4),
        (np.array([0.5, 0.5 - 2e-9, 2e-9]), 4),
        (np.array([1.0 + 1e-8, -1e-8]), 4),  # negative beyond the tolerance
        (np.array([-0.0, 1.0]), 3),
        (np.array([0.5, 0.5]), -1.0),
    ]
    return cases


def test_round_counts_equals_the_lexsort_form():
    for z, total in rounding_cases():
        assert outcome(round_counts, z, total) == outcome(lexsort_round_counts, z, total), (z, total)


def test_largest_remainder_equals_the_lexsort_form():
    rng = np.random.default_rng(34)
    cases = [(z * total, total) for z, total in rounding_cases()]
    cases += [(z * total + rng.uniform(-0.6, 0.6), total) for z, total in rounding_cases()[:100]]
    cases += [
        (np.array([2.4, 2.5]), 4),
        (np.array([3.0, 2.0]), 4),
        (np.array([0.3, -2e-9]), 0),
        (np.array([0.3, -2e-9]), -1),  # two faults: the total is named first
        (np.array([[0.3]]), -1),
        (np.array([5e15 + 0.5, 5e15 + 0.5]), 10**16 + 1),
    ]
    for values, total in cases:
        assert outcome(largest_remainder, values, total) == outcome(lexsort_largest_remainder, values, total), (
            values, total,
        )


# --------------------------------------------------------- posterior search

def noisy_logits(n, rows, seed=0):
    """Per-class logit blocks scattered around zero."""
    rng = np.random.default_rng(seed)
    return tuple(0.3 * rng.standard_normal((rows, n)) for _ in range(n))


def test_posterior_search_zero_iterations_passthrough():
    # search_iters = 0 returns the crude counts even for a one-batch shard
    data, aux, partition, model = full_batch_world(3)
    cfg = fedavg_cfg(eta=0.01, epochs=4, batch_size=32)
    _, updates, _, _, histories, _ = one_round(data, partition, model, cfg, seed=3)
    report = rlu_attack(prepare_round(model, aux, AttackParams(search_iters=0)), updates[0], cfg, histories[0])
    assert report.method == "crude_multi_epoch"
    assert [int(c) for c in report.counts] == report.diagnostics["crude_counts"]
    refined = posterior_search(np.array([13, 9, 6, 4]), fedavg_cfg(eta=0.01, epochs=4, batch_size=8))
    # 32 total over 4 epochs: per-epoch counts repaired to sum 8, times 4
    assert refined.sum() == 32
    npt.assert_array_equal(refined % 4, np.zeros(4))


def test_posterior_search_validates_sum():
    cfg = fedavg_cfg(eta=0.01, epochs=4, batch_size=8)
    with pytest.raises(ValueError):
        posterior_search(np.array([5, 5, 5, 5]), cfg)


def test_posterior_search_fixed_point_on_full_batch_run():
    data, aux, partition, model = full_batch_world(3)
    cfg = fedavg_cfg(eta=0.01, epochs=10, batch_size=32)
    _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=3)
    context = prepare_round(model, aux, AttackParams())
    report = rlu_attack(context, updates[0], cfg, histories[0])
    crude = np.array(report.diagnostics["crude_counts"])
    # rounding the crude answer onto multiples of m gives the true counts
    per_epoch = np.array(truths[0]) // 10
    npt.assert_array_equal(report.counts, per_epoch * 10)
    npt.assert_array_equal(report.counts, largest_remainder(crude / 10, 32) * 10)
    assert report.method == "posterior_search"
    assert iacc(report.counts, truths[0], 10, 32) >= iacc(crude, truths[0], 10, 32)


def one_batch_rounding(crude, m, batch):
    """m times the largest-remainder split of crude / m into batch units, in plain Python."""
    shares = [c / m for c in crude]
    g = [math.floor(s) for s in shares]
    by_remainder = sorted(range(len(g)), key=lambda n: (-(shares[n] - g[n]), n))
    for n in by_remainder[: batch - sum(g)]:
        g[n] += 1
    return [m * x for x in g]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_posterior_search_matches_plain_rounding_reference(seed):
    rng = np.random.default_rng(100 + seed)
    m, batch = int(rng.integers(2, 21)), int(rng.integers(4, 65))
    cfg = fedavg_cfg(eta=0.5, epochs=m, batch_size=batch)
    crude = rng.multinomial(m * batch, rng.dirichlet(np.ones(6)))
    counts = posterior_search(crude, cfg)
    assert counts.tolist() == one_batch_rounding(crude.tolist(), m, batch)
    assert counts.sum() == m * batch
    # each class moves by less than one epoch's unit
    assert (np.abs(counts - crude) < m).all()


def grouped(blocks):
    """Per-class logit blocks as one class-grouped array and its bounds, the form class_logits returns."""
    return np.concatenate(blocks), np.cumsum([0, *map(len, blocks)])


def uneven_logits(n, seed):
    """Per-class logit blocks of uneven sizes; class 1 has a single row."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 40, size=n)
    sizes[1] = 1
    return tuple(rng.standard_normal((k, n)) for k in sizes)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plugin_confusion_matches_per_block_reference(seed):
    blocks = uneven_logits(6, seed)
    confusion = plugin_confusion(*grouped(blocks))
    expected_s = np.array([mean_softmax(rows) for rows in blocks])
    np.fill_diagonal(expected_s, 0.0)
    assert np.array_equal(confusion.s, expected_s)
    for n, rows in enumerate(blocks):
        probs = softmax_rows(rows)
        se = probs.std(axis=0, ddof=1 if len(rows) > 1 else 0) / np.sqrt(len(rows))
        se[n] = 0.0
        assert confusion.se[n] == pytest.approx(se, rel=1e-12, abs=0.0)


def slice_path_confusion(logits, bounds):
    """plugin_confusion's s and se from one mean per class slice and a repeated-mean centring."""
    probs = softmax_rows(logits)
    s = np.array([probs[lo:hi].mean(axis=0) for lo, hi in zip(bounds[:-1], bounds[1:])])
    counts = np.diff(bounds)
    centered = probs - np.repeat(s, counts, axis=0)
    sq_sums = np.add.reduceat(centered * centered, bounds[:-1], axis=0)
    se = np.sqrt(sq_sums / np.maximum(counts - 1, 1)[:, None]) / np.sqrt(counts)[:, None]
    np.fill_diagonal(s, 0.0)
    np.fill_diagonal(se, 0.0)
    return s, se


def test_plugin_confusion_equal_counts_match_the_slice_path_bit_for_bit():
    rng = np.random.default_rng(41)
    for case in range(120):
        n = int(rng.integers(2, 40))
        count = 1 if case % 10 == 0 else int(rng.integers(1, 300))
        logits = rng.standard_normal((n * count, n)) * rng.choice([0.5, 3.0, 8.0])
        bounds = np.arange(n + 1) * count
        with np.errstate(all="raise"):
            confusion = plugin_confusion(logits, bounds)
            s, se = slice_path_confusion(logits, bounds)
        assert confusion.s.tobytes() == s.tobytes(), (n, count)
        assert confusion.se.tobytes() == se.tobytes(), (n, count)
        if count == 1:
            assert not confusion.se.any()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plugin_confusion_unequal_counts_match_the_slice_path_bit_for_bit(seed):
    logits, bounds = grouped(uneven_logits(6, seed))
    with np.errstate(all="raise"):
        confusion = plugin_confusion(logits, bounds)
    s, se = slice_path_confusion(logits, bounds)
    assert confusion.s.tobytes() == s.tobytes()
    assert confusion.se.tobytes() == se.tobytes()


def test_plugin_confusion_rejects_a_class_without_rows():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((4, 3)), rng.standard_normal((2, 3))
    with pytest.raises(ValueError, match="class 1 has no logit rows"):
        plugin_confusion(*grouped((a, np.zeros((0, 3)), b)))
    with pytest.raises(ValueError, match="class 1 has no logit rows"):
        plugin_confusion(rng.standard_normal((6, 3)), [0, 3, 3, 6])
    with pytest.raises(ValueError, match="class 0 has no logit rows"):
        plugin_confusion(*grouped((np.zeros((0, 2)), a[:, :2])))


@pytest.mark.parametrize("n, count", [(5, 3), (10, 100), (20, 50)])
def test_plugin_confusion_f_ordered_logits_give_the_slice_path_bits(n, count):
    # F-ordered logits give F-ordered probabilities. Splitting their row
    # axis is a view as well, so they take the (classes, count, N) view
    # like C-ordered ones, and still give the bits of one mean per class
    # slice. Where numpy sums both layouts in one order (few classes, few
    # rows) the bits are the C-ordered logits' own; elsewhere only the
    # rounding differs.
    logits = np.random.default_rng(8).standard_normal((n * count, n)) * 3.0
    bounds = np.arange(n + 1) * count
    fortran = np.asfortranarray(logits)
    assert not softmax_rows(fortran).flags.c_contiguous
    with np.errstate(all="raise"):
        c_ordered, f_ordered = plugin_confusion(logits, bounds), plugin_confusion(fortran, bounds)
        s, se = slice_path_confusion(fortran, bounds)
    assert f_ordered.s.tobytes() == s.tobytes()
    assert f_ordered.se.tobytes() == se.tobytes()
    if n * count <= 15:
        assert f_ordered.s.tobytes() == c_ordered.s.tobytes()
        assert f_ordered.se.tobytes() == c_ordered.se.tobytes()
    npt.assert_allclose(f_ordered.s, c_ordered.s, rtol=1e-13, atol=1e-17)
    npt.assert_allclose(f_ordered.se, c_ordered.se, rtol=1e-12, atol=1e-17)


@pytest.mark.parametrize("bounds", [[0, 3, 5], [1, 3, 6], [0, 3, 7]], ids=["short", "late_start", "long"])
def test_plugin_confusion_bounds_must_cover_the_rows(bounds):
    with pytest.raises(ValueError, match="bounds must run from 0 to the 6 logit rows"):
        plugin_confusion(np.zeros((6, 2)), bounds)


def test_multi_epoch_attack_peaks_at_two_activations():
    """One m > 1 attack holds at most the local model's two widest activations, plus 16 KiB.

    The 1000 auxiliary rows go through a 16-32-16-10 model: 1000 x 32 and
    1000 x 16 float64 activations. A third 1000 x 32 array, as from an
    activation that is not applied in place, goes over.
    """
    data, aux, partition, model = blob_world(0)
    assert len(aux.labels) == 1000 and model.layer_sizes == [16, 32, 16, 10]
    cfg = fedavg_cfg(eta=0.05, epochs=3, batch_size=16)
    _, updates, _, _, histories, _ = one_round(data, partition, model, cfg, seed=0)
    context = prepare_round(model, aux, AttackParams())
    k = next(k for k, update in enumerate(updates) if update.delta.max_abs() > 0)
    rlu_attack(context, updates[k], cfg, histories[k])
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        report = rlu_attack(context, updates[k], cfg, histories[k])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.method == "crude_multi_epoch"
    rows = len(aux.labels)
    assert peak - start <= rows * (32 + 16) * 8 + 16 * 1024


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

    partition = Partition([np.arange(64)])
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
    cfg = fedavg_cfg(eta=0.01, epochs=1, batch_size=32)
    history = UpdateHistory.fresh(model)
    zero = LocalUpdate(zeros_like_params(model), 1, 0, 32, np.zeros((1, 10)))
    # the check comes before the context is read, so it holds without one
    with pytest.raises(DegenerateUpdateError):
        rlu_attack(None, zero, cfg, history)
    context = prepare_round(model, aux, AttackParams())
    with pytest.raises(DegenerateUpdateError):
        rlu_attack(context, zero, cfg, history)
    nonzero = LocalUpdate(zeros_like_params(model), 1, 0, 32, np.zeros((1, 10)))
    nonzero.delta.biases[-1][0] = 1e-3
    assert rlu_attack(context, nonzero, cfg, history).counts.sum() == 32


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


def test_rlu_multi_epoch_local_model_overflow_raises_the_constructor_error(monkeypatch):
    # global + delta overflows while both are finite: the local model of an
    # m > 1 update raises Model's "non-finite parameters", as it always has,
    # and only a finite sum of the two peaks skips that model's scan
    model = init_model([4, 8, 3], "relu", seed=6)
    weights = [w.copy() for w in model.weights]
    weights[0][0, 0] = 1e308
    model = Model(weights, model.biases, "relu")
    blobs = make_synthetic(3, 4, 20, 2.0, seed=6)
    features = blobs.features.copy()
    features[:, :2] = 0.0  # keeps the huge first-layer weights out of every forward pass
    context = prepare_round(model, Dataset(features, blobs.labels, 3), AttackParams())
    cfg = fedavg_cfg(eta=0.01, epochs=2, batch_size=8)
    history = UpdateHistory.fresh(model)
    scans = []
    real_check = Model._check
    monkeypatch.setattr(Model, "_check", lambda self, scan: scans.append(scan) or real_check(self, scan))

    def attack(row, col, value):
        delta = zeros_like_params(model)
        delta.weights[0][row, col] = value
        scans.clear()
        return rlu_attack(context, LocalUpdate(delta, 1, 0, 16), cfg, history)

    with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"^layer 0: non-finite parameters$"):
        attack(0, 0, 1e308)
    assert scans == [True]
    # the peaks' sum overflows but no entry does: scanned, and no error
    assert attack(1, 1, 1e308).counts.sum() == 16
    assert scans == [True]
    # a finite sum of the peaks: built without the scan
    assert attack(0, 0, -5e307).counts.sum() == 16
    assert scans == [False]


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


def test_report_json_layout():
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
    assert json.loads(text)["counts"] == [16, 16]


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
        assert "search_l1_from_crude" not in report.diagnostics


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


def test_default_attack_not_worse_than_its_crude_counts_on_one_batch_shards():
    # every epoch of a one-batch shard sees the same labels, so the default
    # answer is the crude counts rounded onto multiples of m
    m, batch = 20, 32
    crude_scores, scores = [], []
    for seed in range(10):
        data, aux, partition, model = full_batch_world(seed, shard_size=batch, clients=3)
        cfg = fedavg_cfg(eta=0.1, epochs=m, batch_size=batch)
        _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=seed)
        context = prepare_round(model, aux, AttackParams())
        for k, update in enumerate(updates):
            report = rlu_attack(context, update, cfg, histories[k])
            assert report.method == "posterior_search"
            crude = np.array(report.diagnostics["crude_counts"])
            npt.assert_array_equal(report.counts, largest_remainder(crude / m, batch) * m)
            crude_scores.append(iacc(crude, truths[k], m, batch))
            scores.append(iacc(report.counts, truths[k], m, batch))
    assert len(scores) == 30
    assert np.mean(scores) >= np.mean(crude_scores)


BASE_DIAGNOSTICS = {"confusion_se", "solver_iterations", "solver_converged"}


@pytest.mark.parametrize(
    "epochs, search_iters, method, extra",
    [
        (1, 5, "single_epoch", set()),
        (3, 0, "crude_multi_epoch", {"crude_counts"}),
        (3, 5, "posterior_search", {"crude_counts", "search_l1_from_crude"}),
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
    context = prepare_round(model, aux, AttackParams())
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
    aux_logits, bounds = class_logits(model, aux)
    assert not aux_logits.flags.writeable
    for n in range(5):
        rows = logits[aux.labels == n]
        probs = np.exp(rows - rows.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        for j in range(5):
            expected = 0.0 if j == n else probs[:, j].mean()
            assert context.s_first.s[n, j] == pytest.approx(expected, rel=1e-12, abs=1e-15)
        npt.assert_array_equal(aux_logits[bounds[n]:bounds[n + 1]], rows)
    # the context keeps the matrix, the class-ordered aux rows, the
    # matrix's prebuilt solve and two round constants, not the logits they
    # came from
    assert [f.name for f in fields(RoundContext)] == [
        "global_model", "params", "s_first", "aux_features", "aux_bounds", "system", "confusion_se", "global_peak",
    ]
    assert context.confusion_se == float(context.s_first.se.max())
    assert context.global_peak == max(abs(arr).max() for arr in model.weights + model.biases)


def context_arrays(context):
    """Every array a RoundContext holds, by name."""
    system = context.system
    return {
        "s_first.s": context.s_first.s,
        "s_first.se": context.s_first.se,
        "aux_features": context.aux_features,
        "aux_bounds": context.aux_bounds,
        "system.a": system.a,
        "system.gram": system.gram,
        "system.kkt": system.kkt,
        "system.warm": system.warm,
    }


def check_round_context_unchanged_by_attacks(epochs, method):
    """Attack every trained update of one round; every context array stays read-only and unchanged."""
    data, aux, partition, model = full_batch_world(3, shard_size=16, clients=4)
    cfg = fedavg_cfg(eta=0.01, epochs=epochs, batch_size=16)
    _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=3)
    params = AttackParams(search_iters=3)
    context = prepare_round(model, aux, params)
    assert context.s_first.s.shape == (10, 10)
    shared = context_arrays(context)
    # context_arrays names every array the context and its parts hold
    held = [v for part in (context, context.s_first, context.system) for v in vars(part).values()]
    assert sorted(id(v) for v in held if isinstance(v, np.ndarray)) == sorted(map(id, shared.values()))
    before = {name: arr.copy() for name, arr in shared.items()}
    attacked = 0
    for k, update in enumerate(updates):
        if truths[k] is None:
            continue
        report = rlu_attack(context, update, cfg, histories[k])
        assert report.method == method
        attacked += 1
        for name, arr in shared.items():
            npt.assert_array_equal(arr, before[name], err_msg=name)
            assert not arr.flags.writeable, name
    assert attacked >= 2
    return model, aux, context


def test_round_context_unchanged_by_single_epoch_attacks():
    check_round_context_unchanged_by_attacks(1, "single_epoch")


def test_round_context_unchanged_by_multi_epoch_attacks():
    model, aux, context = check_round_context_unchanged_by_attacks(3, "posterior_search")
    # the global-model matrix is the one plugin_confusion gives on the logits
    again = plugin_confusion(*class_logits(model, aux))
    assert np.array_equal(again.s, context.s_first.s)
    assert np.array_equal(again.se, context.s_first.se)


@pytest.mark.parametrize("epochs", [1, 3])
def test_shuffled_auxiliary_set_gives_the_class_ordered_counts(epochs):
    data, aux, partition, model = blob_world(5, clients=6)
    cfg = fedavg_cfg(eta=0.01, epochs=epochs, batch_size=16)
    _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=5)
    perm = np.random.default_rng(5).permutation(len(aux))
    shuffled = Dataset(aux.features[perm], aux.labels[perm], aux.n_classes)
    ordered = prepare_round(model, aux, AttackParams())
    mixed = prepare_round(model, shuffled, AttackParams())
    # make_synthetic's set is already grouped by class, so it is not copied
    assert np.shares_memory(ordered.aux_features, aux.features)
    assert not np.shares_memory(mixed.aux_features, shuffled.features)
    npt.assert_array_equal(mixed.aux_bounds, ordered.aux_bounds)
    npt.assert_allclose(mixed.s_first.s, ordered.s_first.s, rtol=0.0, atol=1e-15)
    attacked = 0
    for k, update in enumerate(updates):
        if truths[k] is None:
            continue
        expected = rlu_attack(ordered, update, cfg, histories[k])
        npt.assert_array_equal(rlu_attack(mixed, update, cfg, histories[k]).counts, expected.counts)
        attacked += 1
    assert attacked >= 3
    # each class's rows keep their order in the set
    logits = forward_batch(model, shuffled.features)[0]
    grouped_logits, bounds = class_logits(model, shuffled)
    npt.assert_array_equal(bounds, mixed.aux_bounds)
    for n, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        npt.assert_allclose(grouped_logits[lo:hi], logits[shuffled.labels == n], rtol=1e-13, atol=0.0)


def test_auxiliary_set_must_have_the_models_classes():
    # a 12-class set under a 10-class model used to lose its last two
    # classes' rows without a word
    _, _, _, model = blob_world(6)
    wide = make_synthetic(12, 16, 50, 4.0, seed=6)
    for build in (lambda: prepare_round(model, wide, AttackParams()), lambda: class_logits(model, wide)):
        with pytest.raises(ValueError, match=r"^auxiliary set has 12 classes, the model 10$"):
            build()
    # the class-ordered features are a read-only view; the caller's array stays writable
    _, aux, _, _ = blob_world(6)
    context = prepare_round(model, aux, AttackParams())
    assert np.shares_memory(context.aux_features, aux.features)
    assert not context.aux_features.flags.writeable and aux.features.flags.writeable


def assert_same_solve(report, standalone, total):
    """A single-epoch report against a standalone solve: counts, KKT solves, objective."""
    z, info = standalone
    npt.assert_array_equal(report.counts, round_counts(z, total))
    assert report.diagnostics["solver_iterations"] == info["iterations"]
    worst = max(report.residual, info["objective"])
    if worst > 1e-20:
        assert abs(report.residual - info["objective"]) <= 1e-9 * worst


def test_round_shared_solve_matches_the_standalone_solve_on_single_epoch_worlds():
    # the criterion-06 worlds: the update solved against the round's
    # prebuilt system gives what solving build_system(s_first) afresh gives
    compared = 0
    cfg = fedavg_cfg(eta=0.01, epochs=1, batch_size=32)
    for seed in range(20):
        data, aux, partition, model = blob_world(seed)
        _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=seed)
        context = prepare_round(model, aux, AttackParams())
        a = build_system(context.s_first)
        for k, update in enumerate(updates):
            if truths[k] is None:
                continue
            report = rlu_attack(context, update, cfg, histories[k])
            u = make_target(update, scheme_coefficients(cfg, 1, histories[k]), cfg)
            assert_same_solve(report, solve_simplex_ls(a, u), 32)
            compared += 1
    assert compared == 196


def saturated_world(saturated, n=4):
    """Identity model and aux set whose classes in `saturated` are never confused.

    A saturated class's logits put 1000 on its own class, so its softmax
    rows are exactly one-hot and its confusion row is exactly zero.
    """
    rng = np.random.default_rng(8)
    features, labels = [], []
    for cls in range(n):
        rows = rng.random((6, n))
        if cls in saturated:
            rows[:, cls] += 1000.0
        features.append(rows)
        labels += [cls] * 6
    return identity_model(n), Dataset(np.vstack(features), np.array(labels), n)


@pytest.mark.parametrize("saturated", [(1, 2), (0, 1, 2, 3)], ids=["two_identical_rows", "all_zero"])
def test_round_shared_solve_on_a_singular_system(saturated):
    model, aux = saturated_world(saturated)
    context = prepare_round(model, aux, AttackParams())
    s = context.s_first.s
    npt.assert_array_equal(s[list(saturated)], 0.0)
    system = context.system
    if len(saturated) == 4:
        # A = 0: every point is optimal, and the solve returns the uniform one
        assert system.warm is None
    else:
        # A e_1 = A e_2 = 0, so the KKT matrix is singular
        assert np.linalg.matrix_rank(system.kkt) < 5
    rng = np.random.default_rng(9)
    cfg = fedavg_cfg(eta=0.1, epochs=1, batch_size=8)
    for _ in range(20):
        delta = zeros_like_params(model)
        delta.biases[-1][:] = rng.normal(size=4) * 0.1
        update = LocalUpdate(delta, 1, 0, 8, np.zeros((1, 4)))
        report = rlu_attack(context, update, cfg, UpdateHistory.fresh(model))
        u = make_target(update, scheme_coefficients(cfg, 1, UpdateHistory.fresh(model)), cfg)
        assert_same_solve(report, solve_simplex_ls(build_system(context.s_first), u), 8)
        assert report.diagnostics["solver_converged"]
        if system.warm is None:
            npt.assert_array_equal(report.z_star, np.full(4, 0.25))
            assert report.diagnostics["solver_iterations"] == 0
            continue
        # the warm start is _kkt_solve's least-squares point on every class
        rhs = np.append(system.a.T @ u, 1.0)
        limit = _KKT_COND_LIMIT * abs(rhs).max() / abs(system.kkt).max()
        npt.assert_allclose(system.warm @ rhs, _kkt_solve(system.kkt, rhs, np.arange(5), limit), rtol=1e-9, atol=1e-12)


def test_multi_epoch_attack_forms_no_kkt_inverse(monkeypatch):
    # the round's shared system keeps its inverse for the single-epoch
    # updates; a multi-epoch update's own system is solved once, so its
    # warm start is a vector solve
    data, aux, partition, model = full_batch_world(3, shard_size=16, clients=4)
    cfg = fedavg_cfg(eta=0.01, epochs=3, batch_size=16)
    _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=3)
    context = prepare_round(model, aux, AttackParams())
    assert context.system.warm is not None
    shapes = []
    real = _kernels._kkt_solve

    def recording(kkt, rhs, rows, limit):
        shapes.append(rhs.shape)
        return real(kkt, rhs, rows, limit)

    monkeypatch.setattr(_kernels, "_kkt_solve", recording)
    attacked = 0
    for k, update in enumerate(updates):
        if truths[k] is None:
            continue
        rlu_attack(context, update, cfg, histories[k])
        attacked += 1
    assert attacked >= 2
    assert len(shapes) >= attacked and all(shape == (11,) for shape in shapes)


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
    context = prepare_round(model, aux, AttackParams())
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
    blocks = (np.array([[1.0, 0.0, -1.0]]), np.array([[0.0, 2.0, 0.5]]), np.array([[0.3, 0.1, 1.0]]))
    with np.errstate(all="raise"):
        confusion = plugin_confusion(*grouped(blocks))
    npt.assert_array_equal(confusion.se, np.zeros((3, 3)))
    probs = np.exp(blocks[0][0]) / np.exp(blocks[0][0]).sum()
    npt.assert_allclose(confusion.s[0], [0.0, probs[1], probs[2]], rtol=1e-14)


def test_plugin_confusion_rows_are_mean_softmax():
    blocks = noisy_logits(5, 40, seed=2)
    confusion = plugin_confusion(*grouped(blocks))
    for n, rows in enumerate(blocks):
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
