"""Acceptance gate: thirteen numbered criteria, one test and one printed line each.

Every test prints `[criterion NN] PASS ...` through capsys.disabled() so the
line is visible in plain pytest output; a failing criterion shows up as the
test's own failure instead.
"""
import csv
import json
import time

import numpy as np
import numpy.testing as npt

from fedleak.attack import (
    AttackParams,
    ConfusionMatrix,
    LogitMoments,
    build_system,
    estimate_moments,
    make_target,
    mc_confusion,
    prepare_round,
    rlu_attack,
    round_counts,
    scheme_coefficients,
    solve_simplex_ls,
)
from fedleak.cli import main
from fedleak.data import dirichlet_partition, make_synthetic
from fedleak.fedsim import SchemeConfig, UpdateHistory, run_round
from fedleak.metrics import cacc, iacc
from fedleak.nn import (
    ACTIVATIONS,
    accuracy,
    backward,
    cross_entropy,
    forward_batch,
    init_model,
    output_layer_gradient,
)

from _helpers import blob_world, fedavg_cfg, full_batch_world, one_round


def announce(capsys, num, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] PASS  {detail}")


# --------------------------------------------------------------- criterion 1

def fd_gradient(model, features, labels, step=1e-5):
    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]

    def loss_at(m):
        logits, _ = forward_batch(m, features)
        return cross_entropy(logits, labels)

    for layer in range(len(model.weights)):
        for idx in np.ndindex(model.weights[layer].shape):
            probe = model.copy()
            probe.weights[layer][idx] += step
            up = loss_at(probe)
            probe.weights[layer][idx] -= 2 * step
            grads_w[layer][idx] = (up - loss_at(probe)) / (2 * step)
        for idx in np.ndindex(model.biases[layer].shape):
            probe = model.copy()
            probe.biases[layer][idx] += step
            up = loss_at(probe)
            probe.biases[layer][idx] -= 2 * step
            grads_b[layer][idx] = (up - loss_at(probe)) / (2 * step)
    return grads_w, grads_b


def test_criterion_01_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    # seed chosen so no pre-activation sits within the FD step of an
    # activation kink, where central differences are themselves invalid
    rng = np.random.default_rng(3)
    features = rng.normal(size=(8, 16))
    labels = rng.integers(0, 10, size=8)
    worst = 0.0
    for activation in sorted(ACTIVATIONS):
        model = init_model([16, 32, 16, 10], activation, seed=3)
        _, grad = backward(model, features, labels)
        fd_w, fd_b = fd_gradient(model, features, labels, step=1e-5)
        for a, b in zip(grad.weights, fd_w):
            worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-8))))
        for a, b in zip(grad.biases, fd_b):
            worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-8))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-5
    assert elapsed < 10.0
    announce(capsys, 1, f"max rel err {worst:.2e} across {len(ACTIVATIONS)} activations in {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 2

def test_criterion_02_bias_gradient_zero_sum(capsys):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        logits = rng.normal(size=n) * 3.0
        grad = output_layer_gradient(logits, int(rng.integers(0, n)))
        worst = max(worst, abs(float(grad.sum())))
    assert worst <= 1e-12
    announce(capsys, 2, f"max |sum| {worst:.2e} over 1000 random logits")


# --------------------------------------------------------------- criterion 3

SCHEME_GRID = [
    ("fedavg", "sgd", 0.0, 0.0),
    ("fedavg", "sgdm", 0.0, 0.5),
    ("fedavg", "nag", 0.0, 0.5),
    ("scaffold", "sgd", 0.0, 0.0),
    ("fedprox", "sgd", 10.0, 0.0),
    ("feddyn", "sgd", 10.0, 0.0),
    ("feddc", "sgd", 10.0, 0.0),
]


def test_criterion_03_scheme_recombination_identity(capsys):
    start = time.perf_counter()
    data = make_synthetic(4, 6, 60, 3.0, seed=11)
    partition = dirichlet_partition(data, 2, 0.8, seed=11)
    model = init_model([6, 10, 4], "tanh", seed=11)
    worst = 0.0
    for scheme, optimizer, lam, gamma in SCHEME_GRID:
        cfg = SchemeConfig(scheme=scheme, optimizer=optimizer, eta=0.05, lam=lam,
                           gamma=gamma, epochs=3, batch_size=16)
        histories = [UpdateHistory.fresh(model) for _ in range(2)]
        current = model
        for t in (1, 2, 3):
            current, updates, _, _, new_histories = run_round(
                current, data, partition, cfg, histories, t, seed=11
            )
            for k, update in enumerate(updates):
                coeffs = scheme_coefficients(cfg, t, histories[k])
                rebuilt = -cfg.eta * (coeffs.rho @ update.debug_ce_bias_grads)
                if coeffs.h is not None:
                    rebuilt -= coeffs.h
                scale = max(float(np.abs(update.delta_b_out).max()), 1e-30)
                err = float(np.abs(update.delta_b_out - rebuilt).max()) / scale
                worst = max(worst, err)
            histories = new_histories
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 60.0
    announce(capsys, 3, f"max rel err {worst:.2e} over 7 schemes x 3 rounds in {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 4

def test_criterion_04_monte_carlo_confusion(capsys):
    n = 5
    uniform = mc_confusion(
        LogitMoments(np.zeros((n, n)), np.zeros((n, n, n))), np.random.default_rng(0).standard_normal((100, n))
    )
    off = uniform.s[~np.eye(n, dtype=bool)]
    npt.assert_allclose(off, 1.0 / n, atol=1e-15)

    sym = mc_confusion(
        LogitMoments(np.zeros((2, 2)), np.stack([np.eye(2), np.eye(2)])),
        np.random.default_rng(4).standard_normal((100000, 2)),
    )
    sym_err = abs(float(sym.s[0, 1]) - 0.5)
    assert sym_err <= 0.005

    _, aux, _, model = blob_world(0)
    s = mc_confusion(estimate_moments(model, aux), np.random.default_rng(1).standard_normal((10000, 10)))
    col_sum = float(s.s.sum() / (s.n_classes - 1))
    assert abs(col_sum - 1.0) <= 0.1
    announce(capsys, 4, f"uniform exact, symmetric off by {sym_err:.4f}, sum rule {col_sum:.3f}")


# --------------------------------------------------------------- criterion 5

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


def test_criterion_05_solver_against_brute_force(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    grid = simplex_grid(4, 0.02)
    worst_gap = -np.inf
    for _ in range(100):
        a = rng.normal(size=(4, 4))
        u = rng.normal(size=4)
        _, info = solve_simplex_ls(a, u)
        grid_best = float(((grid @ a.T - u) ** 2).sum(axis=1).min())
        worst_gap = max(worst_gap, info["objective"] - grid_best)
    assert worst_gap <= 1e-6

    worst_recovery = 0.0
    for _ in range(10):
        s = rng.random((6, 6)) * 0.3
        np.fill_diagonal(s, 0.0)
        a = build_system(ConfusionMatrix(s))
        z_true = rng.dirichlet(np.ones(6))
        z, _ = solve_simplex_ls(a, a @ z_true)
        worst_recovery = max(worst_recovery, float(np.abs(z - z_true).max()))
    elapsed = time.perf_counter() - start
    assert worst_recovery <= 1e-5
    assert elapsed < 30.0
    announce(capsys, 5, f"grid gap {worst_gap:.2e}, consistent L-inf {worst_recovery:.2e} in {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 6

def test_criterion_06_single_epoch_recovery(capsys):
    start = time.perf_counter()
    i_scores, c_scores = [], []
    for seed in range(20):
        data, aux, partition, model = blob_world(seed)
        cfg = fedavg_cfg(eta=0.01, epochs=1, batch_size=32)
        _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=seed)
        context = prepare_round(model, aux, AttackParams(), seed=1000 * seed)
        for k, update in enumerate(updates):
            if truths[k] is None:
                continue
            rep = rlu_attack(context, update, cfg, histories[k])
            i_scores.append(iacc(rep.counts, truths[k], 1, 32))
            c_scores.append(cacc(rep.counts, truths[k]))
    elapsed = time.perf_counter() - start
    mi, mc = float(np.mean(i_scores)), float(np.mean(c_scores))
    assert mi >= 0.95
    assert mc >= 0.95
    assert elapsed < 60.0
    announce(capsys, 6, f"mean iacc {mi:.4f}, mean cacc {mc:.4f}, {len(i_scores)} attacks in {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 7

def test_criterion_07_multi_epoch_recovery(capsys):
    start = time.perf_counter()
    crude_scores, refined_scores = [], []
    for seed in range(20):
        data, aux, partition, model = full_batch_world(seed)
        cfg = fedavg_cfg(eta=0.01, epochs=10, batch_size=32)
        _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=seed)
        rep = rlu_attack(prepare_round(model, aux, AttackParams(), seed=seed), updates[0], cfg, histories[0])
        crude = np.array(rep.diagnostics["crude_counts"])
        crude_scores.append(iacc(crude, truths[0], 10, 32))
        refined_scores.append(iacc(rep.counts, truths[0], 10, 32))
    elapsed = time.perf_counter() - start
    mcr, mrf = float(np.mean(crude_scores)), float(np.mean(refined_scores))
    assert mcr >= 0.70
    assert mrf >= mcr
    assert mrf >= 0.85
    assert elapsed < 600.0
    announce(capsys, 7, f"crude {mcr:.4f} -> refined {mrf:.4f} over 20 seeds in {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 8

def test_criterion_08_heterogeneity_robustness(capsys):
    cell_means = {}
    for alpha in (0.05, 0.5, 5.0):
        scores = []
        for seed in range(10):
            data, aux, partition, model = blob_world(seed, alpha=alpha)
            cfg = fedavg_cfg(eta=0.01, epochs=10, batch_size=32)
            _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=seed)
            context = prepare_round(model, aux, AttackParams(), seed=1000 * seed)
            for k, update in enumerate(updates):
                if truths[k] is None:
                    continue
                rep = rlu_attack(context, update, cfg, histories[k])
                scores.append(iacc(rep.counts, truths[k], 10, 32))
        cell_means[alpha] = float(np.mean(scores))
    spread = max(cell_means.values()) - min(cell_means.values())
    assert all(v >= 0.80 for v in cell_means.values()), cell_means
    assert spread <= 0.15
    cells = ", ".join(f"a={a}: {v:.4f}" for a, v in cell_means.items())
    announce(capsys, 8, f"{cells}; spread {spread:.4f}")


# --------------------------------------------------------------- criterion 9

def test_criterion_09_scheme_aware_beats_naive(capsys):
    cfg = SchemeConfig(scheme="fedprox", optimizer="sgd", eta=0.01, lam=25.0,
                       epochs=5, batch_size=32)
    naive_cfg = fedavg_cfg(eta=0.01, epochs=5, batch_size=32)
    aware_res, naive_res, aware_i, naive_i = [], [], [], []
    for seed in range(10):
        data, aux, partition, model = blob_world(seed, alpha=0.1)
        _, updates, truths, _, histories, _ = one_round(data, partition, model, cfg, seed=seed)
        # both attacks see the same global model, so they share its context
        context = prepare_round(model, aux, AttackParams(), seed=1000 * seed)
        for k, update in enumerate(updates):
            if truths[k] is None:
                continue
            aware = rlu_attack(context, update, cfg, histories[k])
            naive = rlu_attack(context, update, naive_cfg, histories[k])
            # score both candidates under one scheme-aware system built with
            # its own Monte Carlo stream, so the residuals are comparable
            moments_first = estimate_moments(model, aux)
            local = model.copy()
            local.params().add_(update.delta, 1.0)
            moments_last = estimate_moments(local, aux)
            s_f = mc_confusion(moments_first, np.random.default_rng(7000 + 17 * seed + k).standard_normal((10000, 10)))
            s_l = mc_confusion(moments_last, np.random.default_rng(8000 + 17 * seed + k).standard_normal((10000, 10)))
            a_sys = build_system(ConfusionMatrix(0.5 * (s_f.s + s_l.s)))
            u = make_target(update, scheme_coefficients(cfg, 1, histories[k]), cfg)
            aware_res.append(float(((a_sys @ aware.z_star - u) ** 2).sum()))
            naive_res.append(float(((a_sys @ naive.z_star - u) ** 2).sum()))
            aware_i.append(iacc(aware.counts, truths[k], 5, 32))
            naive_i.append(iacc(naive.counts, truths[k], 5, 32))
    m_ar, m_nr = float(np.mean(aware_res)), float(np.mean(naive_res))
    m_ai, m_ni = float(np.mean(aware_i)), float(np.mean(naive_i))
    assert m_ar < m_nr
    assert m_ai - m_ni >= 0.1
    announce(capsys, 9, f"residual {m_ar:.2e} vs {m_nr:.2e}; iacc {m_ai:.4f} vs {m_ni:.4f}")


# -------------------------------------------------------------- criterion 10

def train_to_threshold(model, data, eta, batch_size, seed, threshold=0.8, max_epochs=40):
    """Minibatch SGD that stops at the first batch reaching the accuracy bar."""
    trained = model.copy()
    rng = np.random.default_rng(seed)
    n = len(data.labels)
    for _ in range(max_epochs):
        order = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            idx = order[start:start + batch_size]
            _, grad = backward(trained, data.features[idx], data.labels[idx])
            trained.params().add_(grad, -eta)
            if accuracy(trained, data.features, data.labels) >= threshold:
                return trained
    return trained


def test_criterion_10_trained_model_trend(capsys):
    untrained_scores, trained_scores, baseline_scores, accs = [], [], [], []
    uniform = round_counts(np.ones(10) / 10, 32)
    for seed in range(20):
        data, aux, partition, model = blob_world(seed)
        cfg = fedavg_cfg(eta=0.01, epochs=1, batch_size=32)
        trained = train_to_threshold(model, data, eta=0.05, batch_size=8, seed=seed)
        accs.append(accuracy(trained, data.features, data.labels))
        for bucket, mdl in ((untrained_scores, model), (trained_scores, trained)):
            _, updates, truths, _, histories, _ = one_round(data, partition, mdl, cfg, seed=seed)
            context = prepare_round(mdl, aux, AttackParams(), seed=1000 * seed)
            for k, update in enumerate(updates):
                if truths[k] is None:
                    continue
                rep = rlu_attack(context, update, cfg, histories[k])
                bucket.append(iacc(rep.counts, truths[k], 1, 32))
                if mdl is trained:
                    baseline_scores.append(iacc(uniform, truths[k], 1, 32))
    m_un, m_tr = float(np.mean(untrained_scores)), float(np.mean(trained_scores))
    m_base = float(np.mean(baseline_scores))
    assert min(accs) >= 0.8
    assert m_tr >= m_base + 0.1
    assert m_tr <= m_un
    announce(capsys, 10, f"untrained {m_un:.4f} >= trained {m_tr:.4f} >= uniform+0.1 {m_base + 0.1:.4f}")


# -------------------------------------------------------------- criterion 11

def test_criterion_11_partitioner_conservation(capsys):
    rng = np.random.default_rng(11)
    for trial in range(100):
        n_classes = int(rng.integers(2, 11))
        per_class = int(rng.integers(5, 40))
        clients = int(rng.integers(1, 13))
        alpha = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        data = make_synthetic(n_classes, 4, per_class, 2.0, seed=trial)
        partition = dirichlet_partition(data, clients, alpha, seed=trial)
        counted = np.zeros(n_classes, dtype=np.int64)
        seen = []
        for shard in partition.assignments:
            counted += np.bincount(data.labels[shard], minlength=n_classes)
            seen.extend(shard.tolist())
        npt.assert_array_equal(counted, data.class_counts())
        assert sorted(seen) == list(range(len(data)))

    data = make_synthetic(5, 4, 20, 2.0, seed=999)
    single = dirichlet_partition(data, 1, 0.5, seed=999)
    npt.assert_array_equal(np.sort(single.assignments[0]), np.arange(100))
    announce(capsys, 11, "exact conservation on 100 random configs and the single-client case")


# -------------------------------------------------------------- criterion 12

def test_criterion_12_metric_unit_values(capsys):
    assert iacc([3, 1], [2, 2], 1, 4) == 0.75
    assert cacc([3, 1, 0, 0], [2, 0, 2, 0]) == 0.5
    announce(capsys, 12, "iacc(3,1|2,2) = 0.75 and cacc({0,1}|{0,2}) = 0.5 exactly")


# -------------------------------------------------------------- criterion 13

def test_criterion_13_run_determinism(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "data": {"n_classes": 6, "dim": 8, "per_class": 40},
        "partition": {"clients": 4, "alpha": 0.5},
        "scheme": {"eta": 0.01, "epochs": 2, "batch_size": 16},
        "attack": {"mc_samples": 2000, "aux_per_class": 50},
        "rounds": 2,
        "seed": 5,
    }))
    bodies = []
    for tag in ("a", "b"):
        out = tmp_path / f"res_{tag}.csv"
        rc = main(["run", "--config", str(cfg_path), "--output", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        bodies.append([{k: v for k, v in row.items() if k != "wall_ms"} for row in rows])
    assert bodies[0] == bodies[1]
    assert len(bodies[0]) == 8
    announce(capsys, 13, f"two runs, {len(bodies[0])} rows, identical apart from wall_ms")
