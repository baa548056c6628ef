import csv
import gc
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import weakref

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedleak import _kernels, attack, cli, fedsim
from fedleak.cli import (
    _GAUSS_SAMPLES,
    RESULT_COLUMNS,
    ExperimentConfig,
    _config_from_args,
    build_parser,
    main,
    run_experiment,
)
from fedleak.data import load_dataset_csv
from fedleak.nn import forward_batch, init_model, save_model

from _helpers import file_tree, sgd_train

SRC = Path(__file__).resolve().parent.parent / "src"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def small_args(tmp_path, **extra):
    base = [
        "--n-classes", "4", "--dim", "8", "--per-class", "40",
        "--clients", "3", "--aux-per-class", "50",
    ]
    for key, val in extra.items():
        base += [f"--{key.replace('_', '-')}", str(val)]
    return base


# ---------------------------------------------------------------- gen-data

def test_gen_data_deterministic(tmp_path):
    paths = []
    for tag in ("a", "b"):
        out_d = tmp_path / f"data_{tag}.csv"
        out_p = tmp_path / f"part_{tag}.csv"
        rc = main(["gen-data", "--seed", "3", "--out-data", str(out_d),
                   "--out-partition", str(out_p), *small_args(tmp_path)])
        assert rc == 0
        paths.append((out_d, out_p))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_gen_data_single_client_owns_everything(tmp_path):
    out_d = tmp_path / "data.csv"
    out_p = tmp_path / "part.csv"
    rc = main(["gen-data", "--seed", "0", "--clients", "1",
               "--n-classes", "4", "--dim", "8", "--per-class", "25",
               "--out-data", str(out_d), "--out-partition", str(out_p)])
    assert rc == 0
    rows = read_rows(out_p)
    assert len(rows) == 100
    assert {r["client"] for r in rows} == {"0"}


def test_gen_data_low_alpha_concentrates_classes(tmp_path):
    out_d = tmp_path / "data.csv"
    out_p = tmp_path / "part.csv"
    rc = main(["gen-data", "--seed", "1", "--alpha", "0.05",
               "--n-classes", "5", "--dim", "8", "--per-class", "60",
               "--clients", "5",
               "--out-data", str(out_d), "--out-partition", str(out_p)])
    assert rc == 0
    data = load_dataset_csv(out_d, 5)
    part_rows = read_rows(out_p)
    share = np.zeros((5, 5))
    for r in part_rows:
        share[int(r["client"]), data.labels[int(r["sample_index"])]] += 1
    share /= 60.0
    # at alpha = 0.05 almost every class mass sits on one or two clients
    assert (share.max(axis=0) > 0.5).any()


# --------------------------------------------------------------------- run

def test_run_csv_schema_and_recovery(tmp_path):
    out = tmp_path / "res.csv"
    rc = main(["run", "--seed", "0", "--epochs", "1", "--eta", "0.01",
               "--output", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert rows and list(rows[0]) == RESULT_COLUMNS
    assert len(rows) == 10  # one per client, single round
    ok = [r for r in rows if r["status"] == "ok"]
    assert ok
    assert np.mean([float(r["iacc"]) for r in ok]) >= 0.95
    for r in ok:
        assert 0.0 <= float(r["cacc"]) <= 1.0
        assert int(r["l1_err"]) >= 0
        assert float(r["wall_ms"]) > 0.0
        assert r["m"] == "1" and r["batch"] == "32"


def test_run_deterministic_modulo_wall_time(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"res_{tag}.csv"
        rc = main(["run", "--seed", "7", "--epochs", "1", "--eta", "0.01",
                   "--output", str(out), *small_args(tmp_path)])
        assert rc == 0
        outs.append(read_rows(out))
    for ra, rb in zip(outs[0], outs[1]):
        da = {k: v for k, v in ra.items() if k != "wall_ms"}
        db = {k: v for k, v in rb.items() if k != "wall_ms"}
        assert da == db


def test_run_eta_zero_exit_one(tmp_path, capsys, monkeypatch):
    # every update of such a run would be degenerate, so it never trains
    calls = []
    monkeypatch.setattr(fedsim, "train_stack", lambda *args, **kwargs: calls.append(1))
    out = tmp_path / "res.csv"
    rc = main(["run", "--seed", "0", "--eta", "0.0", "--epochs", "1",
               "--output", str(out), *small_args(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and re.search(r"\beta\b", err)
    assert not out.exists()
    assert calls == []


def test_run_batch_above_every_shard_exit_one(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(fedsim, "train_stack", lambda *args, **kwargs: calls.append(1))
    cfg = _config_from_args(build_parser().parse_args(["run", "--seed", "0", *small_args(tmp_path)]))
    largest = max(len(shard) for shard in cli._build_world(cfg)[2].assignments)
    out = tmp_path / "res.csv"
    rc = main(["run", "--seed", "0", "--batch-size", str(largest + 1),
               "--output", str(out), *small_args(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and re.search(r"\bbatch_size\b", err)
    assert f"({largest} samples)" in err
    assert not out.exists()
    assert calls == []


def test_run_batch_equal_to_largest_shard_trains_that_client(tmp_path):
    cfg = _config_from_args(build_parser().parse_args(["run", "--seed", "0", *small_args(tmp_path)]))
    sizes = [len(shard) for shard in cli._build_world(cfg)[2].assignments]
    out = tmp_path / "res.csv"
    rc = main(["run", "--seed", "0", "--batch-size", str(max(sizes)),
               "--output", str(out), *small_args(tmp_path)])
    assert rc == 0
    ok = [int(r["client"]) for r in read_rows(out) if r["status"] == "ok"]
    assert ok == [k for k, size in enumerate(sizes) if size == max(sizes)]


def test_run_writes_reports_and_round_log(tmp_path):
    out = tmp_path / "res.csv"
    rdir = tmp_path / "reports"
    rlog = tmp_path / "rounds.csv"
    rc = main(["run", "--seed", "2", "--epochs", "1", "--eta", "0.01",
               "--output", str(out), "--report-dir", str(rdir),
               "--round-log", str(rlog), *small_args(tmp_path)])
    assert rc == 0
    ok = [r for r in read_rows(out) if r["status"] == "ok"]
    reports = sorted(rdir.glob("report_*.json"))
    assert len(reports) == len(ok)
    text = reports[0].read_text()
    assert text.endswith("}\n") and not text.endswith("\n\n")
    assert set(json.loads(text)) == {"method", "counts", "z_star", "residual", "diagnostics"}
    log = read_rows(rlog)
    assert list(log[0]) == ["round", "client", "scheme", "optimizer", "eta", "lambda", "gamma", "m", "batch",
                            "loss", "train_acc"]
    # one log row per training client, with the result row's train_acc
    trained = {r["client"]: r["train_acc"] for r in read_rows(out) if r["train_acc"]}
    assert {r["client"]: r["train_acc"] for r in log} == trained
    assert all(float(r["loss"]) > 0 for r in log)


def test_run_scores_an_unconverged_solve_unconverged(tmp_path, monkeypatch):
    # at seed 1 one attack's warm start is not positive, so its solve takes
    # a second KKT solve; capped at one, its row keeps its count columns
    # but is not scored ok, and report leaves it out
    args = ["run", "--seed", "1", *small_args(tmp_path)]
    rdir = tmp_path / "reports"
    assert main([*args, "--output", str(tmp_path / "full.csv"), "--report-dir", str(rdir)]) == 0
    solves = {
        int(path.stem.rsplit("_c", 1)[1]): json.loads(path.read_text())["diagnostics"]["solver_iterations"]
        for path in rdir.glob("report_r1_c*.json")
    }
    assert sorted(solves.values()) == [1, 2]
    monkeypatch.setattr(_kernels, "MAX_KKT_SOLVES", 1)
    capped = tmp_path / "capped.csv"
    assert main([*args, "--output", str(capped)]) == 0
    for row in read_rows(capped):
        k = int(row["client"])
        if k not in solves:
            assert row["status"] == "degenerate"
            continue
        assert row["status"] == ("ok" if solves[k] == 1 else "unconverged")
        assert all(row[col] for col in ("cacc", "iacc", "l1_err", "residual"))
    summary = tmp_path / "summary.csv"
    assert main(["report", str(capped), "--output", str(summary)]) == 0
    assert [r["n"] for r in read_rows(summary)] == ["1"]


def test_round_log_holds_one_run(tmp_path):
    # a second run into the same path replaces the first run's rows
    args = ["run", "--seed", "0", "--rounds", "2", *small_args(tmp_path)]
    fresh = tmp_path / "fresh.csv"
    assert main([*args, "--output", str(tmp_path / "a.csv"), "--round-log", str(fresh)]) == 0
    reused = tmp_path / "reused.csv"
    for _ in range(2):
        assert main([*args, "--output", str(tmp_path / "b.csv"), "--round-log", str(reused)]) == 0
    rows = read_rows(reused)
    assert [(r["round"], r["client"]) for r in rows] == [(t, k) for t in "12" for k in "012"]
    assert reused.read_bytes() == fresh.read_bytes()


def test_run_multi_round_covers_each_round(tmp_path):
    out = tmp_path / "res.csv"
    rc = main(["run", "--seed", "4", "--rounds", "3", "--epochs", "1",
               "--eta", "0.01", "--output", str(out), *small_args(tmp_path)])
    assert rc == 0
    rows = read_rows(out)
    assert sorted({r["round"] for r in rows}) == ["1", "2", "3"]
    assert len(rows) == 9


# ------------------------------------------------------------------- sweep

def test_sweep_grid_structure(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--alphas", "0.1,1.0", "--epoch-grid", "1",
               "--seeds", "0,1", "--eta", "0.01", "--output", str(out),
               *small_args(tmp_path)])
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 2 * 1 * 2 * 3
    combos = {(r["alpha"], r["m"], r["seed"]) for r in rows}
    assert combos == {(repr(a), "1", s) for a in (0.1, 1.0) for s in ("0", "1")}


@pytest.mark.parametrize("flag", ["--alphas", "--seeds", "--epoch-grid"])
def test_sweep_empty_grid_exit_one(tmp_path, capsys, flag):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", flag, ",", "--output", str(out), *small_args(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--alphas", "0.5,-1"], "alpha"),
        (["--alphas", "0.5,nan"], "alpha"),
        (["--epoch-grid", "1,0"], "epochs"),
        (["--seeds", "0,-1"], "seed"),
        (["--seeds", "1.5"], "--seeds"),
        (["--alphas", "0.5,x"], "--alphas"),
    ],
    ids=["negative_alpha", "nan_alpha", "zero_epochs", "negative_seed", "float_seed", "text_alpha"],
)
def test_sweep_checks_its_whole_grid_before_the_first_run(tmp_path, capsys, monkeypatch, flags, name):
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: calls.append(1) or [])
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--output", str(out), *small_args(tmp_path), *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and re.search(rf"(?<![\w-]){re.escape(name)}\b", err)
    assert calls == []
    assert not out.exists()


# -------------------------------------------------------- diagnose-moments

def write_world(tmp_path, model, data):
    from fedleak.data import save_dataset_csv

    mpath = tmp_path / "model.npz"
    dpath = tmp_path / "data.csv"
    save_model(mpath, model)
    save_dataset_csv(dpath, data)
    return mpath, dpath


def test_diagnose_moments_constant_logits_single_bin(tmp_path):
    from fedleak.data import make_synthetic
    from fedleak.nn import Model

    model = Model(
        weights=[np.zeros((5, 8)), np.zeros((3, 5))],
        biases=[np.zeros(5), np.array([0.5, -1.0, 2.0])],
        activation="relu",
    )
    data = make_synthetic(3, 8, 20, 2.0, seed=0)
    mpath, dpath = write_world(tmp_path, model, data)
    out = tmp_path / "moments.csv"
    rc = main(["diagnose-moments", "--model", str(mpath), "--data", str(dpath),
               "--output", str(out), "--bins", "10"])
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 3 * 3 * 10
    for cls in range(3):
        for j in range(3):
            counts = [int(r["count"]) for r in rows
                      if r["n"] == str(cls) and r["j"] == str(j)]
            assert sorted(counts)[-1] == 20
            assert sum(counts) == 20


def test_diagnose_moments_rejects_a_zero_width_checkpoint(tmp_path, capsys):
    # a 4 -> 0 -> 3 model fills its 24 payload bytes with the output bias alone
    from fedleak.data import make_synthetic, save_dataset_csv

    mpath, dpath = tmp_path / "zero.ckpt", tmp_path / "data.csv"
    mpath.write_bytes(b'{"layer_sizes":[4,0,3],"activation":"relu"}\n' + np.zeros(3).tobytes())
    save_dataset_csv(dpath, make_synthetic(3, 4, 5, 2.0, seed=0))
    out = tmp_path / "moments.csv"
    rc = main(["diagnose-moments", "--model", str(mpath), "--data", str(dpath), "--output", str(out)])
    assert rc == 1
    assert "zero.ckpt has layer_sizes [4, 0, 3]" in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_moments_rejects_a_non_finite_checkpoint(tmp_path, capsys):
    from fedleak.data import make_synthetic

    mpath, dpath = write_world(tmp_path, init_model([8, 6, 4], "relu", seed=0), make_synthetic(4, 8, 10, 3.0, seed=0))
    # the checkpoint ends with the output layer's last bias
    mpath.write_bytes(mpath.read_bytes()[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    out = tmp_path / "moments.csv"
    rc = main(["diagnose-moments", "--model", str(mpath), "--data", str(dpath), "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: layer 1: non-finite parameters\n"
    assert not out.exists()


def test_diagnose_moments_overflowing_covariance_exits_one(tmp_path):
    # features near 1e200 give finite logits whose covariance overflows;
    # the Gaussian factorization must reject it instead of retrying forever
    from fedleak.data import Dataset

    rng = np.random.default_rng(0)
    data = Dataset(rng.standard_normal((30, 2)) * 1e200, np.arange(30) % 3, 3)
    mpath, dpath = write_world(tmp_path, init_model([2, 3], "relu", seed=0), data)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "fedleak.cli", "diagnose-moments", "--model", str(mpath), "--data", str(dpath),
         "--output", str(tmp_path / "moments.csv")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert "error: logit moments must be finite" in proc.stderr


def test_diagnose_moments_rejected_fit_writes_no_output(tmp_path, capsys):
    # logits near 1e155 are finite, but their covariance overflows, so the
    # Gaussian fit is rejected; that happens before the histogram file opens
    from fedleak.data import make_synthetic

    model = init_model([4, 8, 3], "relu", seed=0)
    model.weights[0] *= 1e155
    mpath, dpath = write_world(tmp_path, model, make_synthetic(3, 4, 20, 2.0, seed=0))
    out = tmp_path / "moments.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["diagnose-moments", "--model", str(mpath), "--data", str(dpath), "--output", str(out)])
    assert rc == 1
    assert "error: logit moments must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_moments_non_finite_dataset_names_the_row(tmp_path, capsys):
    from fedleak.data import make_synthetic

    mpath, dpath = write_world(tmp_path, init_model([4, 3], "relu", seed=0), make_synthetic(3, 4, 5, 2.0, seed=0))
    lines = dpath.read_text().splitlines()
    lines[4] = "nan," + lines[4].split(",", 1)[1]
    dpath.write_text("\n".join(lines) + "\n")
    out = tmp_path / "moments.csv"
    assert main(["diagnose-moments", "--model", str(mpath), "--data", str(dpath), "--output", str(out)]) == 1
    assert f"error: {dpath}, line 5: features must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_diagnose_moments_rejects_bins_below_one_before_any_work(tmp_path, capsys, bins):
    # the paths need not exist: --bins is checked before anything is read
    out = tmp_path / "moments.csv"
    rc = main(["diagnose-moments", "--model", str(tmp_path / "none.ckpt"), "--data", str(tmp_path / "none.csv"),
               "--output", str(out), "--bins", bins])
    assert rc == 1
    assert f"error: --bins must be at least 1, got {bins}" in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_moments_rejects_a_dataset_of_another_width(tmp_path, capsys):
    from fedleak.data import make_synthetic

    mpath, dpath = write_world(tmp_path, init_model([4, 8, 3], "relu", seed=0), make_synthetic(3, 6, 5, 2.0, seed=0))
    out = tmp_path / "moments.csv"
    assert main(["diagnose-moments", "--model", str(mpath), "--data", str(dpath), "--output", str(out)]) == 1
    assert f"error: {dpath} has 6 features per row, but the model in {mpath} takes 4" in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_moments_histogram_means_match_forward(tmp_path):
    from fedleak.data import make_synthetic

    data = make_synthetic(4, 8, 50, 3.0, seed=6)
    model = init_model([8, 10, 4], "tanh", seed=6)
    mpath, dpath = write_world(tmp_path, model, data)
    out = tmp_path / "moments.csv"
    rc = main(["diagnose-moments", "--model", str(mpath), "--data", str(dpath),
               "--output", str(out), "--bins", "40"])
    assert rc == 0
    rows = read_rows(out)
    logits, _ = forward_batch(model, data.features)
    for cls in range(4):
        for j in range(4):
            sel = [r for r in rows if r["n"] == str(cls) and r["j"] == str(j)]
            mids = np.array([(float(r["bin_left"]) + float(r["bin_right"])) / 2 for r in sel])
            cnt = np.array([int(r["count"]) for r in sel], dtype=np.float64)
            width = float(sel[0]["bin_right"]) - float(sel[0]["bin_left"])
            approx = float((mids * cnt).sum() / cnt.sum())
            direct = float(logits[data.labels == cls, j].mean())
            assert abs(approx - direct) <= width


def test_diagnose_moments_prints_gaussian_gap_per_class(tmp_path, capsys):
    from fedleak.data import make_synthetic

    data = make_synthetic(4, 8, 50, 3.0, seed=6)
    model = init_model([8, 10, 4], "tanh", seed=6)
    mpath, dpath = write_world(tmp_path, model, data)
    rc = main(["diagnose-moments", "--model", str(mpath), "--data", str(dpath),
               "--output", str(tmp_path / "moments.csv"), "--bins", "5"])
    assert rc == 0
    lines = re.findall(r"^class (\d+): max_j \|s_gauss - s_plugin\| = (\S+)$", capsys.readouterr().out, re.M)
    assert [int(c) for c, _ in lines] == [0, 1, 2, 3]
    # the Gaussian model's Monte Carlo matrix on _GAUSS_SAMPLES fixed-seed
    # normals, against the mean softmax of the logits themselves
    normals = np.random.default_rng(0).standard_normal((_GAUSS_SAMPLES, 4))
    s_gauss = attack.mc_confusion(attack.estimate_moments(model, data), normals).s
    logits, _ = forward_batch(model, data.features)
    for n, (_, printed) in enumerate(lines):
        rows = logits[data.labels == n]
        probs = np.exp(rows - rows.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        s_plugin = probs.mean(axis=0)
        s_plugin[n] = 0.0
        gap = np.abs(s_gauss[n] - s_plugin).max()
        assert float(printed) == pytest.approx(gap, rel=1e-6, abs=1e-15)
        # a tanh network's logits are not Gaussian, but not far from it either
        assert 0.0 < float(printed) < 0.05


def test_diagnose_moments_forwards_once_with_the_two_pass_output(tmp_path, capsys, monkeypatch):
    # the Gaussian moments come from the class-grouped logits the histograms
    # use; the output is what estimate_moments' own second pass gave
    from fedleak.data import make_synthetic

    data = make_synthetic(4, 8, 50, 3.0, seed=6)
    model = init_model([8, 10, 4], "tanh", seed=6)
    mpath, dpath = write_world(tmp_path, model, data)
    normals = np.random.default_rng(0).standard_normal((_GAUSS_SAMPLES, 4))
    s_gauss = attack.mc_confusion(attack.estimate_moments(model, data), normals).s
    logits, bounds = attack.class_logits(model, data)
    gap = np.abs(s_gauss - attack.plugin_confusion(logits, bounds).s).max(axis=1)
    expected_csv = tmp_path / "expected.csv"
    with open(expected_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "j", "bin_left", "bin_right", "count"])
        for n, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            rows = logits[lo:hi]
            for j in range(4):
                counts, edges = np.histogram(rows[:, j], bins=7)
                writer.writerows([n, j, repr(float(edges[b])), repr(float(edges[b + 1])), int(counts[b])] for b in range(7))
    out = tmp_path / "moments.csv"
    expected_out = f"wrote {4 * 4 * 7} histogram rows to {out}\n" + "".join(
        f"class {n}: max_j |s_gauss - s_plugin| = {gap[n]:.6e}\n" for n in range(4)
    )
    forwards = []
    real = attack.forward_batch
    monkeypatch.setattr(attack, "forward_batch", lambda *a: forwards.append(1) or real(*a))
    rc = main(["diagnose-moments", "--model", str(mpath), "--data", str(dpath), "--output", str(out), "--bins", "7"])
    assert rc == 0
    assert len(forwards) == 1
    assert capsys.readouterr().out == expected_out
    assert out.read_bytes() == expected_csv.read_bytes()


def test_diagnose_moments_trained_model_diagonal_dominance(tmp_path):
    from fedleak.data import make_synthetic

    data = make_synthetic(4, 8, 50, 4.0, seed=2)
    model = sgd_train(init_model([8, 12, 4], "relu", seed=2), data,
                      epochs=5, eta=0.2, batch_size=8, seed=2)
    mpath, dpath = write_world(tmp_path, model, data)
    out = tmp_path / "moments.csv"
    rc = main(["diagnose-moments", "--model", str(mpath), "--data", str(dpath),
               "--output", str(out), "--bins", "30"])
    assert rc == 0
    rows = read_rows(out)
    means = np.zeros((4, 4))
    for cls in range(4):
        for j in range(4):
            sel = [r for r in rows if r["n"] == str(cls) and r["j"] == str(j)]
            mids = np.array([(float(r["bin_left"]) + float(r["bin_right"])) / 2 for r in sel])
            cnt = np.array([int(r["count"]) for r in sel], dtype=np.float64)
            means[cls, j] = (mids * cnt).sum() / cnt.sum()
    hits = sum(1 for cls in range(4) if means[cls].argmax() == cls)
    assert hits >= 4 * 0.8


# ------------------------------------------------------------------ report

def write_result_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def result_row(**over):
    row = {
        "seed": 0, "round": 1, "client": 0, "scheme": "fedavg",
        "optimizer": "sgd", "alpha": "0.5", "m": 1, "batch": 32,
        "train_acc": "0.5", "cacc": "1.0", "iacc": "0.9", "l1_err": 2,
        "residual": "1e-08", "wall_ms": "10.0", "status": "ok",
    }
    row.update(over)
    return row


def test_report_aggregates_by_cell(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_result_csv(a, [
        result_row(iacc="0.8", client=0),
        result_row(iacc="1.0", client=1),
        result_row(iacc="0.0", status="degenerate", client=2),
    ])
    write_result_csv(b, [result_row(iacc="0.9", alpha="5.0")])
    out = tmp_path / "agg.csv"
    rc = main(["report", str(a), str(b), "--output", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 2
    cell = {r["alpha"]: r for r in rows}
    assert cell["0.5"]["n"] == "2"
    assert float(cell["0.5"]["iacc_mean"]) == pytest.approx(0.9)
    assert float(cell["0.5"]["iacc_std"]) == pytest.approx(np.std([0.8, 1.0], ddof=1))
    assert cell["5.0"]["n"] == "1"
    assert float(cell["5.0"]["iacc_std"]) == 0.0


def test_report_splits_cells_by_batch(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_result_csv(a, [result_row(batch=16, iacc="0.8")])
    write_result_csv(b, [result_row(batch=64, iacc="1.0")])
    out = tmp_path / "agg.csv"
    assert main(["report", str(a), str(b), "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        header = next(csv.reader(fh))
    assert header[:6] == ["scheme", "optimizer", "alpha", "m", "batch", "n"]
    cell = {r["batch"]: r for r in read_rows(out)}
    assert set(cell) == {"16", "64"}
    assert [cell[b]["n"] for b in ("16", "64")] == ["1", "1"]
    assert float(cell["16"]["iacc_mean"]) == pytest.approx(0.8)
    assert float(cell["64"]["iacc_mean"]) == pytest.approx(1.0)


def test_report_rejects_missing_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    with open(bad, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "iacc"])
        writer.writerow([0, 0.5])
    rc = main(["report", str(bad), "--output", str(tmp_path / "agg.csv")])
    assert rc == 1


# ------------------------------------------------------------------ config

def test_config_file_merges_with_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "data": {"n_classes": 4, "dim": 8, "per_class": 30},
        "partition": {"clients": 2, "alpha": 0.3},
        "scheme": {"scheme": "fedprox", "lam": 5.0, "eta": 0.01, "epochs": 2},
        "seed": 9,
    }))
    cfg = _config_from_args(build_parser().parse_args(["run", "--config", str(cfg_path)]))
    assert cfg.scheme.scheme == "fedprox"
    assert cfg.partition.alpha == 0.3
    assert cfg.seed == 9
    out = tmp_path / "res.csv"
    rc = main(["run", "--config", str(cfg_path), "--alpha", "0.9",
               "--epochs", "1", "--output", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert rows[0]["alpha"] == "0.9"
    assert rows[0]["scheme"] == "fedprox"
    assert rows[0]["m"] == "1"


def test_config_constraint_checked_after_overrides(tmp_path):
    # lambda * eta = 1.5 in the file alone, 0.15 once --eta applies
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scheme": {"scheme": "fedprox", "lam": 150.0}}))
    out = tmp_path / "res.csv"
    assert main(["run", "--config", str(cfg_path), "--eta", "0.001",
                 "--output", str(out), *small_args(tmp_path)]) == 0
    assert read_rows(out)[0]["scheme"] == "fedprox"


def test_config_integers_in_number_fields_match_flags(tmp_path):
    # a config file's 1 and the flag's 1.0 are one value: the result CSVs
    # and round logs agree and report puts both runs in one cell
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "partition": {"alpha": 1},
        "scheme": {"eta": 1, "lam": 0, "gamma": 0},
    }))
    runs = {
        "file": ["--config", str(cfg_path)],
        "flags": ["--alpha", "1", "--eta", "1", "--lambda", "0", "--gamma", "0"],
    }
    for tag, args in runs.items():
        rc = main(["run", *args, "--output", str(tmp_path / f"{tag}.csv"),
                   "--round-log", str(tmp_path / f"{tag}_log.csv"), *small_args(tmp_path)])
        assert rc == 0
    results = [read_rows(tmp_path / f"{tag}.csv") for tag in runs]
    for rows in results:
        for row in rows:
            del row["wall_ms"]
    assert results[0] == results[1]
    assert results[0][0]["alpha"] == "1.0"
    assert (tmp_path / "file_log.csv").read_bytes() == (tmp_path / "flags_log.csv").read_bytes()
    out = tmp_path / "agg.csv"
    assert main(["report", str(tmp_path / "file.csv"), str(tmp_path / "flags.csv"), "--output", str(out)]) == 0
    assert len(read_rows(out)) == 1


def test_config_integer_too_large_for_a_float_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"partition": {"alpha": 10 ** 400}}))
    out = tmp_path / "r.csv"
    rc = main(["run", "--config", str(cfg_path), "--output", str(out), *small_args(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "partition.alpha" in err
    assert not out.exists()


def test_config_unknown_keys_exit_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"data": {"n_classes": 4}, "typo_section": {}}))
    rc = main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "r.csv")])
    assert rc == 1
    assert "typo_section" in capsys.readouterr().err
    cfg_path.write_text(json.dumps({"data": {"nclasses": 4}}))
    rc = main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "r.csv")])
    assert rc == 1


@pytest.mark.parametrize(
    "payload, where",
    [([1, 2], "config file {path}"), ({"scheme": [1]}, "config section 'scheme'"), ({"data": 4}, "config section 'data'")],
    ids=["file", "scheme_section", "data_section"],
)
def test_config_that_is_not_an_object_exits_one(tmp_path, capsys, payload, where):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    out = tmp_path / "r.csv"
    assert main(["run", "--config", str(cfg_path), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {where.format(path=cfg_path)} must be a JSON object\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"attack": {"mc_samples": "100"}}, "mc_samples"),
        ({"rounds": "2"}, "rounds"),
        ({"scheme": {"eta": "0.1"}}, "eta"),
        ({"data": {"n_classes": 4.5}}, "n_classes"),
        ({"model": {"hidden": 5}}, "hidden"),
        ({"partition": {"clients": True}}, "clients"),
    ],
)
def test_config_wrong_type_exit_one(tmp_path, capsys, payload, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    out = tmp_path / "r.csv"
    rc = main(["run", "--config", str(cfg_path), "--output", str(out), *small_args(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize("hidden", [[0], [-3]])
def test_config_layer_size_below_one_exit_one(tmp_path, capsys, hidden):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"hidden": hidden}}))
    out = tmp_path / "r.csv"
    rc = main(["run", "--config", str(cfg_path), "--output", str(out), *small_args(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(hidden[0]) in err
    assert not out.exists()


@pytest.mark.parametrize("scheme, optimizer", [("feddyn", "sgd"), ("fedavg", "nag")])
def test_every_config_flag_lands_in_its_field(tmp_path, scheme, optimizer):
    # each pair leaves one of scheme/optimizer at its default, so between
    # them a flag that reached no field would show in one case; --lambda
    # only applies to feddyn's case and --gamma only to nag's
    flags = {
        "--seed": ("seed", 7),
        "--n-classes": ("data.n_classes", 5),
        "--dim": ("data.dim", 9),
        "--per-class": ("data.per_class", 21),
        "--separation": ("data.separation", 2.5),
        "--clients": ("partition.clients", 4),
        "--alpha": ("partition.alpha", 0.7),
        "--scheme": ("scheme.scheme", scheme),
        "--optimizer": ("scheme.optimizer", optimizer),
        "--eta": ("scheme.eta", 0.02),
        "--lambda": ("scheme.lam", 0.5),
        "--gamma": ("scheme.gamma", 0.3),
        "--epochs": ("scheme.epochs", 3),
        "--batch-size": ("scheme.batch_size", 12),
        "--rounds": ("rounds", 4),
        "--search-iters": ("attack.search_iters", 2),
        "--aux-per-class": ("attack.aux_per_class", 40),
        "--output": ("output", str(tmp_path / "out.csv")),
    }
    del flags["--gamma" if optimizer == "sgd" else "--lambda"]
    argv = ["run"]
    for flag, (_, value) in flags.items():
        argv += [flag, str(value)]
    cfg = _config_from_args(build_parser().parse_args(argv))
    for flag, (path, value) in flags.items():
        target = cfg
        for part in path.split("."):
            target = getattr(target, part)
        assert target == value, flag


def test_config_invalid_json_exit_one(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    rc = main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "r.csv")])
    assert rc == 1


def test_missing_config_file_exit_two(tmp_path):
    rc = main(["run", "--config", str(tmp_path / "nope.json"),
               "--output", str(tmp_path / "r.csv")])
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--seed", "0", "--rounds", "1", "--output", "{tmp}/r.csv"],
        ["sweep", "--seeds", "0,1", "--rounds", "1", "--output", "{tmp}/r.csv"],
        ["gen-data", "--out-data", "{tmp}/d.csv", "--out-partition", "{tmp}/p.csv"],
    ],
    ids=["run", "sweep", "gen_data"],
)
def test_empty_config_path_exit_two(tmp_path, capsys, monkeypatch, argv):
    # an empty --config used to count as not given: the command ran on the
    # defaults, wrote its files and exited 0; it is refused naming the flag
    calls = []
    monkeypatch.setattr(fedsim, "train_stack", lambda *args, **kwargs: calls.append(1))
    argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--config", ""] + small_args(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --config names no file: its path is empty\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def check_unwritable_exit_two(tmp_path, capsys, monkeypatch, argv):
    """main(argv) exits 2 naming the path it cannot write, before it trains or writes anything."""
    calls = []
    monkeypatch.setattr(fedsim, "train_stack", lambda *args, **kwargs: calls.append(1))
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_unwritable_output_exit_two(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "no" / "dir" / "r.csv"
    argv = ["run", "--seed", "0", "--epochs", "1", "--output", str(missing), *small_args(tmp_path)]
    check_unwritable_exit_two(tmp_path, capsys, monkeypatch, argv)
    # a directory where the file should go fails the same way
    argv = ["run", "--seed", "0", "--output", str(tmp_path), *small_args(tmp_path)]
    check_unwritable_exit_two(tmp_path, capsys, monkeypatch, argv)


def test_unwritable_round_log_exit_two(tmp_path, capsys, monkeypatch):
    # the round log used to fail only after round 1 had trained
    argv = ["run", "--seed", "0", "--output", str(tmp_path / "r.csv"),
            "--round-log", str(tmp_path / "no" / "log.csv"), *small_args(tmp_path)]
    check_unwritable_exit_two(tmp_path, capsys, monkeypatch, argv)


def test_unwritable_sweep_output_exit_two(tmp_path, capsys, monkeypatch):
    # a sweep used to run every grid point before it found this out
    argv = ["sweep", "--seeds", "0,1", "--output", str(tmp_path / "no" / "r.csv"), *small_args(tmp_path)]
    check_unwritable_exit_two(tmp_path, capsys, monkeypatch, argv)


def test_unwritable_gen_data_partition_exit_two(tmp_path, capsys, monkeypatch):
    # the dataset CSV, whose directory exists, is not written either
    argv = ["gen-data", "--out-data", str(tmp_path / "d.csv"),
            "--out-partition", str(tmp_path / "no" / "p.csv"), *small_args(tmp_path)]
    check_unwritable_exit_two(tmp_path, capsys, monkeypatch, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--seed", "0", "--output", ""],
        ["run", "--seed", "0", "--output", "{tmp}/r.csv", "--round-log", ""],
        ["sweep", "--seeds", "0,1", "--output", ""],
        ["gen-data", "--out-data", "", "--out-partition", "{tmp}/p.csv"],
    ],
    ids=["run_output", "run_round_log", "sweep_output", "gen_data_out_data"],
)
def test_empty_output_path_exit_two(tmp_path, capsys, monkeypatch, argv):
    # an empty path used to count as not given: run and sweep trained every
    # round before the write failed, and an empty round log wrote nothing
    argv = [arg.format(tmp=tmp_path) for arg in argv] + small_args(tmp_path)
    check_unwritable_exit_two(tmp_path, capsys, monkeypatch, argv)


def test_empty_report_dir_exit_two(tmp_path, capsys, monkeypatch):
    # an empty --report-dir used to count as not given: the run trained,
    # wrote its CSV and no report, and exited 0
    argv = ["run", "--seed", "0", "--rounds", "1", "--output", str(tmp_path / "r.csv"), "--report-dir", ""]
    check_unwritable_exit_two(tmp_path, capsys, monkeypatch, argv + small_args(tmp_path))


def write_inputs(tmp_path):
    """One input file of each kind the commands read: a config, a model, a dataset and a result CSV."""
    from fedleak.data import make_synthetic

    (tmp_path / "c.json").write_text("{}")
    write_world(tmp_path, init_model([8, 6, 4], "relu", seed=0), make_synthetic(4, 8, 10, 3.0, seed=0))
    write_result_csv(tmp_path / "r.csv", [result_row()])
    (tmp_path / "link.csv").symlink_to(tmp_path / "r.csv")


@pytest.mark.parametrize(
    "argv, config_flags",
    [
        (["gen-data", "--out-data", "{tmp}/x.csv", "--out-partition", "{tmp}/./x.csv"], True),
        (["run", "--seed", "0", "--output", "{tmp}/out.csv", "--round-log", "{tmp}/./out.csv"], True),
        (["run", "--seed", "0", "--config", "{tmp}/c.json", "--output", "{tmp}/c.json"], True),
        (["sweep", "--seeds", "0,1", "--config", "{tmp}/c.json", "--output", "{tmp}/c.json"], True),
        (["diagnose-moments", "--model", "{tmp}/model.npz", "--data", "{tmp}/data.csv", "--output", "{tmp}/data.csv"],
         False),
        (["report", "{tmp}/r.csv", "--output", "{tmp}/link.csv"], False),
    ],
    ids=["gen_data_outputs", "run_round_log_output", "run_config", "sweep_config", "diagnose_moments_data",
         "report_input_through_a_symlink"],
)
def test_output_that_is_another_output_or_an_input_exit_two(tmp_path, capsys, monkeypatch, argv, config_flags):
    # each of these used to exit 0 and leave one file lost: the last write
    # won, or an input was overwritten by the command's own output
    write_inputs(tmp_path)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    calls = []
    monkeypatch.setattr(fedsim, "train_stack", lambda *args, **kwargs: calls.append(1))
    argv = [arg.format(tmp=tmp_path) for arg in argv] + (small_args(tmp_path) if config_flags else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and "is the same file as" in err
    assert calls == []
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_run_experiment_rejects_an_empty_round_log(tmp_path, monkeypatch):
    # an empty round log used to count as not given: every round trained
    # and no log was written
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(fedsim, "train_stack", lambda *args, **kwargs: calls.append(1))
    with pytest.raises(FileNotFoundError, match="cannot write an empty path"):
        run_experiment(small_experiment(), round_log="")
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("report_dir", ["", "missing"])
def test_run_experiment_rejects_a_report_dir_that_is_no_directory(tmp_path, monkeypatch, report_dir):
    calls = []
    monkeypatch.setattr(fedsim, "train_stack", lambda *args, **kwargs: calls.append(1))
    path = str(tmp_path / report_dir) if report_dir else ""
    with pytest.raises(FileNotFoundError, match="cannot write reports to"):
        run_experiment(small_experiment(), report_dir=path)
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["--output", "d/report_r1_c0.json"],
        ["--round-log", "d/report_r1_c1.json", "--output", "r.csv"],
        ["--output", "d/./sub/../report_r1_c0.json"],
    ],
    ids=["output", "round_log", "output_through_dots"],
)
def test_output_named_like_a_report_in_the_report_dir_exits_two(tmp_path, capsys, monkeypatch, argv):
    # each of these used to exit 0: the result CSV was written over a
    # report, or a report over the round log
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d" / "sub").mkdir(parents=True)
    calls = []
    monkeypatch.setattr(fedsim, "train_stack", lambda *args, **kwargs: calls.append(1))
    assert main(["run", "--rounds", "1", "--report-dir", "d", *argv, *small_args(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and "a report in d takes that name" in err
    assert calls == []
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == ["d", "d/sub"]


def test_other_names_in_the_report_dir_are_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    argv = ["run", "--rounds", "1", "--report-dir", "d", "--output", "d/report_r1_c0.csv",
            "--round-log", "d/report_1.json", *small_args(tmp_path)]
    assert main(argv) == 0
    names = {p.name for p in (tmp_path / "d").iterdir()}
    assert {"report_r1_c0.csv", "report_1.json", "report_r1_c0.json"} <= names
    assert (tmp_path / "d" / "report_r1_c0.csv").read_text().startswith("seed,")


@pytest.mark.parametrize(
    "argv",
    [
        ["--report-dir", "out", "--output", "out"],
        ["--report-dir", "rl", "--round-log", "rl", "--output", "r.csv"],
        ["--config", "d/report_r1_c0.json", "--report-dir", "d", "--output", "r.csv"],
    ],
    ids=["report_dir_is_the_output", "report_dir_is_the_round_log", "config_takes_a_report_name"],
)
def test_report_dir_that_meets_another_path_exits_two(tmp_path, capsys, monkeypatch, argv):
    # the first two used to train and then exit 2, after writing every
    # report or training round 1; the third exited 0 with a report written
    # over its config
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "report_r1_c0.json").write_text("{}")
    before = file_tree(tmp_path)
    calls = []
    monkeypatch.setattr(fedsim, "train_stack", lambda *args, **kwargs: calls.append(1))
    assert main(["run", "--rounds", "1", *argv, *small_args(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert calls == []
    assert file_tree(tmp_path) == before


@pytest.mark.parametrize(
    "make_entry",
    [
        lambda entry: entry.mkdir(),
        lambda entry: entry.symlink_to("nodir/x.json"),
        lambda entry: entry.with_name("report_r07_c12.json").mkdir(),
    ],
    ids=["directory", "link_into_a_missing_directory", "directory_no_run_would_write"],
)
def test_report_dir_holding_an_unwritable_report_name_is_refused(tmp_path, capsys, monkeypatch, make_entry):
    # a directory under a report's name used to fail only after training:
    # the run wrote report_r1_c0.json and then exited 2 on report_r1_c1.json
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    make_entry(tmp_path / "d" / "report_r1_c1.json")
    before = file_tree(tmp_path)
    calls = []
    monkeypatch.setattr(fedsim, "train_stack", lambda *args, **kwargs: calls.append(1))
    assert main(["run", "--rounds", "1", "--report-dir", "d", "--output", "r2.csv", *small_args(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report d/report_r") and "a directory or not writable" in err
    with pytest.raises(PermissionError, match="^cannot write report d/report_r"):
        run_experiment(small_experiment(), report_dir="d")
    assert calls == []
    assert file_tree(tmp_path) == before


@pytest.mark.parametrize(
    "paths",
    [{"round_log": "nodir/x.csv"}, {"report_dir": "rd", "round_log": "rd/report_r1_c0.json"}],
    ids=["round_log_in_a_missing_directory", "round_log_takes_a_report_name"],
)
def test_run_experiment_refuses_its_file_plan_before_training(tmp_path, monkeypatch, paths):
    # the first used to train round 1 and then raise; the second returned
    # with a report written over the round log
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rd").mkdir()
    before = file_tree(tmp_path)
    calls = []
    monkeypatch.setattr(fedsim, "train_stack", lambda *args, **kwargs: calls.append(1))
    with pytest.raises(OSError, match="^cannot write "):
        run_experiment(small_experiment(), **paths)
    assert calls == []
    assert file_tree(tmp_path) == before


def test_invalid_scheme_params_exit_one(tmp_path):
    rc = main(["run", "--scheme", "fedprox", "--lambda", "200.0", "--eta", "0.01",
               "--output", str(tmp_path / "r.csv"), *small_args(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--scheme", "fedprox", "--lambda", "150"], "lambda"),
        (["--scheme", "scaffold", "--eta", "0"], "eta"),
        (["--scheme", "feddc", "--eta", "0", "--lambda", "1"], "eta"),
        (["--gamma", "0.9"], "gamma"),
        (["--lambda", "0.5"], "lambda"),
        (["--scheme", "scaffold", "--lambda", "0.5"], "lambda"),
    ],
    ids=["fedprox-contraction", "scaffold-eta0", "feddc-eta0", "sgd-gamma", "fedavg-lambda", "scaffold-lambda"],
)
def test_run_scheme_constraints_rejected_before_training(tmp_path, capsys, monkeypatch, flags, name):
    calls = []
    monkeypatch.setattr(fedsim, "train_stack", lambda *args, **kwargs: calls.append(1))
    out = tmp_path / "r.csv"
    assert main(["run", *flags, "--output", str(out), *small_args(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and re.search(rf"\b{name}\b", err)
    assert not out.exists()
    assert calls == []


@pytest.mark.parametrize(
    "command, flags, name",
    [
        ("run", ["--seed", "-1"], "seed"),
        ("gen-data", ["--seed", "-1"], "seed"),
        ("run", ["--aux-per-class", "0"], "aux_per_class"),
    ],
    ids=["run_seed", "gen_data_seed", "aux_per_class"],
)
def test_config_errors_name_the_key(tmp_path, capsys, command, flags, name):
    outputs = ["--output", str(tmp_path / "r.csv")] if command == "run" else [
        "--out-data", str(tmp_path / "d.csv"), "--out-partition", str(tmp_path / "p.csv")]
    assert main([command, *outputs, *small_args(tmp_path), *flags]) == 1
    assert re.search(rf"^error: {name} must be ", capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_rounds_validation_exit_one(tmp_path):
    rc = main(["run", "--rounds", "0", "--output", str(tmp_path / "r.csv"),
               *small_args(tmp_path)])
    assert rc == 1


def test_console_script_installed():
    exe = shutil.which("fedleak")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("gen-data", "run", "sweep", "diagnose-moments", "report"):
        assert name in proc.stdout


def test_console_script_target_and_module_help():
    # runs without an installed console script: the entry point that
    # [project.scripts] names resolves, and the module lists every subcommand
    text = (SRC.parent / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    target = re.search(r'^fedleak\s*=\s*"([\w.]+):(\w+)"', section, re.M)
    assert target is not None
    module, attr = target.groups()
    assert getattr(importlib.import_module(module), attr) is main
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "fedleak.cli", "--help"], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0
    assert "{gen-data,run,sweep,diagnose-moments,report}" in proc.stdout


def test_run_experiment_api_matches_csv(tmp_path):
    cfg = ExperimentConfig()
    rows = run_experiment(cfg)
    assert len(rows) == 10
    assert set(rows[0]) == set(RESULT_COLUMNS)


def count_confusion_builds(monkeypatch):
    """Calls of the function that builds every confusion matrix of an attack."""
    calls = []
    original = attack.plugin_confusion

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(attack, "plugin_confusion", counting)
    return calls


def small_experiment(**scheme):
    base = ExperimentConfig(rounds=2)
    return replace(
        base,
        data=replace(base.data, n_classes=4, dim=8, per_class=40),
        partition=replace(base.partition, clients=3),
        scheme=replace(base.scheme, **{"batch_size": 16, **scheme}),
        attack=replace(base.attack, mc_samples=500, search_mc_samples=100, aux_per_class=50),
    )


@pytest.mark.parametrize("epochs", [1, 3])
def test_run_experiment_monte_carlo_calls_per_round(monkeypatch, epochs):
    # one global-model confusion matrix per round, plus one local-model
    # matrix per trained client when there is more than one epoch; the
    # Gaussian Monte Carlo model is never used
    monkeypatch.setattr(attack, "mc_confusion", None)
    calls = count_confusion_builds(monkeypatch)
    cfg = small_experiment(epochs=epochs)
    rows = run_experiment(cfg)
    trained = sum(1 for r in rows if r["train_acc"] != "")
    assert trained >= 4
    assert len(calls) == cfg.rounds + (trained if epochs > 1 else 0)


@pytest.mark.parametrize(
    "scheme, name", [({"eta": 0.0}, "eta"), ({"batch_size": 1000}, "batch_size")], ids=["eta0", "untrained"]
)
def test_run_experiment_unattackable_rounds_build_no_context(monkeypatch, scheme, name):
    # a run whose every update would be degenerate is rejected before it
    # trains or builds a round context
    calls = count_confusion_builds(monkeypatch)
    trained = []
    monkeypatch.setattr(fedsim, "train_stack", lambda *args, **kwargs: trained.append(1))
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        run_experiment(small_experiment(**scheme))
    assert calls == []
    assert trained == []


@pytest.mark.parametrize("path", ["stack", "pool"])
@pytest.mark.parametrize(
    "scheme, lam, released",
    [("fedavg", 0.0, True), ("fedprox", 1.0, True), ("scaffold", 0.0, True), ("feddyn", 1.0, True),
     ("feddc", 1.0, False)],
)
def test_run_experiment_releases_a_rounds_updates_before_the_next_trains(monkeypatch, scheme, lam, released, path):
    # run_experiment used to keep round t's updates and attack context bound
    # while round t + 1 trained. Only feddc's records still hold round t's
    # deltas then, as prev_local_delta.
    if path == "pool":
        monkeypatch.setattr(fedsim, "_PARALLEL_MIN_STEP_MACS", 0)
        monkeypatch.setattr(fedsim, "_usable_cpus", lambda: 2)
    refs, alive = [], []
    original = fedsim.run_round

    def recording(*args):
        if refs:
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs[-1]))
        result = original(*args)
        refs.append([weakref.ref(arr) for update in result[1] for arr in update.delta.weights + update.delta.biases])
        return result

    monkeypatch.setattr(fedsim, "run_round", recording)
    run_experiment(replace(small_experiment(scheme=scheme, lam=lam), rounds=3))
    assert len(alive) == 2
    assert alive == ([0, 0] if released else [len(refs[0]), len(refs[1])])


@pytest.mark.parametrize(
    "scheme",
    [fedsim.SchemeConfig(), fedsim.SchemeConfig(scheme="fedprox", lam=25.0, eta=0.01, epochs=10)],
    ids=["default", "multi_epoch_search"],
)
def test_small_worlds_train_each_round_as_one_stack(monkeypatch, scheme):
    # the default world's local step is far below fedsim's gate, so every
    # round trains all its clients with one train_stack call, not through _map
    stacks = []
    original = fedsim.train_stack

    def recording(model, data, batches, *args):
        stacks.append(len(batches))
        return original(model, data, batches, *args)

    def no_map(*args):
        raise AssertionError("run_round went through fedsim._map")

    monkeypatch.setattr(fedsim, "train_stack", recording)
    monkeypatch.setattr(fedsim, "_map", no_map)
    monkeypatch.setattr(fedsim, "_usable_cpus", lambda: 64)
    cfg = replace(ExperimentConfig(seed=1), scheme=scheme, rounds=3)
    rows = run_experiment(cfg)
    trained = [sum(r["round"] == t and r["train_acc"] != "" for r in rows) for t in (1, 2, 3)]
    assert min(trained) >= 2
    assert stacks == trained


@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--alpha", "nan", "alpha"),
        ("--alpha", "inf", "alpha"),
        ("--eta", "nan", "eta"),
        ("--eta", "inf", "eta"),
        ("--lambda", "nan", "lambda"),
        ("--lambda", "inf", "lambda"),
        ("--gamma", "nan", "gamma"),
        ("--separation", "nan", "separation"),
        ("--separation", "inf", "separation"),
    ],
)
def test_run_non_finite_values_exit_one(tmp_path, capsys, flag, value, name):
    out = tmp_path / "r.csv"
    rc = main(["run", flag, value, "--output", str(out), *small_args(tmp_path)])
    assert rc == 1
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "attack_section, flags, name",
    [
        ({"mc_samples": 0}, [], "mc_samples"),
        ({"search_iters": -1}, [], "search_iters"),
        ({"search_iters": 2}, ["--search-iters", "-1"], "search_iters"),
        ({"search_mc_samples": 0}, [], "search_mc_samples"),
        (None, ["--search-iters", "-1", "--epochs", "3"], "search_iters"),
    ],
)
def test_run_invalid_attack_params_exit_one(tmp_path, capsys, attack_section, flags, name):
    out = tmp_path / "r.csv"
    args = ["run", "--output", str(out), *small_args(tmp_path), *flags]
    if attack_section is not None:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"attack": attack_section}))
        args += ["--config", str(config)]
    assert main(args) == 1
    assert re.search(rf"\b{name} must", capsys.readouterr().err)
    assert not out.exists()
