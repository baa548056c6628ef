import re

import numpy as np
import numpy.testing as npt
import pytest

from fedleak.data import (
    class_directions,
    derive_seed,
    dirichlet_partition,
    largest_remainder,
    load_dataset_csv,
    make_synthetic,
    plan_batches,
    save_dataset_csv,
    save_partition_csv,
)
from fedleak.nn import backward, init_model, accuracy

from _helpers import sgd_train


# ------------------------------------------------------------- generators

def test_make_synthetic_deterministic():
    a = make_synthetic(5, 8, 20, 3.0, seed=4)
    b = make_synthetic(5, 8, 20, 3.0, seed=4)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_make_synthetic_validation():
    with pytest.raises(ValueError):
        make_synthetic(1, 8, 20, 3.0, seed=0)
    with pytest.raises(ValueError):
        make_synthetic(5, 0, 20, 3.0, seed=0)
    with pytest.raises(ValueError):
        make_synthetic(5, 8, 0, 3.0, seed=0)
    with pytest.raises(ValueError):
        make_synthetic(5, 8, 20, -1.0, seed=0)


def test_class_directions_orthonormal_when_they_fit():
    u = class_directions(6, 16)
    npt.assert_allclose(u @ u.T, np.eye(6), atol=1e-12)
    # same call, same directions: datasets of equal shape share centers
    assert np.array_equal(u, class_directions(6, 16))


def test_zero_separation_linear_probe_is_chance():
    # with identical class distributions nothing is learnable
    data = make_synthetic(4, 8, 200, 0.0, seed=12)
    probe = init_model([8, 4], "relu", seed=12)
    probe = sgd_train(probe, data, epochs=3, eta=0.05, batch_size=32, seed=12)
    acc = accuracy(probe, data.features, data.labels)
    assert abs(acc - 0.25) <= 0.1


def test_separated_blobs_train_fast():
    data = make_synthetic(10, 16, 100, 6.0, seed=8)
    model = init_model([16, 32, 16, 10], "relu", seed=8)
    model = sgd_train(model, data, epochs=1, eta=0.2, batch_size=8, seed=8)
    assert accuracy(model, data.features, data.labels) > 0.95


def test_make_synthetic_uniform_histogram():
    aux = make_synthetic(10, 16, 100, 4.0, seed=77)
    assert len(aux.labels) == 1000
    npt.assert_array_equal(aux.class_counts(), np.full(10, 100))
    small = make_synthetic(10, 16, 5, 4.0, seed=77)
    npt.assert_array_equal(small.class_counts(), np.full(10, 5))


# ------------------------------------------------------- largest remainder

def test_largest_remainder_exact_sum_and_ties():
    out = largest_remainder(np.array([1 / 3, 1 / 3, 1 / 3]) * 32, 32)
    npt.assert_array_equal(out, [11, 11, 10])
    out = largest_remainder(np.array([0.5, 0.5]) * 32, 32)
    npt.assert_array_equal(out, [16, 16])


def test_largest_remainder_random_conservation():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        total = int(rng.integers(0, 500))
        z = rng.dirichlet(np.ones(n))
        out = largest_remainder(z * total, total)
        assert out.sum() == total
        assert (out >= 0).all()
        assert np.abs(out - z * total).max() <= 1.0
        # reference: one unit at a time, largest fraction first, lowest index on ties
        values = z * total
        ref = np.floor(values).astype(np.int64)
        for i in sorted(range(n), key=lambda i: (ref[i] - values[i], i))[: total - ref.sum()]:
            ref[i] += 1
        npt.assert_array_equal(out, ref)


@pytest.mark.parametrize(
    "values, total",
    [([3.0, 2.0], 4), ([2.5, 3.0], 4), ([1.5, 1.5], 4), ([0.2, 0.3], 10)],
    ids=["one_above", "one_and_a_half_above", "one_below", "far_below"],
)
def test_largest_remainder_rejects_values_off_total(values, total):
    with pytest.raises(ValueError, match="within one unit"):
        largest_remainder(np.array(values), total)


def test_largest_remainder_off_total_message_prints_a_plain_float():
    with pytest.raises(ValueError) as err:
        largest_remainder(np.array([2.5, 3.0]), 4)
    assert str(err.value) == "values sum to 5.5, not within one unit of total 4"


def test_largest_remainder_accepts_values_within_one_unit():
    npt.assert_array_equal(largest_remainder(np.array([2.4, 2.5]), 4), [2, 2])
    npt.assert_array_equal(largest_remainder(np.array([0.4, 0.3]), 1), [1, 0])


# -------------------------------------------------------------- sub-seeds

def test_derive_seed_pins_the_streams():
    # literal values, so a change of derivation shows on any machine:
    # the data stream of master seed 0 (cli._S_DATA = 11), and the batch
    # plan of master seed 5, round 1, client 0 (fedsim._STREAM_PLAN = 1)
    assert derive_seed(0, 11) == 2218153353
    assert derive_seed(5, 1, 1, 0) == 3269189123


# ---------------------------------------------------------------- partition

def test_dirichlet_partition_conservation_disjoint_coverage():
    data = make_synthetic(6, 8, 50, 2.0, seed=3)
    part = dirichlet_partition(data, 7, 0.3, seed=3)
    seen = np.concatenate(part.assignments)
    assert len(seen) == len(data.labels)
    assert len(np.unique(seen)) == len(seen)
    per_class = np.zeros(6, dtype=int)
    for idx in part.assignments:
        counts = np.bincount(data.labels[idx], minlength=6)
        per_class += counts
    npt.assert_array_equal(per_class, data.class_counts())


def test_dirichlet_partition_single_client():
    data = make_synthetic(3, 4, 10, 1.0, seed=2)
    part = dirichlet_partition(data, 1, 0.5, seed=2)
    assert part.n_clients == 1
    assert sorted(part.assignments[0].tolist()) == list(range(30))


def test_dirichlet_partition_alpha_controls_concentration():
    # smaller alpha concentrates each class onto fewer clients
    data = make_synthetic(5, 4, 100, 1.0, seed=0)
    shares = {0.05: [], 5.0: []}
    for alpha in shares:
        for seed in range(50):
            part = dirichlet_partition(data, 10, alpha, seed=seed)
            counts = np.zeros((10, 5))
            for k, idx in enumerate(part.assignments):
                counts[k] = np.bincount(data.labels[idx], minlength=5)
            shares[alpha].append((counts.max(axis=0) / counts.sum(axis=0)).mean())
    assert np.mean(shares[0.05]) > np.mean(shares[5.0])


def test_dirichlet_partition_deterministic():
    data = make_synthetic(4, 6, 25, 2.0, seed=9)
    a = dirichlet_partition(data, 5, 0.5, seed=13)
    b = dirichlet_partition(data, 5, 0.5, seed=13)
    for x, y in zip(a.assignments, b.assignments):
        assert np.array_equal(x, y)


# --------------------------------------------------------------- batch plans

def test_plan_batches_are_distinct_in_range_int64_rows():
    plan = plan_batches(30, 16, 6, seed=5)
    assert plan.shape == (6, 16)
    assert plan.dtype == np.int64
    assert plan.min() >= 0 and plan.max() < 30
    for row in plan:
        assert len(np.unique(row)) == 16  # within-epoch sampling w/o replacement


def test_plan_batches_rows_are_the_seeded_permutation_prefixes():
    # the draws every golden file depends on: epoch tau's batch is the
    # tau-th permutation of the shard from default_rng(seed), cut to B
    plan = plan_batches(100, 32, 3, seed=44)
    rng = np.random.default_rng(44)
    for row in plan:
        npt.assert_array_equal(row, rng.permutation(100)[:32])


def test_plan_batches_too_small_client():
    with pytest.raises(ValueError, match="5 samples; batch_size 32"):
        plan_batches(5, 32, 2, seed=0)


def test_plan_batches_deterministic():
    a = plan_batches(120, 16, 4, seed=99)
    assert np.array_equal(a, plan_batches(120, 16, 4, seed=99))
    assert not np.array_equal(a, plan_batches(120, 16, 4, seed=100))


# ---------------------------------------------------------------- CSV files

def test_dataset_csv_roundtrip(tmp_path):
    data = make_synthetic(4, 5, 12, 2.5, seed=14)
    path = tmp_path / "data.csv"
    save_dataset_csv(path, data)
    header = path.read_text().splitlines()[0]
    assert header == "f0,f1,f2,f3,f4,label"
    loaded = load_dataset_csv(path, 4)
    assert np.array_equal(loaded.features, data.features)
    assert np.array_equal(loaded.labels, data.labels)


@pytest.mark.parametrize(
    "line, message",
    [
        ("nan,0.5,1", "features must be finite"),
        ("1e999,0.5,1", "features must be finite"),
        ("0.1,abc,1", "could not convert string to float: 'abc'"),
        ("0.1,0.5,1.0", "label '1.0' is not an integer"),
        ("0.1,0.5,3", "label 3 is outside [0, 3)"),
        ("0.1,0.5,-1", "label -1 is outside [0, 3)"),
    ],
    ids=["nan", "overflow", "text", "float_label", "label_too_large", "negative_label"],
)
def test_dataset_csv_bad_row_names_file_and_line(tmp_path, line, message):
    path = tmp_path / "data.csv"
    path.write_text(f"f0,f1,label\n0.1,0.2,0\n{line}\n0.3,0.4,2\n")
    with pytest.raises(ValueError, match=f"data.csv, line 3: {re.escape(message)}"):
        load_dataset_csv(path, 3)


def test_partition_csv_layout(tmp_path):
    data = make_synthetic(3, 4, 8, 1.0, seed=1)
    part = dirichlet_partition(data, 2, 0.5, seed=1)
    path = tmp_path / "partition.csv"
    save_partition_csv(path, part)
    lines = path.read_text().splitlines()
    assert lines[0] == "client,sample_index"
    assert len(lines) == 1 + len(data.labels)
    rows = [tuple(map(int, ln.split(","))) for ln in lines[1:]]
    for k, idx_list in enumerate(part.assignments):
        recorded = sorted(i for c, i in rows if c == k)
        assert recorded == sorted(idx_list.tolist())
