"""Synthetic blob datasets, Dirichlet client partitions, and batch plans.

Class j of a blob dataset is an isotropic unit-variance Gaussian centered
at separation * u_j, where the unit directions u_j are a fixed function of
(n_classes, dim): orthonormal via QR when n_classes <= dim, normalized
Gaussian rows otherwise. Because the directions do not depend on the draw
seed, an auxiliary set generated with a different seed comes from exactly
the same distribution as the client data.

A batch plan (plan_batches) is an (m, B) index array into one client's
shard, drawn from the shard size and a seed alone, never from labels.

CSV layout for datasets: header f0,...,f{d-1},label, one row per sample.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

_DIRECTION_SEED = 20240811


def derive_seed(master: int, *tags) -> int:
    """Sub-seed of the master seed for the stream named by tags."""
    return int(np.random.SeedSequence([master, *tags]).generate_state(1)[0])


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64
    n_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be (n, d) and labels (n,)")
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels length mismatch")
        if self.n_classes < 1:
            raise ValueError("n_classes must be positive")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.n_classes)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes).astype(np.int64)


@dataclass
class Partition:
    """Disjoint covering assignment of sample indices to clients."""

    assignments: list  # list of int64 arrays, one per client

    @property
    def n_clients(self) -> int:
        return len(self.assignments)


def class_directions(n_classes: int, dim: int) -> np.ndarray:
    """Fixed unit directions for the class centers, (n_classes, dim)."""
    rng = np.random.default_rng(_DIRECTION_SEED)
    g = rng.standard_normal((max(n_classes, dim), dim))
    if n_classes <= dim:
        q, _ = np.linalg.qr(g[:dim].T)
        return q.T[:n_classes].copy()
    return g[:n_classes] / np.linalg.norm(g[:n_classes], axis=1, keepdims=True)


def make_synthetic(
    n_classes: int, dim: int, per_class: int, separation: float, seed: int
) -> Dataset:
    """Gaussian blob dataset: per_class samples for each of n_classes classes.

    Deterministic per seed; the same arguments and seed give bit-identical
    arrays. Samples are grouped by class in label order.
    """
    if n_classes < 2:
        raise ValueError("n_classes must be at least 2")
    if per_class < 1:
        raise ValueError("per_class must be at least 1")
    if not np.isfinite(separation) or separation < 0:
        raise ValueError("separation must be finite and non-negative")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    dirs = class_directions(n_classes, dim)
    rng = np.random.default_rng(seed)
    feats = np.empty((n_classes * per_class, dim))
    labels = np.empty(n_classes * per_class, dtype=np.int64)
    for j in range(n_classes):
        lo = j * per_class
        feats[lo : lo + per_class] = separation * dirs[j] + rng.standard_normal((per_class, dim))
        labels[lo : lo + per_class] = j
    return Dataset(feats, labels, n_classes)


def make_auxiliary(n_classes: int, dim: int, per_class: int, separation: float, seed: int) -> Dataset:
    """Auxiliary set from the same generative distribution as make_synthetic.

    Callers are responsible for passing a seed disjoint from the client
    data seed.
    """
    return make_synthetic(n_classes, dim, per_class, separation, seed)


def largest_remainder(values: np.ndarray, total: int) -> np.ndarray:
    """Round non-negative reals that sum to total to ints with exactly that sum.

    Floors first, then hands the leftover units to the largest fractional
    parts; ties go to the lowest index. Values that sum a whole unit or more
    away from total raise ValueError.
    """
    values = np.asarray(values, dtype=np.float64)
    if total < 0:
        raise ValueError("total must be non-negative")
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a non-empty 1-D array")
    if (values < -1e-9).any():
        raise ValueError("values must be non-negative")
    values = np.maximum(values, 0.0)
    if not abs(values.sum() - total) < 1.0:
        raise ValueError(f"values sum to {values.sum()!r}, not within one unit of total {total}")
    base = np.floor(values).astype(np.int64)
    # the check bounds the leftover to [0, values.size]
    leftover = int(total - base.sum())
    order = np.lexsort((np.arange(values.size), -(values - base)))
    base[order[:leftover]] += 1
    return base


def dirichlet_partition(dataset: Dataset, n_clients: int, alpha: float, seed: int) -> Partition:
    """Non-IID split: per class, client shares drawn from Dirichlet(alpha).

    Counts per class are apportioned with largest_remainder so every class
    is conserved exactly; indices are shuffled per seed before splitting.
    n_clients = 1 degenerates to a single client owning everything.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be at least 1")
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValueError("alpha must be finite and positive")
    rng = np.random.default_rng(seed)
    buckets = [[] for _ in range(n_clients)]
    for j in range(dataset.n_classes):
        idx = np.nonzero(dataset.labels == j)[0]
        rng.shuffle(idx)
        if n_clients == 1:
            counts = np.array([len(idx)], dtype=np.int64)
        else:
            shares = rng.dirichlet(np.full(n_clients, alpha))
            counts = largest_remainder(shares * len(idx), len(idx))
        lo = 0
        for k in range(n_clients):
            buckets[k].append(idx[lo : lo + counts[k]])
            lo += counts[k]
    assignments = [np.concatenate(b).astype(np.int64) if b else np.empty(0, np.int64) for b in buckets]
    return Partition(assignments)


def plan_batches(n_samples: int, batch_size: int, epochs: int, seed: int) -> np.ndarray:
    """(epochs, batch_size) int64 indices into a shard of n_samples, from the seed alone.

    One batch per epoch, sampled without replacement, fresh shuffle per epoch:
    row tau is default_rng(seed)'s tau-th permutation(n_samples), cut to batch_size.
    """
    if batch_size < 1 or epochs < 1:
        raise ValueError("batch_size and epochs must be at least 1")
    if n_samples < batch_size:
        raise ValueError(f"client has {n_samples} samples; batch_size {batch_size} is larger")
    rng = np.random.default_rng(seed)
    return np.array([rng.permutation(n_samples)[:batch_size] for _ in range(epochs)], dtype=np.int64)


def save_dataset_csv(path, dataset: Dataset) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dataset.dim)] + ["label"])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def load_dataset_csv(path, n_classes: int = None) -> Dataset:
    top = math.inf if n_classes is None else n_classes
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[-1] != "label" or header[0] != "f0":
            raise ValueError(f"{path}: expected header f0,...,label")
        dim = len(header) - 1
        feats, labels = [], []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != dim + 1:
                raise ValueError(f"{where}: row width {len(row)} != {dim + 1}")
            try:
                feats.append([float(v) for v in row[:dim]])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if not all(map(math.isfinite, feats[-1])):
                raise ValueError(f"{where}: features must be finite")
            try:
                labels.append(int(row[dim]))
            except ValueError:
                raise ValueError(f"{where}: label {row[dim]!r} is not an integer") from None
            if not 0 <= labels[-1] < top:
                raise ValueError(f"{where}: label {labels[-1]} is outside [0, {top})")
    labels = np.asarray(labels, dtype=np.int64)
    if n_classes is None:
        n_classes = int(labels.max()) + 1 if len(labels) else 1
    return Dataset(np.asarray(feats, dtype=np.float64), labels, n_classes)


def save_partition_csv(path, partition: Partition) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client", "sample_index"])
        for k, idx in enumerate(partition.assignments):
            for i in idx:
                writer.writerow([k, int(i)])
