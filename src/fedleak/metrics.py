"""Recovery quality metrics for estimated label counts."""

import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


def cacc(est_counts, true_counts) -> float:
    """Class-presence agreement: fraction of classes where (count > 0) matches."""
    est = np.asarray(est_counts, dtype=np.int64)
    true = np.asarray(true_counts, dtype=np.int64)
    if est.shape != true.shape or est.ndim != 1:
        raise ValueError("count vectors must be 1-D and aligned")
    return float(np.mean((est > 0) == (true > 0)))


def iacc(est_counts, true_counts, epochs: int, batch_size: int) -> float:
    """Instance overlap: sum of per-class min(est, true) over epochs * batch_size.

    True counts must total exactly epochs * batch_size. Estimated counts
    that do not are scored as-is with an attached warning.
    """
    est = np.asarray(est_counts, dtype=np.int64)
    true = np.asarray(true_counts, dtype=np.int64)
    if est.shape != true.shape or est.ndim != 1:
        raise ValueError("count vectors must be 1-D and aligned")
    total = epochs * batch_size
    if total <= 0:
        raise ValueError("epochs * batch_size must be positive")
    if true.sum() != total:
        raise ValueError(f"true counts sum to {true.sum()}, expected {total}")
    if est.sum() != total:
        logger.warning("estimated counts sum to %d, expected %d", est.sum(), total)
    return float(np.minimum(est, true).sum() / total)


@dataclass
class RecoveryScore:
    cacc: float
    iacc: float
    l1_error: int


def score(est_counts, true_counts, epochs: int, batch_size: int) -> RecoveryScore:
    est = np.asarray(est_counts, dtype=np.int64)
    true = np.asarray(true_counts, dtype=np.int64)
    return RecoveryScore(
        cacc=cacc(est, true),
        iacc=iacc(est, true, epochs, batch_size),
        l1_error=int(np.abs(est - true).sum()),
    )

