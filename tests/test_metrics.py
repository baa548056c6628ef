import logging

import numpy as np
import pytest

from fedleak.metrics import RecoveryScore, cacc, iacc, score


def test_iacc_partial_overlap():
    assert iacc([3, 1], [2, 2], 1, 4) == 0.75


def test_iacc_perfect_and_disjoint():
    assert iacc([4, 0], [4, 0], 1, 4) == 1.0
    assert iacc([4, 0], [0, 4], 1, 4) == 0.0


def test_iacc_symmetric_when_totals_match():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.multinomial(32, rng.dirichlet(np.ones(5)))
        b = rng.multinomial(32, rng.dirichlet(np.ones(5)))
        assert iacc(a, b, 1, 32) == iacc(b, a, 1, 32)


def test_iacc_scales_with_epochs():
    assert iacc([10, 10, 12], [12, 10, 10], 4, 8) == 30 / 32


def test_iacc_true_total_enforced():
    with pytest.raises(ValueError):
        iacc([2, 2], [2, 1], 1, 4)
    with pytest.raises(ValueError):
        iacc([2, 2], [2, 2], 0, 4)


def test_iacc_warns_on_est_total_mismatch(caplog):
    with caplog.at_level(logging.WARNING, logger="fedleak.metrics"):
        value = iacc([5, 0], [2, 2], 1, 4)
    assert value == 0.5
    assert any("estimated counts" in r.message for r in caplog.records)


def test_cacc_presence_agreement():
    # est occupies classes {0, 1}, truth occupies {0, 2}: they agree on
    # class 0 (present) and class 3 (absent)
    assert cacc([3, 1, 0, 0], [2, 0, 2, 0]) == 0.5


def test_cacc_ignores_magnitudes():
    assert cacc([1, 9, 0], [7, 2, 0]) == 1.0


def test_cacc_class_count_check():
    assert cacc([1, 1], [2, 0], n_classes=2) == 0.5
    with pytest.raises(ValueError):
        cacc([1, 1], [2, 0], n_classes=3)
    with pytest.raises(ValueError):
        cacc([[1], [1]], [[2], [0]])


def test_score_bundles_all_fields():
    s = score([3, 1, 0, 0], [2, 0, 2, 0], 1, 4)
    assert s == RecoveryScore(cacc=0.5, iacc=0.5, l1_error=4)

