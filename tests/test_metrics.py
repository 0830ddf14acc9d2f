"""Metrics: AUC, Macro-F1, precision@k — values, edge cases, properties."""

import numpy as np
import pytest

from repro.eval import (
    binary_f1,
    macro_f1,
    precision_at_k,
    predictions_from_topk,
    roc_auc,
)


class TestROCAUC:
    def test_perfect_ranking(self):
        labels = np.array([0, 0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.3, 0.8, 0.9])
        assert roc_auc(labels, scores) == 1.0

    def test_inverted_ranking(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert roc_auc(labels, scores) == 0.0

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=5000)
        scores = rng.random(5000)
        assert abs(roc_auc(labels, scores) - 0.5) < 0.03

    def test_ties_give_half_credit(self):
        labels = np.array([0, 1])
        scores = np.array([0.5, 0.5])
        assert roc_auc(labels, scores) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(ValueError, match="both classes"):
            roc_auc(np.zeros(5), np.arange(5.0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            roc_auc(np.zeros(4), np.zeros(5))

    def test_monotone_transform_invariance(self, int_examples):
        """Property: AUC depends only on the ranking of scores."""
        for (seed,) in int_examples(30, (0, 10_000)):
            rng = np.random.default_rng(seed)
            labels = np.concatenate([np.zeros(10), np.ones(5)]).astype(int)
            scores = rng.normal(size=15)
            a1 = roc_auc(labels, scores)
            a2 = roc_auc(labels, np.exp(2.0 * scores) + 7.0)
            assert a1 == pytest.approx(a2, abs=1e-12)

    def test_complement_property(self, int_examples):
        """Property: negating scores gives 1 - AUC."""
        for (seed,) in int_examples(30, (0, 10_000)):
            rng = np.random.default_rng(seed)
            labels = (rng.random(40) < 0.3).astype(int)
            if labels.sum() in (0, 40):
                continue
            scores = rng.normal(size=40)
            assert roc_auc(labels, scores) == pytest.approx(
                1.0 - roc_auc(labels, -scores), abs=1e-12)


class TestF1:
    def test_perfect(self):
        y = np.array([0, 1, 1, 0])
        assert binary_f1(y, y) == 1.0
        assert macro_f1(y, y) == 1.0

    def test_all_wrong(self):
        y = np.array([0, 1])
        assert macro_f1(y, 1 - y) == 0.0

    def test_no_predicted_positives(self):
        labels = np.array([0, 0, 1])
        predictions = np.zeros(3, dtype=int)
        assert binary_f1(labels, predictions, positive=1) == 0.0

    def test_known_value(self):
        labels = np.array([1, 1, 1, 0, 0, 0])
        predictions = np.array([1, 1, 0, 1, 0, 0])
        # anomaly class: tp=2 fp=1 fn=1 -> f1 = 2/3
        assert binary_f1(labels, predictions) == pytest.approx(2 / 3)
        # normal class: tp=2 fp=1 fn=1 -> f1 = 2/3
        assert macro_f1(labels, predictions) == pytest.approx(2 / 3)

    def test_macro_averages_classes(self):
        labels = np.array([1, 0, 0, 0])
        predictions = np.array([1, 1, 0, 0])
        f_anom = binary_f1(labels, predictions, positive=1)
        f_norm = binary_f1(labels, predictions, positive=0)
        assert macro_f1(labels, predictions) == pytest.approx(
            0.5 * (f_anom + f_norm))


class TestTopK:
    def test_precision_at_k(self):
        labels = np.array([1, 1, 0, 0, 0])
        scores = np.array([0.9, 0.8, 0.7, 0.1, 0.0])
        assert precision_at_k(labels, scores, 2) == 1.0
        assert precision_at_k(labels, scores, 4) == 0.5

    def test_precision_k_validation(self):
        with pytest.raises(ValueError, match="positive"):
            precision_at_k(np.array([0, 1]), np.array([0.0, 1.0]), 0)

    def test_predictions_from_topk(self):
        scores = np.array([0.3, 0.9, 0.1, 0.8])
        out = predictions_from_topk(scores, 2)
        np.testing.assert_array_equal(out, [0, 1, 0, 1])

    def test_topk_zero(self):
        assert predictions_from_topk(np.arange(4.0), 0).sum() == 0

    def test_topk_exceeds_n(self):
        assert predictions_from_topk(np.arange(4.0), 10).sum() == 4

    def test_topk_flags_exactly_k(self, int_examples):
        for k, seed in int_examples(25, (1, 30), (0, 10_000)):
            scores = np.random.default_rng(seed).normal(size=50)
            assert predictions_from_topk(scores, k).sum() == min(k, 50)
