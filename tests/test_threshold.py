"""Unsupervised threshold selection (Sec. IV-E, Eqs. 20-23)."""

import numpy as np
import pytest

from repro.core import default_window, moving_average, select_threshold
from repro.core.threshold import predict_with_threshold


def knee_curve(n_anomalies=20, n_normal=500, gap=2.0, noise=0.02, seed=0):
    """Scores with a sharp knee after n_anomalies entries."""
    rng = np.random.default_rng(seed)
    high = gap + rng.random(n_anomalies) * 0.5
    low = rng.random(n_normal) * 0.3
    scores = np.concatenate([high, low])
    return scores + rng.normal(0, noise, scores.size)


class TestMovingAverage:
    def test_window_one_identity(self):
        x = np.array([3.0, 1.0, 2.0])
        np.testing.assert_allclose(moving_average(x, 1), x)

    def test_known_values(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(moving_average(x, 2), [1.5, 2.5, 3.5])

    def test_window_too_large_raises(self):
        with pytest.raises(ValueError, match="larger"):
            moving_average(np.ones(3), 5)

    def test_window_nonpositive_raises(self):
        with pytest.raises(ValueError, match=">= 1"):
            moving_average(np.ones(3), 0)

    def test_length(self):
        out = moving_average(np.arange(100.0), 7)
        assert out.size == 100 - 7 + 1


class TestDefaultWindow:
    def test_small_floor(self):
        assert default_window(100) == 5
        assert default_window(49_999) == 5

    def test_paper_formula_large(self):
        assert default_window(1_000_000) == 100


class TestSelectThreshold:
    def test_finds_sharp_knee(self):
        scores = knee_curve(n_anomalies=25, n_normal=600)
        result = select_threshold(scores)
        assert 10 <= result.num_anomalies <= 60  # near the true 25

    def test_predictions_match_threshold(self):
        scores = knee_curve()
        result = select_threshold(scores)
        predictions = predict_with_threshold(scores, result)
        assert predictions.sum() == result.num_anomalies
        assert np.all(scores[predictions == 1] >= result.threshold)

    def test_order_invariance(self):
        scores = knee_curve(seed=3)
        shuffled = np.random.default_rng(0).permutation(scores)
        assert select_threshold(scores).threshold == pytest.approx(
            select_threshold(shuffled).threshold)

    def test_minimum_length(self):
        with pytest.raises(ValueError, match="at least"):
            select_threshold(np.arange(5.0))

    def test_custom_window(self):
        scores = knee_curve()
        result = select_threshold(scores, window=11)
        assert result.window == 11

    def test_tie_tolerance_validation(self):
        with pytest.raises(ValueError, match="tie_tolerance"):
            select_threshold(knee_curve(), tie_tolerance=0.0)

    def test_threshold_inside_score_range(self):
        scores = knee_curve(seed=5)
        result = select_threshold(scores)
        assert scores.min() <= result.threshold <= scores.max()

    def test_minority_guard(self):
        """Never flags the majority of nodes (documented deviation)."""
        rng = np.random.default_rng(1)
        scores = rng.random(500)  # no structure at all
        result = select_threshold(scores)
        assert result.num_anomalies <= 300

    def test_smoothed_curve_returned(self):
        scores = knee_curve()
        result = select_threshold(scores)
        assert result.smoothed.size == scores.size - result.window + 1
        # smoothed curve of a descending sort is non-increasing-ish
        assert result.smoothed[0] >= result.smoothed[-1]

    def test_knee_recovery_property(self, int_examples):
        """Property: with a clean two-level curve the flagged count is
        within a factor of ~3 of the true anomaly count."""
        for k, seed in int_examples(20, (5, 60), (0, 10_000)):
            scores = knee_curve(n_anomalies=k, n_normal=500, gap=3.0,
                                noise=0.01, seed=seed)
            result = select_threshold(scores)
            assert result.num_anomalies <= 4 * k + 10
            assert result.num_anomalies >= max(1, k // 4)

    def test_scale_shift_invariance(self, int_examples):
        """Property: affine-transforming scores moves the threshold with
        them (same flagged set)."""
        for (seed,) in int_examples(15, (0, 10_000)):
            scores = knee_curve(seed=seed)
            r1 = select_threshold(scores)
            r2 = select_threshold(scores * 3.0 + 10.0)
            assert r1.num_anomalies == r2.num_anomalies
