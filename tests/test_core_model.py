"""UMGAD model: training behaviour, scoring contract, ablations, modes."""

import numpy as np
import pytest

from repro.core import UMGAD, UMGADConfig, ablation_config
from repro.eval import roc_auc


def tiny_cfg(**overrides):
    base = dict(epochs=3, mask_repeats=1, hidden_dim=8, seed=0,
                num_subgraphs=2, subgraph_size=4)
    base.update(overrides)
    return UMGADConfig(**base)


class TestFitContract:
    def test_scores_shape_and_finite(self, fitted_umgad, tiny_dataset):
        scores = fitted_umgad.decision_scores()
        assert scores.shape == (tiny_dataset.graph.num_nodes,)
        assert np.all(np.isfinite(scores))

    def test_scores_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="before fit"):
            UMGAD(tiny_cfg()).decision_scores()

    def test_loss_history_recorded(self, fitted_umgad):
        assert len(fitted_umgad.loss_history) == fitted_umgad.config.epochs
        assert all(np.isfinite(v) for v in fitted_umgad.loss_history)

    def test_loss_components_recorded(self, fitted_umgad):
        parts = fitted_umgad.loss_components[-1]
        assert {"L_O", "L_A_Aug", "L_S_Aug", "L_CL"} <= set(parts)

    def test_loss_decreases(self, tiny_dataset):
        model = UMGAD(tiny_cfg(epochs=15)).fit(tiny_dataset.graph)
        first = np.mean(model.loss_history[:3])
        last = np.mean(model.loss_history[-3:])
        assert last < first

    def test_timer_tracks_epochs(self, fitted_umgad):
        assert len(fitted_umgad.train_state.epoch_seconds) == \
            fitted_umgad.config.epochs
        assert fitted_umgad.timer.total("scoring") > 0

    def test_relation_importance(self, fitted_umgad, tiny_dataset):
        importance = fitted_umgad.relation_importance
        assert set(importance) == set(tiny_dataset.graph.relation_names)
        assert sum(importance.values()) == pytest.approx(1.0)

    def test_relation_importance_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            UMGAD(tiny_cfg()).relation_importance

    def test_deterministic_given_seed(self, tiny_dataset):
        s1 = UMGAD(tiny_cfg()).fit(tiny_dataset.graph).decision_scores()
        s2 = UMGAD(tiny_cfg()).fit(tiny_dataset.graph).decision_scores()
        np.testing.assert_allclose(s1, s2)

    def test_predict_binary(self, fitted_umgad, tiny_dataset):
        pred = fitted_umgad.predict()
        assert set(np.unique(pred)) <= {0, 1}
        assert pred.shape == (tiny_dataset.graph.num_nodes,)

    def test_predict_with_known_count(self, fitted_umgad, tiny_dataset):
        pred = fitted_umgad.predict_with_known_count(tiny_dataset.num_anomalies)
        assert pred.sum() == tiny_dataset.num_anomalies


class TestAblations:
    @pytest.mark.parametrize("name", ["w/o M", "w/o O", "w/o A", "w/o NA",
                                      "w/o SA", "w/o DCL"])
    def test_every_variant_runs(self, name, tiny_dataset):
        cfg = ablation_config(tiny_cfg(), name)
        model = UMGAD(cfg).fit(tiny_dataset.graph)
        scores = model.decision_scores()
        assert np.all(np.isfinite(scores))

    def test_wo_mask_uses_unmasked_eval(self, tiny_dataset):
        cfg = tiny_cfg(use_mask=False)
        model = UMGAD(cfg).fit(tiny_dataset.graph)
        assert np.all(np.isfinite(model.decision_scores()))

    def test_everything_off_raises(self, tiny_dataset):
        cfg = tiny_cfg(use_original=False, use_augmented=False,
                       use_contrastive=False)
        with pytest.raises(RuntimeError, match="nothing to score"):
            UMGAD(cfg).fit(tiny_dataset.graph)


class TestModes:
    @pytest.mark.parametrize("mode", ["att", "str", "sub"])
    def test_pruned_modes_run(self, mode, tiny_dataset):
        model = UMGAD(tiny_cfg(mode=mode)).fit(tiny_dataset.graph)
        assert np.all(np.isfinite(model.decision_scores()))

    def test_att_mode_skips_structure_losses(self, tiny_dataset):
        model = UMGAD(tiny_cfg(mode="att")).fit(tiny_dataset.graph)
        # subgraph view is disabled in att mode
        assert "L_S_Aug" not in model.loss_components[-1]


class TestExtensions:
    def test_early_stopping_halts(self, tiny_dataset):
        cfg = tiny_cfg(epochs=40, early_stop_patience=2,
                       early_stop_min_delta=10.0)  # impossible improvement
        model = UMGAD(cfg).fit(tiny_dataset.graph)
        assert len(model.loss_history) < 40
        assert np.all(np.isfinite(model.decision_scores()))

    def test_early_stopping_off_by_default(self, tiny_dataset):
        model = UMGAD(tiny_cfg(epochs=4)).fit(tiny_dataset.graph)
        assert len(model.loss_history) == 4

    def test_uniform_fusion(self, tiny_dataset):
        cfg = tiny_cfg(relation_fusion="uniform")
        model = UMGAD(cfg).fit(tiny_dataset.graph)
        weights = list(model.relation_importance.values())
        assert all(w == pytest.approx(weights[0]) for w in weights)

    def test_invalid_fusion_rejected(self):
        with pytest.raises(ValueError, match="relation_fusion"):
            tiny_cfg(relation_fusion="attention")

    def test_negative_patience_rejected(self):
        with pytest.raises(ValueError, match="patience"):
            tiny_cfg(early_stop_patience=-1)


class TestDetectionQuality:
    def test_beats_random_on_injected_data(self, tiny_dataset):
        model = UMGAD(tiny_cfg(epochs=12)).fit(tiny_dataset.graph)
        auc = roc_auc(tiny_dataset.labels, model.decision_scores())
        assert auc > 0.6  # tiny budget, but must clearly beat chance

    def test_sampled_structure_mode(self, tiny_dataset):
        cfg = tiny_cfg(structure_score_mode="sampled")
        model = UMGAD(cfg).fit(tiny_dataset.graph)
        assert np.all(np.isfinite(model.decision_scores()))
