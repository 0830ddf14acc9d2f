"""Bench: regenerate Table IV (ablation study).

Paper shape: every variant underperforms full UMGAD; w/o M (no masking) is
the worst or near-worst. Also includes the DESIGN.md §4 extra ablation:
uniform relation fusion.
"""

import numpy as np

from repro.core import UMGAD
from repro.eval.metrics import roc_auc
from repro.experiments import table4
from repro.experiments.common import get_dataset, umgad_config

from conftest import save_and_echo

DATASETS = ["retail", "amazon"]


def test_table4_ablations(profile, output_dir):
    rows = table4.run(profile, datasets=DATASETS)
    for ds in DATASETS:
        sub = {r["variant"]: r["auc"] for r in rows if r["dataset"] == ds}
        assert set(sub) == {"w/o M", "w/o O", "w/o A", "w/o NA", "w/o SA",
                            "w/o DCL", "UMGAD"}
        # full model should not be clearly dominated by any single ablation
        best_variant = max(v for k, v in sub.items() if k != "UMGAD")
        assert sub["UMGAD"] >= best_variant - 0.1
    save_and_echo(output_dir, "table4", table4.render(rows))


def test_table4_extra_uniform_fusion(profile, output_dir):
    """DESIGN.md §4 ablation: learnable a_r/b_r vs frozen uniform fusion."""
    dataset = get_dataset("retail", profile)

    results = {}
    for label in ("learned", "uniform"):
        cfg = umgad_config("retail", profile, seed=0, relation_fusion=label)
        model = UMGAD(cfg).fit(dataset.graph)
        results[label] = roc_auc(dataset.labels, model.decision_scores())
    text = "\n".join(f"fusion={k:8s} AUC={v:.3f}" for k, v in results.items())
    save_and_echo(output_dir, "table4_fusion_ablation", text)
    assert results["learned"] > 0.5
