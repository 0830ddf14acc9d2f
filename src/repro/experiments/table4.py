"""Table IV — ablation study: UMGAD vs its six variants.

``w/o M`` (no masking), ``w/o O`` (no original view), ``w/o A`` (no
augmented views), ``w/o NA`` (no attribute-level augmentation), ``w/o SA``
(no subgraph-level augmentation), ``w/o DCL`` (no dual-view contrastive
learning). An extra repo-specific ablation ``uniform-fusion`` freezes the
relation-fusion weights to uniform (README, "Deviations from the paper",
item 4).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core import UMGAD, ablation_config
from ..datasets import SMALL_DATASETS
from ..eval.protocols import evaluate_unsupervised
from .common import ExperimentProfile, get_dataset, umgad_config

ABLATIONS = ("w/o M", "w/o O", "w/o A", "w/o NA", "w/o SA", "w/o DCL", "full")


def run(profile: ExperimentProfile,
        datasets: Optional[List[str]] = None,
        ablations=ABLATIONS) -> List[Dict]:
    datasets = list(datasets or SMALL_DATASETS)
    rows: List[Dict] = []
    for ds_name in datasets:
        dataset = get_dataset(ds_name, profile)
        base = umgad_config(ds_name, profile)
        for name in ablations:
            aucs, f1s = [], []
            for seed in profile.seeds:
                cfg = ablation_config(base, name).variant(seed=seed)
                model = UMGAD(cfg).fit(dataset.graph)
                result = evaluate_unsupervised(dataset.labels,
                                               model.decision_scores())
                aucs.append(result.auc)
                f1s.append(result.macro_f1)
            rows.append({
                "dataset": ds_name,
                "variant": name if name != "full" else "UMGAD",
                "auc": float(np.mean(aucs)),
                "macro_f1": float(np.mean(f1s)),
            })
    return rows


def render(rows: List[Dict]) -> str:
    datasets = list(dict.fromkeys(r["dataset"] for r in rows))
    variants = list(dict.fromkeys(r["variant"] for r in rows))
    by_key = {(r["variant"], r["dataset"]): r for r in rows}
    header = f"{'variant':>10s}" + "".join(
        f"  {ds + '/AUC':>12s}  {ds + '/F1':>12s}" for ds in datasets)
    lines = [header]
    for variant in variants:
        cells = [f"{variant:>10s}"]
        for ds in datasets:
            r = by_key.get((variant, ds))
            cells.append(f"  {r['auc']:12.3f}  {r['macro_f1']:12.3f}" if r
                         else "  " + "—".rjust(12) + "  " + "—".rjust(12))
        lines.append("".join(cells))
    return "\n".join(lines)
