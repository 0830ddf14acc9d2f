"""Figure 7 — efficiency analysis: per-epoch runtime, total runtime,
training-loss convergence.

UMGAD vs the four best baselines (GRADATE, GADAM, ADA-GAD, DualGAD) on
Retail / YelpChi / T-Social stand-ins. Per-epoch numbers for the baselines
are total fit time divided by their epoch budget; UMGAD's come from its
internal timer. Panel (c) is UMGAD's loss history (convergence shape).

Run under the ``SAMPLED`` profile, UMGAD trains on subgraph minibatches
(``repro.engine``), so the per-epoch column measures sampled training —
the engine analogue of the paper's Fig. 7 efficiency study.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..core import UMGAD
from .common import ExperimentProfile, baseline_factory, get_dataset, umgad_config

METHODS = ("GRADATE", "GADAM", "ADA-GAD", "DualGAD")


def run(profile: ExperimentProfile,
        datasets: Optional[List[str]] = None,
        methods=METHODS) -> Dict:
    datasets = list(datasets or ["retail", "yelpchi", "tsocial"])
    timing_rows: List[Dict] = []
    loss_curves: Dict[str, List[float]] = {}
    for ds_name in datasets:
        dataset = get_dataset(ds_name, profile)
        for method in methods:
            detector = baseline_factory(method, profile)(profile.seeds[0])
            start = time.perf_counter()
            detector.fit(dataset.graph)
            total = time.perf_counter() - start
            epochs = getattr(detector, "epochs", profile.baseline_epochs)
            timing_rows.append({
                "dataset": ds_name, "method": method,
                "total_s": total,
                "per_epoch_s": total / max(int(epochs), 1),
            })
        cfg = umgad_config(
            ds_name, profile, seed=profile.seeds[0],
            structure_score_mode=("sampled" if ds_name in ("dgfin", "tsocial")
                                  else "auto"))
        model = UMGAD(cfg)
        start = time.perf_counter()
        model.fit(dataset.graph)
        total = time.perf_counter() - start
        timing_rows.append({
            "dataset": ds_name, "method": "UMGAD",
            "total_s": total,
            "per_epoch_s": model.timer.mean("epoch"),
        })
        loss_curves[ds_name] = list(model.loss_history)
    return {"timings": timing_rows, "umgad_loss": loss_curves}


def render(result: Dict, timings: bool = True) -> str:
    """Panels (a)-(c); ``timings=False`` keeps only the loss curves."""
    lines = []
    if timings:
        lines.append(f"{'dataset':10s} {'method':10s} "
                     f"{'per-epoch(s)':>13s} {'total(s)':>9s}")
        for r in result["timings"]:
            lines.append(f"{r['dataset']:10s} {r['method']:10s} "
                         f"{r['per_epoch_s']:13.3f} {r['total_s']:9.2f}")
    for ds, curve in result["umgad_loss"].items():
        if len(curve) >= 2:
            drop = 100.0 * (curve[0] - curve[-1]) / max(abs(curve[0]), 1e-9)
            lines.append(
                f"UMGAD loss on {ds}: {curve[0]:.3f} -> {curve[-1]:.3f} "
                f"({drop:.1f}% drop over {len(curve)} epochs)")
    return "\n".join(lines)
