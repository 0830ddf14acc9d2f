"""Bench: regenerate Fig. 6 (accuracy vs efficiency of pruned variants).

Paper shape: the pruned variant matched to the anomaly type (Att on
attribute-only anomalies, Str on structural-only) runs faster than the full
model while keeping most of its accuracy.
"""

from repro.experiments import fig6

from conftest import save_and_echo


def test_fig6_accuracy_efficiency_tradeoff(profile, output_dir):
    rows = fig6.run(profile, datasets=["retail"])
    assert {r["variant"] for r in rows} == {"full", "att", "str", "sub"}

    def pick(kind, variant):
        return next(r for r in rows
                    if r["anomaly_kind"] == kind and r["variant"] == variant)

    # pruned variants are faster than the full model
    for kind in ("attribute", "structural"):
        full = pick(kind, "full")
        assert pick(kind, "att")["runtime_s"] < full["runtime_s"]
        assert pick(kind, "str")["runtime_s"] < full["runtime_s"]
        assert pick(kind, "sub")["runtime_s"] < full["runtime_s"]

    # the matched pruned variant keeps most of the full model's accuracy
    assert pick("attribute", "att")["auc"] >= pick("attribute", "full")["auc"] - 0.15
    # wall-clock columns go to an untracked sibling: fig6.txt stays stable
    save_and_echo(output_dir, "fig6", fig6.render(rows, timings=False))
    save_and_echo(output_dir, "fig6_timings", fig6.render(rows))
