"""Bench: regenerate Table III (large-scale graphs, OOM-safe methods)."""

from repro.baselines import LARGE_SCALE_BASELINES
from repro.experiments import table3

from conftest import save_and_echo


def test_table3_large_scale(profile, output_dir):
    rows = table3.run(profile, datasets=["dgfin", "tsocial"],
                      methods=list(LARGE_SCALE_BASELINES))
    methods = {r.method for r in rows}
    assert methods == set(LARGE_SCALE_BASELINES) | {"UMGAD"}
    umgad_rows = [r for r in rows if r.method == "UMGAD"]
    for r in umgad_rows:
        assert r.auc_mean > 0.5, f"UMGAD below chance on {r.dataset}"
    save_and_echo(output_dir, "table3", table3.render(rows))
