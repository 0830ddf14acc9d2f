"""Bench: regenerate Fig. 4 (mask ratio × masked-subgraph size)."""

from repro.experiments import fig4

from conftest import save_and_echo


def test_fig4_mask_ratio_and_subgraph_size(profile, output_dir):
    rows = fig4.run(profile, datasets=["retail"],
                    mask_ratios=(0.2, 0.4, 0.6, 0.8), subgraph_sizes=(4, 12))
    assert len(rows) == 8
    by_ratio = {}
    for r in rows:
        by_ratio.setdefault(r["mask_ratio"], []).append(r["auc"])
    # paper shape for injected datasets: low mask ratios are at least
    # competitive with the extreme 80% setting
    best_low = max(max(by_ratio[0.2]), max(by_ratio[0.4]))
    assert best_low >= max(by_ratio[0.8]) - 0.1
    save_and_echo(output_dir, "fig4", fig4.render(rows))
