"""Bench: regenerate Fig. 5 (α / β reconstruction-balance sensitivity)."""

from repro.experiments import fig5

from conftest import save_and_echo


def test_fig5_alpha_beta(profile, output_dir):
    rows = fig5.run(profile, datasets=["retail"],
                    values=(0.1, 0.3, 0.5, 0.7, 0.9))
    assert len(rows) == 10
    for param in ("alpha", "beta"):
        series = [r for r in rows if r["param"] == param]
        assert len(series) == 5
        assert all(0.0 <= r["auc"] <= 1.0 for r in series)
    save_and_echo(output_dir, "fig5", fig5.render(rows))
