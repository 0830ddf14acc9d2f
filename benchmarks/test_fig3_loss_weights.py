"""Bench: regenerate Fig. 3 (λ, µ, Θ loss-weight sensitivity)."""

from repro.experiments import fig3

from conftest import save_and_echo


def test_fig3_lambda_mu_theta(profile, output_dir):
    rows = fig3.run(profile, datasets=["retail"], lambdas=(0.1, 0.3, 0.5),
                    mus=(0.1, 0.3, 0.5), thetas=(0.01, 0.1, 1.0))
    grid = [r for r in rows if r["sweep"] == "lambda_mu"]
    thetas = [r for r in rows if r["sweep"] == "theta"]
    assert len(grid) == 9 and len(thetas) == 3
    assert all(0.0 <= r["auc"] <= 1.0 for r in rows)
    # the paper reports a broad, non-degenerate optimum: the grid's spread
    # should be modest (no catastrophic configuration)
    aucs = [r["auc"] for r in grid]
    assert max(aucs) - min(aucs) < 0.5
    save_and_echo(output_dir, "fig3", fig3.render(rows))
