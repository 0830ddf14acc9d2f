"""Bench: regenerate Fig. 7 (runtime per epoch, total runtime, convergence).

Paper shape: UMGAD's runtime is competitive with the best baselines and its
training loss converges (large early drop, flat tail).
"""

from repro.experiments import fig7

from conftest import save_and_echo


def test_fig7_efficiency(profile, output_dir):
    result = fig7.run(profile, datasets=["retail", "yelpchi"])
    timings = result["timings"]
    methods = {r["method"] for r in timings}
    assert methods == {"GRADATE", "GADAM", "ADA-GAD", "DualGAD", "UMGAD"}
    assert all(r["total_s"] > 0 for r in timings)

    # convergence: UMGAD's loss decreases over training on every dataset
    for ds, curve in result["umgad_loss"].items():
        assert len(curve) == profile.umgad_epochs
        first = sum(curve[:3]) / 3
        last = sum(curve[-3:]) / 3
        assert last < first, f"loss did not decrease on {ds}"
    # wall-clock columns go to an untracked sibling: fig7.txt stays stable
    save_and_echo(output_dir, "fig7", fig7.render(result, timings=False))
    save_and_echo(output_dir, "fig7_timings", fig7.render(result))
