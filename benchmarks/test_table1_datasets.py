"""Bench: regenerate Table I (dataset statistics, paper vs repo)."""

from repro.experiments import table1

from conftest import save_and_echo


def test_table1_dataset_statistics(profile, output_dir):
    rows = table1.run(profile)
    assert len(rows) == 18
    # every generated dataset preserves which relation dominates
    by_ds = {}
    for r in rows:
        by_ds.setdefault(r["dataset"], []).append(r)
    for ds, rel_rows in by_ds.items():
        paper_max = max(rel_rows, key=lambda r: r["paper_edges"])["relation"]
        repo_max = max(rel_rows, key=lambda r: r["repo_edges"])["relation"]
        assert paper_max == repo_max, f"{ds}: dominant relation flipped"
    save_and_echo(output_dir, "table1", table1.render(rows))
