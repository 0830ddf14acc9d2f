"""Paper table and figure reproduction: shared configuration.

Each test regenerates one paper table/figure through its
``repro.experiments`` module at the ``bench`` profile (single seed,
scaled-down datasets) so the whole suite completes on a laptop. The same
modules rerun at ``FULL`` produce the EXPERIMENTS.md numbers. Rendered
outputs are written to ``benchmarks/output/``. Nothing here times the
code: ``perfbench/run.py`` is the repository's benchmark harness.
"""

import pathlib

import pytest

from repro.experiments import ExperimentProfile, clear_dataset_cache

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: sizing for the benchmark suite — small but large enough that the paper's
#: qualitative shape (who wins, knee positions) is visible
BENCH = ExperimentProfile(
    name="bench", dataset_scale=0.3, large_scale=0.15, seeds=(0,),
    umgad_epochs=30, baseline_epochs=12, num_features=24, data_seed=7,
)


@pytest.fixture(scope="session")
def profile():
    return BENCH


@pytest.fixture(scope="session")
def output_dir():
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session", autouse=True)
def _cache_lifecycle():
    clear_dataset_cache()
    yield
    clear_dataset_cache()


def save_and_echo(output_dir, name: str, text: str) -> None:
    """Persist a rendered table/figure and echo it to the terminal."""
    path = output_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n[saved to {path}]")
