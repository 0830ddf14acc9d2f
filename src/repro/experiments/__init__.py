"""Experiment modules: one per paper table/figure (README, "Reproducing the
paper").

Each module exposes ``run(profile, ...) -> rows`` and ``render(rows) -> str``.
Profiles (:data:`FAST`, :data:`FULL`) size the sweeps.
"""

from . import fig2, fig3, fig4, fig5, fig6, fig7, table1, table2, table3, table4, table5
from . import report
from .common import (
    FAST,
    FULL,
    SAMPLED,
    ExperimentProfile,
    clear_dataset_cache,
    get_dataset,
)

__all__ = [
    "FAST",
    "FULL",
    "SAMPLED",
    "ExperimentProfile",
    "clear_dataset_cache",
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "get_dataset",
    "report",
    "table1", "table2", "table3", "table4", "table5",
]
