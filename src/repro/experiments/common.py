"""Shared experiment infrastructure: profiles, factories, caching.

Every experiment module exposes ``run(profile) -> rows`` plus a ``render``
helper; profiles size the sweep (dataset scale, seeds, epochs) so the same
code drives both the quick benchmark suite and a full reproduction run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from ..baselines import make_baseline
from ..core import UMGAD, UMGADConfig
from ..datasets import Dataset, load_dataset
from ..detection import BaseDetector


@dataclass(frozen=True)
class ExperimentProfile:
    """Sizing knobs for an experiment sweep."""

    name: str
    dataset_scale: float = 0.5       # multiplier on the repo's base sizes
    large_scale: float = 0.35        # for dgfin / tsocial
    seeds: tuple = (0, 1, 2)
    umgad_epochs: int = 40
    baseline_epochs: int = 30
    num_features: int = 32
    data_seed: int = 7
    # Training batch strategy threaded into UMGADConfig (repro.engine):
    # "full" reproduces the paper's full-batch training; "subgraph" trains
    # on RWR-sampled minibatches so Table III / Fig. 7 can *train* (not
    # just score) at large scale.
    umgad_batch: str = "full"
    umgad_batch_size: int = 512
    umgad_batches_per_epoch: int = 2

    def variant(self, **overrides) -> "ExperimentProfile":
        return replace(self, **overrides)


#: quick profile for a fast end-to-end reproduction run
FAST = ExperimentProfile(
    name="fast", dataset_scale=0.25, large_scale=0.2, seeds=(0,),
    umgad_epochs=20, baseline_epochs=15,
)

#: fuller profile for EXPERIMENTS.md numbers
FULL = ExperimentProfile(
    name="full", dataset_scale=0.5, large_scale=0.35, seeds=(0, 1, 2),
    umgad_epochs=60, baseline_epochs=40,
)

#: FAST sized, but UMGAD trains on sampled subgraph minibatches — the
#: profile for large-graph table3/fig7 runs where full-batch epochs are
#: the bottleneck
SAMPLED = FAST.variant(name="sampled", umgad_batch="subgraph")

_dataset_cache: Dict = {}


def get_dataset(name: str, profile: ExperimentProfile) -> Dataset:
    """Load (and cache) a dataset at the profile's scale."""
    scale = (profile.large_scale if name in ("dgfin", "tsocial")
             else profile.dataset_scale)
    key = (name, scale, profile.num_features, profile.data_seed)
    if key not in _dataset_cache:
        _dataset_cache[key] = load_dataset(
            name, scale=scale, num_features=profile.num_features,
            seed=profile.data_seed)
    return _dataset_cache[key]


def clear_dataset_cache() -> None:
    _dataset_cache.clear()


# Dataset-specific UMGAD settings following the paper's implementation
# details (Sec. V-A3: encoder depth 2 for real-anomaly datasets, 1 for
# injected) and Fig. 4's best mask ratios.
_DATASET_OVERRIDES: Dict[str, dict] = {
    # Injected-anomaly datasets: half the anomalies are attribute swaps, so
    # the score leans on the attribute term (ε = 0.7).
    "retail": {"mask_ratio": 0.2, "encoder_layers": 1, "epsilon": 0.7},
    "alibaba": {"mask_ratio": 0.2, "encoder_layers": 1, "epsilon": 0.7},
    "amazon": {"mask_ratio": 0.4, "encoder_layers": 2},
    "yelpchi": {"mask_ratio": 0.6, "encoder_layers": 2},
    "dgfin": {"mask_ratio": 0.4, "encoder_layers": 1},
    "tsocial": {"mask_ratio": 0.4, "encoder_layers": 1},
}


def umgad_config(dataset_name: str, profile: ExperimentProfile,
                 **overrides) -> UMGADConfig:
    """Paper-style per-dataset UMGAD configuration."""
    kwargs = dict(_DATASET_OVERRIDES.get(dataset_name, {}))
    kwargs.update(epochs=profile.umgad_epochs,
                  batch=profile.umgad_batch,
                  batch_size=profile.umgad_batch_size,
                  batches_per_epoch=profile.umgad_batches_per_epoch)
    kwargs.update(overrides)
    return UMGADConfig(**kwargs)


def umgad_factory(dataset_name: str, profile: ExperimentProfile,
                  **overrides) -> Callable[[int], BaseDetector]:
    """Seeded UMGAD factory for the runner."""

    def factory(seed: int) -> BaseDetector:
        return UMGAD(umgad_config(dataset_name, profile, seed=seed, **overrides))

    return factory


def baseline_factory(method: str, profile: ExperimentProfile
                     ) -> Callable[[int], BaseDetector]:
    """Seeded baseline factory for the runner."""

    def factory(seed: int) -> BaseDetector:
        return make_baseline(method, seed=seed, epochs=profile.baseline_epochs)

    return factory
