"""Shared fixtures: RNGs, tiny graphs, a tiny fitted UMGAD model, and the
seeded example generator the property tests loop over."""

import random

import numpy as np
import pytest

from repro.core import UMGAD, UMGADConfig
from repro.datasets import load_dataset
from repro.graphs import MultiplexGraph, RelationGraph, random_multiplex


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def int_examples():
    """``int_examples(count, (lo, hi), ...)`` yields ``count`` tuples, one
    integer per inclusive ``[lo, hi]`` range. The first tuple holds every
    lower bound and the second every upper bound, so the edges of each
    range are always tried; the rest are drawn from a fixed seed, so a
    failure names an example that reproduces on every run."""
    def examples(count, *bounds, seed=0):
        draw = random.Random(seed)
        yield tuple(lo for lo, _ in bounds)
        yield tuple(hi for _, hi in bounds)
        for _ in range(count - 2):
            yield tuple(draw.randint(lo, hi) for lo, hi in bounds)
    return examples


@pytest.fixture
def tiny_relation(rng):
    """A ~30-node connected-ish relation graph."""
    edges = []
    for i in range(29):
        edges.append((i, i + 1))
    extra = rng.integers(0, 30, size=(15, 2))
    edges = np.concatenate([np.array(edges), extra])
    return RelationGraph(30, edges, name="tiny")


@pytest.fixture
def tiny_multiplex(rng):
    """3-relation multiplex graph with 40 nodes, 8 features."""
    return random_multiplex(40, 3, 8, rng, avg_degree=4.0)


@pytest.fixture(scope="session")
def tiny_dataset():
    """Small retail dataset reused across tests (read-only)."""
    return load_dataset("retail", scale=0.15, num_features=16, seed=11)


@pytest.fixture(scope="session")
def fitted_umgad(tiny_dataset):
    """A UMGAD model fitted with a minimal budget (read-only)."""
    cfg = UMGADConfig(epochs=4, mask_repeats=1, hidden_dim=16, seed=0)
    return UMGAD(cfg).fit(tiny_dataset.graph)
