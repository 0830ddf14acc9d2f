"""Shared utilities: RNG threading and timing."""

from .rng import SeedLike, ensure_rng, spawn
from .timer import Timer, median_mad

__all__ = ["SeedLike", "Timer", "ensure_rng", "median_mad", "spawn"]
