"""Serving-latency measurement (the ``serve-bench`` CLI subcommand).

Quantifies what the persistence subsystem buys: loading a checkpoint and
answering from the warm cache versus refitting from scratch on every
request (the only option before ``repro.serve`` existed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..graphs.io import graph_fingerprint
from ..graphs.multiplex import MultiplexGraph
from .service import DetectorService


@dataclass(frozen=True)
class ServeBenchResult:
    """Latencies (seconds) of one serve-bench run."""

    load_seconds: float        # checkpoint -> ready detector
    cold_seconds: float        # first request (nothing cached yet)
    warm_seconds: float        # mean warm-cache request over ``requests`` calls
    warm_requests: int
    fit_seconds: Optional[float] = None   # from-scratch fit, when measured
    #: the first request was answered from the detector's stored fit
    #: scores (the checkpoint's own training graph), not a scoring pass
    cold_from_stored: bool = False
    cache: Optional[Dict[str, float]] = None  # ServiceStats.to_dict()

    @property
    def warm_speedup_vs_cold(self) -> float:
        return self.cold_seconds / max(self.warm_seconds, 1e-12)

    @property
    def warm_speedup_vs_fit(self) -> Optional[float]:
        if self.fit_seconds is None:
            return None
        return self.fit_seconds / max(self.warm_seconds, 1e-12)

    def to_dict(self) -> Dict[str, float]:
        out = {
            "load_seconds": self.load_seconds,
            "cold_seconds": self.cold_seconds,
            "cold_from_stored": self.cold_from_stored,
            "warm_seconds": self.warm_seconds,
            "warm_requests": self.warm_requests,
            "warm_speedup_vs_cold": self.warm_speedup_vs_cold,
        }
        if self.fit_seconds is not None:
            out["fit_seconds"] = self.fit_seconds
            out["warm_speedup_vs_fit"] = self.warm_speedup_vs_fit
        if self.cache is not None:
            out["cache"] = dict(self.cache)
        return out

    def render(self) -> str:
        lines = [
            f"checkpoint load   {self.load_seconds * 1e3:10.2f} ms",
            f"cold request      {self.cold_seconds * 1e3:10.2f} ms  "
            + ("(cache miss, answered from stored fit scores)"
               if self.cold_from_stored
               else "(cache miss, full scoring pass)"),
            f"warm request      {self.warm_seconds * 1e3:10.2f} ms  "
            f"(mean of {self.warm_requests}; "
            f"{self.warm_speedup_vs_cold:.1f}x vs cold)",
        ]
        if self.fit_seconds is not None:
            lines.append(
                f"from-scratch fit  {self.fit_seconds * 1e3:10.2f} ms  "
                f"(warm cache is {self.warm_speedup_vs_fit:.1f}x faster)")
        if self.cache is not None:
            lines.append(
                f"cache             hits={self.cache['hits']} "
                f"misses={self.cache['misses']} "
                f"hit_rate={self.cache['hit_rate']:.0%}")
        return "\n".join(lines)


def run_serve_bench(checkpoint_path, graph: MultiplexGraph,
                    requests: int = 20, cache_size: int = 8,
                    fit_seconds: Optional[float] = None,
                    match_dtype: bool = True) -> ServeBenchResult:
    """Measure cold-load, cold-score and warm-cache latency for a checkpoint.

    ``fit_seconds`` (measured by the caller, e.g. right after training) is
    carried through so reports can show the serve-vs-refit gap.
    ``match_dtype=False`` keeps the process precision as-is instead of
    adopting the checkpoint's (see :class:`DetectorService`); the CLI
    passes it because ``graph`` was already built at the resolved --dtype.
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")

    start = time.perf_counter()
    service = DetectorService(checkpoint_path, cache_size=cache_size,
                              match_dtype=match_dtype)
    load_seconds = time.perf_counter() - start

    cold_from_stored = service.is_warm(graph_fingerprint(graph))
    start = time.perf_counter()
    service.scores(graph)
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(requests):
        service.scores(graph)
    warm_seconds = (time.perf_counter() - start) / requests

    return ServeBenchResult(
        load_seconds=load_seconds,
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        warm_requests=requests,
        fit_seconds=fit_seconds,
        cold_from_stored=cold_from_stored,
        cache=service.stats.to_dict(),
    )
