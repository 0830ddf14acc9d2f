"""Wall-clock timing helpers.

* :class:`Timer` — accumulates named wall-clock spans (per-epoch and
  scoring time of a fit, reported by the Fig. 7 reproduction);
* :func:`median_mad` — the robust (median, MAD) summary ``perfbench``
  reports its samples with.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


def median_mad(values: Sequence[float]) -> Tuple[float, float]:
    """(median, median-absolute-deviation) of ``values``.

    Pure python (no numpy). MAD of fewer than two samples is 0.0.
    """
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("median_mad needs at least one value")

    def _median(sorted_data: List[float]) -> float:
        n = len(sorted_data)
        mid = n // 2
        if n % 2:
            return sorted_data[mid]
        return 0.5 * (sorted_data[mid - 1] + sorted_data[mid])

    med = _median(data)
    if len(data) < 2:
        return med, 0.0
    deviations = sorted(abs(v - med) for v in data)
    return med, _median(deviations)


@dataclass
class Timer:
    """Accumulates named wall-clock spans; used to report per-epoch and
    total runtimes in the Fig. 7 reproduction."""

    spans: Dict[str, List[float]] = field(default_factory=dict)

    @contextmanager
    def measure(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.setdefault(name, []).append(time.perf_counter() - start)

    def total(self, name: str) -> float:
        return float(sum(self.spans.get(name, [])))

    def mean(self, name: str) -> float:
        values = self.spans.get(name, [])
        return float(sum(values) / len(values)) if values else 0.0

    def count(self, name: str) -> int:
        return len(self.spans.get(name, []))


__all__ = ["Timer", "median_mad"]
