"""Thread-safe latency/size histograms with Prometheus semantics.

A :class:`Histogram` accumulates observations into fixed buckets whose
upper bounds are **inclusive** (Prometheus ``le`` semantics) and exports
cumulative counts plus ``sum``/``count`` — exactly the
``_bucket``/``_sum``/``_count`` triple the text exposition renders (see
:func:`repro.obs.metrics.histogram`). Stdlib only:
``bisect`` for the bucket lookup, one lock per histogram.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple


def log_spaced_bounds(lo: float, hi: float,
                      mantissas: Sequence[float] = (1.0, 2.5, 5.0)
                      ) -> Tuple[float, ...]:
    """Log-spaced bucket bounds covering ``[lo, hi]``.

    Walks decades from ``lo``'s up through ``hi``'s, emitting
    ``mantissa * 10^k`` values inside the range — the classic
    1/2.5/5 ladder by default. Values are rounded to 12 significant
    digits so bounds render cleanly in the exposition text.
    """
    if not (lo > 0 and hi > lo):
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    bounds = []
    decade = 10.0 ** math.floor(math.log10(lo))
    while decade <= hi:
        for m in sorted(mantissas):
            value = float(f"{m * decade:.12g}")
            if lo <= value <= hi:
                bounds.append(value)
        decade *= 10.0
    if not bounds:
        raise ValueError(
            f"no {mantissas} mantissa lands inside [{lo}, {hi}]")
    return tuple(bounds)


#: default request/stage duration buckets: 500µs .. 30s, 1/2.5/5 ladder
DURATION_BOUNDS = log_spaced_bounds(5e-4, 30.0)

#: micro-batch size buckets (powers of two up to the default max_queue)
BATCH_SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@dataclass(frozen=True)
class HistogramSnapshot:
    """A consistent point-in-time view of one histogram.

    ``cumulative`` has one entry per bound **plus** the ``+Inf`` bucket
    last, already accumulated (Prometheus buckets are cumulative).
    """

    bounds: Tuple[float, ...]
    cumulative: Tuple[int, ...]
    sum: float
    count: int


class Histogram:
    """Fixed-bucket histogram; ``observe`` is O(log buckets) + one lock."""

    __slots__ = ("bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, bounds: Iterable[float] = DURATION_BOUNDS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be finite "
                             "(+Inf is implicit)")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"bucket bounds must be strictly increasing, got {bounds}")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)   # last = +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        # bisect_left: first bound >= value, i.e. the smallest bucket with
        # value <= le — inclusive upper bounds, like Prometheus.
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            counts = list(self._counts)
            total = self._sum
            count = self._count
        cumulative = []
        running = 0
        for value in counts:
            running += value
            cumulative.append(running)
        return HistogramSnapshot(bounds=self.bounds,
                                 cumulative=tuple(cumulative),
                                 sum=total, count=count)


__all__ = [
    "BATCH_SIZE_BOUNDS",
    "DURATION_BOUNDS",
    "Histogram",
    "HistogramSnapshot",
    "log_spaced_bounds",
]
