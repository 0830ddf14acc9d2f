"""Process-level runtime telemetry (stdlib-only).

Cheap point-in-time reads of the serving process — resident/peak memory,
GC activity per generation, thread count, open file descriptors — and
of another process's private memory (the process tier's scoring
workers). :func:`collect` reads them fresh on every ``/metrics`` scrape
and every ``/healthz?deep=1`` probe: there is no background thread and
no cached sample, so what a scrape reports is the process as it is.
Everything degrades gracefully off Linux: probes that cannot be answered
return ``None`` and the exporter simply omits the gauge.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
from dataclasses import dataclass
from typing import Optional, Tuple

from .metrics import Collected, dict_families, family

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]

_PAGE_SIZE: Optional[int] = None


def _page_size() -> int:
    global _PAGE_SIZE
    if _PAGE_SIZE is None:
        try:
            _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
        except (ValueError, OSError, AttributeError):  # pragma: no cover
            _PAGE_SIZE = 4096
    return _PAGE_SIZE


def rss_bytes() -> Optional[int]:
    """Current resident set size via ``/proc/self/statm`` (Linux)."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _page_size()
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size via ``getrusage`` (``ru_maxrss``).

    Linux reports kilobytes, macOS bytes; normalised to bytes here.
    """
    if resource is None:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:
        return None
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def open_fd_count() -> Optional[int]:
    """Open file descriptors via ``/proc/self/fd`` (Linux)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def private_memory_bytes(pid: int) -> Optional[int]:
    """Memory only process ``pid`` holds: ``Private_Clean + Private_Dirty``
    from ``/proc/<pid>/smaps_rollup`` (Linux >= 4.14).

    Unlike RSS this leaves out pages a forked child still shares with its
    parent, so it prices what one more worker process costs.
    """
    private = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup", "rb") as handle:
            for line in handle:
                if line.startswith((b"Private_Clean:", b"Private_Dirty:")):
                    private += int(line.split()[1]) * 1024
    except (OSError, IndexError, ValueError):
        return None
    return private


def gc_generation_stats() -> Tuple[dict, ...]:
    """Per-generation ``collections``/``collected``/``uncollectable``."""
    return tuple({"collections": int(stat.get("collections", 0)),
                  "collected": int(stat.get("collected", 0)),
                  "uncollectable": int(stat.get("uncollectable", 0))}
                 for stat in gc.get_stats())


@dataclass(frozen=True)
class RuntimeSample:
    """One point-in-time snapshot of the process."""

    rss_bytes: Optional[int]
    peak_rss_bytes: Optional[int]
    open_fds: Optional[int]
    threads: int
    gc_stats: Tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "rss_bytes": self.rss_bytes,
            "peak_rss_bytes": self.peak_rss_bytes,
            "open_fds": self.open_fds,
            "threads": self.threads,
            "gc": [dict(stat) for stat in self.gc_stats],
        }


def capture_sample() -> RuntimeSample:
    """Snapshot the process right now (a handful of ``/proc`` reads)."""
    return RuntimeSample(
        rss_bytes=rss_bytes(),
        peak_rss_bytes=peak_rss_bytes(),
        open_fds=open_fd_count(),
        threads=threading.active_count(),
        gc_stats=gc_generation_stats(),
    )


#: (RuntimeSample.to_dict() key, family, kind, HELP); a probe that
#: cannot be answered (None) omits its gauge
_PROCESS_GAUGES = (
    ("rss_bytes", "process_resident_memory_bytes", "gauge",
     "Resident set size (/proc/self/statm)."),
    ("peak_rss_bytes", "process_peak_resident_memory_bytes", "gauge",
     "Peak resident set size (getrusage ru_maxrss)."),
    ("open_fds", "process_open_fds", "gauge",
     "Open file descriptors (/proc/self/fd)."),
    ("threads", "process_threads", "gauge",
     "Live python threads (threading.active_count)."),
)


def collect() -> Collected:
    """Process gauges and GC counters from one :func:`capture_sample`
    taken now; the sample is the deep-health entry."""
    sample = capture_sample()
    health = sample.to_dict()
    families = dict_families(health, _PROCESS_GAUGES)
    if sample.gc_stats:
        generations = [({"generation": str(gen)}, stat)
                       for gen, stat in enumerate(sample.gc_stats)]
        families += [
            family("python_gc_collections_total", "counter",
                   "GC collections run, by generation.",
                   [(labels, stat["collections"])
                    for labels, stat in generations]),
            family("python_gc_collected_objects_total", "counter",
                   "Objects reclaimed by the GC, by generation.",
                   [(labels, stat["collected"])
                    for labels, stat in generations]),
        ]
    return Collected(families, health)


__all__ = [
    "RuntimeSample",
    "capture_sample",
    "collect",
    "gc_generation_stats",
    "open_fd_count",
    "peak_rss_bytes",
    "private_memory_bytes",
    "rss_bytes",
]
