"""Process-level runtime telemetry (stdlib-only).

Cheap point-in-time snapshots of the serving process — resident/peak
memory, GC activity per generation, thread count, open file descriptors —
plus :class:`RuntimeSampler`, a low-overhead background thread that keeps
the latest snapshot fresh for ``/metrics`` without paying a ``/proc`` read
per scrape-free request. Everything degrades gracefully off Linux: probes
that cannot be answered return ``None`` and the exporter simply omits the
gauge.

The sampler's own cost is part of the observability contract: it records
how many samples it took and how long they cost
(:attr:`RuntimeSampler.samples_taken` / :attr:`RuntimeSampler.sample_seconds`),
so its duty cycle can be read off ``/metrics`` at any time.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from .metrics import Collected, counter, dict_families, family

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


def gc_generation_stats() -> Tuple[dict, ...]:
    """Per-generation ``collections``/``collected``/``uncollectable``."""
    return tuple({"collections": int(stat.get("collections", 0)),
                  "collected": int(stat.get("collected", 0)),
                  "uncollectable": int(stat.get("uncollectable", 0))}
                 for stat in gc.get_stats())


@dataclass(frozen=True)
class RuntimeSample:
    """One point-in-time snapshot of the process."""

    unix_time: float
    rss_bytes: Optional[int]
    peak_rss_bytes: Optional[int]
    open_fds: Optional[int]
    threads: int
    gc_stats: Tuple[dict, ...]
    #: per-worker snapshots from the process pool's probe (empty when the
    #: server runs the thread tier)
    pool_workers: Tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        payload = {
            "unix_time": self.unix_time,
            "rss_bytes": self.rss_bytes,
            "peak_rss_bytes": self.peak_rss_bytes,
            "open_fds": self.open_fds,
            "threads": self.threads,
            "gc": [dict(stat) for stat in self.gc_stats],
        }
        if self.pool_workers:
            payload["pool_workers"] = [dict(info)
                                       for info in self.pool_workers]
        return payload


def capture_sample(pool_probe=None) -> RuntimeSample:
    """Snapshot the process right now (a handful of ``/proc`` reads).

    ``pool_probe`` is an optional zero-argument callable returning a list
    of per-worker info dicts (``repro.pool.ProcessPool.worker_infos``);
    its result rides along in :attr:`RuntimeSample.pool_workers` so the
    scoring workers' RSS and liveness are sampled on the same cadence as
    the leader's own telemetry. A probe that raises is treated as absent
    — pool teardown must not break the sampler.
    """
    pool_workers: Tuple[dict, ...] = ()
    if pool_probe is not None:
        try:
            pool_workers = tuple(pool_probe())
        except Exception:  # pragma: no cover - probe raced a shutdown
            pool_workers = ()
    return RuntimeSample(
        unix_time=time.time(),
        rss_bytes=rss_bytes(),
        peak_rss_bytes=peak_rss_bytes(),
        open_fds=open_fd_count(),
        threads=threading.active_count(),
        gc_stats=gc_generation_stats(),
        pool_workers=pool_workers,
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


class RuntimeSampler:
    """Background daemon refreshing a :class:`RuntimeSample` periodically.

    ``latest()`` never blocks on the sampling thread: it returns the most
    recent snapshot, capturing one synchronously only when none exists yet
    (e.g. ``/metrics`` scraped before the first interval elapsed). The
    thread starts lazily on :meth:`start` and stops via :meth:`close`.
    """

    def __init__(self, interval: float = 5.0, pool_probe=None):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.interval = float(interval)
        #: optional callable returning per-worker pool info dicts,
        #: forwarded to :func:`capture_sample` on every tick
        self.pool_probe = pool_probe
        self._lock = threading.Lock()
        self._latest: Optional[RuntimeSample] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: samples captured so far (by the thread or synchronously)
        self.samples_taken = 0
        #: cumulative wall seconds spent inside capture_sample()
        self.sample_seconds = 0.0

    # ------------------------------------------------------------------
    def _capture(self) -> RuntimeSample:
        start = time.perf_counter()
        sample = capture_sample(self.pool_probe)
        elapsed = time.perf_counter() - start
        with self._lock:
            self._latest = sample
            self.samples_taken += 1
            self.sample_seconds += elapsed
        return sample

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._capture()

    def start(self) -> "RuntimeSampler":
        if self._thread is None:
            self._capture()  # an immediate first sample
            self._thread = threading.Thread(target=self._run, daemon=True,
                                            name="repro-runtime-sampler")
            self._thread.start()
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def latest(self) -> RuntimeSample:
        with self._lock:
            sample = self._latest
        if sample is None:
            sample = self._capture()
        return sample

    def refresh(self) -> RuntimeSample:
        """Force a synchronous sample."""
        return self._capture()

    def collect(self) -> Collected:
        """Process gauges, the sampler's own cost, and the sample as the
        deep-health entry. Reads :meth:`latest`, never :meth:`refresh`:
        a scrape or probe costs no ``/proc`` read, and ``unix_time`` says
        how old the sample is (at most ``interval`` seconds)."""
        sample = self.latest()
        with self._lock:
            taken, seconds = self.samples_taken, self.sample_seconds
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
        families += [
            counter("runtime_samples_total",
                    "Background process-telemetry samples captured.", taken),
            counter("runtime_sample_seconds_total",
                    "Wall seconds spent capturing runtime samples.", seconds),
        ]
        return Collected(families, health)

    def close(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "RuntimeSampler":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()


__all__ = [
    "RuntimeSample",
    "RuntimeSampler",
    "capture_sample",
    "gc_generation_stats",
    "open_fd_count",
    "peak_rss_bytes",
    "rss_bytes",
]
