"""``stream-wal``: a durable stream monitor under a synthetic event stream.

A :class:`~repro.stream.StreamMonitor` over an in-process
:class:`~repro.serve.DetectorService` logs every ingested batch to a
:class:`~repro.stream.WriteAheadLog` at its default ``fsync=True``. One
caller feeds a seeded :func:`~repro.stream.synthesize_stream` (normal
churn plus structural and attribute bursts) over the ~4k-node tsocial
graph the model was trained on, in :data:`BATCH`-event batches; the monitor scores a full snapshot
every :data:`WINDOW` events, each a service-cache miss keyed by the
builder's own fingerprint.

The same :data:`EVENTS`-event prefix is replayed through a fresh WAL,
builder and monitor until the time is up, so node growth is identical
from pass to pass and run to run. Passes always run to the end: a
window's cost grows with the graph, so a cut-off pass would skew the
figures toward cheap early windows. After each pass the builder's
fingerprint must equal ``graph_fingerprint`` of its snapshot, and
``recover_builder`` on the pass's WAL must restore the same fingerprint.

The monitored model and its base graph are a fixed deployment artifact;
``--seed`` varies the event stream. The engine, HTTP server and batcher
layers are bypassed.
"""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext

import numpy as np

from repro.core import UMGAD, predict_with_threshold, select_threshold
from repro.datasets import load_dataset
from repro.eval import macro_f1, roc_auc
from repro.graphs import graph_fingerprint
from repro.obs.trace import set_tracing, start_trace
from repro.serve import DetectorService
from repro.stream import (IncrementalGraphBuilder, StreamMonitor,
                          WalCorruptionError, WriteAheadLog, recover_builder,
                          synthesize_stream)

from measure import (CORE_STAGES, LayerSamples, Outcome, median,
                     score_pass_ms, summarize, table3_config, timed)

#: ~4k-node tsocial base graph
BASE_SCALE = 0.25
TRAIN_SEED = 400_000
MONITOR_EPOCHS = 5
SETUP_REPEATS = 5
EVENTS = 6_000
BATCH = 25
WINDOW = 300

STAGES = {
    "stream.apply_ms": "stream.apply",
    "stream.window.self_ms": "stream.window",
    "service.score_pass_ms": "service.score_pass",
    **CORE_STAGES,
}


def _monitor(service: DetectorService, base, directory,
             samples: LayerSamples, trace: bool) -> StreamMonitor:
    """A fresh WAL, builder and monitor over the base graph."""
    wal = WriteAheadLog(directory)
    if trace:
        _time_appends(wal, samples)
    return StreamMonitor(service, IncrementalGraphBuilder.from_graph(base),
                         window=WINDOW, wal=wal)


def _time_appends(wal: WriteAheadLog, samples: LayerSamples) -> None:
    """Time every append on this WAL instance (``wal.append_ms``)."""
    append = wal.append

    def timed_append(kind: str, payload: dict) -> int:
        with timed(samples, "wal.append_ms"):
            return append(kind, payload)

    wal.append = timed_append


def _setup(base, directory):
    """Fit the monitored model and open WAL + monitor.

    Returns ``(seconds, service)``."""
    start = time.perf_counter()
    model = UMGAD(table3_config(0, epochs=MONITOR_EPOCHS)).fit(base)
    service = DetectorService(model)
    monitor = _monitor(service, base, directory, LayerSamples(), False)
    seconds = time.perf_counter() - start
    monitor.wal.close()
    return seconds, service


def _quality_view(base_labels: np.ndarray, truth, consumed: int,
                  num_nodes: int):
    """``(labels, keep)`` for scoring quality: the base graph's anomalies
    against every other node, leaving out members of bursts ingested so
    far (whose ranking depends on the seed's burst draw, not on the
    model)."""
    labels = np.zeros(num_nodes, dtype=np.int64)
    labels[:base_labels.size] = base_labels
    keep = np.ones(num_nodes, dtype=bool)
    for burst in truth.bursts:
        if burst.stop <= consumed:
            keep[burst.nodes[burst.nodes < num_nodes]] = False
    return labels, keep


def run(*, seed: int, seconds: float, trace: bool, workdir) -> dict:
    outcome = Outcome()
    samples = LayerSamples()
    base_set = load_dataset("tsocial", scale=BASE_SCALE, seed=TRAIN_SEED)
    base = base_set.graph
    events, truth = synthesize_stream(base, EVENTS,
                                      np.random.default_rng([seed, 30]))
    events = events[:EVENTS]

    setups = [_setup(base, workdir / f"setup-{i}")
              for i in range(SETUP_REPEATS)]
    setup_s = median(seconds for seconds, _ in setups)
    service = setups[-1][1]

    walls, traced_walls, untraced_walls = [], [], []
    aucs, f1s = [], []
    hits = requests = appends = wal_bytes = 0
    budget = 0.0
    window_index = 0
    pass_index = 0
    while budget < seconds:
        service.clear_cache()
        directory = workdir / f"wal-{pass_index}"
        monitor = _monitor(service, base, directory, samples, trace)
        for start in range(0, EVENTS, WINDOW):
            window = events[start:start + WINDOW]
            traced = trace and window_index % 2 == 1
            set_tracing(traced)
            before = service.stats.to_dict()
            reports = []
            begin = time.perf_counter()
            with (start_trace("bench.window") if traced
                  else nullcontext()) as window_trace:
                for offset in range(0, WINDOW, BATCH):
                    reports += monitor.ingest(window[offset:offset + BATCH])
            wall = time.perf_counter() - begin
            set_tracing(False)
            after = service.stats.to_dict()
            hits += after["hits"] - before["hits"]
            requests += after["requests"] - before["requests"]
            budget += wall
            walls.append(wall * 1e3)
            window_index += 1

            scores = (service.cached_scores(reports[-1].fingerprint)
                      if len(reports) == 1 else None)
            ok = outcome.check(scores is not None
                               and bool(np.isfinite(scores).all()),
                               f"pass {pass_index} window {start}: no "
                               "finite scores")
            outcome.count("windows", ok)
            if ok:
                labels, keep = _quality_view(base_set.labels, truth,
                                             start + WINDOW, scores.size)
                aucs.append(roc_auc(labels[keep], scores[keep]))
                with timed(samples, "core.threshold_ms"):
                    threshold = select_threshold(scores)
                predicted = predict_with_threshold(scores, threshold)
                f1s.append(macro_f1(labels[keep], predicted[keep]))
                (traced_walls if traced else untraced_walls).append(
                    wall * 1e3)
            if window_trace is not None:
                profile = samples.add_trace(window_trace.to_dict(), STAGES)
                samples.add("core.score_pass_ms", score_pass_ms(profile))
                samples.add("obs.spans_dropped", window_trace.dropped)

        stats = monitor.wal.stats
        appends += stats.appends
        wal_bytes += stats.bytes_written
        builder = monitor.builder
        fingerprint = builder.fingerprint()
        with timed(samples, "graphs.fingerprint_ms"):
            rebuilt = graph_fingerprint(builder.snapshot())
        outcome.check(fingerprint == rebuilt,
                      f"pass {pass_index}: builder fingerprint differs from "
                      "graph_fingerprint(snapshot)")
        monitor.wal.close()
        try:
            with WriteAheadLog(directory) as wal:
                recovered = recover_builder(wal)
            restored = (recovered.builder.fingerprint() == fingerprint
                        and not recovered.pending)
        except WalCorruptionError:
            restored = False
        outcome.check(restored, f"pass {pass_index}: WAL recovery did not "
                      "restore the builder")
        pass_index += 1
        # Passes are a benchmark device, not something a long-running
        # monitor does: drop the finished pass's garbage so peak memory
        # does not grow with how many passes a run had time for.
        del monitor
        gc.collect()

    stats = summarize(walls)
    windows = outcome.phases["windows"]
    e2e = {
        "setup_s": setup_s,
        "op_ms.p50": stats["p50"],
        "op_ms.tail": stats["tail"],
        "throughput_per_s": windows["ok"] * WINDOW / budget,
        "auc": median(aucs) if aucs else 0.0,
        "macro_f1": median(f1s) if f1s else 0.0,
    }
    layers = samples.medians()
    layers.update({
        "service.hit_ratio": hits / requests if requests else 0.0,
        "wal.appends": appends / window_index,
        "wal.bytes": wal_bytes / window_index,
    })
    if trace and traced_walls and untraced_walls:
        layers["obs.tracing_overhead_ms"] = (median(traced_walls)
                                            - median(untraced_walls))
    lines = [f"stream-wal: {pass_index} passes, {window_index} windows, "
             f"op_ms tail is p{stats['tail_pct']:.1f} of n={stats['n']}"]
    if "service.score_pass_ms" in layers:
        lines.append(f"stream-wal: service.score_pass is "
                     f"{layers['service.score_pass_ms'] / stats['p50']:.0%} "
                     "of the median window")
    return {"e2e": e2e, "layers": layers, "outcome": outcome, "lines": lines}
