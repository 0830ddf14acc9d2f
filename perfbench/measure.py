"""Shared measurement helpers for the perfbench workloads.

* :func:`summarize` — median and the highest percentile that has at least
  ten samples beyond it (the ``.tail`` of every end-to-end timing);
* :func:`trace_profile` — per-span-name wall and *self* time of one
  completed trace, built on :func:`repro.obs.profile.aggregate_spans`;
* :class:`LayerSamples` — per-operation stage samples folded into the
  per-layer medians the traced run reports;
* :class:`Outcome` — operations sent / succeeded / failed per phase plus
  the correctness verdict every workload returns.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.experiments.common import SAMPLED, umgad_config
from repro.obs.profile import aggregate_spans
from repro.utils.timer import median_mad

#: samples a tail percentile must have beyond it
TAIL_SAMPLES = 10


def median(values: Iterable[float]) -> float:
    return median_mad(list(values))[0]


def summarize(values: Sequence[float]) -> dict:
    """``{p50, tail, tail_pct, n}`` of ``values``.

    ``tail`` is the highest percentile with at least :data:`TAIL_SAMPLES`
    samples above it. Runs too short to have one report their maximum
    (``tail_pct`` 100), so the figure is always defined; ``n`` says how
    much to trust it.
    """
    data = sorted(float(v) for v in values)
    n = len(data)
    if not n:
        raise ValueError("summarize needs at least one sample")
    index = n - 1 - TAIL_SAMPLES if n > TAIL_SAMPLES else n - 1
    pct = 100.0 * index / (n - 1) if n > 1 else 100.0
    return {"p50": median(data), "tail": data[index], "tail_pct": pct, "n": n}


#: metric -> span name of the model's scoring stages and graph operators
CORE_STAGES = {
    "core.score_structure.self_ms": "score.structure",
    "core.score_masked_group.self_ms": "score.masked_group",
    "core.score_fused_pass.self_ms": "score.fused_pass",
    "core.score_attributes.self_ms": "score.attributes",
    "graphs.propagator_build.self_ms": "propagator.build",
}


def table3_config(seed: int, **overrides):
    """The Table 3 T-Social UMGAD configuration (sampled batches and
    sampled structure scoring), with ``overrides``."""
    return umgad_config("tsocial", SAMPLED, structure_score_mode="sampled",
                        seed=seed, **overrides)


def score_pass_ms(profile: dict) -> float:
    """Model time per scoring pass: views plus aggregation, per pass."""
    passes = profile.get("score.aggregate", {}).get("count", 0)
    wall = sum(profile.get(name, {}).get("wall_ms", 0.0)
               for name in ("score.view", "score.aggregate"))
    return wall / passes if passes else 0.0


def _self_ms(span: dict, children: List[dict]) -> float:
    """``span``'s wall time minus the union of its children's intervals."""
    start = span["start_ms"]
    end = start + span["wall_ms"]
    intervals = sorted((max(c["start_ms"], start),
                        min(c["start_ms"] + c["wall_ms"], end))
                       for c in children)
    covered = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return max(span["wall_ms"] - covered, 0.0)


def _children(spans: List[dict]) -> Dict[Optional[str], List[dict]]:
    children: Dict[Optional[str], List[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    return children


def trace_profile(trace: dict) -> Dict[str, dict]:
    """``{span name: {count, wall_ms, self_ms}}`` totals for one trace."""
    spans = trace.get("spans", [])
    children = _children(spans)
    self_view = dict(trace, spans=[
        dict(span, wall_ms=_self_ms(span, children.get(span["span_id"], [])))
        for span in spans])
    profile = {row["name"]: {"count": row["count"], "wall_ms": row["wall_ms"]}
               for row in aggregate_spans(trace)}
    for row in aggregate_spans(self_view):
        profile[row["name"]]["self_ms"] = row["wall_ms"]
    return profile


class LayerSamples:
    """Per-operation stage figures, reduced to per-layer medians.

    Every stage metric is the median, over the operations that ran the
    stage, of that operation's value.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def add_trace(self, trace: dict, stages: Dict[str, str]) -> dict:
        """Fold one operation's trace in; ``stages`` maps metric name to
        span name (``.self_ms`` metrics take self time, others wall)."""
        profile = trace_profile(trace)
        for metric, span_name in stages.items():
            row = profile.get(span_name)
            if row is not None:
                key = "self_ms" if metric.endswith(".self_ms") else "wall_ms"
                self.add(metric, row[key])
        return profile

    def add_spans(self, trace: dict, metric: str, span_name: str) -> None:
        """One sample of self time per span called ``span_name``."""
        spans = trace.get("spans", [])
        children = _children(spans)
        for span in spans:
            if span["name"] == span_name:
                self.add(metric, _self_ms(span,
                                          children.get(span["span_id"], [])))

    def medians(self) -> Dict[str, float]:
        return {name: median(values) for name, values in self.samples.items()}


@contextmanager
def timed(samples: LayerSamples, name: str) -> Iterator[None]:
    """Record the wall time of the body as one sample of ``name`` (ms)."""
    start = time.perf_counter()
    try:
        yield
    finally:
        samples.add(name, (time.perf_counter() - start) * 1e3)


class Outcome:
    """Operations sent / succeeded / failed per phase, plus check failures."""

    def __init__(self) -> None:
        self.phases: Dict[str, Dict[str, int]] = {}
        self.check_failures: List[str] = []

    def count(self, phase: str, ok: bool) -> None:
        row = self.phases.setdefault(phase, {"sent": 0, "ok": 0, "failed": 0})
        row["sent"] += 1
        row["ok" if ok else "failed"] += 1

    def check(self, ok: bool, message: str) -> bool:
        """Record a correctness check; failures are kept, not raised."""
        if not ok:
            self.check_failures.append(message)
        return ok

    @property
    def attempted(self) -> int:
        return sum(row["sent"] for row in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(row["failed"] for row in self.phases.values())

    def lines(self) -> List[str]:
        out = [f"phase {name}: sent {row['sent']} ok {row['ok']} "
               f"failed {row['failed']}" for name, row in self.phases.items()]
        out.extend(f"check failed: {msg}" for msg in self.check_failures[:20])
        return out

