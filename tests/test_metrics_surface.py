"""The gateway's observable surface, pinned.

A :class:`~repro.server.Gateway` is built with every component live (a
stream monitor over a WAL, a tripped breaker, a fired chaos point, SLO
samples, endpoint and stage histograms, and the process tier). Its
``/metrics`` families (name, type, HELP, label names) and the key set of
every ``/healthz?deep=1`` component must equal ``tests/fixtures/metrics_surface.json``: a refactor of how the
gateway collects its telemetry must not rename, retype, re-document or
drop anything a scraper or a health probe reads.
"""

import collections
import itertools
import json
import pathlib

import numpy as np
import pytest

from repro import chaos
from repro.graphs import random_multiplex
from repro.obs import assert_valid_exposition
from repro.obs.promlint import parse_families
from repro.serve import DetectorService
from repro.server import Gateway
from repro.server.protocol import graph_payload

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "metrics_surface.json"

TIERS = ["thread", "process"]


def family_surface(text: str) -> list:
    """``[name, type, help, sorted label names]`` per family, by name."""
    surface = []
    for name, family in parse_families(text).items():
        labels = sorted({key for sample in family["samples"]
                         for key in sample["labels"] if key != "le"})
        surface.append([name, family["type"], family["help"], labels])
    return surface


def health_surface(payload: dict) -> dict:
    return {name: sorted(entry)
            for name, entry in sorted(payload["components"].items())}


def live_gateway(model, base_graph, wal_dir, exec_tier: str) -> Gateway:
    """A gateway on which every metric family and health entry exists."""
    gateway = Gateway(DetectorService(model, cache_size=4),
                      base_graph=base_graph, wal_dir=wal_dir, window=4,
                      linger_ms=0.0, sample_interval=60.0, slo_window=2,
                      breaker_failures=1, exec_tier=exec_tier,
                      worker_procs=1)
    try:
        relation = base_graph.relation_names[0]
        gateway.ingest_events({"events": [
            {"op": "add_edge", "rel": relation, "u": 0, "v": 1},
            {"op": "add_edge", "rel": relation, "u": 1, "v": 2},
        ], "flush": True})
        fresh = random_multiplex(30, len(base_graph.relation_names),
                                 base_graph.num_features,
                                 np.random.default_rng(5), avg_degree=3.0)
        chaos.configure("gateway.score", mode="latency", seconds=0.0,
                        count=1)
        gateway.score({"graph": graph_payload(fresh)})
        gateway.breaker.record_failure("tripped-fingerprint")
        for seconds in (0.01, 0.02, 0.03):
            gateway.record("score", 200, seconds=seconds)
        gateway.record("healthz", 200, seconds=0.001)
        gateway.observe_trace({"spans": [
            {"name": "batcher.wait", "wall_ms": 1.5},
            {"name": "service.score_pass", "wall_ms": 4.0}]})
    except BaseException:
        gateway.close()
        chaos.reset()
        raise
    return gateway


@pytest.fixture(params=TIERS)
def surface_gateway(request, fitted_umgad, tiny_dataset, tmp_path):
    gateway = live_gateway(fitted_umgad, tiny_dataset.graph,
                           tmp_path / "wal", request.param)
    assert gateway.exec_tier == request.param
    yield request.param, gateway
    gateway.close()
    chaos.reset()


def test_metrics_and_deep_health_surface_is_pinned(surface_gateway):
    tier, gateway = surface_gateway
    pinned = json.loads(FIXTURE.read_text())[tier]
    text = gateway.metrics_text()
    assert_valid_exposition(text)
    assert family_surface(text) == pinned["families"]
    assert health_surface(gateway.health(deep=True)) == pinned["health"]


def test_one_read_per_scrape_and_per_deep_probe(surface_gateway,
                                                monkeypatch):
    """Each component's state is read once per ``metrics_text()`` and once
    per ``health(deep=True)``. The runtime entry always reads the
    sampler's ``latest()`` sample and never forces a ``refresh()``."""
    tier, gateway = surface_gateway
    reads = collections.Counter()

    def spy(owner, name, tweak=None):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            reads[name] += 1
            value = original(*args, **kwargs)
            return tweak(value) if tweak else value

        monkeypatch.setattr(owner, name, wrapped)

    # Every cache_info() read reports a different entry count, so a gauge
    # and its health twin agree only if they share one read.
    calls = itertools.count(1)
    spy(gateway.service, "cache_info",
        lambda info: dict(info, entries=100 * next(calls)))
    spy(gateway.sampler, "latest")
    spy(gateway.sampler, "refresh")
    spy(gateway.breaker, "snapshot")
    spy(gateway.slo, "_read")
    spy(gateway.monitor, "stats_dict")
    expected = {"cache_info": 1, "latest": 1, "snapshot": 1, "_read": 1,
                "stats_dict": 1}
    if tier == "process":
        spy(gateway.pool, "stats")
        spy(gateway.pool, "worker_infos")
        expected.update(stats=1, worker_infos=1)

    families = parse_families(gateway.metrics_text())
    assert reads == expected
    assert families["repro_service_cache_entries"]["samples"][0][
        "value"] == 100
    reads.clear()
    health = gateway.health(deep=True)
    assert reads == expected
    assert health["components"]["service"]["cache_entries"] == 200

    reads.clear()
    collected = gateway._collect()

    def value(component, name):
        (found,) = [entry for entry in collected[component].families
                    if entry.name == name]
        return found.samples[0][1]

    assert value("service", "service_cache_entries") == \
        collected["service"].health["cache_entries"] == 300
    assert value("batcher", "batcher_utilization_ratio") == \
        collected["batcher"].health["utilization"]
    assert value("runtime", "process_resident_memory_bytes") == \
        collected["runtime"].health["rss_bytes"]
    assert value("breaker", "breaker_open") == \
        collected["breaker"].health["open"] == 1
    assert value("stream", "wal_last_seq") == \
        collected["stream"].health["wal_last_seq"]
