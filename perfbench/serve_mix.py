"""``serve-mix``: open-loop score traffic against the HTTP gateway.

An in-process :class:`~repro.server.ServerThread` + :class:`Gateway`
(default thread tier) serves a checkpoint-loaded
:class:`~repro.serve.DetectorService`. Two keep-alive ``http.client``
connections, one per client thread, send pre-encoded ``/v1/score``
bodies with no retries. Every block of 20 requests holds, in seeded
order:

* 16 ``lookup`` — fingerprint-only requests with ``top_k``;
* 3 ``inline_warm`` — an inline ~1k-node graph the server has cached;
* 1 ``inline_cold`` — a never-seen inline graph (its own data seed), so
  it pays a full pass through batcher, service and score gate.

Every phase's requests are prepared before any clock as whole blocks,
each cold slot with its own graph, so the mix is the same whatever the
server's speed. A closed-loop phase is prepared for
:data:`SATURATION_CAP_RPS`; a server faster than that sends all of them
and ends the phase early, still in the declared mix. Each phase reports
the share of every kind it sent.

Phases: Poisson arrivals at each of :data:`RATES`, timed from each
request's due time, then a closed-loop saturation phase that keeps both
connections busy (each request is due when its connection frees up).
The end-to-end latency and goodput come from the saturation phase:
open-loop latency on this server is bimodal (a keep-alive response
either meets the delayed-ACK stall or it does not) and which mode
dominates flips from run to run near 24 requests/s, while back-to-back
requests meet the stall every time. The fixed-rate phases decide which
rates meet the SLO and are reported, with the generator's lateness, on
stderr. The traced run runs an untraced saturation phase, then the
reference rate and a saturation phase traced, and reads ``/v1/traces``.

The served model is a fixed deployment artifact: its training graph and
seed do not depend on ``--seed``, which varies only the traffic.

The engine, stream and WAL layers are bypassed.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.autograd import no_grad
from repro.core import UMGAD, predict_with_threshold, select_threshold
from repro.datasets import load_dataset
from repro.eval import macro_f1, roc_auc
from repro.graphs import graph_fingerprint
from repro.obs.trace import set_tracing
from repro.serve import DetectorService, load_checkpoint, save_checkpoint
from repro.server import (TRACE_HEADER, Gateway, ServerThread, SLOObjective,
                          graph_from_payload, graph_payload)
from repro.server.protocol import score_response

from measure import (CORE_STAGES, LayerSamples, Outcome, median,
                     score_pass_ms, summarize, table3_config, timed)

#: ~1k-node tsocial graphs (the generator's minimum size)
GRAPH_SCALE = 1.0 / 16
SERVE_EPOCHS = 6
TRAIN_SEED = 100_000
SETUP_REPEATS = 3
WARM_GRAPHS = 4
KINDS = ("lookup", "inline_warm", "inline_cold")
BLOCK = ("lookup",) * 16 + ("inline_warm",) * 3 + ("inline_cold",)
#: fixed open-loop arrival rates (requests per second) and the share of
#: the run each gets; the saturation phase takes the rest
RATES = {6.0: 1 / 12, 12.0: 1 / 12, 24.0: 1 / 12}
#: the open-loop rate of the traced run
REFERENCE_RATE = 24.0
#: requests per second a closed-loop phase is prepared for: about three
#: times today's saturated rate, and above what the mix's server work
#: allows once the keep-alive stall is gone
SATURATION_CAP_RPS = 100.0
CONNECTIONS = 2
TOP_K = 10
CACHE_SIZE = 128
CLIENT_TIMEOUT = 30.0
#: completed traces the gateway keeps for ``/v1/traces``
TRACE_CAPACITY = 8192
#: the gateway's own SLO defaults: 2.5 s latency, at most 2% errors
SLO = SLOObjective()
#: a phase whose last tenth of requests went out later than this has a
#: growing backlog
BACKLOG_S = 0.5

STAGES = {
    "batcher.wait_ms": "batcher.wait",
    "service.score_pass_ms": "service.score_pass",
    **CORE_STAGES,
}


@dataclass
class Job:
    kind: str
    index: int            # warm graph index, or cold pool index
    body: bytes
    offset: Optional[float]   # due time after phase start; None = now
    trace_id: str


@dataclass
class Reply:
    job: Job
    due: float
    sent: float
    done: float
    status: int
    payload: bytes

    @property
    def from_due_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def from_send_ms(self) -> float:
        return (self.done - self.sent) * 1e3

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.due) * 1e3


#: a phase: name, open-loop arrival rate (None: closed loop) and seconds
Phase = Tuple[str, Optional[float], float]


class Inputs:
    """Every request of every phase, generated from the seed before any
    clock.

    The requests of the whole run are one seeded sequence of whole
    :data:`BLOCK` permutations, dealt to the phases in order; the cold
    pool holds one never-seen graph per ``inline_cold`` slot. Only the
    encoded bodies are kept: :meth:`cold_dataset` rebuilds a cold graph
    from its data seed for the checks."""

    def __init__(self, seed: int, phases: List[Phase],
                 samples: LayerSamples):
        self.seed = seed
        rng = np.random.default_rng([seed, 20])
        self.train = load_dataset("tsocial", scale=GRAPH_SCALE,
                                  seed=TRAIN_SEED)
        warm = [load_dataset("tsocial", scale=GRAPH_SCALE,
                             seed=200_000 + 100 * seed + i).graph
                for i in range(WARM_GRAPHS)]
        self.warm_bodies = [_encode({"graph": graph_payload(g)})
                            for g in warm]
        self.warm_fps = []
        for graph in warm:
            with timed(samples, "graphs.fingerprint_ms"):
                self.warm_fps.append(graph_fingerprint(graph))
        self.lookup_bodies = [_encode({"fingerprint": fp, "top_k": TOP_K})
                              for fp in self.warm_fps]

        offsets = {name: (_poisson(rng, rate, seconds) if rate
                          else [None] * math.ceil(SATURATION_CAP_RPS
                                                  * seconds))
                   for name, rate, seconds in phases}
        total = sum(len(times) for times in offsets.values())
        kinds = [str(kind) for _ in range(-(-total // len(BLOCK)))
                 for kind in rng.permutation(BLOCK)][:total]
        self.cold_bodies = [
            _encode({"graph": graph_payload(self.cold_dataset(i).graph)})
            for i in range(kinds.count("inline_cold"))]
        self.jobs: Dict[str, List[Job]] = {}
        sequence = iter(kinds)
        cold = 0
        for name, times in offsets.items():
            jobs = self.jobs[name] = []
            for offset in times:
                kind = next(sequence)
                if kind == "inline_cold":
                    index, body = cold, self.cold_bodies[cold]
                    cold += 1
                else:
                    index = int(rng.integers(WARM_GRAPHS))
                    body = (self.lookup_bodies if kind == "lookup"
                            else self.warm_bodies)[index]
                jobs.append(Job(kind, index, body, offset,
                                f"{name}-{kind}-{len(jobs)}"))

    def cold_dataset(self, index: int):
        return load_dataset("tsocial", scale=GRAPH_SCALE,
                            seed=300_000 + 1_000 * self.seed + index)


def _poisson(rng: np.random.Generator, rate: float,
             seconds: float) -> List[float]:
    times, t = [], 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= seconds:
            return times
        times.append(t)


def _encode(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _client(port: int, take: Callable[[], Optional[Job]],
            replies: List[Reply], lock: threading.Lock, t0: float) -> None:
    """One keep-alive connection sending jobs until ``take`` runs dry."""
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=CLIENT_TIMEOUT)
    try:
        while True:
            with lock:
                job = take()
            if job is None:
                return
            due = (t0 + job.offset if job.offset is not None
                   else time.perf_counter())
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, payload = 0, b""
            try:
                connection.request(
                    "POST", "/v1/score", body=job.body,
                    headers={"Content-Type": "application/json",
                             TRACE_HEADER: job.trace_id})
                response = connection.getresponse()
                payload = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                connection.close()      # reconnects on the next request
            done = time.perf_counter()
            with lock:
                replies.append(Reply(job, due, sent, done, status, payload))
    finally:
        connection.close()


def _drive(port: int, take: Callable[[], Optional[Job]]) -> List[Reply]:
    replies: List[Reply] = []
    lock = threading.Lock()
    t0 = time.perf_counter()
    threads = [threading.Thread(target=_client,
                                args=(port, take, replies, lock, t0))
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies


def open_loop(port: int, jobs: List[Job]) -> List[Reply]:
    pending = iter(jobs)
    return _drive(port, lambda: next(pending, None))


def closed_loop(port: int, jobs: List[Job], seconds: float) -> List[Reply]:
    """Send ``jobs`` back to back until ``seconds`` pass or they run out."""
    pending = iter(jobs)
    end = time.perf_counter() + seconds
    return _drive(port, lambda: (next(pending, None)
                                 if time.perf_counter() < end else None))


def _mix_line(name: str, replies: List[Reply],
              closed_jobs: Optional[int] = None) -> str:
    """The share of each request kind a phase sent; ``closed_jobs`` is
    how many a closed-loop phase had prepared."""
    counts = Counter(reply.job.kind for reply in replies)
    shares = ", ".join(f"{kind} {counts[kind] / max(len(replies), 1):.1%}"
                       for kind in KINDS)
    line = f"serve-mix {name} mix: {shares} of {len(replies)} requests"
    if closed_jobs is not None and len(replies) == closed_jobs:
        line += (f"; the server outran {SATURATION_CAP_RPS:g} requests/s "
                 "and the phase ended early")
    return line


class Server:
    """Fit, checkpoint, load and serve; ``seconds`` is the set-up time."""

    def __init__(self, inputs: Inputs, workdir):
        start = time.perf_counter()
        model = UMGAD(table3_config(0, epochs=SERVE_EPOCHS))
        model.fit(inputs.train.graph)
        self.path = save_checkpoint(workdir / "model.npz", model,
                                    graph=inputs.train.graph)
        self.service = DetectorService(self.path, cache_size=CACHE_SIZE,
                                       match_dtype=False)
        self.gateway = Gateway(self.service, trace_capacity=TRACE_CAPACITY)
        self.thread = ServerThread(self.gateway).start()
        self.seconds = time.perf_counter() - start

    @property
    def port(self) -> int:
        return self.thread.port

    def stop(self) -> None:
        self.thread.stop()


class Checker:
    """Correctness of every reply; keeps cold scores for later checks."""

    def __init__(self, inputs: Inputs, outcome: Outcome):
        self.inputs = inputs
        self.outcome = outcome
        self.warm_scores: List[Optional[np.ndarray]] = [None] * WARM_GRAPHS
        self.cold_scores = {}

    def warm_up(self, port: int) -> None:
        """Score every warm graph once (caching it) and keep its scores."""
        jobs = [Job("inline_warm", i, body, 0.0, f"warmup-{i}")
                for i, body in enumerate(self.inputs.warm_bodies)]
        for reply in open_loop(port, jobs):
            scores = self._scores(reply, "warmup")
            if scores is not None:
                self.warm_scores[reply.job.index] = scores
        self.outcome.check(all(s is not None for s in self.warm_scores),
                           "warm-up requests failed")

    def _scores(self, reply: Reply, phase: str) -> Optional[np.ndarray]:
        job = reply.job
        where = f"{phase} {job.trace_id}"
        if reply.status != 200:
            # Refused or failed: counted against the phase, but not an
            # incorrect output.
            return None
        try:
            body = json.loads(reply.payload)
            scores = np.asarray(body["scores"], dtype=np.float64)
        except (ValueError, KeyError, TypeError) as exc:
            self.outcome.check(False, f"{where}: malformed reply {exc!r}")
            return None
        if not self.outcome.check(bool(np.isfinite(scores).all()),
                                  f"{where}: non-finite scores"):
            return None
        if job.kind != "inline_cold" and self.warm_scores[job.index] is not None:
            if not self.outcome.check(
                    body["fingerprint"] == self.inputs.warm_fps[job.index]
                    and np.array_equal(scores, self.warm_scores[job.index]),
                    f"{where}: scores differ from the warm graph's"):
                return None
        if job.kind == "lookup" and len(body.get("top", ())) != TOP_K:
            self.outcome.check(False, f"{where}: missing top_k ranking")
            return None
        return scores

    def verify(self, replies: List[Reply], phase: str) -> List[bool]:
        oks = []
        for reply in replies:
            scores = self._scores(reply, phase)
            ok = scores is not None
            if ok and reply.job.kind == "inline_cold":
                self.cold_scores[reply.job.index] = scores
            self.outcome.count(phase, ok)
            oks.append(ok)
        return oks

    def check_cold(self, path, samples: LayerSamples):
        """HTTP cold scores must equal in-process ``score_graph`` bitwise.

        Returns (AUC over every cold node pooled, median per-graph
        Macro-F1): one graph holds too few anomalies for a steady AUC."""
        reference = load_checkpoint(path)
        labels, pooled, f1s = [], [], []
        for index, scores in sorted(self.cold_scores.items()):
            dataset = self.inputs.cold_dataset(index)
            with no_grad():
                expected = reference.score_graph(dataset.graph)
            self.outcome.check(np.array_equal(scores, expected),
                               f"inline_cold {index}: HTTP scores differ "
                               "from in-process score_graph")
            labels.append(dataset.labels)
            pooled.append(scores)
            with timed(samples, "core.threshold_ms"):
                threshold = select_threshold(scores)
            f1s.append(macro_f1(dataset.labels,
                                predict_with_threshold(scores, threshold)))
        if not pooled:
            return 0.0, 0.0
        return (roc_auc(np.concatenate(labels), np.concatenate(pooled)),
                median(f1s))


def _latencies(replies: List[Reply], oks: List[bool]) -> List[float]:
    """From-due latencies; failures count at no less than the SLO limit."""
    limit = SLO.p99_seconds * 1e3
    return [r.from_due_ms if ok else max(r.from_due_ms, limit)
            for r, ok in zip(replies, oks)]


def _phase_report(name: str, replies: List[Reply], oks: List[bool]) -> dict:
    latencies = _latencies(replies, oks)
    stats = summarize(latencies) if latencies else {
        "p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    late = sorted(replies, key=lambda r: r.due)
    tenth = late[-max(1, len(late) // 10):]
    backlog = max((r.lateness_ms for r in tenth), default=0.0) / 1e3
    errors = oks.count(False) / max(len(oks), 1)
    passed = (errors <= SLO.error_ratio
              and stats["tail"] <= SLO.p99_seconds * 1e3
              and backlog <= BACKLOG_S)
    stats.update(name=name, errors=errors, backlog_s=backlog, passed=passed,
                 lateness=summarize([r.lateness_ms for r in replies])
                 if replies else None)
    return stats


def _line(report: dict) -> str:
    lateness = report["lateness"] or {"p50": 0.0, "tail": 0.0}
    return (f"serve-mix {report['name']}: n={report['n']} "
            f"p50 {report['p50']:.1f} ms, tail {report['tail']:.1f} ms "
            f"(p{report['tail_pct']:.1f}), errors {report['errors']:.1%}, "
            f"lateness p50 {lateness['p50']:.1f} / tail "
            f"{lateness['tail']:.1f} ms, "
            f"{'meets' if report['passed'] else 'misses'} the SLO")


def _phases(seconds: float, trace: bool) -> List[Phase]:
    if trace:
        quarter = seconds / 4
        return [("untraced-saturation", None, quarter),
                ("traced", REFERENCE_RATE, quarter),
                ("traced-saturation", None, 2 * quarter)]
    return ([(f"rate{rate:g}", rate, share * seconds)
             for rate, share in RATES.items()]
            + [("saturation", None, (1.0 - sum(RATES.values())) * seconds)])


def _send(server: Server, inputs: Inputs, phase: Phase,
          lines: List[str]) -> List[Reply]:
    """Run one phase of prepared requests and report its mix."""
    name, rate, seconds = phase
    jobs = inputs.jobs[name]
    if rate:
        replies = open_loop(server.port, jobs)
        lines.append(_mix_line(name, replies))
    else:
        replies = closed_loop(server.port, jobs, seconds)
        lines.append(_mix_line(name, replies, len(jobs)))
    return replies


def _measure(server: Server, inputs: Inputs, checker: Checker,
             phases: List[Phase], lines: List[str]) -> dict:
    passing = [0.0]
    *rated, saturation = phases
    for phase in rated:
        name, rate, _ = phase
        replies = _send(server, inputs, phase, lines)
        oks = checker.verify(replies, name)
        report = _phase_report(name, replies, oks)
        lines.append(_line(report))
        if report["passed"]:
            passing.append(rate)
    start = time.perf_counter()
    replies = _send(server, inputs, saturation, lines)
    elapsed = max(r.done for r in replies) - start
    oks = checker.verify(replies, "saturation")
    report = _phase_report("saturation", replies, oks)
    good = sum(1 for r, ok in zip(replies, oks)
               if ok and r.from_send_ms <= SLO.p99_seconds * 1e3)
    saturated = good / elapsed if report["passed"] else 0.0
    lines.append(_line(report) + f", {saturated:.1f} good requests/s")
    return {"op_ms.p50": report["p50"], "op_ms.tail": report["tail"],
            "throughput_per_s": max(max(passing), saturated)}


def _stats_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in before}


def _fetch_traces(port: int) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=CLIENT_TIMEOUT)
    try:
        connection.request("GET", f"/v1/traces?last={TRACE_CAPACITY}")
        payload = json.loads(connection.getresponse().read())
    finally:
        connection.close()
    return {trace["trace_id"]: trace for trace in payload["traces"]}


def _codec_samples(inputs: Inputs, checker: Checker,
                   samples: LayerSamples) -> None:
    """Time the wire format on the workload's own payloads."""
    for body in inputs.warm_bodies + inputs.cold_bodies[:8]:
        with timed(samples, "server.decode_ms"):
            graph_from_payload(json.loads(body)["graph"])
    for fingerprint, scores in zip(inputs.warm_fps, checker.warm_scores):
        with timed(samples, "server.encode_ms"):
            json.dumps(score_response(fingerprint, scores, top_k=TOP_K))


def _traced(server: Server, inputs: Inputs, checker: Checker,
            phases: List[Phase], samples: LayerSamples,
            lines: List[str]) -> dict:
    """Per-layer figures: an untraced saturation phase, then the
    reference rate and a saturation phase traced. Back-to-back keep-alive
    requests (saturation) show the transport stall; the two saturation
    phases give the tracing overhead."""
    untraced_phase, reference_phase, saturation_phase = phases
    replies = _send(server, inputs, untraced_phase, lines)
    oks = checker.verify(replies, "untraced-saturation")
    untraced = median(r.from_send_ms for r, ok in zip(replies, oks) if ok)

    batcher0 = server.gateway.batcher.stats.to_dict()
    service0 = server.service.stats.to_dict()
    set_tracing(True)
    try:
        reference = _send(server, inputs, reference_phase, lines)
        saturation = _send(server, inputs, saturation_phase, lines)
    finally:
        set_tracing(False)
    batcher = _stats_delta(batcher0, server.gateway.batcher.stats.to_dict())
    service = _stats_delta(service0, server.service.stats.to_dict())
    replies = reference + saturation
    oks = checker.verify(reference, "traced")
    saturated = checker.verify(saturation, "traced-saturation")
    traced = median(r.from_send_ms for r, ok in zip(saturation, saturated)
                    if ok)
    oks += saturated
    traces = _fetch_traces(server.port)
    dropped = []
    for reply, ok in zip(replies, oks):
        trace = traces.get(reply.job.trace_id)
        if reply.job.offset is not None:
            samples.add("loadgen.lateness_ms", reply.lateness_ms)
        if not ok or trace is None:
            continue
        kind = reply.job.kind
        handler = trace["duration_ms"]
        samples.add(f"server.latency_ms.{kind}", reply.from_send_ms)
        samples.add(f"server.handler_ms.{kind}", handler)
        samples.add(f"server.transport_ms.{kind}", reply.from_send_ms - handler)
        profile = samples.add_trace(trace, STAGES)
        if "score.aggregate" in profile:
            samples.add("core.score_pass_ms", score_pass_ms(profile))
        dropped.append(trace["dropped"])
    lines.append(f"serve-mix traced: {len(traces)} traces fetched for "
                 f"{len(replies)} requests")
    layers = samples.medians()
    lateness = samples.samples.get("loadgen.lateness_ms", [0.0])
    layers.update({
        "loadgen.lateness_ms": summarize(lateness)["tail"],
        "batcher.batch_size": (batcher["completed"] / batcher["batches"]
                               if batcher["batches"] else 0.0),
        "batcher.coalesced": batcher["coalesced"],
        "batcher.rejected": batcher["rejected"],
        "service.hit_ratio": (service["hits"] / service["requests"]
                              if service["requests"] else 0.0),
        "obs.tracing_overhead_ms": traced - untraced,
        "obs.spans_dropped": max(dropped, default=0),
    })
    for kind in ("lookup", "inline_warm", "inline_cold"):
        if f"server.latency_ms.{kind}" in layers:
            lines.append(
                f"serve-mix {kind}: latency "
                f"{layers[f'server.latency_ms.{kind}']:.2f} ms = transport "
                f"{layers[f'server.transport_ms.{kind}']:.2f} + handler "
                f"{layers[f'server.handler_ms.{kind}']:.2f} (medians)")
    return layers


def run(*, seed: int, seconds: float, trace: bool, workdir) -> dict:
    outcome = Outcome()
    samples = LayerSamples()
    lines: List[str] = []
    phases = _phases(seconds, trace)
    inputs = Inputs(seed, phases, samples)

    setups = []
    for repeat in range(SETUP_REPEATS):
        server = Server(inputs, workdir)
        setups.append(server.seconds)
        if repeat < SETUP_REPEATS - 1:
            server.stop()
    try:
        checker = Checker(inputs, outcome)
        checker.warm_up(server.port)
        if trace:
            _codec_samples(inputs, checker, samples)
            layers = _traced(server, inputs, checker, phases, samples,
                             lines)
            e2e = {}
        else:
            e2e = _measure(server, inputs, checker, phases, lines)
            layers = {}
    finally:
        server.stop()
    auc, f1 = checker.check_cold(server.path, samples)
    if trace and "core.threshold_ms" in samples.samples:
        layers["core.threshold_ms"] = median(
            samples.samples["core.threshold_ms"])
    e2e.update(setup_s=median(setups), auc=auc, macro_f1=f1)
    return {"e2e": e2e, "layers": layers, "outcome": outcome, "lines": lines}
