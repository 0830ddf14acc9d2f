"""Command-line interface.

Subcommands::

    python -m repro.cli detect --dataset retail --scale 0.3 --epochs 30
    python -m repro.cli detect --graph my_graph.npz --save model.npz
    python -m repro.cli detect --dataset tsocial --batch subgraph \
        --batch-size 512 --dtype float32
    python -m repro.cli save --dataset retail --out model.npz
    python -m repro.cli score --model model.npz --graph my_graph.npz
    python -m repro.cli serve-bench --model model.npz --graph my_graph.npz
    python -m repro.cli serve --model model.npz --port 8765
    python -m repro.cli serve --registry models/ --activate retail-v1
    python -m repro.cli stream --events events.jsonl --model model.npz --window 500
    python -m repro.cli experiment table2 --profile fast
    python -m repro.cli trace --last 5 --port 8765
    python -m repro.cli datasets

``detect`` fits UMGAD on a named dataset or a saved ``.npz`` multiplex
archive, prints the label-free threshold decision and (when labels exist)
AUC / Macro-F1; ``--save`` checkpoints the fitted model. ``save`` is the
train-once entry point (fit + checkpoint, nothing else). ``score`` answers
from a checkpoint without retraining, ``serve-bench`` measures cold-load vs
warm-cache serving latency, ``stream`` replays a JSONL event log through
the online monitor (one report per window; with ``--output json``, one
JSON object per line), ``serve`` runs the HTTP serving gateway
(:mod:`repro.server`: micro-batched ``/v1/score``, ``/v1/events``,
model hot-swap, Prometheus ``/metrics``), ``trace`` pretty-prints the
span trees a running server publishes at ``GET /v1/traces``,
and ``experiment`` regenerates one paper table/figure. The repository's
benchmark harness is ``perfbench/run.py``, not a subcommand.
``detect``/``score``/``serve-bench`` take ``--output json`` for
machine-readable results.

``REPRO_PROFILE=1`` wraps ``detect``/``score``/``experiment`` in a trace
and prints a per-stage cost table (wall/CPU per pipeline stage) to stderr
after the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import experiments
from .core import UMGAD, UMGADConfig
from .core.explain import AnomalyExplainer
from .datasets import available_datasets, load_dataset
from .eval import macro_f1, roc_auc
from .graphs.io import load_multiplex

_EXPERIMENTS = {
    "table1": experiments.table1, "table2": experiments.table2,
    "table3": experiments.table3, "table4": experiments.table4,
    "table5": experiments.table5, "fig2": experiments.fig2,
    "fig3": experiments.fig3, "fig4": experiments.fig4,
    "fig5": experiments.fig5, "fig6": experiments.fig6,
    "fig7": experiments.fig7,
}

_PROFILES = {"fast": experiments.FAST, "full": experiments.FULL,
             "sampled": experiments.SAMPLED}


def _add_source_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", choices=available_datasets(),
                        help="built-in dataset name")
    source.add_argument("--graph", help="path to a saved .npz multiplex archive")
    parser.add_argument("--scale", type=float, default=0.3,
                        help="dataset scale (built-in datasets only)")
    parser.add_argument("--seed", type=int, default=0)


def _add_training_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--mask-ratio", type=float, default=0.4)
    parser.add_argument("--batch", choices=("full", "subgraph"), default="full",
                        help="training batch strategy (repro.engine): 'full' "
                             "trains on the whole graph per epoch, 'subgraph' "
                             "on RWR-sampled minibatches")
    parser.add_argument("--batch-size", type=int, default=256,
                        help="nodes per sampled subgraph minibatch")
    parser.add_argument("--batches-per-epoch", type=int, default=1,
                        help="minibatch steps per epoch in subgraph mode")


def _add_dtype_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dtype", choices=("float32", "float64"),
                        default=None,
                        help="floating-point precision for tensors and "
                             "graph attributes (float32 halves memory). "
                             "Commands that load a checkpoint default to "
                             "the precision it was trained at; training "
                             "commands default to float64")


def _add_output_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", choices=("text", "json"), default="text",
                        help="result format (json is machine-readable)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="UMGAD reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="fit UMGAD and flag anomalies")
    _add_source_args(detect)
    _add_training_args(detect)
    detect.add_argument("--top", type=int, default=10,
                        help="print the top-K scored nodes")
    detect.add_argument("--explain", type=int, default=0, metavar="K",
                        help="print evidence for the K highest-scoring nodes")
    detect.add_argument("--save", metavar="PATH",
                        help="checkpoint the fitted model to PATH")
    _add_dtype_arg(detect)
    _add_output_arg(detect)

    save = sub.add_parser(
        "save", help="fit UMGAD and checkpoint it (no reporting)")
    _add_source_args(save)
    _add_training_args(save)
    save.add_argument("--out", required=True, metavar="PATH",
                      help="checkpoint destination (.npz)")
    _add_dtype_arg(save)
    _add_output_arg(save)

    score = sub.add_parser(
        "score", help="score a graph with a saved checkpoint (no retraining)")
    score.add_argument("--model", required=True,
                       help="checkpoint written by 'save' or 'detect --save'")
    _add_source_args(score)
    score.add_argument("--top", type=int, default=10,
                       help="print the top-K scored nodes")
    score.add_argument("--node", type=int, default=None,
                       help="print one node's score only")
    score.add_argument("--explain", type=int, default=0, metavar="K",
                       help="print evidence for the K highest-scoring nodes")
    _add_dtype_arg(score)
    _add_output_arg(score)

    bench = sub.add_parser(
        "serve-bench", help="measure cold vs warm serving latency")
    bench.add_argument("--model", required=True, help="checkpoint to serve")
    _add_source_args(bench)
    bench.add_argument("--requests", type=int, default=20,
                       help="warm-cache requests to average over")
    _add_dtype_arg(bench)
    _add_output_arg(bench)

    serve = sub.add_parser(
        "serve", help="run the HTTP serving gateway (repro.server)")
    serve.add_argument("--model",
                       help="checkpoint to serve (or use --registry + "
                            "--activate)")
    serve.add_argument("--registry",
                       help="ModelRegistry directory backing /v1/models")
    serve.add_argument("--activate", metavar="NAME",
                       help="registry model to serve initially")
    serve.add_argument("--graph",
                       help="initial .npz multiplex snapshot seeding the "
                            "/v1/events stream builder")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--worker-threads", type=int, default=2,
                       dest="workers", metavar="N",
                       help="micro-batch worker threads")
    serve.add_argument("--worker-procs", type=int, default=2, metavar="N",
                       help="scoring worker processes for "
                            "--exec-tier process")
    serve.add_argument("--exec-tier", choices=("thread", "process"),
                       default="thread",
                       help="scoring execution tier: 'thread' scores "
                            "in-process; 'process' forks --worker-procs "
                            "scorers, each with its own copy of the "
                            "checkpoint (falls back to threads when they "
                            "cannot be started)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="admission bound: pending requests beyond this "
                            "are refused with 429")
    serve.add_argument("--linger-ms", type=float, default=2.0,
                       help="how long a score batch stays open for "
                            "same-graph joiners")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="max requests answered by one scoring pass")
    serve.add_argument("--cache-size", type=int, default=8,
                       help="DetectorService LRU size (distinct graphs)")
    serve.add_argument("--window", type=int, default=500,
                       help="stream monitor window for /v1/events")
    serve.add_argument("--stride", type=int, default=None,
                       help="stream monitor stride (default: --window)")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per HTTP request")
    serve.add_argument("--slo-window", type=int, default=100,
                       help="requests per tumbling SLO window")
    serve.add_argument("--slo-p99", type=float, default=2.5,
                       dest="slo_p99_seconds",
                       help="p99 latency objective in seconds")
    serve.add_argument("--slo-error-ratio", type=float, default=0.02,
                       help="tolerated 5xx share per SLO window")
    serve.add_argument("--slo-sustain", type=int, default=2,
                       help="consecutive violating windows before /healthz "
                            "turns 503")
    serve.add_argument("--sample-interval", type=float, default=5.0,
                       help="seconds between background runtime-telemetry "
                            "samples")
    serve.add_argument("--wal-dir", default=None,
                       help="write-ahead-log directory for /v1/events; "
                            "stream state is durably logged and recovered "
                            "on restart")
    serve.add_argument("--snapshot-every", type=int, default=10,
                       help="windows between WAL builder snapshots "
                            "(0 disables periodic snapshots)")
    _add_dtype_arg(serve)

    stream = sub.add_parser(
        "stream", help="replay a JSONL event log through the online monitor")
    stream.add_argument("--events", required=True,
                        help="JSONL event log (see repro.stream.events)")
    stream.add_argument("--model", required=True, help="checkpoint to serve")
    stream.add_argument("--graph",
                        help="initial .npz multiplex snapshot; omitted, the "
                             "stream must bootstrap an empty graph with the "
                             "model's relation schema")
    stream.add_argument("--window", type=int, default=500,
                        help="event span of jump/top-k comparisons (and the "
                             "default snapshot cadence)")
    stream.add_argument("--stride", type=int, default=None,
                        help="events between scored snapshots "
                             "(default: --window, i.e. tumbling windows)")
    stream.add_argument("--top", type=int, default=10,
                        help="ranking size for top-k entrant alerts")
    stream.add_argument("--psi-threshold", type=float, default=0.25,
                        help="PSI above which a drift alert fires")
    stream.add_argument("--jump-sigma", type=float, default=6.0,
                        help="robust sigmas for score-jump alerts")
    stream.add_argument("--wal-dir", default=None,
                        help="write-ahead-log directory: events are durably "
                             "logged before scoring, and a rerun resumes "
                             "from the recovered state (skipping events the "
                             "crashed run already consumed)")
    stream.add_argument("--snapshot-every", type=int, default=10,
                        help="windows between WAL builder snapshots "
                             "(0 disables periodic snapshots)")
    _add_dtype_arg(stream)
    _add_output_arg(stream)

    experiment = sub.add_parser("experiment",
                                help="regenerate a paper table/figure")
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.add_argument("--profile", choices=sorted(_PROFILES),
                            default="fast")

    trace = sub.add_parser(
        "trace", help="show request traces from a running serve gateway")
    trace.add_argument("--last", type=int, default=5,
                       help="how many of the newest traces to show")
    trace.add_argument("--id", dest="trace_id", default=None,
                       help="fetch one specific trace id instead")
    trace.add_argument("--host", default="127.0.0.1")
    trace.add_argument("--port", type=int, default=8765)
    _add_output_arg(trace)

    sub.add_parser("datasets", help="list built-in datasets")
    return parser


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _load_source(args):
    """(graph, labels, source-name) from --dataset or --graph."""
    if args.dataset:
        dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        return dataset.graph, dataset.labels, args.dataset
    graph, labels = load_multiplex(args.graph)
    return graph, labels, args.graph


def _emit(args, payload: dict, text: str) -> None:
    if args.output == "json":
        print(json.dumps(payload, default=float))
    else:
        print(text)


def _threshold_payload(result) -> dict:
    return {
        "threshold": result.threshold,
        "index": result.index,
        "num_anomalies": result.num_anomalies,
        "window": result.window,
    }


def _result_payload(scores: np.ndarray, result, top: int,
                    labels=None) -> dict:
    order = np.argsort(-scores)[:top]
    payload = {
        "num_nodes": int(scores.size),
        "threshold": _threshold_payload(result),
        "scores": scores.tolist(),
        "flagged": np.flatnonzero(scores >= result.threshold).tolist(),
        "top": [{"node": int(i), "score": float(scores[i])} for i in order],
    }
    if labels is not None and 0 < labels.sum() < labels.size:
        predictions = (scores >= result.threshold).astype(int)
        payload["metrics"] = {
            "auc": roc_auc(labels, scores),
            "macro_f1": macro_f1(labels, predictions),
            "true_anomalies": int(labels.sum()),
        }
    return payload


def _render_result(payload: dict) -> str:
    result = payload["threshold"]
    lines = [
        f"threshold {result['threshold']:.4f} flags "
        f"{result['num_anomalies']} of {payload['num_nodes']} nodes "
        f"(window={result['window']})",
    ]
    if "relation_importance" in payload:
        rounded = {k: round(v, 3)
                   for k, v in payload["relation_importance"].items()}
        lines.append(f"relation importance: {rounded}")
    top = payload["top"]
    lines.append(f"top-{len(top)} nodes: " + ", ".join(
        f"{row['node']}({row['score']:.3f})" for row in top))
    if "metrics" in payload:
        metrics = payload["metrics"]
        lines.append(f"AUC={metrics['auc']:.3f} "
                     f"Macro-F1={metrics['macro_f1']:.3f} "
                     f"(true anomalies: {metrics['true_anomalies']})")
    return "\n".join(lines)


def _explanations(model: UMGAD, graph, k: int, scores=None) -> list:
    explainer = AnomalyExplainer(model, graph, scores=scores)
    return explainer.top_anomalies(k)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _fit_model(args, graph) -> UMGAD:
    config = UMGADConfig(epochs=args.epochs, mask_ratio=args.mask_ratio,
                         seed=args.seed, batch=args.batch,
                         batch_size=args.batch_size,
                         batches_per_epoch=args.batches_per_epoch)
    return UMGAD(config).fit(graph)


def _run_detect(args) -> int:
    graph, labels, source = _load_source(args)
    if args.output == "text":
        print(f"loaded {source}: {graph}")

    model = _fit_model(args, graph)
    scores = model.decision_scores()
    result = model.threshold()

    payload = _result_payload(scores, result, args.top, labels)
    payload["source"] = source
    payload["relation_importance"] = model.relation_importance
    if args.save:
        saved = model.save(args.save, graph=graph)
        payload["checkpoint"] = str(saved)
    explanations = (_explanations(model, graph, args.explain)
                    if args.explain else [])
    if explanations:
        payload["explanations"] = [dataclasses.asdict(e) for e in explanations]
    text = _render_result(payload)
    if args.save and args.output == "text":
        text += f"\nsaved checkpoint to {payload['checkpoint']}"
    text += "".join("\n\n" + e.summary() for e in explanations)
    _emit(args, payload, text)
    return 0


def _run_save(args) -> int:
    graph, _labels, source = _load_source(args)
    start = time.perf_counter()
    model = _fit_model(args, graph)
    fit_seconds = time.perf_counter() - start
    saved = model.save(args.out, graph=graph)
    payload = {
        "source": source,
        "checkpoint": str(saved),
        "num_nodes": graph.num_nodes,
        "fit_seconds": fit_seconds,
        "threshold": _threshold_payload(model.threshold()),
    }
    _emit(args, payload,
          f"fitted on {source} in {fit_seconds:.2f}s; "
          f"saved checkpoint to {saved}")
    return 0


def _run_score(args) -> int:
    from .serve import DetectorService

    graph, labels, source = _load_source(args)
    # _resolve_dtype already applied the checkpoint's (or the explicit
    # --dtype) precision before the graph was built.
    service = DetectorService(args.model, match_dtype=False)

    if args.node is not None:
        value = service.score_node(graph, args.node)
        payload = {"source": source, "node": args.node, "score": value}
        text = f"node {args.node}: score {value:.4f}"
        if args.explain:
            explanation = service.explain(graph, args.node)
            payload["explanation"] = dataclasses.asdict(explanation)
            text += "\n" + explanation.summary()
        _emit(args, payload, text)
        return 0

    scores = service.scores(graph)
    result = service.threshold(graph)
    payload = _result_payload(scores, result, args.top, labels)
    payload["source"] = source
    payload["model"] = args.model
    model = service.detector
    if isinstance(model, UMGAD):
        payload["relation_importance"] = model.relation_importance
    explanations = [service.explain(graph, node)
                    for node, _score in service.top_k(graph, args.explain)
                    ] if args.explain else []
    if explanations:
        payload["explanations"] = [dataclasses.asdict(e) for e in explanations]
    text = _render_result(payload)
    text += "".join("\n\n" + e.summary() for e in explanations)
    _emit(args, payload, text)
    return 0


def _run_serve_bench(args) -> int:
    from .serve import run_serve_bench

    graph, _labels, source = _load_source(args)
    result = run_serve_bench(args.model, graph, requests=args.requests,
                             match_dtype=False)
    payload = {"source": source, "model": args.model, **result.to_dict()}
    _emit(args, payload, result.render())
    return 0


def _run_stream(args) -> int:
    import itertools

    from .serve import DetectorService, ServiceError
    from .stream import (IncrementalGraphBuilder, StreamMonitor,
                         WriteAheadLog, read_events)

    service = DetectorService(args.model, match_dtype=False)
    graph = None
    if args.graph:
        graph, _labels = load_multiplex(args.graph)
        names = graph.relation_names
        num_features = graph.num_features
    else:
        detector = service.detector
        names = getattr(detector, "_relation_names", None)
        num_features = getattr(detector, "_num_features", None)
        if not names or not num_features:
            raise ServiceError(
                "checkpoint records no relation schema; pass --graph with "
                "the initial snapshot instead")

    skip = 0
    if args.wal_dir:
        wal = WriteAheadLog(args.wal_dir)
        monitor = StreamMonitor.recover(
            service, wal, relation_names=names, num_features=num_features,
            window=args.window, stride=args.stride, top_k=args.top,
            psi_threshold=args.psi_threshold, jump_sigma=args.jump_sigma,
            snapshot_every=args.snapshot_every)
        if monitor.recovered:
            # The recovered state already holds this many of the log's
            # events (scored windows + the restored pending buffer) —
            # resume the replay right after them.
            skip = monitor.events_consumed + monitor.buffered
            if args.output == "text":
                print(f"recovered from {args.wal_dir}: "
                      f"{monitor.windows_scored} windows, "
                      f"{monitor.events_consumed} events consumed, "
                      f"{monitor.buffered} buffered; skipping the first "
                      f"{skip} event(s) of {args.events}")
        elif graph is not None and monitor.builder.num_nodes == 0:
            # Fresh WAL: seed from the base graph like the non-WAL path.
            monitor = StreamMonitor(
                service, IncrementalGraphBuilder.from_graph(graph), wal=wal,
                window=args.window, stride=args.stride, top_k=args.top,
                psi_threshold=args.psi_threshold, jump_sigma=args.jump_sigma,
                snapshot_every=args.snapshot_every)
    else:
        if graph is not None:
            builder = IncrementalGraphBuilder.from_graph(graph)
        else:
            builder = IncrementalGraphBuilder(relation_names=names,
                                              num_features=num_features)
        monitor = StreamMonitor(
            service, builder, window=args.window, stride=args.stride,
            top_k=args.top, psi_threshold=args.psi_threshold,
            jump_sigma=args.jump_sigma)

    def emit_report(report) -> None:
        if args.output == "json":
            print(json.dumps(report.to_dict(), default=float))
        else:
            print(report.render())

    try:
        events = read_events(args.events)
        if skip:
            events = itertools.islice(events, skip, None)
        for report in monitor.run(events):
            emit_report(report)
        tail = monitor.flush()
        if tail is not None:
            emit_report(tail)
        if monitor.wal is not None:
            monitor.checkpoint()
            monitor.wal.close()
        if args.output == "text":
            print(f"stream done: {monitor.events_consumed} events in "
                  f"{monitor.windows_scored} windows, "
                  f"{monitor.alerts_raised} alert(s); "
                  f"cache {service.stats.hits} hit(s) / "
                  f"{service.stats.misses} miss(es)")
    except BrokenPipeError:
        # streaming output piped into head/jq that exited early — not an
        # error; detach stdout so interpreter shutdown stays quiet
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _run_serve(args) -> int:
    from .serve import DetectorService, ModelRegistry
    from .server import Gateway, make_server

    if not args.model and not (args.registry and args.activate):
        raise ValueError(
            "serve needs --model PATH, or --registry DIR with "
            "--activate NAME")

    registry = ModelRegistry(args.registry) if args.registry else None
    active = None
    if args.model:
        # _resolve_dtype already applied the checkpoint's (or --dtype)
        # precision before anything was built.
        service = DetectorService(args.model, cache_size=args.cache_size,
                                  match_dtype=False)
    else:
        service = registry.service(args.activate,
                                   cache_size=args.cache_size,
                                   match_dtype=args.dtype is None)
        active = args.activate

    base_graph = None
    if args.graph:
        base_graph, _labels = load_multiplex(args.graph)

    gateway = Gateway(service, registry=registry, active_model=active,
                      base_graph=base_graph, workers=args.workers,
                      max_queue=args.max_queue, linger_ms=args.linger_ms,
                      max_batch=args.max_batch, window=args.window,
                      stride=args.stride, slo_window=args.slo_window,
                      slo_p99_seconds=args.slo_p99_seconds,
                      slo_error_ratio=args.slo_error_ratio,
                      slo_sustain=args.slo_sustain,
                      sample_interval=args.sample_interval,
                      wal_dir=args.wal_dir,
                      snapshot_every=args.snapshot_every,
                      exec_tier=args.exec_tier,
                      worker_procs=args.worker_procs)
    if args.exec_tier == "process" and gateway.exec_tier != "process":
        print(f"process tier unavailable, serving on threads: "
              f"{gateway.pool_fallback_reason}", flush=True)
    server = make_server(gateway, host=args.host, port=args.port,
                         verbose=args.verbose)
    # The resolved port line is machine-readable on purpose: --port 0
    # callers (CI smoke, scripts) parse it to find the ephemeral port.
    tier = (f" ({gateway.exec_tier} tier, "
            f"{gateway.pool.size} procs)" if gateway.pool is not None
            else "")
    print(f"serving {type(service.detector).__name__} "
          f"on {server.url}{tier}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        report = server.close()
        batcher = report.get("batcher", {})
        pool = report.get("pool", {})
        if batcher.get("leaked_workers") or pool.get("workers_killed"):
            print(f"dirty shutdown: {report}", file=sys.stderr, flush=True)
    return 0


def _run_experiment(args) -> int:
    module = _EXPERIMENTS[args.name]
    profile = _PROFILES[args.profile]
    rows = module.run(profile)
    print(module.render(rows))
    return 0


def _run_trace(args) -> int:
    from .obs import render_trace_tree
    from .server import ServerClient, ServerClientError

    client = ServerClient(host=args.host, port=args.port)
    try:
        payload = client.traces(
            last=args.last if args.trace_id is None else None,
            trace_id=args.trace_id)
    except ServerClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        client.close()
    if args.output == "json":
        print(json.dumps(payload, default=float))
        return 0
    traces = payload.get("traces", [])
    if not traces:
        print("no traces recorded yet (trace a request first, e.g. "
              "POST /v1/score)")
        return 0
    print("\n\n".join(render_trace_tree(trace) for trace in traces))
    return 0


def _resolve_dtype(args) -> None:
    """Apply --dtype; serving commands inherit the checkpoint's precision.

    Scoring a float32 checkpoint against a float64-coerced graph would
    silently miss the stored-scores fast path (the graph fingerprint
    hashes the attribute dtype), so when --dtype is not given and a
    --model is, the checkpoint header's recorded dtype wins.
    """
    dtype = getattr(args, "dtype", None)
    if dtype is None and getattr(args, "model", None):
        from .serve import CheckpointError
        from .serve.checkpoint import read_header

        try:
            dtype = read_header(args.model).get("dtype")
        except CheckpointError:
            dtype = None  # the command itself will report the bad model
    if dtype:
        from .autograd import set_default_dtype

        set_default_dtype(dtype)


def _dispatch_command(args) -> int:
    if args.command == "detect":
        return _run_detect(args)
    if args.command == "save":
        return _run_save(args)
    if args.command in ("score", "serve-bench", "stream", "serve"):
        # Serving commands run against user-supplied artifacts; turn the
        # operational failure modes (bad checkpoint, wrong graph, bad
        # event log, bad node) into one-line errors instead of tracebacks.
        # Training commands keep full tracebacks — their failures are
        # bugs, not user input.
        from .serve import CheckpointError, ServiceError
        from .stream import WalCorruptionError

        try:
            if args.command == "score":
                return _run_score(args)
            if args.command == "stream":
                return _run_stream(args)
            if args.command == "serve":
                return _run_serve(args)
            return _run_serve_bench(args)
        except (CheckpointError, ServiceError, WalCorruptionError,
                FileNotFoundError, ValueError, IndexError, KeyError) as exc:
            # KeyError's str() wraps the message in quotes; everything
            # else (notably OSError subclasses) formats itself best.
            message = exc.args[0] if isinstance(exc, KeyError) and \
                exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 1
    if args.command == "experiment":
        return _run_experiment(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "datasets":
        for name in available_datasets():
            print(name)
        return 0
    return 1  # pragma: no cover


#: commands whose runs REPRO_PROFILE=1 wraps in a trace + cost table
_PROFILED_COMMANDS = ("detect", "score", "experiment")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _resolve_dtype(args)
    profile = os.environ.get("REPRO_PROFILE", "").strip().lower() in (
        "1", "true", "yes", "on")
    if profile and args.command in _PROFILED_COMMANDS:
        from .obs import render_profile, start_trace

        with start_trace(f"cli.{args.command}") as trace:
            code = _dispatch_command(args)
        if trace is not None:
            # stderr on purpose: --output json on stdout stays parseable
            print(render_profile(trace), file=sys.stderr)
        return code
    return _dispatch_command(args)


if __name__ == "__main__":
    sys.exit(main())
