"""``detect-tsocial``: the paper's analyst path at Table 3 T-Social scale.

Closed loop, one caller. Each operation fits :class:`~repro.core.UMGAD`
with the Table 3 configuration (``umgad_config("tsocial", SAMPLED)``:
sampled subgraph minibatches, sampled structure scoring) on a fresh
16k-node ``tsocial`` graph, cold-scores a *different* unseen 16k-node
graph, and selects the label-free threshold on those scores. Both graphs of an operation come from
their own data seeds, generated before the operation's clock starts;
the model seed is fixed, so ``--seed`` varies only the data.

No HTTP, stream, WAL or serving-cache call is made: the server, batcher,
service, stream and WAL layers are bypassed.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from repro.core import UMGAD, predict_with_threshold, select_threshold
from repro.datasets import load_dataset
from repro.eval import macro_f1, roc_auc
from repro.graphs import graph_fingerprint
from repro.obs.trace import set_tracing, span, start_trace

from measure import (CORE_STAGES, LayerSamples, Outcome, median,
                     score_pass_ms, summarize, table3_config, timed)

#: 16k nodes: the repo's Table 3 T-Social size
SCALE = 1.0
#: 1k-node graph for the set-up warm-up fit
WARMUP_SCALE = 1.0 / 16
SETUP_REPEATS = 3

def _setup(seed: int) -> float:
    """Warm the process with one small fit + cold score; returns seconds."""
    graph = load_dataset("tsocial", scale=WARMUP_SCALE, seed=seed).graph
    other = load_dataset("tsocial", scale=WARMUP_SCALE, seed=seed + 1).graph
    start = time.perf_counter()
    model = UMGAD(table3_config(seed, epochs=2)).fit(graph)
    model.score_graph(other)
    return time.perf_counter() - start


def run(*, seed: int, seconds: float, trace: bool, workdir) -> dict:
    outcome = Outcome()
    samples = LayerSamples()
    setups = [_setup(1_000 * seed + 101 + i) for i in range(SETUP_REPEATS)]

    walls, traced_walls, untraced_walls = [], [], []
    aucs, f1s = [], []
    budget = 0.0
    index = 0
    while budget < seconds:
        # Cold-miss hygiene: every operation trains on one fresh graph and
        # scores another, each from its own data seed.
        train = load_dataset("tsocial", scale=SCALE,
                             seed=10_000 * seed + 2 * index + 1)
        unseen = load_dataset("tsocial", scale=SCALE,
                              seed=10_000 * seed + 2 * index + 2)
        # The traced run alternates traced and untraced operations so
        # the difference of their medians is the tracing overhead.
        traced = trace and index % 2 == 0
        set_tracing(traced)
        ok = True
        fit_trace = score_trace = None
        start = time.perf_counter()
        try:
            # Two traces per operation: training alone overflows the
            # 512-span cap (a propagator build per sampled batch), and the
            # overflow would also swallow the scoring spans.
            with (start_trace("bench.fit") if traced
                  else nullcontext()) as fit_trace:
                model = UMGAD(table3_config(0))
                fit_start = time.perf_counter()
                model.fit(train.graph)
                fit_s = time.perf_counter() - fit_start
            with (start_trace("bench.score") if traced
                  else nullcontext()) as score_trace:
                with span("bench.score_graph"):
                    scores = model.score_graph(unseen.graph)
                with span("bench.threshold"), \
                        timed(samples, "core.threshold_ms"):
                    threshold = select_threshold(scores)
        except (ValueError, RuntimeError) as exc:
            ok = outcome.check(False, f"operation {index}: {exc!r}")
        wall = time.perf_counter() - start
        budget += wall
        set_tracing(False)

        if ok:
            ok = outcome.check(
                bool(np.isfinite(model.decision_scores()).all()
                     and np.isfinite(scores).all()),
                f"operation {index}: non-finite scores")
            with timed(samples, "graphs.fingerprint_ms"):
                train_fp = graph_fingerprint(train.graph)
            with timed(samples, "graphs.fingerprint_ms"):
                unseen_fp = graph_fingerprint(unseen.graph)
            ok = outcome.check(train_fp != unseen_fp,
                               f"operation {index}: unseen graph equals "
                               "the training graph") and ok
        outcome.count("detect", ok)
        if ok:
            aucs.append(roc_auc(unseen.labels, scores))
            f1s.append(macro_f1(unseen.labels,
                                predict_with_threshold(scores, threshold)))
            samples.add("engine.fit_s",
                        fit_s - model.timer.total("scoring"))
            samples.add("engine.epochs", model.train_state.epochs_run)
            (traced_walls if traced else untraced_walls).append(wall * 1e3)
            if traced:
                fit_trace = fit_trace.to_dict()
                score_trace = score_trace.to_dict()
                samples.add_spans(fit_trace, "engine.train_epoch.self_ms",
                                   "train.epoch")
                profile = samples.add_trace(score_trace, CORE_STAGES)
                samples.add("core.score_pass_ms", score_pass_ms(profile))
                samples.add("obs.spans_dropped", fit_trace["dropped"]
                            + score_trace["dropped"])
        walls.append(wall * 1e3)
        index += 1

    stats = summarize(walls)
    e2e = {
        "setup_s": median(setups),
        "op_ms.p50": stats["p50"],
        "op_ms.tail": stats["tail"],
        "throughput_per_s": outcome.phases["detect"]["ok"] / budget,
        "auc": median(aucs) if aucs else 0.0,
        "macro_f1": median(f1s) if f1s else 0.0,
    }
    layers = samples.medians()
    if trace and traced_walls and untraced_walls:
        layers["obs.tracing_overhead_ms"] = (median(traced_walls)
                                            - median(untraced_walls))
    lines = [f"detect-tsocial: {len(walls)} operations, op_ms tail is "
             f"p{stats['tail_pct']:.0f} of n={stats['n']}",
             "set-ups (s): " + " ".join(f"{s:.3f}" for s in setups)]
    return {"e2e": e2e, "layers": layers, "outcome": outcome, "lines": lines}
