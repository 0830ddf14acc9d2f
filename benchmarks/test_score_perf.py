"""Scoring-pass timings on the Table III-scale graph.

Not a paper table — this tracks the cost of the grad-free scoring engine on
the Table III-scale generator graph (full-size T-Social stand-in, the config
``table3`` scores it with). All timings run through
:func:`repro.utils.measure_repeated` and land in the performance ledger
(``score_perf.json``), where ``repro bench diff`` compares them run to run:

* ``score_cold`` — ``score_graph`` on a new graph object per rep (cold
  operator caches), the cost an unseen graph pays;
* ``score_warm`` — repeated passes over one graph whose caches are built;
* ``masked_stage`` — the stacked masked-group reconstruction of one bank;
* ``serve_cold`` — a checkpoint-loaded ``DetectorService`` answering a
  fresh graph with an empty cache (fingerprint plus a scoring pass).

No wall-clock ratio is asserted here; the one hard check is that cold and
warm passes return bitwise-identical scores.
"""

import numpy as np

from conftest import save_and_echo

from repro.autograd import no_grad
from repro.core import UMGAD
from repro.datasets import load_dataset
from repro.experiments.common import umgad_config
from repro.serve import DetectorService
from repro.utils import measure_repeated
from repro.utils.rng import ensure_rng

SCALE = 1.0          # Table III-scale: the full-size generator graph
FEATURES = 24
DATA_SEED = 7
REPS = 3


def _fresh_graph(seed=DATA_SEED):
    """A new graph object (cold operator caches)."""
    return load_dataset("tsocial", scale=SCALE, num_features=FEATURES,
                        seed=seed).graph


def _fit_model(graph, profile):
    config = umgad_config(
        "tsocial",
        profile.variant(umgad_epochs=2, umgad_batch="subgraph"),
        seed=0, structure_score_mode="sampled")
    return UMGAD(config).fit(graph)


def test_scoring_pass_timings(profile, output_dir, ledger):
    graph = _fresh_graph()
    model = _fit_model(graph, profile)

    # --- end-to-end score_graph -------------------------------------------
    cold = measure_repeated(model.score_graph, reps=REPS,
                            setup=_fresh_graph, name="score_cold")
    warm_graph = _fresh_graph()
    warm = measure_repeated(lambda: model.score_graph(warm_graph), reps=REPS,
                            warmup=1, name="score_warm")
    ledger.record_timing(cold)
    ledger.record_timing(warm)
    assert np.array_equal(cold.value, warm.value)

    # --- the stacked masked-group reconstruction stage --------------------
    # at score_graph's default float32, on its eval-mode weight copy
    nets = model._inference_networks(np.float32)
    x = graph.x.astype(np.float32)
    weights = model._eval_fusion_weights(nets)

    def masked_stage():
        with no_grad():
            return model._masked_eval_recon(
                nets.attr, graph, x, weights,
                model._mask_groups(graph.num_nodes, ensure_rng(0)), {})

    stage = measure_repeated(masked_stage, reps=REPS, warmup=1,
                             name="masked_stage")
    ledger.record_timing(stage)

    # --- serving a checkpoint against an unseen graph ---------------------
    # (different content than the training graph, so the request misses the
    # stored-scores fingerprint fast path and pays a real scoring pass)
    ckpt = output_dir / "score_perf_model.npz"
    model.save(ckpt, graph=graph)
    service = DetectorService(str(ckpt))

    def cold_request():
        service.clear_cache()
        return _fresh_graph(DATA_SEED + 1)

    serve = measure_repeated(lambda g: service.scores(g).copy(), reps=REPS,
                             setup=cold_request, name="serve_cold")
    ledger.record_timing(serve)

    def ms(timing):
        return (f"median {timing.median * 1e3:8.1f} ms   "
                f"best {timing.best * 1e3:8.1f} ms")

    report = "\n".join([
        f"graph: {graph}",
        "",
        f"score_graph, {REPS} reps each (cold and warm bitwise-identical)",
        f"  cold (new graph per rep)  {ms(cold)}",
        f"  warm (cached operators)   {ms(warm)}",
        "",
        "masked-group reconstruction stage (GAT bank, float32, "
        f"g={max(2, int(np.ceil(1.0 / model.config.mask_ratio)))} groups)",
        f"  stacked                   {ms(stage)}",
        "",
        "serve cold request on a fresh graph (checkpoint-loaded model)",
        f"  cold (empty cache)        {ms(serve)}",
    ])
    save_and_echo(output_dir, "score_perf", report)
