"""perfbench: the repository benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload detect-tsocial --seed 1 \
        --seconds 25 --trace 0

Workloads (see each module's docstring and ``interactions.json``):

* ``detect-tsocial`` — fit UMGAD at Table 3 T-Social scale, select the
  label-free threshold, cold-score an unseen graph (closed loop);
* ``serve-mix`` — open-loop score requests over keep-alive HTTP against
  an in-process gateway (fingerprint lookups, warm and cold inline
  graphs);
* ``stream-wal`` — a stream monitor ingesting a synthetic event stream
  through a write-ahead log, scoring a window every few hundred events.

``--trace 0`` measures with tracing off and prints every end-to-end
metric; ``--trace 1`` runs the workload traced and prints every
per-layer metric (layers a workload bypasses read 0). A human-readable
report goes to stderr; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "detect-tsocial": "detect_tsocial",
    "serve-mix": "serve_mix",
    "stream-wal": "stream_wal",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metrics(spec: dict, interactions: dict, workload: str, result: dict,
             trace: bool) -> dict:
    """Every declared metric, by name, with its unit."""
    metrics = {}
    if trace:
        values = result["layers"]
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name not in values:
                # A layer this workload bypasses, or a stage no operation
                # of this run reached.
                if workload in interactions["per_layer"][name]["measured_on"]:
                    print(f"perfbench: no {name} sample this run",
                          file=sys.stderr)
                values[name] = 0.0
            metrics[name] = {"value": float(values[name]),
                             "unit": metric["unit"]}
    else:
        values = result["e2e"]
        for metric in spec["end_to_end"]:
            metrics[metric["name"]] = {"value": float(values[metric["name"]]),
                                       "unit": metric["unit"]}
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    interactions = json.loads((HERE / "interactions.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.obs.runtime import peak_rss_bytes
        from repro.obs.trace import set_tracing
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}",
              file=sys.stderr)
        return 2
    module = importlib.import_module(WORKLOADS[args.workload])

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    set_tracing(False)
    try:
        result = module.run(seed=args.seed, seconds=args.seconds,
                            trace=bool(args.trace), workdir=workdir)
    finally:
        set_tracing(False)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass    # another run still holds its directory
    result["e2e"]["peak_rss_mb"] = peak_rss_bytes() / 2**20
    metrics = _metrics(spec, interactions, args.workload, result,
                       bool(args.trace))

    outcome = result["outcome"]
    report = [f"workload {args.workload} seed {args.seed} "
              f"trace {args.trace}", *result["lines"], *outcome.lines()]
    report += [f"  {name} = {entry['value']:.6g} {entry['unit']}"
               for name, entry in metrics.items()]
    print("\n".join(report), file=sys.stderr)
    print(json.dumps({"correct": not outcome.check_failures,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
