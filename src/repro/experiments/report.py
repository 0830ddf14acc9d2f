"""One-command reproduction report.

Runs every experiment module at a chosen profile and assembles a single
markdown report (the machine-generated counterpart of EXPERIMENTS.md)::

    from repro.experiments import report, FAST
    text = report.generate(FAST)

or from the shell::

    python -m repro.cli experiment table2 --profile fast   # one artefact
    python -m repro.experiments.report --profile fast      # everything
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Tuple

from . import fig2, fig3, fig4, fig5, fig6, fig7, table1, table2, table3, table4, table5
from .common import FAST, FULL, SAMPLED, ExperimentProfile

#: (section title, module, reduced-scope kwargs used at fast profiles)
_SECTIONS: List[Tuple[str, object, dict]] = [
    ("Table I — dataset statistics", table1, {}),
    ("Fig. 2 — ranked score curves & inflection", fig2,
     {"datasets": ["retail", "amazon"]}),
    ("Table II — real-unsupervised comparison", table2,
     {"datasets": ["retail", "amazon"]}),
    ("Table III — large-scale comparison", table3, {}),
    ("Table IV — ablations", table4, {"datasets": ["retail", "amazon"]}),
    ("Table V — ground-truth-leakage comparison", table5,
     {"datasets": ["retail"]}),
    ("Fig. 3 — loss-weight sensitivity (λ, µ, Θ)", fig3,
     {"datasets": ["retail"], "lambdas": (0.1, 0.3, 0.5),
      "mus": (0.1, 0.3, 0.5), "thetas": (0.01, 0.1, 1.0)}),
    ("Fig. 4 — mask ratio × subgraph size", fig4,
     {"datasets": ["retail"], "mask_ratios": (0.2, 0.4, 0.6, 0.8),
      "subgraph_sizes": (4, 12)}),
    ("Fig. 5 — α / β balance", fig5,
     {"datasets": ["retail"], "values": (0.1, 0.3, 0.5, 0.7, 0.9)}),
    ("Fig. 6 — accuracy/efficiency trade-off", fig6,
     {"datasets": ["retail"]}),
    ("Fig. 7 — efficiency & convergence", fig7,
     {"datasets": ["retail", "yelpchi"]}),
]

#: each section's ``--only`` key: its title before ``" — "``
SECTION_KEYS: List[str] = [title.split(" — ", 1)[0]
                           for title, _, _ in _SECTIONS]


def generate(profile: ExperimentProfile,
             sections: Optional[List[str]] = None) -> str:
    """Run experiments and return the assembled markdown report.

    ``sections`` optionally restricts to the given section keys — the
    title before ``" — "``, matched exactly (e.g. ``["Table II",
    "Fig. 2"]``; ``"Table I"`` selects Table I alone). An unknown key
    raises :class:`ValueError` naming the valid ones.
    """
    unknown = sorted(set(sections or ()) - set(SECTION_KEYS))
    if unknown:
        raise ValueError(f"unknown report section(s) {unknown}; valid "
                         f"keys: {SECTION_KEYS}")
    parts = [f"# UMGAD reproduction report (profile: {profile.name})", ""]
    for key, (title, module, kwargs) in zip(SECTION_KEYS, _SECTIONS):
        if sections is not None and key not in sections:
            continue
        start = time.perf_counter()
        rows = module.run(profile, **kwargs)
        elapsed = time.perf_counter() - start
        parts.append(f"## {title}")
        parts.append("")
        parts.append("```")
        parts.append(module.render(rows))
        parts.append("```")
        parts.append(f"_(generated in {elapsed:.1f}s)_")
        parts.append("")
    return "\n".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", choices=["fast", "full", "sampled"],
                        default="fast")
    parser.add_argument("--out", default=None,
                        help="write the report to this path (default stdout)")
    parser.add_argument("--only", nargs="*", default=None,
                        choices=SECTION_KEYS,
                        help="restrict to these section keys, matched "
                             "exactly (e.g. 'Table I' 'Fig. 2')")
    args = parser.parse_args(argv)
    profile = {"fast": FAST, "full": FULL, "sampled": SAMPLED}[args.profile]
    text = generate(profile, sections=args.only)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
