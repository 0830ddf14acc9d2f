"""Metric families and their Prometheus text exposition (version 0.0.4).

Every stats-holding component has one ``collect()`` returning
:class:`Collected` — its metric :class:`Family` list and its deep-health
entry, built from one read of its state — so ``/metrics`` and
``/healthz?deep=1`` cannot disagree about it. Plain counters are
:func:`metric` fields of a stats dataclass, which carry the kind and HELP
text next to the field; :func:`stat_families` exports them.

:func:`render` needs no client library and enforces the conventions so
callers can't drift: counters get the ``_total`` suffix, histograms
render cumulative ``_bucket``/``_sum``/``_count`` lines with the ``+Inf``
bound, and values render in non-scientific decimal form with
``+Inf``/``-Inf``/``NaN`` spelled the way Prometheus parsers expect. The
output is linted by :mod:`repro.obs.promlint` in the test suite and the
CI ``obs-smoke`` job.
"""

from __future__ import annotations

import dataclasses
import math
from decimal import Decimal
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .hist import Histogram, HistogramSnapshot

Labels = Optional[Dict[str, str]]
Sample = Tuple[Labels, Union[int, float]]
HistogramSample = Tuple[Labels, HistogramSnapshot]


class Family(NamedTuple):
    """One unprefixed metric family; ``samples`` are ``(labels, value)``
    pairs (a histogram's values are :class:`HistogramSnapshot` objects)."""

    name: str
    kind: str
    help: str
    samples: list


class Collected(NamedTuple):
    """A component's metric families and deep-health entry, one read."""

    families: List[Family]
    health: dict


def family(name: str, kind: str, help_text: str,
           samples: Iterable[Sample]) -> Family:
    if kind not in ("counter", "gauge", "histogram"):
        raise ValueError(f"unsupported metric type {kind!r}")
    return Family(name, kind, help_text, list(samples))


def counter(name: str, help_text: str, value: Union[int, float]) -> Family:
    return family(name, "counter", help_text, [(None, value)])


def gauge(name: str, help_text: str, value: Union[int, float]) -> Family:
    return family(name, "gauge", help_text, [(None, value)])


def histogram(name: str, help_text: str,
              samples: Union[Histogram, Sequence[HistogramSample]]) -> Family:
    """One histogram family from a live :class:`~repro.obs.hist.Histogram`
    or ``(labels, snapshot)`` pairs for labelled series (e.g. one per
    endpoint)."""
    if isinstance(samples, Histogram):
        samples = [(None, samples.snapshot())]
    return family(name, "histogram", help_text, samples)


def metric(kind: str, help_text: str, *, name: Optional[str] = None,
           default: Union[int, float] = 0):
    """A stats-dataclass field exported as one unlabelled metric family,
    ``<prefix>_<name or field name>`` (see :func:`stat_families`)."""
    return dataclasses.field(default=default,
                             metadata={"metric": (kind, help_text, name)})


def stat_families(stats, prefix: str) -> List[Family]:
    """The :func:`metric` fields of ``stats``, in declaration order."""
    families = []
    for spec in dataclasses.fields(stats):
        if "metric" in spec.metadata:
            kind, help_text, name = spec.metadata["metric"]
            families.append(family(f"{prefix}_{name or spec.name}", kind,
                                   help_text,
                                   [(None, getattr(stats, spec.name))]))
    return families


def dict_families(values: dict, table) -> List[Family]:
    """One unlabelled family per ``(key, name, kind, HELP)`` row of
    ``table`` — a stats dict's counters declared once; rows whose key is
    absent or ``None`` (a probe that cannot be answered) are skipped."""
    return [family(name, kind, help_text, [(None, values[key])])
            for key, name, kind, help_text in table
            if values.get(key) is not None]


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    text = repr(value)
    if "e" in text or "E" in text:
        # repr() goes scientific past ~1e16 / below 1e-4; expand to plain
        # decimal (Decimal(repr(x)) is exact for repr's shortest form).
        text = format(Decimal(text), "f")
    return text


def _render_labels(labels: Dict[str, str]) -> str:
    return ",".join(f'{key}="{_escape_label(val)}"'
                    for key, val in labels.items())


def _render_histogram(lines: List[str], name: str, labels: Dict[str, str],
                      snap: HistogramSnapshot) -> None:
    base = dict(sorted(labels.items()))
    bounds = list(snap.bounds) + [math.inf]
    for bound, cumulative in zip(bounds, snap.cumulative):
        bucket_labels = dict(base)
        bucket_labels["le"] = _format_value(float(bound))
        lines.append(f"{name}_bucket{{{_render_labels(bucket_labels)}}} "
                     f"{cumulative}")
    suffix = f"{{{_render_labels(base)}}}" if base else ""
    lines.append(f"{name}_sum{suffix} {_format_value(snap.sum)}")
    lines.append(f"{name}_count{suffix} {snap.count}")


def render(families: Iterable[Family], prefix: str = "repro") -> str:
    """The text exposition of ``families``, each named ``<prefix>_<name>``."""
    lines: List[str] = []
    for name, kind, help_text, samples in families:
        name = f"{prefix}_{name}" if prefix else name
        if kind == "counter" and not name.endswith("_total"):
            # Prometheus naming convention: cumulative counters carry the
            # unit-less _total suffix.
            name += "_total"
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        if kind == "histogram":
            for labels, snap in samples:
                _render_histogram(lines, name, labels or {}, snap)
            continue
        for labels, value in samples:
            if labels:
                rendered = _render_labels(dict(sorted(labels.items())))
                lines.append(f"{name}{{{rendered}}} {_format_value(value)}")
            else:
                lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


__all__ = ["Collected", "Family", "counter", "dict_families", "family",
           "gauge", "histogram", "metric", "render", "stat_families"]
