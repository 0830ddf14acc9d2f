"""Versioned detector checkpoints (single compressed ``.npz``).

A checkpoint turns a fitted detector into a long-lived artifact: the
trained weights, the :class:`~repro.core.config.UMGADConfig`, the fitted
anomaly scores, the fitted :class:`~repro.core.threshold.ThresholdResult`
and the learned relation importances all travel together, so a loaded
model answers ``decision_scores()`` / ``threshold()`` / ``predict()``
bitwise-identically to the in-memory model it was saved from — without
touching the training graph again.

Layout of the archive:

* ``__checkpoint_header__`` — a JSON string with ``magic``, ``format_version``,
  detector class name, JSON-able hyperparameters, shape metadata and a
  sha256 checksum over every payload array (corruption detection).
* ``param::<name>`` — one entry per trainable parameter (UMGAD only;
  baselines keep no persistent networks, see below).
* ``array::<attr>`` — every ndarray attribute of the detector instance
  (``_scores`` and any fitted per-node state a baseline keeps).
* ``threshold::smoothed`` — the smoothed score curve of the fitted
  threshold, when one was selectable.

Baselines (all 22 of them) store only scalar hyperparameters plus fitted
arrays, so the generic path reconstructs them from the header's kwargs and
the ``array::`` entries. UMGAD additionally rebuilds its networks from the
serialized config and loads the full state dict, which is what lets
``score_graph()`` run on *new* graphs after loading.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import pathlib
import zipfile
import zlib
from typing import Dict, Optional, Tuple, Type

import numpy as np

from .. import chaos
from ..detection import BaseDetector
from ..graphs.io import graph_fingerprint
from ..graphs.multiplex import MultiplexGraph

MAGIC = "repro-detector-checkpoint"
# 2: the header's ``graph_fingerprint`` switched to the v2 component-digest
#    algorithm (repro.graphs.io), so v1 checkpoints' stored fingerprints
#    would silently never match again — better to reject them loudly.
FORMAT_VERSION = 2

_HEADER_KEY = "__checkpoint_header__"
_PARAM_PREFIX = "param::"
_ARRAY_PREFIX = "array::"
_SMOOTHED_KEY = "threshold::smoothed"


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupted, or incompatible."""


# ---------------------------------------------------------------------------
# Detector class registry
# ---------------------------------------------------------------------------

def detector_classes() -> Dict[str, Type[BaseDetector]]:
    """Class-name → class for every checkpointable detector."""
    from ..baselines import BASELINE_REGISTRY
    from ..core.model import UMGAD

    classes: Dict[str, Type[BaseDetector]] = {"UMGAD": UMGAD}
    for _category, cls in BASELINE_REGISTRY.values():
        classes[cls.__name__] = cls
    return classes


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------

def _payload_checksum(arrays: Dict[str, np.ndarray]) -> str:
    """sha256 over every payload array, in name order."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(value.dtype).encode())
        digest.update(repr(value.shape).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def _json_safe(value) -> bool:
    return isinstance(value, (bool, int, float, str, type(None)))


def _fitted_threshold(detector: BaseDetector) -> Optional[object]:
    """The detector's cached/selectable ThresholdResult, or None."""
    if detector._scores is None:
        return None
    try:
        return detector.threshold()
    except ValueError:
        # e.g. fewer than 8 scores — nothing to persist.
        return None


def _split_detector(detector: BaseDetector) -> Tuple[Dict[str, object],
                                                     Dict[str, np.ndarray]]:
    """Partition instance attributes into JSON kwargs and ndarray payloads."""
    kwargs: Dict[str, object] = {}
    arrays: Dict[str, np.ndarray] = {}
    for attr, value in vars(detector).items():
        if attr == "_threshold_cache":
            continue
        if isinstance(value, np.ndarray):
            arrays[attr] = value
        elif not attr.startswith("_") and _json_safe(value):
            kwargs[attr] = value
    return kwargs, arrays


# ---------------------------------------------------------------------------
# Save
# ---------------------------------------------------------------------------

def checkpoint_payload(detector: BaseDetector,
                       graph: Optional[MultiplexGraph] = None,
                       ) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Build a checkpoint's (header, payload arrays) without writing it.

    This is the serialization half of :func:`save_checkpoint`, split out
    so the process pool (:mod:`repro.pool`) can hand its workers the
    exact same representation: a worker reconstructs the detector from
    the payload through the same :func:`detector_from_payload` path a
    file load takes, which is what pins process-tier scores bitwise to
    the thread tier.
    """
    if detector._scores is None:
        raise CheckpointError(
            f"{type(detector).__name__} has no fitted scores; fit() before "
            "saving a checkpoint")
    from ..core.model import UMGAD

    header: Dict[str, object] = {
        "magic": MAGIC,
        "format_version": FORMAT_VERSION,
        "detector": type(detector).__name__,
    }
    payload: Dict[str, np.ndarray] = {}

    trained_dtype = None
    if isinstance(detector, UMGAD):
        header["config"] = detector.config.to_dict()
        header["relation_names"] = detector._relation_names
        header["num_features"] = detector._num_features
        header["relation_importance"] = detector.relation_importance
        state = detector.state_dict()
        for name, value in state.items():
            payload[_PARAM_PREFIX + name] = value
        payload[_ARRAY_PREFIX + "_scores"] = detector.decision_scores()
        param_dtypes = {str(v.dtype) for v in state.values()}
        if len(param_dtypes) == 1:
            trained_dtype = param_dtypes.pop()
    else:
        kwargs, arrays = _split_detector(detector)
        header["kwargs"] = kwargs
        for attr, value in arrays.items():
            payload[_ARRAY_PREFIX + attr] = value

    result = _fitted_threshold(detector)
    if result is not None:
        header["threshold"] = {
            "threshold": result.threshold,
            "index": result.index,
            "num_anomalies": result.num_anomalies,
            "window": result.window,
        }
        payload[_SMOOTHED_KEY] = result.smoothed

    if graph is None and isinstance(detector, UMGAD):
        graph = detector._graph
    if graph is not None:
        header["graph_fingerprint"] = graph_fingerprint(graph)
        header["num_nodes"] = graph.num_nodes
        if trained_dtype is None:
            # Baselines keep no parameters; the training graph's attribute
            # dtype IS the precision they were fitted at (and what their
            # stored fingerprint hashes).
            trained_dtype = str(graph.x.dtype)
    else:
        # A detector reconstructed from a checkpoint has no training
        # graph, but its original header remembers the fingerprint —
        # carry the provenance through a re-serialization (activate →
        # pool reload, registry copy) so the stored-scores fast path
        # survives the round trip.
        prior = getattr(detector, "_checkpoint_header", None)
        if isinstance(prior, dict):
            for key in ("graph_fingerprint", "num_nodes"):
                if key in prior:
                    header[key] = prior[key]
            if trained_dtype is None and prior.get("dtype"):
                trained_dtype = prior["dtype"]

    # Informational: the precision the model was trained at, NOT the
    # scoring precision (score_graph takes that as an argument, and
    # scores always come back float64). Payload
    # arrays carry their own dtypes through np.savez and load_state_dict
    # preserves them, so float32 models round-trip at float32; recorded
    # here so serving can adopt the right precision without opening the
    # payload. Older readers ignore unknown header keys — no
    # FORMAT_VERSION bump needed.
    if trained_dtype is not None:
        header["dtype"] = trained_dtype

    header["checksum"] = _payload_checksum(payload)
    return header, payload


def save_checkpoint(path, detector: BaseDetector,
                    graph: Optional[MultiplexGraph] = None) -> pathlib.Path:
    """Serialize a fitted detector to a single ``.npz`` checkpoint.

    ``graph`` (or, for UMGAD, the remembered training graph) contributes a
    fingerprint so the serving layer can recognise "this is the graph the
    stored scores belong to".
    """
    path = pathlib.Path(path)
    header, payload = checkpoint_payload(detector, graph)
    np.savez_compressed(
        path, **{_HEADER_KEY: np.array(json.dumps(header))}, **payload)
    return path


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------

def read_header(path) -> Dict[str, object]:
    """Read and validate a checkpoint's header without loading weights."""
    path = pathlib.Path(path)
    if not path.exists():
        raise CheckpointError(f"{path}: no such checkpoint")
    try:
        with np.load(path, allow_pickle=False) as archive:
            if _HEADER_KEY not in archive.files:
                raise CheckpointError(
                    f"{path}: not a detector checkpoint (missing header)")
            raw = str(archive[_HEADER_KEY])
    except (zipfile.BadZipFile, OSError, ValueError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from exc
    try:
        header = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: corrupted header ({exc})") from exc
    if header.get("magic") != MAGIC:
        raise CheckpointError(
            f"{path}: not a detector checkpoint (magic={header.get('magic')!r})")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version} is not supported by this "
            f"build (expected {FORMAT_VERSION})")
    return header


def load_checkpoint(path, match_dtype: bool = False) -> BaseDetector:
    """Reconstruct the detector saved by :func:`save_checkpoint`.

    Raises :class:`CheckpointError` on missing files, corrupted payloads
    (checksum mismatch), format-version mismatches and non-finite
    weights (naming the parameter).

    ``match_dtype=True`` sets the autograd default dtype to the precision
    the checkpoint was trained at (header ``dtype``, when recorded):
    graphs built afterwards then fingerprint-match the checkpoint's
    trained graph, which is what keeps the stored-scores fast path alive
    for float32 models — a float64-coerced copy of the training graph
    hashes differently and would silently force a full rescore. It is a
    process-global switch, so it is off by default here (the bare loader
    stays side-effect free); :class:`~repro.serve.service.DetectorService`
    turns it on, being the serve-a-model-per-process entry point.
    """
    path = pathlib.Path(path)
    header = read_header(path)
    if match_dtype and header.get("dtype"):
        from ..autograd import get_default_dtype, set_default_dtype

        if str(np.dtype(get_default_dtype())) != header["dtype"]:
            set_default_dtype(header["dtype"])
    try:
        # A valid header does not imply readable payloads: truncation or a
        # bit flip past the header entry surfaces here as a zip CRC error,
        # a zlib failure, or a short read deep inside numpy — all of which
        # must come out as CheckpointError, not a numpy traceback. The
        # chaos point injects an OSError on the same path, so an injected
        # load failure takes the identical CheckpointError exit.
        chaos.fail_point("checkpoint.load", key=str(path))
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files
                       if name != _HEADER_KEY}
    except (zipfile.BadZipFile, zlib.error, OSError, ValueError,
            EOFError) as exc:
        raise CheckpointError(
            f"{path}: corrupted checkpoint payload ({exc})") from exc

    return detector_from_payload(header, payload, source=str(path))


def detector_from_payload(header: Dict[str, object],
                          payload: Dict[str, np.ndarray],
                          source: str = "<payload>",
                          verify: bool = True) -> BaseDetector:
    """Reconstruct a detector from a checkpoint's (header, payload).

    The reconstruction half of :func:`load_checkpoint`, shared with the
    process-pool workers in :mod:`repro.pool` — both entry points build
    the detector through the exact same code, so a process-tier worker's
    model is indistinguishable from a file-loaded one.

    ``source`` labels error messages (a path, or a pool generation tag).
    ``verify`` re-checks the payload sha256 against the header.
    """
    checksum = _payload_checksum(payload)
    if verify and checksum != header.get("checksum"):
        raise CheckpointError(
            f"{source}: payload checksum mismatch — the file is corrupted "
            f"(stored {header.get('checksum')!r:.20}, computed {checksum[:12]}…)")

    cls_name = header["detector"]
    classes = detector_classes()
    if cls_name not in classes:
        raise CheckpointError(
            f"{source}: unknown detector class {cls_name!r}; known: "
            f"{sorted(classes)}")

    params = {name[len(_PARAM_PREFIX):]: value
              for name, value in payload.items()
              if name.startswith(_PARAM_PREFIX)}
    for name, value in params.items():
        # A NaN/inf weight (a diverged fit saved as-is) would turn every
        # score NaN; refuse it here, at the load boundary.
        if not np.isfinite(value).all():
            raise CheckpointError(
                f"{source}: parameter {name!r} holds non-finite values "
                f"({int((~np.isfinite(value)).sum())} of {value.size})")
    arrays = {name[len(_ARRAY_PREFIX):]: value
              for name, value in payload.items()
              if name.startswith(_ARRAY_PREFIX)}

    from ..core.model import UMGAD
    from ..core.config import UMGADConfig

    if "_scores" not in arrays:
        # Every checkpoint stores the fitted scores (save_checkpoint
        # refuses unfitted detectors), so a missing entry means an
        # incomplete file — for baselines just as much as for UMGAD.
        raise CheckpointError(
            f"{source}: checkpoint has no stored scores entry "
            "(array::_scores); the file is incomplete")

    if cls_name == "UMGAD":
        try:
            detector: BaseDetector = UMGAD(
                UMGADConfig.from_dict(header["config"]))
            detector.build_networks(header["relation_names"],
                                    header["num_features"])
        except KeyError as exc:
            raise CheckpointError(
                f"{source}: header is missing required field {exc}") from None
        detector.load_state_dict(params)
        detector._scores = arrays["_scores"]
    else:
        cls = classes[cls_name]
        init_names = set(inspect.signature(cls.__init__).parameters)
        kwargs = dict(header.get("kwargs", {}))
        detector = cls(**{k: v for k, v in kwargs.items() if k in init_names})
        for attr, value in kwargs.items():
            setattr(detector, attr, value)
        for attr, value in arrays.items():
            setattr(detector, attr, value)

    _restore_threshold(detector, header, payload)
    detector._checkpoint_header = header
    return detector


def _restore_threshold(detector: BaseDetector, header: Dict[str, object],
                       payload: Dict[str, np.ndarray]) -> None:
    """Re-seed the detector's threshold cache from the stored result."""
    info = header.get("threshold")
    if info is None or detector._scores is None:
        return
    from ..core.threshold import ThresholdResult

    result = ThresholdResult(
        threshold=float(info["threshold"]),
        index=int(info["index"]),
        num_anomalies=int(info["num_anomalies"]),
        window=int(info["window"]),
        smoothed=payload.get(_SMOOTHED_KEY, np.empty(0)),
    )
    detector._threshold_cache = (detector._scores, None, result)
