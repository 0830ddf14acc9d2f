"""Model persistence + detector serving.

Turns fitted detectors into long-lived, queryable artifacts:

* :mod:`repro.serve.checkpoint` — versioned, checksummed ``.npz``
  checkpoints with a bitwise ``decision_scores()`` round-trip guarantee;
* :mod:`repro.serve.service` — :class:`DetectorService`, load-once /
  score-many with an LRU cache keyed by graph fingerprint;
* :mod:`repro.serve.registry` — :class:`ModelRegistry`, named checkpoints
  on disk.
"""

from .checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    checkpoint_payload,
    detector_classes,
    detector_from_payload,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from .registry import ModelInfo, ModelRegistry
from .service import (DetectorService, NonFiniteScoresError, ServiceError,
                      ServiceStats)

__all__ = [
    "FORMAT_VERSION",
    "CheckpointError",
    "DetectorService",
    "ModelInfo",
    "ModelRegistry",
    "NonFiniteScoresError",
    "ServiceError",
    "ServiceStats",
    "checkpoint_payload",
    "detector_classes",
    "detector_from_payload",
    "load_checkpoint",
    "read_header",
    "save_checkpoint",
]
