"""UMGAD hyperparameter configuration (paper Sec. IV + V-F defaults).

The dataclass covers every knob the paper's sensitivity analyses sweep
(Figs. 3–6) plus the ablation switches of Table IV. Defaults follow the
paper where stated (Θ = 0.1, α/β mid-range, mask ratios per Fig. 4) and are
sized for the scaled datasets this repo generates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Optional


@dataclass
class UMGADConfig:
    """All hyperparameters of the UMGAD model.

    Loss weights (Eq. 9, 16, 18): ``alpha`` balances attribute vs structure
    reconstruction in the original view, ``beta`` in the subgraph-level
    augmented view; ``lam``/``mu``/``theta`` weight the attribute-level
    augmented loss, subgraph-level augmented loss and dual-view contrastive
    loss in the total objective.

    Ablation switches mirror Table IV: ``use_mask`` (w/o M), ``use_original``
    (w/o O), ``use_augmented`` (w/o A), ``use_attr_aug`` (w/o NA),
    ``use_subgraph_aug`` (w/o SA), ``use_contrastive`` (w/o DCL).

    ``mode`` implements the Fig. 6 efficiency variants: ``"full"``,
    ``"att"`` (attribute reconstruction only), ``"str"`` (structure only),
    ``"sub"`` (subgraph reconstruction only).
    """

    # Architecture
    hidden_dim: int = 32
    encoder_layers: int = 1
    decoder_propagation: int = 1
    gat_heads: int = 1

    # Masking (Sec. IV-A/B, Fig. 4)
    mask_ratio: float = 0.4          # r_m, both attribute and edge masking
    mask_repeats: int = 2            # K
    swap_ratio: float = 0.2          # |V_aa| / |V| for attribute-level aug
    subgraph_size: int = 8           # |V_m| (Fig. 4 legend)
    num_subgraphs: int = 4           # RWR subgraphs per relation per repeat
    rwr_restart: float = 0.3

    # Loss weights
    alpha: float = 0.5               # Eq. 9
    beta: float = 0.4                # Eq. 16
    lam: float = 0.3                 # λ, Eq. 18
    mu: float = 0.3                  # µ, Eq. 18
    theta: float = 0.1               # Θ, Eq. 18
    eta: float = 2.0                 # scaling factor η in Eq. 4/13/15
    epsilon: float = 0.5             # ε in the anomaly score, Eq. 19

    # Structure loss
    negative_samples: int = 5        # negatives per masked edge (Eq. 7)
    contrast_temperature: float = 0.5

    # Optimisation
    epochs: int = 40
    # Batch strategy (repro.engine): "full" trains every epoch on the whole
    # graph (the paper's setting); "subgraph" trains each step on an
    # RWR-sampled node-induced multiplex minibatch of ~``batch_size`` nodes
    # (``batches_per_epoch`` steps per epoch), which is what makes training
    # tractable on the Table III-scale graphs.
    batch: str = "full"
    batch_size: int = 256
    batches_per_epoch: int = 1
    batch_walk_size: int = 32
    learning_rate: float = 1e-2
    weight_decay: float = 0.0
    grad_clip: float = 5.0
    # Early stopping (Fig. 7c: UMGAD converges in few epochs) — training
    # stops once the loss fails to improve by ``early_stop_min_delta`` for
    # ``early_stop_patience`` consecutive epochs. 0 disables it.
    early_stop_patience: int = 0
    early_stop_min_delta: float = 1e-3

    # Relation fusion (Eq. 3 / 8): "learned" trains a_r / b_r; "uniform"
    # freezes both at 1/R (README, "Deviations from the paper", item 4).
    relation_fusion: str = "learned"

    # Scoring
    attr_score_metric: str = "cosine"    # "cosine" | "euclidean" (Eq. 19)
    structure_score_mode: str = "auto"   # "exact" | "sampled" | "auto"
    structure_score_negatives: int = 20  # sampled-mode negatives per node
    exact_score_max_nodes: int = 4000    # auto switches to sampled above this

    # Ablation switches (Table IV)
    use_mask: bool = True
    use_original: bool = True
    use_augmented: bool = True
    use_attr_aug: bool = True
    use_subgraph_aug: bool = True
    use_contrastive: bool = True

    # Fig. 6 pruned variants
    mode: str = "full"

    seed: Optional[int] = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if not 0.0 < self.mask_ratio < 1.0:
            raise ValueError(f"mask_ratio must be in (0, 1), got {self.mask_ratio}")
        if self.eta < 1.0:
            raise ValueError(f"eta must be >= 1 (paper Eq. 4), got {self.eta}")
        if self.mode not in ("full", "att", "str", "sub"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.structure_score_mode not in ("exact", "sampled", "auto"):
            raise ValueError(
                f"unknown structure_score_mode {self.structure_score_mode!r}"
            )
        if self.attr_score_metric not in ("cosine", "euclidean"):
            raise ValueError(
                f"unknown attr_score_metric {self.attr_score_metric!r}"
            )
        if self.relation_fusion not in ("learned", "uniform"):
            raise ValueError(
                f"unknown relation_fusion {self.relation_fusion!r}"
            )
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be >= 0")
        if self.mask_repeats < 1:
            raise ValueError("mask_repeats (K) must be >= 1")
        if self.batch not in ("full", "subgraph"):
            raise ValueError(
                f"unknown batch strategy {self.batch!r}; expected 'full' or "
                "'subgraph'")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.batches_per_epoch < 1:
            raise ValueError(
                f"batches_per_epoch must be >= 1, got {self.batches_per_epoch}")

    def variant(self, **overrides) -> "UMGADConfig":
        """Copy with overrides (used by ablations and sweeps)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Serialization (checkpoint headers, repro.serve)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (all fields are scalars/strings)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object],
                  strict: bool = False) -> "UMGADConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are ignored by default so checkpoints written by a
        newer code version (extra knobs) still load; ``strict=True`` turns
        them into errors instead.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown and strict:
            raise ValueError(f"unknown UMGADConfig fields: {unknown}")
        return cls(**{k: v for k, v in payload.items() if k in known})


def ablation_config(base: UMGADConfig, name: str) -> UMGADConfig:
    """Build one of the paper's Table IV ablation variants from ``base``.

    ``name`` ∈ {"w/o M", "w/o O", "w/o A", "w/o NA", "w/o SA", "w/o DCL",
    "full"}.
    """
    mapping = {
        "full": {},
        "w/o M": {"use_mask": False},
        "w/o O": {"use_original": False},
        "w/o A": {"use_augmented": False, "use_contrastive": False},
        "w/o NA": {"use_attr_aug": False},
        "w/o SA": {"use_subgraph_aug": False},
        "w/o DCL": {"use_contrastive": False},
    }
    if name not in mapping:
        raise KeyError(f"unknown ablation {name!r}; expected one of {sorted(mapping)}")
    return base.variant(**mapping[name])
