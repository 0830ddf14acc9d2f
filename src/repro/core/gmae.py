"""Graph-masked autoencoder (GMAE) building block.

One GMAE pairs an encoder (GAT, or simplified GCN for the augmented views,
matching Sec. V-A3: "Our method adopts GAT and simplified GCN as the encoder
and decoder") with a simplified-GCN decoder that maps hidden states back to
attribute space. The learnable ``[MASK]`` token lives here too.

Scoring kernels: under :func:`~repro.autograd.grad_mode.no_grad`,
:meth:`GMAE.forward` routes GAT layers through their CSR inference kernel,
and :meth:`GMAE.impute_grouped` evaluates all disjoint mask groups of a
masked scoring pass as one stacked forward over the relation's cached
block-diagonal propagator — bitwise-identical to the sequential per-group
forwards it replaces.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from ..autograd import grad_mode, ops
from ..autograd.tensor import Tensor
from ..graphs.graph import RelationGraph
from ..nn import GATConv, Module, ModuleList, Parameter, SGCConv, init


def _scratch(workspace: Optional[dict], name: str, shape: tuple,
             dtype) -> np.ndarray:
    """An uninitialised ``shape`` buffer, kept in ``workspace`` by name,
    shape and dtype so the next call of the same scoring pass reuses its
    (already mapped) memory; a fresh array when ``workspace`` is None."""
    if workspace is None:
        return np.empty(shape, dtype=dtype)
    key = (name, tuple(shape), np.dtype(dtype))
    buf = workspace.get(key)
    if buf is None:
        buf = workspace[key] = np.empty(shape, dtype=dtype)
    return buf


def _propagate(prop: sp.csr_matrix, dense: np.ndarray,
               workspace: Optional[dict], name: str) -> np.ndarray:
    """``prop @ dense`` into a :func:`_scratch` buffer.

    Runs scipy's own CSR × dense kernel (the one ``prop @ dense`` calls)
    on a zeroed output, so the accumulation order and bits are the same.
    Falls back to the public path if the private kernel moves.
    """
    out = _scratch(workspace, name, (prop.shape[0], dense.shape[1]),
                   np.result_type(prop.dtype, dense.dtype))
    try:
        from scipy.sparse import _sparsetools

        out.fill(0)
        _sparsetools.csr_matvecs(
            prop.shape[0], prop.shape[1], dense.shape[1], prop.indptr,
            prop.indices, prop.data, dense.ravel(), out.ravel())
    except (ImportError, AttributeError):  # pragma: no cover - old scipy
        out[...] = prop @ dense
    return out


class GMAE(Module):
    """Encoder/decoder pair with an optional learnable mask token.

    Parameters
    ----------
    in_features / hidden_dim:
        Attribute and latent dimensionalities (``f`` and ``d_h``).
    encoder:
        ``"gat"`` (original view) or ``"sgc"`` (augmented views).
    encoder_layers:
        Depth of the encoder stack (paper: 2 for real-anomaly datasets,
        1 for injected ones).
    """

    def __init__(self, in_features: int, hidden_dim: int, rng: np.random.Generator,
                 encoder: str = "gat", encoder_layers: int = 1,
                 decoder_propagation: int = 1, gat_heads: int = 1):
        super().__init__()
        if encoder not in ("gat", "sgc"):
            raise ValueError(f"unknown encoder kind {encoder!r}")
        self.kind = encoder
        self.in_features = in_features
        self.hidden_dim = hidden_dim
        self.mask_token = Parameter(init.normal((1, in_features), rng, std=0.1),
                                    name="gmae.mask_token")

        layers = []
        dims = [in_features] + [hidden_dim] * encoder_layers
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            if encoder == "gat":
                layers.append(GATConv(d_in, d_out, rng, heads=gat_heads,
                                      concat_heads=False))
            else:
                layers.append(SGCConv(d_in, d_out, rng, propagation=1))
        self.encoder = ModuleList(layers)
        self.decoder = SGCConv(hidden_dim, in_features, rng,
                               propagation=decoder_propagation)

    # ------------------------------------------------------------------
    def apply_mask(self, x: Tensor, masked_nodes: np.ndarray) -> Tensor:
        """Replace the rows of ``masked_nodes`` with the [MASK] token."""
        if masked_nodes.size == 0:
            return x
        return ops.set_rows(x, masked_nodes, self.mask_token)

    def encode(self, x: Tensor, graph: RelationGraph,
               propagator: sp.spmatrix) -> Tensor:
        """Run the encoder stack over ``graph``'s structure (SGC encoders
        propagate with ``propagator``)."""
        h = x
        if self.kind == "gat":
            src, dst = graph.directed_pairs()
            inference = not grad_mode.is_grad_enabled()
            for i, layer in enumerate(self.encoder):
                scatter = (graph.gat_scatter(1, layer.add_self_loops)
                           if inference else None)
                h = layer(h, src, dst, num_nodes=graph.num_nodes,
                          scatter=scatter)
                if i + 1 < len(self.encoder):
                    h = ops.elu(h)
        else:
            for i, layer in enumerate(self.encoder):
                h = layer(h, propagator)
                if i + 1 < len(self.encoder):
                    h = ops.elu(h)
        return h

    def decode(self, hidden: Tensor, propagator: sp.spmatrix) -> Tensor:
        """Decode hidden states back to attribute space."""
        return self.decoder(hidden, propagator)

    def forward(self, x: Tensor, graph: RelationGraph,
                masked_nodes: Optional[np.ndarray] = None) -> Tensor:
        """Full masked-autoencoding pass; returns reconstructed attributes.

        Both halves propagate with ``graph``'s operator in ``x``'s dtype.
        """
        if masked_nodes is not None and masked_nodes.size:
            x = self.apply_mask(x, masked_nodes)
        prop = graph.sym_propagator(dtype=x.dtype)
        return self.decode(self.encode(x, graph, prop), prop)

    # ------------------------------------------------------------------
    # Grad-free batched masked scoring
    # ------------------------------------------------------------------
    def impute_grouped(self, x: Tensor, graph: RelationGraph,
                       groups: List[np.ndarray],
                       workspace: Optional[dict] = None) -> np.ndarray:
        """Impute every node from ``g`` disjoint mask groups in one pass.

        Equivalent to running :meth:`forward` once per group with that
        group's rows masked and keeping each run's masked rows — but the
        ``g`` runs are stacked into a single ``(g·n, f)`` forward over the
        relation's cached block-diagonal propagator / tiled GAT scatter,
        so every layer does one wide product instead of ``g`` narrow ones.
        Three further savings, all bitwise-invisible (BLAS gemm and CSR
        row results depend only on the row's inputs, which the parity
        tests pin):

        * the first layer's ``X W`` is computed once on the shared
          unmasked rows (plus one ``[MASK] W`` row) and tiled, instead of
          ``g`` times on near-identical inputs;
        * the decoder's final propagation only evaluates the rows each
          copy actually contributes (its own mask group);
        * nothing is recorded on the tape;
        * the large stacked intermediates (hidden rows, propagated and
          decoded features) are written into buffers kept in
          ``workspace``, a dict the caller shares across the calls of one
          scoring pass, instead of being allocated afresh by every call.

        Returns the assembled ``(n, f)`` imputation matrix (row ``i``
        reconstructed with its group masked). Inference-only: call under
        :func:`~repro.autograd.no_grad` (asserted), as no gradient flows
        to the mask token or weights.
        """
        if grad_mode.is_grad_enabled():
            raise RuntimeError(
                "impute_grouped is an inference kernel; wrap the call in "
                "autograd.no_grad()")
        n = graph.num_nodes
        copies = len(groups)
        base = x.data if isinstance(x, Tensor) else np.asarray(x)
        offsets = np.arange(copies, dtype=np.int64) * n
        stacked_rows = np.concatenate(
            [group + off for group, off in zip(groups, offsets)])

        # First linear layer on [X; mask_token] once, then tile + patch.
        first = self.encoder[0]
        token = self.mask_token.data
        with_token = np.concatenate([base, token], axis=0) @ first.weight.data
        width = with_token.shape[1]
        hidden = _scratch(workspace, "hidden", (copies * n, width),
                          with_token.dtype)
        hidden.reshape(copies, n, width)[:] = with_token[:n]
        hidden[stacked_rows] = with_token[n]

        if self.kind == "gat":
            scatter = graph.gat_scatter(copies, first.add_self_loops)
            # Attention halves are row-wise in h, so tile-and-patch them
            # exactly like the hidden rows instead of recomputing per copy.
            a_src, a_dst = first.attention_halves(with_token)
            alphas = []
            for half in (a_src, a_dst):
                stacked = np.tile(half[:n], (copies, 1))
                stacked[stacked_rows] = half[n]
                alphas.append(stacked)
            h = first.inference_from_hidden(hidden, scatter, tuple(alphas))
            for i, layer in enumerate(self.encoder):
                if i == 0:
                    continue
                h = ops.elu(h)
                h = layer(h, None, None, num_nodes=scatter.num_nodes,
                          scatter=graph.gat_scatter(copies,
                                                    layer.add_self_loops))
        else:
            prop = graph.block_propagator(copies, dtype=base.dtype)
            h = Tensor(hidden)
            for i, layer in enumerate(self.encoder):
                if i == 0:
                    for hop in range(first.propagation):
                        h = Tensor(_propagate(prop, h.data, workspace,
                                              f"hop{hop % 2}"))
                    if first.bias is not None:
                        # in place: ``h`` (a scratch buffer) already has
                        # the bias's result dtype, as both carry the
                        # weights' dtype
                        np.add(h.data, first.bias.data, out=h.data)
                else:
                    h = layer(ops.elu(h), prop)

        # Decoder: full gemm + all-but-last full hops, then only the rows
        # each copy contributes (its mask group) through the final hop.
        prop = graph.block_propagator(copies, dtype=base.dtype)
        weight = self.decoder.weight.data
        decoded = np.matmul(h.data, weight, out=_scratch(
            workspace, "decoded", (h.data.shape[0], weight.shape[1]),
            np.result_type(h.data, weight)))
        for hop in range(self.decoder.propagation - 1):
            decoded = _propagate(prop, decoded, workspace, f"dec{hop % 2}")
        if self.decoder.propagation == 0:
            rows = decoded[stacked_rows]
        else:
            rows = prop[stacked_rows] @ decoded
        if self.decoder.bias is not None:
            rows = rows + self.decoder.bias.data

        out = np.zeros((n, base.shape[1]), dtype=base.dtype)
        out[np.concatenate(groups)] = rows
        return out
