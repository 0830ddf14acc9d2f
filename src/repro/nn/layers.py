"""Core neural layers: Linear, simplified-GCN (SGC), and sparse GAT.

The paper's GMAE uses "GAT and simplified GCN as the encoder and decoder"
(Sec. V-A3); both are implemented here against the autograd substrate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..autograd import grad_mode, ops, spmm
from ..autograd.tensor import Tensor
from . import init
from .module import Module, Parameter


class Linear(Module):
    """Affine map ``x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng),
                                name="linear.weight")
        self.bias = Parameter(init.zeros(out_features), name="linear.bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = ops.matmul(x, self.weight)
        if self.bias is not None:
            out = ops.add(out, self.bias)
        return out


class SGCConv(Module):
    """Simplified GCN layer: ``S^k X W`` with a pre-normalised propagator.

    ``propagation`` applications of the (constant) sparse operator are folded
    into the forward pass; no nonlinearity, matching Wu et al.'s SGC, which
    is what UMGAD's decoders use.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 propagation: int = 1, bias: bool = True):
        super().__init__()
        self.propagation = int(propagation)
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng),
                                name="sgc.weight")
        self.bias = Parameter(init.zeros(out_features), name="sgc.bias") if bias else None

    def forward(self, x: Tensor, propagator: sp.spmatrix) -> Tensor:
        out = ops.matmul(x, self.weight)
        for _ in range(self.propagation):
            out = spmm(propagator, out)
        if self.bias is not None:
            out = ops.add(out, self.bias)
        return out


class GATConv(Module):
    """Sparse multi-head graph attention layer (Velickovic et al.).

    Attention logits are computed per edge from source/destination halves of
    the usual concatenated form, softmax-normalised over each destination
    node's incoming edges with :func:`segment_softmax`, and used to weight
    message aggregation. Heads are concatenated (or averaged when
    ``concat_heads=False``).
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 heads: int = 1, concat_heads: bool = True,
                 negative_slope: float = 0.2, add_self_loops: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.heads = int(heads)
        self.concat_heads = concat_heads
        self.negative_slope = negative_slope
        self.add_self_loops = add_self_loops
        self.weight = Parameter(
            init.xavier_uniform((in_features, self.heads * out_features), rng),
            name="gat.weight",
        )
        self.att_src = Parameter(init.xavier_uniform((self.heads, out_features), rng),
                                 name="gat.att_src")
        self.att_dst = Parameter(init.xavier_uniform((self.heads, out_features), rng),
                                 name="gat.att_dst")
        self.bias = Parameter(
            init.zeros(self.heads * out_features if concat_heads else out_features),
            name="gat.bias",
        )

    def forward(self, x: Tensor, src: np.ndarray, dst: np.ndarray,
                num_nodes: Optional[int] = None,
                scatter=None) -> Tensor:
        """Apply attention over the edge list ``(src[i] -> dst[i])``.

        ``scatter`` — a :class:`~repro.graphs.graph.GATScatter` covering
        the same edges (plus this layer's self-loops) — routes the call
        through the grad-free inference kernel when grad mode is off; it
        is ignored while gradients are being recorded.
        """
        if scatter is not None and not grad_mode._enabled.get():
            return self.inference_forward(x, scatter)
        n = num_nodes if num_nodes is not None else x.shape[0]
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if self.add_self_loops:
            loop = np.arange(n, dtype=np.int64)
            src = np.concatenate([src, loop])
            dst = np.concatenate([dst, loop])

        h = ops.matmul(x, self.weight)  # (n, heads*out)
        h = ops.reshape(h, (n, self.heads, self.out_features))

        # Per-node attention halves: (n, heads)
        alpha_src = ops.sum(ops.mul(h, self.att_src), axis=-1)
        alpha_dst = ops.sum(ops.mul(h, self.att_dst), axis=-1)

        # Per-edge logits and attention coefficients: (E, heads)
        logits = ops.leaky_relu(
            ops.add(ops.gather_rows(alpha_src, src), ops.gather_rows(alpha_dst, dst)),
            negative_slope=self.negative_slope,
        )
        att = ops.segment_softmax(logits, dst, n)

        # Weighted message aggregation: (E, heads, out) -> (n, heads, out)
        messages = ops.mul(ops.gather_rows(h, src),
                           ops.reshape(att, (att.shape[0], self.heads, 1)))
        out = ops.segment_sum(messages, dst, n)

        if self.concat_heads:
            out = ops.reshape(out, (n, self.heads * self.out_features))
        else:
            out = ops.mean(out, axis=1)
        return ops.add(out, self.bias)

    # ------------------------------------------------------------------
    # Grad-free inference kernel
    # ------------------------------------------------------------------
    def inference_forward(self, x, scatter) -> Tensor:
        """Tape-free forward over a pre-built scatter structure.

        In float64, bitwise-identical to :meth:`forward`: every elementwise
        step runs the same numpy calls on the same shapes, and the per-edge
        gather × attention × scatter-add message reduction is replaced by
        one CSR product per head whose per-row stored order equals the
        scatter-add accumulation order (see
        :meth:`~repro.graphs.graph.RelationGraph.gat_scatter`). Other
        dtypes stay in their own precision throughout, where
        :meth:`forward` promotes float32 attention to float64. Inference
        only — nothing is recorded on the tape.
        """
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        h = data @ self.weight.data
        return self.inference_from_hidden(h, scatter)

    def attention_halves(self, h: np.ndarray) -> tuple:
        """Per-node attention halves ``(alpha_src, alpha_dst)`` of ``h``.

        Row-wise, so the batched masked scorer computes them once on the
        shared rows and tiles, exactly as it does for ``h`` itself.
        """
        hh = h.reshape(h.shape[0], self.heads, self.out_features)
        return ((hh * self.att_src.data).sum(axis=-1),
                (hh * self.att_dst.data).sum(axis=-1))

    def inference_from_hidden(self, h: np.ndarray, scatter,
                              alphas: Optional[tuple] = None) -> Tensor:
        """Finish :meth:`inference_forward` from ``h = x @ W``.

        Split out so the batched masked scorer can assemble the stacked
        hidden matrix (and, via ``alphas``, the stacked attention halves)
        once — tiling the shared unmasked rows — instead of re-multiplying
        every stacked copy of the input.
        """
        n = scatter.num_nodes
        hh = h.reshape(n, self.heads, self.out_features)
        alpha_src, alpha_dst = (alphas if alphas is not None
                                else self.attention_halves(h))

        # Everything per-edge runs in destination-sorted order: each edge's
        # value is identical (elementwise ops commute with the permutation,
        # the segment max is order-free, and the stable sort preserves
        # per-segment accumulation order for the bincount), while the
        # destination-side gathers become monotone and the attention values
        # land directly in the CSR's stored order.
        src_s, dst_s = scatter.indices, scatter.dst_sorted
        logits = alpha_src[src_s] + alpha_dst[dst_s]
        # one pass instead of where()+mul (x * 1.0 == x exactly); the
        # Python-float slope keeps float32 logits in float32
        logits = np.where(logits > 0, logits, logits * self.negative_slope)

        seg_max = np.full((n, self.heads), -np.inf, dtype=logits.dtype)
        if self.heads == 1:
            # same max, unbuffered 1-D scatter is much faster than 2-D
            np.maximum.at(seg_max[:, 0], dst_s, logits[:, 0])
        else:
            np.maximum.at(seg_max, dst_s, logits)
        expd = np.exp(logits - seg_max[dst_s])
        denom = ops.segment_add_data(expd, dst_s, n)
        att = expd / np.maximum(denom[dst_s], 1e-30)

        out = np.empty((n, self.heads, self.out_features),
                       dtype=np.result_type(att.dtype, h.dtype))
        for head in range(self.heads):
            weights = sp.csr_matrix(
                (att[:, head], scatter.indices, scatter.indptr),
                shape=(n, n))
            out[:, head, :] = weights @ hh[:, head, :]

        if self.concat_heads:
            merged = out.reshape(n, self.heads * self.out_features)
        elif self.heads == 1:
            # mean over a single head is the identity (sum of one element
            # divided by 1.0 — exact), so skip the reduction pass
            merged = out[:, 0, :]
        else:
            merged = out.mean(axis=1)
        return Tensor(merged + self.bias.data)


class GCNConv(Module):
    """Classic GCN layer: ``S X W`` followed by an optional bias.

    Kept separate from :class:`SGCConv` because baseline methods (DOMINANT,
    GCNAE, ...) use single-hop GCN stacks with nonlinearities in between.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng),
                                name="gcn.weight")
        self.bias = Parameter(init.zeros(out_features), name="gcn.bias") if bias else None

    def forward(self, x: Tensor, propagator: sp.spmatrix) -> Tensor:
        out = spmm(propagator, ops.matmul(x, self.weight))
        if self.bias is not None:
            out = ops.add(out, self.bias)
        return out
