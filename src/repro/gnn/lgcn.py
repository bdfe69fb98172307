"""LGCN baseline (Gao et al., KDD 2018) — learnable graph convolution.

LGCN transforms irregular neighborhoods into grid-like data: for every
node it gathers neighbor features, *ranks* each feature channel
independently, keeps the top-k values, and applies a 1-D convolution
over the resulting ``(k+1)``-long sequence (the node itself first).
Table XI of the SANE paper summarises this as "1-D CNN aggregator,
equivalent to a weighted summation aggregator".

Our implementation vectorises the ranking with a fixed-size padded
neighbor table; padding positions are filled with ``-inf`` before the
per-channel top-k so they never win.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd import ops, scatter
from repro.autograd.tensor import Tensor, as_tensor
from repro.gnn.common import GraphCache
from repro.nn import init
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module, Parameter

__all__ = ["LGCNLayer", "LGCNModel"]


class LGCNLayer(Module):
    """One LGCN layer: channel-wise top-k ranking + 1-D convolution.

    The 1-D convolution over the length-``(k+1)`` sequence with a full
    receptive field degenerates to a learned weighted sum per position,
    which is exactly the "weighted summation" reading of Table XI; we
    keep per-position weight matrices, giving the layer strictly more
    capacity than a single mean.
    """

    def __init__(self, in_dim: int, out_dim: int, k: int, rng: np.random.Generator):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.k = k
        # One weight matrix per sequence position (self + k ranked slots).
        self.position_weights = [
            Parameter(init.xavier_uniform((in_dim, out_dim), rng)) for __ in range(k + 1)
        ]
        self.bias = Parameter(init.zeros((out_dim,)))

    def forward(self, x: Tensor, cache: GraphCache) -> Tensor:
        x = as_tensor(x)
        index, mask = cache.padded_neighbors(self.k)
        gathered = scatter.gather(x, index)  # (N, k, F)
        # Mask out padding with -inf so it never enters the top-k.
        neg_inf = np.where(mask[:, :, None], 0.0, -np.inf)
        masked = gathered + Tensor(neg_inf)
        ranked = _channelwise_topk(masked, self.k)  # (N, k, F) sorted desc
        # Replace -inf slots (degree < k) with zeros.
        ranked = ops.where(np.isfinite(ranked.data), ranked, Tensor(np.zeros(ranked.shape)))

        sequence = [x] + [
            ops.getitem(ranked, (slice(None), position)) for position in range(self.k)
        ]
        out = None
        for position, item in enumerate(sequence):
            term = item @ self.position_weights[position]
            out = term if out is None else out + term
        return out + self.bias


def _channelwise_topk(values: Tensor, k: int) -> Tensor:
    """Sort each channel of ``(N, k, F)`` descending along axis 1.

    Sorting indices are computed on detached data (they are piecewise
    constant in the inputs), then applied with differentiable gather.
    """
    order = np.argsort(-values.data, axis=1, kind="stable")
    n_idx = np.arange(values.shape[0])[:, None, None]
    f_idx = np.arange(values.shape[2])[None, None, :]
    return ops.getitem(values, (n_idx, order, f_idx))


class LGCNModel(Module):
    """Stacked LGCN with an input transform and a classifier head."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        num_classes: int,
        rng: np.random.Generator,
        num_layers: int = 3,
        k: int = 4,
        dropout: float = 0.5,
        activation: str = "relu",
    ):
        super().__init__()
        self.embed_in = Linear(in_dim, hidden_dim, rng)
        self.layers = [
            LGCNLayer(hidden_dim, hidden_dim, k, rng) for __ in range(num_layers)
        ]
        self.dropout = Dropout(dropout, rng)
        self.activation = F.ACTIVATIONS[activation]
        self.classifier = Linear(hidden_dim, num_classes, rng)
        self.node_aggregator_names = ["lgcn"] * num_layers

    def forward(self, features, cache: GraphCache) -> Tensor:
        h = self.activation(self.embed_in(self.dropout(as_tensor(features))))
        for layer in self.layers:
            h = self.activation(layer(h, cache))
            h = self.dropout(h)
        return self.classifier(h)

    def describe(self) -> str:
        return f"[lgcn x {len(self.layers)}]"
