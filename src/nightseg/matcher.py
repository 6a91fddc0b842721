"""Object-level matching: prototypes attend to pixels through reliable points.

Direct prototype-to-pixel similarity is fragile when foreground and
background are nearly indistinguishable, so each layer picks the top-K
pixels whose aggregate prototype similarity is highest and uses them as a
bridge: prototypes and pixels are each soft-assigned over the reliable
set, and the product of those two distributions replaces the raw
attention weights. A vanilla cross-attention mode keeps the same layer
recipe for ablations.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .layers import FeedForward, LayerNorm, Linear, Params, TokenSelfAttention, glorot_uniform
from .tensor import Tensor, attention_weights

__all__ = [
    "select_reliable",
    "bridged_similarity",
    "ReliableMatcherLayer",
    "ReliableMatcher",
]


def select_reliable(sim: Tensor, k: int) -> np.ndarray:
    """Indices [..., K] of the K pixels with the largest aggregate similarity
    (the column sums of sim [..., N, hw]), best first, chosen for each
    leading index on its own; ties go to the lower pixel index.

    The index choice carries no gradient.
    """
    scores = np.sum(sim.data, axis=-2)
    hw = scores.shape[-1]
    if not 1 <= k <= hw:
        raise ValueError(f"select_reliable: K={k} outside 1..{hw}")
    # a stable sort of the negated scores keeps tied pixels in index order
    return np.argsort(-scores, axis=-1, kind="stable")[..., :k].copy()


def bridged_similarity(q: Tensor, q_pix: Tensor, kr: Tensor, renormalize: bool = False) -> Tensor:
    """Prototype-to-pixel weights [..., N, hw] routed through the reliable keys kr [..., K, C].

    Prototype queries q and pixel queries q_pix are each soft-assigned over
    the reliable points; the product of the two distributions has entries
    in [0, 1], and ``renormalize`` scales each row to sum to one.
    """
    if kr.shape[-2] == 0:
        raise ValueError("bridged_similarity: empty reliable set")
    sim_qk = T.matmul(attention_weights(q, kr), T.transpose2d(attention_weights(q_pix, kr)))
    if renormalize:
        sim_qk = T.normalize_rows(sim_qk)
    return sim_qk


class ReliableMatcherLayer:
    """One matching layer: prototype self-attention, (reliable|vanilla)
    cross-attention with residual projection, self-attention, FFN.

    Pixels fa are [..., hw, C]; prototypes p are [..., N, C], or [N, C]
    shared by every sample (the first layer), in which case their
    self-attention runs once and its output is expanded over the batch.
    """

    def __init__(self, rng: np.random.Generator, width: int, k: int,
                 mode: str = "reliable", renormalize: bool = False, dtype=np.float64):
        if mode not in ("reliable", "vanilla"):
            raise ValueError(f"matcher mode must be 'reliable' or 'vanilla', got {mode!r}")
        self.attn_in = TokenSelfAttention(rng, width, dtype)
        self.wq = glorot_uniform(rng, (width, width), width, width, dtype)
        self.wk = glorot_uniform(rng, (width, width), width, width, dtype)
        self.wv = glorot_uniform(rng, (width, width), width, width, dtype)
        # zero-init: the unnormalized bridged weights sum to ~hw/K per row,
        # so an untrained projection would bury prototype identity under a
        # large shared vector; starting at identity preserves diversity
        self.out_proj = Linear(rng, width, width, dtype=dtype, zero_init=True)
        self.norm_cross = LayerNorm(width, dtype)
        self.attn_out = TokenSelfAttention(rng, width, dtype)
        self.ffn = FeedForward(rng, width, dtype=dtype)
        self.k = k
        self.mode = mode
        self.renormalize = renormalize

    def __call__(self, p: Tensor, fa: Tensor) -> Tensor:
        p1 = self.attn_in(p)
        if p1.data.ndim < fa.data.ndim:
            p1 = T.expand(p1, fa.shape[:-2])
        q = T.matmul(p1, self.wq)
        keys = T.matmul(fa, self.wk)
        weights = attention_weights(q, keys)
        if self.mode == "reliable":
            kr = T.gather_rows(keys, select_reliable(weights, self.k))
            weights = bridged_similarity(q, T.matmul(fa, self.wq), kr, self.renormalize)
        upd = T.matmul(weights, T.matmul(fa, self.wv))
        p2 = self.norm_cross(T.add(p1, self.out_proj(upd)))
        p3 = self.attn_out(p2)
        return self.ffn(p3)

    def parameters(self) -> Params:
        out: Params = [("attn_in." + n, t) for n, t in self.attn_in.parameters()]
        out += [("proj.wq", self.wq), ("proj.wk", self.wk), ("proj.wv", self.wv)]
        out += [("out_proj." + n, t) for n, t in self.out_proj.parameters()]
        out += [("norm_cross." + n, t) for n, t in self.norm_cross.parameters()]
        out += [("attn_out." + n, t) for n, t in self.attn_out.parameters()]
        out += [("ffn." + n, t) for n, t in self.ffn.parameters()]
        return out


class ReliableMatcher:
    """Learnable prototypes refined by a stack of matching layers.

    Reliable points are re-selected in every layer. The prototype count
    must be at least the class count so mask classification can assign
    one prototype per ground-truth segment.
    """

    def __init__(self, rng: np.random.Generator, num_prototypes: int, width: int,
                 k: int, num_layers: int = 3, mode: str = "reliable",
                 renormalize: bool = False, dtype=np.float64):
        self.prototypes = Tensor(
            (rng.normal(0.0, 0.02, size=(num_prototypes, width))).astype(dtype),
            requires_grad=True,
        )
        self.layers = [
            ReliableMatcherLayer(rng, width, k, mode, renormalize, dtype) for _ in range(num_layers)
        ]
        self.num_prototypes = num_prototypes

    def __call__(self, fa: Tensor) -> Tensor:
        """Refined prototypes [..., N, C] for pixels fa [..., hw, C]."""
        p = self.prototypes
        for layer in self.layers:
            p = layer(p, fa)
        return p

    def parameters(self) -> Params:
        out: Params = [("prototypes", self.prototypes)]
        for i, layer in enumerate(self.layers):
            out += [(f"layer{i}." + n, t) for n, t in layer.parameters()]
        return out
