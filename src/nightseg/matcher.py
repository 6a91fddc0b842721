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
from .layers import FeedForward, LayerNorm, Linear, Module, TokenSelfAttention, glorot_uniform
from .tensor import Tensor

__all__ = [
    "select_reliable",
    "ReliableMatcherLayer",
    "ReliableMatcher",
]


def select_reliable(sim: np.ndarray, k: int) -> np.ndarray:
    """Indices [..., K] of the K pixels with the largest aggregate similarity
    (the column sums of sim [..., N, hw]), best first, chosen for each
    leading index on its own; ties go to the lower pixel index.
    """
    scores = np.sum(sim, axis=-2)
    hw = scores.shape[-1]
    if not 1 <= k <= hw:
        raise ValueError(f"select_reliable: K={k} outside 1..{hw}")
    # a stable sort of the negated scores keeps tied pixels in index order
    return np.argsort(-scores, axis=-1, kind="stable")[..., :k].copy()


class ReliableMatcherLayer(Module):
    """One matching layer: prototype self-attention, (reliable|vanilla)
    cross-attention with residual projection, self-attention, FFN.

    Pixels fa are [..., hw, C]; prototypes p are [..., N, C], or [N, C]
    shared by every sample (the first layer), in which case their
    self-attention runs once and its output is expanded over the batch.
    """

    def __init__(self, rng: np.random.Generator, width: int, k: int,
                 mode: str = "reliable", dtype=np.float64):
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

    def __call__(self, p: Tensor, fa: Tensor) -> Tensor:
        p1 = self.attn_in(p)
        if p1.data.ndim < fa.data.ndim:
            p1 = T.expand(p1, fa.shape[:-2])
        # the choice carries no gradient; select_reliable is looked up at each
        # call, so a wrapper put on it sees every choice
        select = (lambda w: select_reliable(w, self.k)) if self.mode == "reliable" else None
        p2 = T.attention_block(p1, fa, self.wq, self.wk, self.wv, self.out_proj.w,
                               self.out_proj.b, self.norm_cross.gamma, self.norm_cross.beta,
                               select)
        p3 = self.attn_out(p2)
        return self.ffn(p3)


class ReliableMatcher(Module):
    """Learnable prototypes refined by a stack of matching layers.

    Reliable points are re-selected in every layer. The prototype count
    must be at least the class count so mask classification can assign
    one prototype per ground-truth segment.
    """

    def __init__(self, rng: np.random.Generator, num_prototypes: int, width: int,
                 k: int, num_layers: int = 3, mode: str = "reliable", dtype=np.float64):
        self.prototypes = Tensor(
            (rng.normal(0.0, 0.02, size=(num_prototypes, width))).astype(dtype),
            requires_grad=True,
        )
        self.layers = [
            ReliableMatcherLayer(rng, width, k, mode, dtype) for _ in range(num_layers)
        ]

    def __call__(self, fa: Tensor) -> Tensor:
        """Refined prototypes [..., N, C] for pixels fa [..., hw, C]."""
        p = self.prototypes
        for layer in self.layers:
            p = layer(p, fa)
        return p
