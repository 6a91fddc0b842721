"""Pixel-level texture amplification and coarse-to-fine feature fusion.

Backbone and phase features are projected to a shared width. At each stage
``amplify_stage`` (one tape node, from ``tensor``) reweights the projected
features by the per-pixel amplification map, the channel sum of squared
feature sums, scaled to mean 1. A self-attention layer then aggregates
context, and the result is upsampled and fused additively with the next
finer stage until the output sits at 1/4 resolution.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .layers import Linear, Module, Pyramid, TokenSelfAttention
from .tensor import Tensor, amplify_stage

__all__ = ["HierarchicalAmplifiedDecoder"]


class HierarchicalAmplifiedDecoder(Module):
    """Fuse the selected coarse stages into one high-resolution feature map.

    depth selects how many stages take part, always starting at the
    coarsest; the output always lands at the finest stage's extents
    (upsampling continues without fusion when depth < 4). The decoder holds
    only the weights its forward reads: the projections and attention of
    its ``depth`` stages, and phase projections only when ``phase`` is set,
    in which case every call needs a phase pyramid and otherwise none.
    """

    def __init__(self, rng: np.random.Generator, feat_widths: list[int],
                 phase_widths: list[int], width: int, depth: int = 4, phase: bool = True,
                 dtype=np.float64):
        if depth not in (1, 2, 3, 4):
            raise ValueError(f"decoder depth must be in 1..4, got {depth}")
        if len(feat_widths) != 4 or len(phase_widths) != 4:
            raise ValueError("decoder expects 4 stage widths, coarse to fine")
        # per stage the backbone projection draws before the phase one; this
        # draw order fixes which initial weights a seed gives
        proj_f, proj_p = [], []
        for c_feat, c_phase in zip(feat_widths, phase_widths):
            proj_f.append(Linear(rng, c_feat, width, dtype=dtype))
            proj_p.append(Linear(rng, c_phase, width, dtype=dtype))
        attention = [TokenSelfAttention(rng, width, dtype) for _ in range(4)]
        # all stages draw, then the unused drop out: each kept weight starts as in a full decoder
        self.proj_f: list[Linear] = proj_f[:depth]
        self.proj_p: list[Linear] | None = proj_p[:depth] if phase else None
        self.attention: list[TokenSelfAttention] = attention[:depth]

    def __call__(self, fp: Pyramid, pp: Pyramid | None) -> Tensor:
        if len(fp.stages) != 4:
            raise ValueError(f"decoder expects a 4-stage pyramid, got {len(fp.stages)}")
        if (pp is None) != (self.proj_p is None):
            raise ValueError("decoder: built with phase projections, got no phase pyramid"
                             if pp is None else
                             "decoder: built without phase projections, got a phase pyramid")
        if pp is not None:
            for f, p in zip(fp.stages, pp.stages):
                if f.shape[:-1] != p.shape[:-1]:
                    raise ValueError(f"decoder: backbone stage {f.shape[:-1]} misaligned with "
                                     f"phase stage {p.shape[:-1]}")

        x: Tensor | None = None
        for s in range(4):
            if s >= len(self.attention):
                x = T.upsample_bilinear2x(x)  # finer stages excluded from fusion
                continue
            fbar = self.proj_f[s](fp.stages[s])
            if x is not None:
                x = T.upsample_bilinear2x(x)
                fbar = T.add(x, fbar)
            if pp is not None:
                pbar = self.proj_p[s](pp.stages[s])
                fbar = amplify_stage(fbar, pbar)
            *lead, h, w, c = fbar.shape
            tokens = T.reshape(fbar, (*lead, h * w, c))
            x = T.reshape(self.attention[s](tokens), fbar.shape)
        return x
