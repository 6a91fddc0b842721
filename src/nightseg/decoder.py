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
    (upsampling continues without fusion when depth < 4).
    """

    def __init__(self, rng: np.random.Generator, feat_widths: list[int],
                 phase_widths: list[int], width: int, depth: int = 4, dtype=np.float64):
        if depth not in (1, 2, 3, 4):
            raise ValueError(f"decoder depth must be in 1..4, got {depth}")
        if len(feat_widths) != 4 or len(phase_widths) != 4:
            raise ValueError("decoder expects 4 stage widths, coarse to fine")
        # per stage the backbone projection draws before the phase one; this
        # draw order fixes which initial weights a seed gives
        self.proj_f: list[Linear] = []
        self.proj_p: list[Linear] = []
        for c_feat, c_phase in zip(feat_widths, phase_widths):
            self.proj_f.append(Linear(rng, c_feat, width, dtype=dtype))
            self.proj_p.append(Linear(rng, c_phase, width, dtype=dtype))
        self.attention = [TokenSelfAttention(rng, width, dtype) for _ in range(4)]
        self.depth = depth

    def __call__(self, fp: Pyramid, pp: Pyramid | None) -> Tensor:
        if len(fp.stages) != 4:
            raise ValueError(f"decoder expects a 4-stage pyramid, got {len(fp.stages)}")
        if pp is not None:
            for f, p in zip(fp.stages, pp.stages):
                if f.shape[:-1] != p.shape[:-1]:
                    raise ValueError(f"decoder: backbone stage {f.shape[:-1]} misaligned with "
                                     f"phase stage {p.shape[:-1]}")

        x: Tensor | None = None
        for s in range(4):
            if s >= self.depth:
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
