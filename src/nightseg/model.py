"""Full segmentation network: backbone stub, decoder, matcher, and heads."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import check_options, option
from .decoder import HierarchicalAmplifiedDecoder
from .layers import ATTENTION_TOKEN_BUDGET, Conv2dLayer, Linear, Module, Pyramid
from .losses import class_and_mask_probs
from .matcher import ReliableMatcher
from .phase import PhaseEncoder
from .tensor import Tensor, relu

__all__ = [
    "ModelConfig",
    "SegOutput",
    "BackboneStub",
    "segmentation_logits",
    "NightSegModel",
    "predict",
    "majority_pool",
]


@dataclass
class ModelConfig:
    num_classes: int = 4
    backbone_widths: tuple[int, int, int, int] = option(
        "backbone.widths", (16, 32, 48, 64), at_least=1)   # F2..F5 (fine to coarse)
    phase_widths: tuple[int, int, int, int] = option(
        "phase_enc.widths", (8, 16, 24, 32), at_least=1)   # 1/4..1/32 (fine to coarse)
    decoder_channels: int = option("decoder.channels", 64, at_least=1)
    decoder_depth: int = option("decoder.depth", 4, choices=(1, 2, 3, 4))
    enhance_op: str = option("enhance.op", "phase", choices=("phase", "sobel", "none"))
    prototypes: int = option("matcher.prototypes", 8)
    reliable_k: int = option("matcher.reliable_k", 16)
    matcher_layers: int = option("matcher.layers", 3, at_least=1)
    matcher_mode: str = option("matcher.mode", "reliable", choices=("reliable", "vanilla"))
    seed: int = 0
    dtype: object = field(default=np.float64)

    def __post_init__(self):
        check_options(self)
        if self.prototypes < self.num_classes:
            raise ValueError(f"matcher.prototypes must be at least the class count "
                             f"{self.num_classes}, got {self.prototypes}")

    def check_image_size(self, height: int, width: int) -> None:
        """Reject image extents this model cannot run on, before any image is read."""
        if height % 32 or width % 32:
            raise ValueError(f"image extents {(height, width)} must be divisible by 32")
        scale = 2 ** (self.decoder_depth - 1)
        tokens = (height // 32 * scale) * (width // 32 * scale)
        if tokens > ATTENTION_TOKEN_BUDGET:
            raise ValueError(f"decoder.depth = {self.decoder_depth} attends over {tokens} tokens at "
                             f"its finest stage for {height}x{width} images, over the budget of "
                             f"{ATTENTION_TOKEN_BUDGET}; lower decoder.depth or the image extents")
        pixels = (height // 4) * (width // 4)
        if self.matcher_mode == "reliable" and not 1 <= self.reliable_k <= pixels:
            raise ValueError(f"matcher.reliable_k must be in 1..{pixels} for {height}x{width} "
                             f"images, got {self.reliable_k}")


@dataclass
class SegOutput:
    """Per-pixel mask logits (one plane per prototype) and per-prototype
    class logits whose final slot means "no object"; a batch adds the same
    leading axes to both."""

    mask_logits: Tensor    # [..., H/4, W/4, N]
    class_logits: Tensor   # [..., N, num_classes + 1]

    def __post_init__(self):
        if self.mask_logits.shape[-1] != self.class_logits.shape[-2]:
            raise ValueError(
                f"SegOutput: {self.mask_logits.shape[-1]} mask planes vs "
                f"{self.class_logits.shape[-2]} class rows"
            )


class BackboneStub(Module):
    """Four strided conv stages with schedule {4,2,2,2}: F2 at 1/4 .. F5 at 1/32."""

    def __init__(self, rng: np.random.Generator, widths: tuple[int, int, int, int],
                 dtype=np.float64):
        w2, w3, w4, w5 = widths
        self.stage1 = Conv2dLayer(rng, 3, w2, 4, 4, 0, dtype)
        self.stage2 = Conv2dLayer(rng, w2, w3, 3, 2, 1, dtype)
        self.stage3 = Conv2dLayer(rng, w3, w4, 3, 2, 1, dtype)
        self.stage4 = Conv2dLayer(rng, w4, w5, 3, 2, 1, dtype)

    def __call__(self, image: Tensor) -> Pyramid:
        h, w = image.shape[-3:-1]
        if h % 32 or w % 32:
            raise ValueError(f"backbone: extents {(h, w)} must be divisible by 32")
        f2 = relu(self.stage1(image))
        f3 = relu(self.stage2(f2))
        f4 = relu(self.stage3(f3))
        f5 = relu(self.stage4(f4))
        return Pyramid(stages=[f5, f4, f3, f2])


def segmentation_logits(e: Tensor, prototypes: Tensor) -> Tensor:
    """Per-pixel dot product of the feature map e[..., h, w, C] with every
    prototype of prototypes[..., N, C]."""
    if prototypes.shape[-1] != e.shape[-1]:
        raise ValueError(
            f"segmentation_logits: feature width {e.shape[-1]} != prototype width {prototypes.shape[-1]}"
        )
    return T.matmul(e, T.transpose2d(prototypes))


class NightSegModel(Module):
    """Backbone + phase encoder + amplified decoder + reliable matcher + heads.

    Takes one image [H, W, 3] or a batch [B, H, W, 3] (texture alike); a
    batch runs every layer once over all of its samples.
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        dtype = cfg.dtype
        bw = cfg.backbone_widths
        pw = cfg.phase_widths
        self.backbone = BackboneStub(rng, bw, dtype)
        self.phase_encoder = PhaseEncoder(rng, 3, pw, dtype=dtype) if cfg.enhance_op != "none" else None
        self.decoder = HierarchicalAmplifiedDecoder(
            rng,
            feat_widths=[bw[3], bw[2], bw[1], bw[0]],
            phase_widths=[pw[3], pw[2], pw[1], pw[0]],
            width=cfg.decoder_channels,
            depth=cfg.decoder_depth,
            phase=self.phase_encoder is not None,
            dtype=dtype,
        )
        self.matcher = ReliableMatcher(
            rng,
            num_prototypes=cfg.prototypes,
            width=cfg.decoder_channels,
            k=cfg.reliable_k,
            num_layers=cfg.matcher_layers,
            mode=cfg.matcher_mode,
            dtype=dtype,
        )
        self.class_head = Linear(rng, cfg.decoder_channels, cfg.num_classes + 1, dtype=dtype)

    def __call__(self, image: Tensor, texture: Tensor | None) -> SegOutput:
        fp = self.backbone(image)
        pp: Pyramid | None = None
        if self.phase_encoder is not None:
            if texture is None:
                raise ValueError(f"enhance_op={self.cfg.enhance_op!r} requires a texture map")
            pp = self.phase_encoder(texture)
        e = self.decoder(fp, pp)
        *lead, h, w, c = e.shape
        fa = T.reshape(e, (*lead, h * w, c))
        p_tilde = self.matcher(fa)
        return SegOutput(
            mask_logits=segmentation_logits(e, p_tilde),
            class_logits=self.class_head(p_tilde),
        )


def predict(out: SegOutput, num_classes: int) -> np.ndarray:
    """Per-pixel argmax of sum_n p_n(class) * sigmoid(mask_n); ties -> lowest class."""
    probs, masks = class_and_mask_probs(out.mask_logits.data, out.class_logits.data)
    scores = masks @ probs[:, :num_classes]                                  # [h, w, num_classes]
    return np.argmax(scores, axis=2).astype(np.int64)


def majority_pool(mask: np.ndarray, factor: int = 4) -> np.ndarray:
    """Most frequent label per factor x factor block; ties -> lowest label."""
    h, w = mask.shape
    if h % factor or w % factor:
        raise ValueError(f"mask extents {(h, w)} not divisible by {factor}")
    blocks = mask.reshape(h // factor, factor, w // factor, factor).swapaxes(1, 2)
    blocks = blocks.reshape(h // factor, w // factor, factor * factor)
    k = int(mask.max()) + 1
    counts = np.zeros((h // factor, w // factor, k), dtype=np.int64)
    for c in range(k):
        counts[:, :, c] = (blocks == c).sum(axis=2)
    return np.argmax(counts, axis=2).astype(np.int64)
