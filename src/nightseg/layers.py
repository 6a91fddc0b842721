"""Parameterized building blocks: convolutions, linear maps, norms, attention.

Every layer derives from ``Module``, whose one ``parameters()`` lists the
layer's weights as (name, tensor) pairs by walking its attributes in
assignment order, so optimizers and checkpoints address every weight by
its attribute path. A ``Tensor`` attribute is a parameter named by the
attribute; a list entry adds its index as one name component; any other
attribute with a ``parameters`` method contributes its own pairs under
``<attribute>.``. A weight assigned to a layer is thus always trained
and saved, e.g. ``decoder.attention.0.wq`` or ``matcher.layers.2.ffn.fc1.b``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

__all__ = [
    "ATTENTION_TOKEN_BUDGET",
    "glorot_uniform",
    "Module",
    "Conv2dLayer",
    "Linear",
    "LayerNorm",
    "TokenSelfAttention",
    "FeedForward",
    "Pyramid",
]

# self-attention weights are [M, M], but they exist one block of 128 query
# rows at a time, on a tape or off it (2 MiB per sample in float32 at this
# many tokens); time grows with M², and the backward recomputes each block
ATTENTION_TOKEN_BUDGET = 4096


@dataclass
class Pyramid:
    """[..., h, w, C] stage maps ordered coarse to fine; extents double per stage."""

    stages: list[Tensor]

    def __post_init__(self):
        for a, b in zip(self.stages, self.stages[1:]):
            if b.shape[-3] != 2 * a.shape[-3] or b.shape[-2] != 2 * a.shape[-2]:
                raise ValueError(f"Pyramid: stage extents {b.shape[-3:-1]} are not 2x {a.shape[-3:-1]}")


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype) -> Tensor:
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-a, a, size=shape).astype(dtype), requires_grad=True)


class Module:
    """A layer whose weights are found by walking its attributes."""

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [pair for name, value in vars(self).items() for pair in _named(name, value)]


def _named(name: str, value) -> list[tuple[str, Tensor]]:
    if isinstance(value, Tensor):
        return [(name, value)]
    if isinstance(value, list):
        return [pair for i, item in enumerate(value) for pair in _named(f"{name}.{i}", item)]
    if hasattr(value, "parameters"):
        # through the method, not vars(): a stand-in object that forwards
        # attribute reads to the layer it wraps lists that layer's weights
        return [(f"{name}.{n}", p) for n, p in value.parameters()]
    return []


class Conv2dLayer(Module):
    """conv2d with bias; kernel [kh,kw,Cin,Cout]."""

    def __init__(self, rng: np.random.Generator, cin: int, cout: int,
                 kernel: int, stride: int, padding: int, dtype=np.float64):
        k = kernel
        self.w = glorot_uniform(rng, (k, k, cin, cout), k * k * cin, k * k * cout, dtype)
        self.b = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.w, self.stride, self.padding, self.b)


class Linear(Module):
    """Biased linear map over the last axis of x[..., Cin]."""

    def __init__(self, rng: np.random.Generator, cin: int, cout: int,
                 dtype=np.float64, zero_init: bool = False):
        if zero_init:
            self.w = Tensor(np.zeros((cin, cout), dtype=dtype), requires_grad=True)
        else:
            self.w = glorot_uniform(rng, (cin, cout), cin, cout, dtype)
        self.b = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.w, self.b)


class LayerNorm(Module):
    """Per-feature gain and shift of a post-norm residual, LN(x + y) over the
    last axis; the block nodes read them directly."""

    def __init__(self, width: int, dtype=np.float64):
        self.gamma = Tensor(np.ones(width, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(width, dtype=dtype), requires_grad=True)


class TokenSelfAttention(Module):
    """Single-head scaled dot-product self-attention over tokens [..., M, C];
    every leading index attends only among its own M tokens.

    Post-norm residual block: out = LN(x + (softmax(QK^T/sqrt(C)) V) W_O).
    No positional encodings, so the block is equivariant under any
    permutation of the token rows. W_O starts at zero so the block is an
    identity (modulo normalization) at init; otherwise the attention
    context, which is nearly identical across tokens before training,
    drowns the between-token differences that downstream blocks need.
    At most ATTENTION_TOKEN_BUDGET tokens, since its cost grows with M².
    """

    def __init__(self, rng: np.random.Generator, width: int, dtype=np.float64):
        self.wq = glorot_uniform(rng, (width, width), width, width, dtype)
        self.wk = glorot_uniform(rng, (width, width), width, width, dtype)
        self.wv = glorot_uniform(rng, (width, width), width, width, dtype)
        self.wo = Tensor(np.zeros((width, width), dtype=dtype), requires_grad=True)
        self.norm = LayerNorm(width, dtype)
        self.width = width

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim < 2 or x.shape[-1] != self.width:
            raise ValueError(f"attention: expected tokens [..., M, {self.width}], got {x.shape}")
        if x.shape[-2] > ATTENTION_TOKEN_BUDGET:
            raise ValueError(f"self-attention: {x.shape[-2]} tokens exceed the budget of "
                             f"{ATTENTION_TOKEN_BUDGET}")
        return T.attention_block(x, x, self.wq, self.wk, self.wv, self.wo, None,
                                 self.norm.gamma, self.norm.beta)


class FeedForward(Module):
    """Two-layer MLP with a post-norm residual: out = LN(x + W2 relu(W1 x)).

    fc2 starts at zero for the same identity-at-init reason as the
    attention output projection.
    """

    def __init__(self, rng: np.random.Generator, width: int, dtype=np.float64):
        self.fc1 = Linear(rng, width, 2 * width, dtype=dtype)
        self.fc2 = Linear(rng, 2 * width, width, dtype=dtype, zero_init=True)
        self.norm = LayerNorm(width, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return T.feed_forward_block(x, self.fc1.w, self.fc1.b, self.fc2.w, self.fc2.b,
                                    self.norm.gamma, self.norm.beta)
