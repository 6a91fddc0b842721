"""Parameterized building blocks: convolutions, linear maps, norms, attention.

Each layer owns its parameter tensors and reports them through
``parameters()`` as (name, tensor) pairs so optimizers and checkpoints
can address every weight by a stable dotted name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, attention

__all__ = [
    "ATTENTION_TOKEN_BUDGET",
    "glorot_uniform",
    "Conv2dLayer",
    "Linear",
    "LayerNorm",
    "TokenSelfAttention",
    "FeedForward",
    "Pyramid",
]

Params = list[tuple[str, Tensor]]

# self-attention weights are [M, M]: under a tape each attention block keeps
# one such buffer until its backward has run, 64 MiB in float32 at this many
# tokens; off a tape they exist one block of query rows at a time
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


class Conv2dLayer:
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

    def parameters(self) -> Params:
        return [("w", self.w), ("b", self.b)]


class Linear:
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

    def parameters(self) -> Params:
        return [("w", self.w), ("b", self.b)]


class LayerNorm:
    def __init__(self, width: int, dtype=np.float64):
        self.gamma = Tensor(np.ones(width, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(width, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)

    def parameters(self) -> Params:
        return [("gamma", self.gamma), ("beta", self.beta)]


class TokenSelfAttention:
    """Single-head scaled dot-product self-attention over tokens [..., M, C];
    every leading index attends only among its own M tokens.

    Post-norm residual block: out = LN(x + (softmax(QK^T/sqrt(C)) V) W_O).
    No positional encodings, so the block is equivariant under any
    permutation of the token rows. W_O starts at zero so the block is an
    identity (modulo normalization) at init; otherwise the attention
    context, which is nearly identical across tokens before training,
    drowns the between-token differences that downstream blocks need.
    At most ATTENTION_TOKEN_BUDGET tokens, since the weights are [M, M].
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
        q = T.matmul(x, self.wq)
        k = T.matmul(x, self.wk)
        v = T.matmul(x, self.wv)
        ctx = T.matmul(attention(q, k, v), self.wo)
        return self.norm(T.add(x, ctx))

    def parameters(self) -> Params:
        out: Params = [("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)]
        out += [("norm." + n, p) for n, p in self.norm.parameters()]
        return out


class FeedForward:
    """Two-layer MLP with a post-norm residual: out = LN(x + W2 relu(W1 x)).

    fc2 starts at zero for the same identity-at-init reason as the
    attention output projection.
    """

    def __init__(self, rng: np.random.Generator, width: int, dtype=np.float64):
        self.fc1 = Linear(rng, width, 2 * width, dtype=dtype)
        self.fc2 = Linear(rng, 2 * width, width, dtype=dtype, zero_init=True)
        self.norm = LayerNorm(width, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        y = self.fc2(T.relu(self.fc1(x)))
        return self.norm(T.add(x, y))

    def parameters(self) -> Params:
        out: Params = []
        out += [("fc1." + n, p) for n, p in self.fc1.parameters()]
        out += [("fc2." + n, p) for n, p in self.fc2.parameters()]
        out += [("norm." + n, p) for n, p in self.norm.parameters()]
        return out
