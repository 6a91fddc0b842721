"""Dense float tensors with a reverse-mode gradient tape.

Storage is a numpy array (float64 for verification work, float32 for
training). Differentiable operations are module-level functions that
compute the forward value eagerly and, when a tape is active and the
result requires gradients, record the result with its backward closure on
that tape (``_node``). ``Tape.run`` replays the closures in exact reverse
execution order, so the tape itself is the topological order.

Conventions:
- a backward closure ``bwd(g)`` receives its node's gradient g and hands
  each input its share with ``_accumulate``. ``Tape.run`` alone skips a
  node that no gradient reached (its result is not on a path to the loss)
- tensors are immutable once written by an operation; the only sanctioned
  mutation is an optimizer updating parameter ``.data`` between tapes.
  Under ``train.AdamW`` each parameter's ``.data`` is a view into the
  optimizer's one flat weight vector, updated in place; rebinding
  ``p.data`` detaches that parameter from the vector
- gradient buffers are write-once per accumulation (``grad = grad + g``),
  never mutated in place, so views may be stored safely
- binary ops require exact shape and dtype agreement; the only broadcasts
  happen inside single nodes: the optional per-channel ``bias`` of
  ``matmul`` and ``conv2d``, the per-pixel scaling of ``amplify_stage``, the
  per-row scaling of ``normalize_rows``, the per-row reductions of
  ``attention_weights``, ``softmax`` and ``bce_dice_loss``, and ``expand``
- leading axes: every op except the two losses accepts any number of
  leading (batch) axes in front of the axes it names, e.g. x[..., H, W, C]
  or tokens [..., M, C], and treats each leading index as its own sample.
  ``matmul`` with a 2-D right operand (a weight) flattens a's leading axes
  into the rows of one GEMM; a right operand with leading axes pairs them
  with a's (np.matmul on stacks). ``expand`` adds leading axes to a tensor
  shared by every sample; ``bce_dice_loss`` and ``ce_logits`` take 2-D row
  sets, so callers flatten a batch into rows
- reductions are per sample: softmax and attention rows, the normalized
  rows, layer_norm's features, conv2d windows and ``amplify_stage``'s map
  mean over each map's own (h, w). Only gradients with respect to operands
  without the leading axes (weights, biases, ``expand`` inputs) sum over
  them
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "active_tape",
    "backward",
    "add",
    "mul",
    "scale",
    "matmul",
    "expand",
    "transpose2d",
    "reshape",
    "tsum",
    "relu",
    "softmax",
    "attention_weights",
    "layer_norm",
    "amplify_stage",
    "normalize_rows",
    "conv2d",
    "upsample_bilinear2x",
    "gather_rows",
    "bce_dice_loss",
    "ce_logits",
]

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """A dense row-major float array, optionally tracked by a gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.tape: "Tape | None" = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Tape:
    """Execution-ordered record of differentiable operations.

    Used as a context manager around a forward pass; ``run`` (usually via
    :func:`backward`) calls each node's ``fn(g)`` with the gradient g of its
    result ``out``, in reverse execution order, and then consumes the tape.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape stack corrupted"

    def record(self, out: Tensor, fn: Callable[[np.ndarray], None]) -> None:
        if self._consumed:
            raise RuntimeError("tape already consumed by backward()")
        self._nodes.append((out, fn))

    def __len__(self) -> int:
        return len(self._nodes)

    def run(self, loss: "Tensor") -> None:
        if self._consumed:
            raise RuntimeError("tape already consumed by backward()")
        loss.grad = np.ones_like(loss.data)
        for out, fn in reversed(self._nodes):
            if out.grad is not None:   # else no path from this node reaches the loss
                fn(out.grad)
        self._nodes.clear()
        self._consumed = True


_TAPE_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad ancestor of a scalar loss."""
    if loss.data.size != 1:
        raise ValueError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if loss.tape is None:
        raise ValueError("loss is not on a tape; run the forward pass inside `with Tape():`")
    loss.tape.run(loss)


def _node(data: np.ndarray, bwd: Callable[[np.ndarray], None], *parents: Tensor | None) -> Tensor:
    """An op's result, recorded with ``bwd`` on the active tape if a parent
    requires gradients; a None parent (an absent bias) is skipped."""
    out = Tensor(data, requires_grad=any(p is not None and p.requires_grad for p in parents))
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(out, bwd)
        out.tape = tape
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def _check_bias(op: str, bias: Tensor | None, n: int) -> None:
    if bias is not None and bias.shape != (n,):
        raise ValueError(f"{op}: bias {bias.shape} does not match {n} output channels")


# ---------------------------------------------------------------------------
# elementwise / scalar ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)

    def bwd(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _node(a.data + b.data, bwd, a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)

    def bwd(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _node(a.data * b.data, bwd, a, b)


def scale(x: Tensor, c: float) -> Tensor:
    def bwd(g):
        _accumulate(x, g * c)

    return _node(x.data * c, bwd, x)


# ---------------------------------------------------------------------------
# linear algebra / structure
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a[..., K] @ b[..., K, N], plus bias[N] if given.

    The leading axes of b are batch axes that a starts with. A 2-D b (a
    weight) has none, so every leading axis of a is flattened into the rows
    of one 2-D product; with b[B..., K, N] the axes of a between its batch
    axes and K are flattened into the rows of one product per batch entry.
    """
    nb = b.data.ndim - 2
    if nb < 0 or a.data.ndim < nb + 1 or a.shape[:nb] != b.shape[:nb]:
        raise ValueError(f"matmul: expects a[..., K] and a 2-D b[K, N], or b[B..., K, N] whose "
                         f"batch axes lead a, got {a.shape} and {b.shape}")
    k, n = b.shape[-2:]
    if a.shape[-1] != k:
        raise ValueError(f"matmul: inner extents differ, {a.shape} x {b.shape}")
    _check_bias("matmul", bias, n)
    lead = b.shape[:nb]
    a2 = a.data.reshape(lead + (-1, k))
    y = a2 @ b.data
    if bias is not None:
        y = y + bias.data

    def bwd(g):
        g2 = g.reshape(lead + (-1, n))
        if bias is not None:
            _accumulate(bias, np.sum(g2.reshape(-1, n), axis=(0,)))
        _accumulate(a, (g2 @ np.swapaxes(b.data, -1, -2)).reshape(a.shape))
        _accumulate(b, np.swapaxes(a2, -1, -2) @ g2)

    return _node(y.reshape(a.shape[:-1] + (n,)), bwd, a, b, bias)


def expand(x: Tensor, lead: Sequence[int]) -> Tensor:
    """x broadcast along new leading axes ``lead``, one copy per sample of a
    batch; its gradient is the sum over those axes."""
    lead = tuple(int(s) for s in lead)

    def bwd(g):
        _accumulate(x, np.sum(g, axis=tuple(range(len(lead)))))

    return _node(np.broadcast_to(x.data, lead + x.shape), bwd, x)


def transpose2d(x: Tensor) -> Tensor:
    """Swap the last two axes of x[..., m, n]."""
    if x.data.ndim < 2:
        raise ValueError(f"transpose2d: expects a 2-D tensor or a stack of them, got {x.shape}")

    def bwd(g):
        _accumulate(x, np.swapaxes(g, -1, -2))

    return _node(np.swapaxes(x.data, -1, -2), bwd, x)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)

    def bwd(g):
        _accumulate(x, g.reshape(x.shape))

    return _node(x.data.reshape(shape), bwd, x)


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    """Sum over one axis, or over everything (axis=None, scalar result)."""

    def bwd(g):
        if axis is None:
            _accumulate(x, np.broadcast_to(g, x.shape).copy())
        else:
            _accumulate(x, np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())

    return _node(np.sum(x.data, axis=axis), bwd, x)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(x, g * (x.data > 0))

    return _node(np.maximum(x.data, 0.0), bwd, x)


def softmax(x: Tensor, axis: int) -> Tensor:
    """Max-subtracted softmax along ``axis``; slices sum to 1."""
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ValueError(f"softmax: axis {axis} invalid for shape {x.shape}")
    z = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / np.sum(e, axis=axis, keepdims=True)

    def bwd(g):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        _accumulate(x, y * (g - dot))

    return _node(y, bwd, x)


def attention_weights(q: Tensor, k: Tensor) -> Tensor:
    """Scaled dot-product weights softmax(q k^T / sqrt(C)); row i of q [..., M, C]
    is a distribution over the rows of k [..., L, C] with the same leading axes.

    One node in place of matmul, transpose2d, scale and softmax: the forward
    applies their ufuncs in their order to one [..., M, L] buffer, and the
    backward replays their rules, so values and gradients equal the composed
    ops bit for bit.
    """
    if q.data.ndim < 2 or k.data.ndim != q.data.ndim or q.shape[:-2] != k.shape[:-2]:
        raise ValueError(f"attention_weights: expects 2-D operands or stacks of them with the same "
                         f"leading axes, got {q.shape} and {k.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ValueError(f"attention_weights: inner extents differ, {q.shape} x {k.shape[::-1]}")
    c = 1.0 / math.sqrt(q.shape[-1])
    y = q.data @ np.swapaxes(k.data, -1, -2)
    y *= c
    y -= np.max(y, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= np.sum(y, axis=-1, keepdims=True)

    def bwd(g):
        ds = g * y
        dot = np.sum(ds, axis=-1, keepdims=True)
        np.subtract(g, dot, out=ds)
        ds *= y
        ds *= c
        _accumulate(q, ds @ k.data)
        _accumulate(k, np.swapaxes(np.swapaxes(q.data, -1, -2) @ ds, -1, -2))

    return _node(y, bwd, q, k)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply per-feature gain and shift."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(f"layer_norm: gain/shift must have shape ({c},), got {gamma.shape} and {beta.shape}")
    mu = np.mean(x.data, axis=-1, keepdims=True)
    var = np.mean((x.data - mu) ** 2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv

    def bwd(g):
        reduce_axes = tuple(range(x.data.ndim - 1))
        _accumulate(beta, np.sum(g, axis=reduce_axes))
        _accumulate(gamma, np.sum(g * xhat, axis=reduce_axes))
        gg = g * gamma.data
        m1 = np.mean(gg, axis=-1, keepdims=True)
        m2 = np.mean(gg * xhat, axis=-1, keepdims=True)
        _accumulate(x, inv * (gg - m1 - xhat * m2))

    return _node(xhat * gamma.data + beta.data, bwd, x, gamma, beta)


# ---------------------------------------------------------------------------
# paper mechanisms as single nodes
#
# Each replaces a chain of small ops: the forward applies the chain's ufuncs
# in its order, and the backward replays the chain's rules and hands each
# input its contributions in the order the chain's nodes did, so values and
# gradients equal the composed ops bit for bit.
# ---------------------------------------------------------------------------

def amplify_stage(fbar: Tensor, pbar: Tensor, normalize: bool = True) -> Tensor:
    """Scale every channel of pixel (i, j) of fbar[..., h, w, C] by the
    amplified map a[..., i, j] = sum_c (fbar + pbar)[..., i, j, c]^2.

    With ``normalize`` each map is first divided by its own mean over (h, w)
    plus 1e-12, so it has mean 1 and an all-zero map stays finite.
    """
    _check_same_shape("amplify_stage", fbar, pbar)
    if fbar.data.ndim < 3:
        raise ValueError(f"amplify_stage: expects [h, w, C] maps, with any leading axes, "
                         f"got {fbar.shape}")
    s = fbar.data + pbar.data
    raw = np.sum(s * s, axis=-1)
    hw = raw.shape[-2] * raw.shape[-1]
    a = raw
    if normalize:
        r = 1.0 / (np.sum(raw, axis=(-2, -1), keepdims=True) * (1.0 / hw) + 1e-12)
        a = raw * r

    def bwd(g):
        _accumulate(fbar, g * a[..., None])
        graw = np.sum(g * fbar.data, axis=-1)
        if normalize:
            gr = np.sum(graw * raw, axis=(-2, -1), keepdims=True)
            graw = graw * r + -gr * r * r * (1.0 / hw)
        ds = graw[..., None] * s
        ds += ds
        _accumulate(fbar, ds)
        _accumulate(pbar, ds)

    return _node(fbar.data * a[..., None], bwd, fbar, pbar)


def normalize_rows(x: Tensor) -> Tensor:
    """Scale row i of x[..., n, m] by 1 / sum_j x[..., i, j], so every row sums to one."""
    if x.data.ndim < 2:
        raise ValueError(f"normalize_rows: expects a 2-D tensor or a stack of them, got {x.shape}")
    inv = 1.0 / np.sum(x.data, axis=-1)

    def bwd(g):
        _accumulate(x, g * inv[..., None])
        ginv = np.sum(g * x.data, axis=-1)
        _accumulate(x, np.broadcast_to((-ginv * inv * inv)[..., None], x.shape))

    return _node(x.data * inv[..., None], bwd, x)


# ---------------------------------------------------------------------------
# convolution / resampling / gather
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None) -> Tensor:
    """Cross-correlate x[..., H, W, Cin] with w[kh, kw, Cin, Cout], zero
    padding, then add bias[Cout] if given; the windows of every leading
    index form the rows of one im2col product."""
    if x.data.ndim < 3 or w.data.ndim != 4:
        raise ValueError(f"conv2d: expects x[..., H, W, Cin] and w[kh, kw, Cin, Cout], "
                         f"got {x.shape} and {w.shape}")
    *lead, h, wd, cin = x.shape
    lead = tuple(lead)
    kh, kw, wcin, cout = w.shape
    if cin != wcin:
        raise ValueError(f"conv2d: channel mismatch, input {x.shape} vs kernel {w.shape}")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    _check_bias("conv2d", bias, cout)
    hp, wp = h + 2 * padding, wd + 2 * padding
    if kh > hp or kw > wp:
        raise ValueError(
            f"conv2d: kernel {(kh, kw)} larger than padded input {(hp, wp)}"
            f" (input {(h, wd)}, padding {padding})"
        )
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1

    xp = np.pad(x.data, ((0, 0),) * len(lead) + ((padding, padding), (padding, padding), (0, 0)))
    cols = np.empty(lead + (ho, wo, kh, kw, cin), dtype=x.data.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[..., i, j, :] = xp[..., i : i + (ho - 1) * stride + 1 : stride,
                                    j : j + (wo - 1) * stride + 1 : stride, :]
    cols2 = cols.reshape(-1, kh * kw * cin)
    w2 = w.data.reshape(kh * kw * cin, cout)
    y = (cols2 @ w2).reshape(lead + (ho, wo, cout))
    if bias is not None:
        y = y + bias.data

    def bwd(g):
        if bias is not None:
            _accumulate(bias, np.sum(g, axis=tuple(range(g.ndim - 1))))
        g2 = g.reshape(-1, cout)
        _accumulate(w, (cols2.T @ g2).reshape(w.shape))
        if x.requires_grad:
            dcols = (g2 @ w2.T).reshape(lead + (ho, wo, kh, kw, cin))
            dxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    dxp[..., i : i + (ho - 1) * stride + 1 : stride,
                        j : j + (wo - 1) * stride + 1 : stride, :] += dcols[..., i, j, :]
            if padding:
                dxp = dxp[..., padding : padding + h, padding : padding + wd, :]
            _accumulate(x, dxp)

    return _node(y, bwd, x, w, bias)


_LERP_CACHE: dict[tuple[int, str], np.ndarray] = {}


def _lerp2x_matrix(n: int, dtype) -> np.ndarray:
    """Row matrix M[2n, n] realizing 2x bilinear upsampling (edges clamped)."""
    key = (n, np.dtype(dtype).str)
    m = _LERP_CACHE.get(key)
    if m is None:
        m = np.zeros((2 * n, n), dtype=dtype)
        for a in range(2 * n):
            src = (a + 0.5) / 2.0 - 0.5
            i0 = math.floor(src)
            t = src - i0
            m[a, min(max(i0, 0), n - 1)] += 1.0 - t
            m[a, min(max(i0 + 1, 0), n - 1)] += t
        _LERP_CACHE[key] = m
    return m


def upsample_bilinear2x(x: Tensor) -> Tensor:
    """Double both spatial extents of x[..., H, W, C] by bilinear interpolation."""
    if x.data.ndim < 3:
        raise ValueError(f"upsample_bilinear2x: expects x[..., H, W, C], got {x.shape}")
    nl = x.data.ndim - 3
    rm = _lerp2x_matrix(x.shape[-3], x.data.dtype)
    cm = _lerp2x_matrix(x.shape[-2], x.data.dtype)
    # [2W, 2H, lead..., C] back to [lead..., 2H, 2W, C]
    back = tuple(range(2, 2 + nl)) + (1, 0, 2 + nl)

    def _apply(a: np.ndarray, row: np.ndarray, col: np.ndarray) -> np.ndarray:
        # one product per spatial axis, with that axis moved to the front
        t = np.moveaxis(a, -3, 0)
        t = (row @ t.reshape(t.shape[0], -1)).reshape((row.shape[0],) + t.shape[1:])
        t = np.moveaxis(t, -2, 0)
        t = (col @ t.reshape(t.shape[0], -1)).reshape((col.shape[0],) + t.shape[1:])
        return t.transpose(back)

    def bwd(g):
        _accumulate(x, _apply(g, rm.T.copy(), cm.T.copy()))

    return _node(_apply(x.data, rm, cm), bwd, x)


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows of x[..., M, C] by indices[..., K] with the same leading
    axes (each leading index picks from its own rows); gradients scatter-add
    back to the source rows."""
    idx = np.asarray(indices, dtype=np.int64)
    if x.data.ndim < 2 or idx.ndim != x.data.ndim - 1 or idx.shape[:-1] != x.shape[:-2]:
        raise ValueError(f"gather_rows: expects x[..., M, C] and indices[..., K] with the same "
                         f"leading axes, got {x.shape} and {idx.shape}")
    m, c = x.shape[-2:]
    if idx.size and (idx.min() < 0 or idx.max() >= m):
        raise ValueError(f"gather_rows: index out of range for {m} rows")
    offsets = (np.arange(math.prod(idx.shape[:-1])) * m).reshape(idx.shape[:-1] + (1,))
    flat = (idx + offsets).reshape(-1)

    def bwd(g):
        dx = np.zeros(x.shape, dtype=x.data.dtype)
        np.add.at(dx.reshape(-1, c), flat, g.reshape(-1, c))
        _accumulate(x, dx)

    return _node(x.data.reshape(-1, c)[flat].reshape(idx.shape + (c,)), bwd, x)


# ---------------------------------------------------------------------------
# classification losses (kept as primitives for numerical stability)
# ---------------------------------------------------------------------------

def _sigmoid_np(z: np.ndarray) -> np.ndarray:
    # Piecewise form avoids exp overflow on large |z|.
    pos = z >= 0
    r = np.empty_like(z)
    r[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    r[~pos] = ez / (1.0 + ez)
    return r


def bce_dice_loss(logits: Tensor, targets, bce_weight: float, dice_weight: float) -> Tensor:
    """bce_weight * sum_g mean_m BCE + dice_weight * sum_g dice_g of mask
    logits against binary targets, both [G, M].

    BCE is taken on the logits, log-sum-exp stable; dice_g is
    1 - (2 sum_m p t + 1) / (sum_m p + sum_m t + 1) with p = sigmoid(logits).
    One node, replayed bit for bit like the paper-mechanism nodes above.
    """
    t = np.asarray(targets, dtype=logits.data.dtype)
    if logits.data.ndim != 2 or t.shape != logits.shape:
        raise ValueError(f"bce_dice_loss: expects logits[G, M] and targets of the same shape, "
                         f"got {logits.shape} and {t.shape}")
    z = logits.data
    c = 1.0 / z.shape[1]
    bce = np.sum(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z))), axis=1) * c
    p = _sigmoid_np(z)
    num = np.sum(p * t, axis=1) * 2.0 + 1.0
    rden = 1.0 / (np.sum(p, axis=1) + np.sum(t, axis=1) + 1.0)
    q = num * rden
    dice = q * -1.0 + 1.0

    def bwd(g):
        gq = g * dice_weight * -1.0
        ginter = gq * rden * 2.0
        gden = -(gq * num) * rden * rden
        _accumulate(logits, (gden[:, None] + ginter[:, None] * t) * p * (1.0 - p))
        _accumulate(logits, g * bce_weight * c * (p - t))

    return _node(np.sum(bce) * bce_weight + np.sum(dice) * dice_weight, bwd, logits)


def ce_logits(logits: Tensor, class_indices) -> Tensor:
    """Mean cross-entropy of logits[N, K] against integer class indices [N]."""
    idx = np.asarray(class_indices, dtype=np.int64)
    if logits.data.ndim != 2 or idx.shape != (logits.shape[0],):
        raise ValueError(f"ce_logits: expects logits[N,K] and indices[N], got {logits.shape} and {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= logits.shape[1]):
        raise ValueError(f"ce_logits: class index out of range for {logits.shape[1]} classes")
    z = logits.data
    zmax = np.max(z, axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.sum(np.exp(z - zmax), axis=1))
    n = z.shape[0]
    rows = np.arange(n)

    def bwd(g):
        p = np.exp(z - zmax)
        p /= np.sum(p, axis=1, keepdims=True)
        p[rows, idx] -= 1.0
        _accumulate(logits, p * (float(g.reshape(())) / n))

    return _node(np.asarray(np.mean(lse - z[rows, idx])), bwd, logits)
