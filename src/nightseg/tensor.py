"""Dense float tensors with a reverse-mode gradient tape.

Storage is a numpy array (float64 for verification work, float32 for
training). Differentiable operations are module-level functions that
compute the forward value eagerly and, when a tape is active and the
result requires gradients, record the result with its backward closure on
that tape (``_node``). ``Tape.run`` replays the closures in exact reverse
execution order, so the tape itself is the topological order, and pops each
node as it runs it: a closure, and every forward array only it holds, is
freed once its backward is done.

Single nodes: each of these records one node for a chain of small ops, and
its value and gradients equal that chain's bit for bit, but for
``attention_block``'s, which equal its chain's to rounding:
- ``attention_block``: the q, k and v projections, attention on blocks of 128
  query rows (or the reliable top-K choice, its gather and the bridge, then
  the product with v), the biased W_O projection, add, layer norm. It takes
  them in absorbed form, W_QK = W_Q W_Kᵀ/√C on the query side and
  W_VO = W_V W_O on the output side, so no source map is projected and no
  logit is scaled
- ``feed_forward_block``: biased matmul, relu, biased matmul, add, layer norm
- ``amplify_stage``: the paper's amplification
- ``mask_classification_loss``: the pick of the matched mask planes, dice
  and BCE on them, the CE of every class row, and their sum

What a node keeps until its backward runs: its inputs, which its closure
holds as tensors, and only what its backward cannot form again cheaply.
- ``conv2d`` keeps its input, not its im2col windows; the backward rebuilds
  them with the forward's own code for the kernel's gradient
- ``amplify_stage`` keeps its map and the map before scaling, not fbar + pbar
- ``attention_block`` keeps x, src, the attention output, the norm's xhat
  and inv, W_QK and W_VO, and each query row's log-sum-exp [..., M, 1] or
  the reliable source rows with their [..., K, C] products; its backward
  recomputes the absorbed queries x W_QK, every block of weights from the
  log-sum-exp and the reliable bridge's [..., L, K] pixel factor, forms no
  other [..., L, C] array than the gradient of src, and drops each
  gradient share once it is handed out
- ``feed_forward_block`` keeps its relu output, ``mask_classification_loss``
  the matched planes' sigmoid and the class rows' maxima; the other ops
  keep only their inputs (``matmul`` keeps a as one matrix of rows)

Conventions:
- a backward closure ``bwd(g)`` receives its node's gradient g and hands
  each input its share with ``_accumulate``. ``Tape.run`` alone skips a
  node that no gradient reached (its result is not on a path to the loss)
- ``backward(y)`` starts from a scalar y with gradient one.
  ``backward(y, seed=h)`` starts from any y with gradient h (a copy in y's
  dtype, of y's shape), so it yields the gradients of sum(y * h); this is
  how verification code projects a non-scalar output
- tensors are immutable once written by an operation; the only sanctioned
  mutation is an optimizer updating parameter ``.data`` between tapes.
  Under ``train.AdamW`` each parameter's ``.data`` is a view into the
  optimizer's one flat weight vector, updated in place; rebinding
  ``p.data`` detaches that parameter from the vector. A backward closure
  may overwrite an array only it holds: ``_attention_backward`` recomputes
  each weight block into its private scratch and writes d q block by block
  over the q that the backward recomputed, and ``_post_norm`` forms the sum
  and xhat over the fresh branch array its caller hands it
- gradient buffers are write-once per accumulation (``grad = grad + g``),
  never mutated in place, so views may be stored safely
- binary ops require exact shape and dtype agreement; the only broadcasts
  happen inside single nodes: the optional per-channel ``bias`` of
  ``matmul`` and ``conv2d``, the per-feature gain, shift and biases of the
  post-norm blocks, the per-pixel scaling of ``amplify_stage``, the
  per-row reductions of the attention weights and of
  ``mask_classification_loss``, and ``expand``
- leading axes: every op accepts any number of leading (batch) axes in
  front of the axes it names, e.g. x[..., H, W, C] or tokens [..., M, C],
  and treats each leading index as its own sample. ``matmul`` with a 2-D
  right operand (a weight) flattens a's leading axes into the rows of one
  GEMM; a right operand with leading axes pairs them with a's (np.matmul on
  stacks). ``expand`` adds leading axes to a tensor shared by every sample.
  ``mask_classification_loss`` numbers the leading indices as one flat
  batch, which its (image, prototype) picks name
- reductions are per sample: the softmax rows and the reliable choice of
  ``attention_block``, the post-norm blocks' features,
  conv2d windows and ``amplify_stage``'s map mean over each map's own (h, w).
  Only gradients with respect to operands without the leading axes
  (weights, biases, ``expand`` inputs) sum over them; so does the loss
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
    "matmul",
    "expand",
    "transpose2d",
    "reshape",
    "relu",
    "attention_block",
    "feed_forward_block",
    "amplify_stage",
    "conv2d",
    "upsample_bilinear2x",
    "mask_classification_loss",
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
    :func:`backward`) consumes the tape: it pops the nodes in reverse
    execution order and calls each ``fn(g)`` with the gradient g of its
    result ``out``, so a node's closure is released once it has run.
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

    def run(self, loss: "Tensor", seed=None) -> None:
        if self._consumed:
            raise RuntimeError("tape already consumed by backward()")
        g = np.ones_like(loss.data) if seed is None else np.array(seed, dtype=loss.data.dtype)
        if g.shape != loss.shape:
            raise ValueError(f"backward: seed {g.shape} does not match output {loss.shape}")
        loss.grad = g
        self._consumed = True
        nodes = self._nodes
        while nodes:
            out, fn = nodes.pop()
            if out.grad is not None:   # else no path from this node reaches the loss
                fn(out.grad)


_TAPE_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def backward(loss: Tensor, seed=None) -> None:
    """Populate ``grad`` on every requires_grad ancestor of a scalar loss, or,
    given a ``seed`` of loss's shape, of sum(loss * seed)."""
    if seed is None and loss.data.size != 1:
        raise ValueError(f"backward() needs a scalar loss or a seed, got shape {loss.shape}")
    if loss.tape is None:
        raise ValueError("loss is not on a tape; run the forward pass inside `with Tape():`")
    loss.tape.run(loss, seed)


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
# elementwise ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)

    def bwd(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _node(a.data + b.data, bwd, a, b)


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


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(x, g * (x.data > 0))

    return _node(np.maximum(x.data, 0.0), bwd, x)


def _attention_scale(op: str, q: np.ndarray, k: np.ndarray) -> float:
    """1 / sqrt(C) for queries q [..., M, C] and keys k [..., L, C] with the same leading axes."""
    if q.ndim < 2 or k.ndim != q.ndim or q.shape[:-2] != k.shape[:-2]:
        raise ValueError(f"{op}: expects 2-D operands or stacks of them with the same "
                         f"leading axes, got {q.shape} and {k.shape}")
    if q.shape[-1] != k.shape[-1]:
        raise ValueError(f"{op}: inner extents differ, {q.shape} x {k.shape[::-1]}")
    return 1.0 / math.sqrt(q.shape[-1])


def _softmax(s: np.ndarray) -> None:
    """In place: s becomes its row softmax, max-subtracted."""
    s -= np.max(s, axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= np.sum(s, axis=-1, keepdims=True)


def _softmax_grad(g: np.ndarray, y: np.ndarray, d: np.ndarray | None = None) -> None:
    """In place: g, the gradient of a row softmax y, becomes the gradient of
    its logits, (g - d) * y, where the row term d is sum(g * y) over each row
    unless the caller gives it."""
    g -= np.sum(g * y, axis=-1, keepdims=True) if d is None else d
    g *= y


def _weights(q: np.ndarray, k: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """softmax(q kᵀ) over the rows of k for queries q already scaled by
    1/sqrt(C), written into ``out`` where given."""
    y = np.matmul(q, np.swapaxes(k, -1, -2), out=out)
    _softmax(y)
    return y


def attention_weights(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Scaled dot-product weights softmax(q k^T / sqrt(C)); row i of q [..., M, C]
    is a distribution over the rows of k [..., L, C] with the same leading axes.

    A plain-array helper with no tape, for code that holds unscaled queries.
    """
    c = _attention_scale("attention_weights", q, k)
    y = q @ np.swapaxes(k, -1, -2)
    y *= c
    _softmax(y)
    return y


# query rows per block of the attention weights
_ATTENTION_ROWS = 128


def _attention_forward(q: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softmax(q sᵀ) s for queries q [..., M, C] already scaled by 1/sqrt(C)
    and sources s [..., L, C] that are the keys and the values, one block of
    _ATTENTION_ROWS query rows at a time.

    A block's weights stay unnormalised, e = exp(S - rowmax) of its logits S:
    the row sums l are one product e 1, and the block's [..., rows, C] output
    rows, not its weights, are divided by them (FlashAttention-2's order).
    Returns the output and each query row's log-sum-exp, rowmax + log l,
    [..., M, 1], from which the backward recomputes the normalised weights.
    """
    *lead, m, _ = q.shape
    lead = tuple(lead)
    dtype = np.result_type(q, s)
    e = np.empty(lead + (min(m, _ATTENTION_ROWS), s.shape[-2]), dtype)
    out = np.empty(lead + (m, s.shape[-1]), dtype)
    lse = np.empty(lead + (m, 1), dtype)
    ones = np.ones(s.shape[-2], dtype)
    st = np.swapaxes(s, -1, -2)
    for r0 in range(0, m, _ATTENTION_ROWS):
        rows = slice(r0, r0 + _ATTENTION_ROWS)
        eb = e[..., : min(m - r0, _ATTENTION_ROWS), :]
        np.matmul(q[..., rows, :], st, out=eb)
        rowmax = np.max(eb, axis=-1, keepdims=True)
        eb -= rowmax
        np.exp(eb, out=eb)
        total = (eb @ ones)[..., None]
        ob = out[..., rows, :]
        np.matmul(eb, s, out=ob)
        ob /= total
        np.log(total, out=total)
        np.add(rowmax, total, out=lse[..., rows, :])
    return out, lse


def _attention_backward(g: np.ndarray, q: np.ndarray, s: np.ndarray, lse: np.ndarray,
                        out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradients (d q, d s) of out = softmax(q sᵀ) s, whose queries q are
    already scaled by 1/sqrt(C) and whose sources s are its keys and its
    values, for its gradient g, given the forward's row log-sum-exp lse.

    Each block's normalised weights are recomputed as exp(q sᵀ - lse), with
    no max, sum or divide. The softmax gradient's row term is rowsum(g ∘ out),
    formed once for all blocks (FlashAttention-2's D). A block's weights w and
    its logits' gradient gw share one [..., 2 rows, L] scratch, so its share
    of d s, wᵀ g + gwᵀ q, is one product, summed into one d s. Once that
    share is formed, the block's rows of q are read no more, so d q is written
    over them: the d q returned is q, which the caller must hold alone.
    """
    m = q.shape[-2]
    st = np.swapaxes(s, -1, -2)
    d = np.sum(g * out, axis=-1, keepdims=True)
    z = np.empty(q.shape[:-2] + (2 * min(m, _ATTENTION_ROWS), s.shape[-2]), np.result_type(q, s))
    ds = None
    for r0 in range(0, m, _ATTENTION_ROWS):
        rows, nr = slice(r0, r0 + _ATTENTION_ROWS), min(m - r0, _ATTENTION_ROWS)
        zb = z[..., : 2 * nr, :]
        w, gw = zb[..., :nr, :], zb[..., nr:, :]
        np.matmul(q[..., rows, :], st, out=w)
        w -= lse[..., rows, :]
        np.exp(w, out=w)
        gb = g[..., rows, :]
        np.matmul(gb, st, out=gw)
        _softmax_grad(gw, w, d[..., rows, :])
        ds = _sum_into(ds, np.swapaxes(zb, -1, -2) @ np.concatenate((gb, q[..., rows, :]), -2))
        np.matmul(gw, s, out=q[..., rows, :])
    return q, ds


def _sum_into(total: np.ndarray | None, part: np.ndarray) -> np.ndarray:
    """total + part, written over total, a sum only its caller holds; part
    itself where there is no total yet."""
    return part if total is None else np.add(total, part, out=total)


# ---------------------------------------------------------------------------
# post-norm residual blocks as single nodes
#
# Each node is LN(x + branch) for one residual branch. The backward hands
# x and every weight their contributions in the order the chain's nodes
# did, one ``_accumulate`` each. ``feed_forward_block`` runs the composed
# ops' ufuncs in their order, forward and backward, so its values and
# gradients equal its chain's bit for bit. ``attention_block`` computes its
# branch in absorbed form and equals its chain to rounding.
# ---------------------------------------------------------------------------

_NORM_EPS = 1e-5


def _post_norm(op: str, x: Tensor, branch: np.ndarray, gamma: Tensor, beta: Tensor,
               branch_bwd: Callable[[np.ndarray], None], *weights: Tensor) -> Tensor:
    """The node LN(x + branch), normalized over the last axis, then scaled by
    gamma and shifted by beta. ``branch`` is a fresh array only the caller
    made: the sum, its centred form and xhat are computed over it in turn.
    The node keeps the norm's xhat and inv, not the sum; its backward hands
    beta, gamma and x their shares, then gives the branch's gradient to
    ``branch_bwd``. ``weights`` are the branch's own."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(f"{op}: gain/shift must have shape ({c},), got {gamma.shape} and {beta.shape}")
    xhat = branch
    xhat += x.data
    xhat -= np.mean(xhat, axis=-1, keepdims=True)
    var = np.mean(xhat ** 2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    xhat *= inv

    def bwd(g):
        gs = _norm_backward(g, xhat, inv, gamma, beta)
        _accumulate(x, gs)
        branch_bwd(gs)

    return _node(xhat * gamma.data + beta.data, bwd, x, gamma, beta, *weights)


def _norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gamma: Tensor,
                   beta: Tensor) -> np.ndarray:
    """Hands beta and gamma their shares of the norm's gradient g; returns
    the gradient of the normalized sum."""
    reduce_axes = tuple(range(g.ndim - 1))
    _accumulate(beta, np.sum(g, axis=reduce_axes))
    _accumulate(gamma, np.sum(g * xhat, axis=reduce_axes))
    gg = g * gamma.data
    m1 = np.mean(gg, axis=-1, keepdims=True)
    m2 = np.mean(gg * xhat, axis=-1, keepdims=True)
    return inv * (gg - m1 - xhat * m2)


def _linear_grads(a2: np.ndarray, w: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a2 [rows, K] @ w [K, N] with gradient g [..., N]: the gradient of
    a2, and of w, as ``matmul``'s backward forms them."""
    g2 = g.reshape(-1, w.shape[-1])
    return g2 @ np.swapaxes(w, -1, -2), np.swapaxes(a2, -1, -2) @ g2


def attention_block(x: Tensor, src: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
                    bo: Tensor | None, gamma: Tensor, beta: Tensor,
                    select: Callable[[np.ndarray], np.ndarray] | None = None) -> Tensor:
    """LN(x + A(x W_Q, src W_K, src W_V) W_O + b_O) for queries x [..., M, C]
    and sources src [..., L, C] with the same leading axes (src is x for
    self-attention), weights [C, C], a bias b_O [C] or None and a norm's gain
    and shift [C]. A(q, k, v) is softmax(q kᵀ/√C) v; given ``select``, it is
    the reliable bridge softmax(q krᵀ/√C) · softmax(src W_Q krᵀ/√C)ᵀ · v,
    where select(attention_weights(q, k)) gives the indices [..., K] of each
    leading index's reliable keys kr among the rows of k.

    The node absorbs W_K and the scale into W_QK = W_Q W_Kᵀ/√C and W_V into
    W_VO = W_V W_O, so no source map is projected and no logit is scaled.
    With q̃ = x W_QK the branch is softmax(q̃ srcᵀ) src W_VO + b_O, on blocks
    of _ATTENTION_ROWS query rows, and the node keeps each query row's
    log-sum-exp; reliably, with fr the chosen rows of src (so kr = fr W_K)
    and kb = fr W_QKᵀ, it is softmax(q̃ frᵀ) · (softmax(src kbᵀ)ᵀ · src)
    W_VO + b_O. The backward recomputes q̃, each block's weights from the
    log-sum-exp or the [..., L, K] pixel factor, and forms no [..., L, C]
    array but the gradient of src. The gradient of W_QK takes 1/√C once,
    before it is handed to W_Q and W_K.
    """
    if x.data.ndim < 2:
        raise ValueError(f"attention_block: expects tokens [..., M, C], got {x.shape}")
    scale = _attention_scale("attention_block", x.data, src.data)
    c = x.shape[-1]
    for w in (wq, wk, wv, wo):
        if w.shape != (c, c):
            raise ValueError(f"attention_block: weights must be ({c}, {c}), got {w.shape}")
    _check_bias("attention_block", bo, c)
    wqk, wvo = wq.data @ wk.data.T, wv.data @ wo.data
    wqk *= scale
    s = src.data

    def queries() -> np.ndarray:
        return (x.data.reshape(-1, c) @ wqk).reshape(x.shape)

    q = queries()
    if select is None:
        a, lse = _attention_forward(q, s)
    else:
        idx = np.asarray(select(_weights(q, s)), dtype=np.int64)
        lead, n = s.shape[:-2], s.shape[-2]
        if idx.ndim != s.ndim - 1 or idx.shape[:-1] != lead:
            raise ValueError(f"attention_block: expects sources [..., L, C] and indices [..., K] "
                             f"with the same leading axes, got {s.shape} and {idx.shape}")
        if not idx.shape[-1]:
            raise ValueError("attention_block: empty reliable set")
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValueError(f"attention_block: index out of range for {n} rows")
        rows = idx + (np.arange(math.prod(lead)) * n).reshape(lead + (1,))   # of src's [-1, C] rows
        fr = s.reshape(-1, c)[rows]   # [..., K, C]
        kb = fr @ wqk.T               # src kbᵀ are the pixel factor's logits
        ya = _weights(q, fr)
        pix = np.swapaxes(_weights(s, kb), -1, -2) @ s   # [..., K, C]
        a = ya @ pix
    del q
    a2 = a.reshape(-1, c)
    branch = a2 @ wvo
    if bo is not None:
        branch += bo.data

    def bwd(gs):
        if bo is not None:
            _accumulate(bo, np.sum(gs.reshape(-1, c), axis=(0,)))
        ga, dwvo = _linear_grads(a2, wvo, gs)
        _accumulate(wo, wv.data.T @ dwvo)
        _accumulate(wv, dwvo @ wo.data.T)
        ga = ga.reshape(a.shape)
        if select is None:
            dq, ds = _attention_backward(ga, queries(), s, lse, a)
            dwqk = None
        else:
            q = queries()
            gya = ga @ np.swapaxes(pix, -1, -2)
            gpix = np.swapaxes(ya, -1, -2) @ ga
            del ga
            # the pixel factor and its logits' gradient side by side, [..., L, 2 K]
            z = np.empty(s.shape[:-1] + (2 * kb.shape[-2],), s.dtype)
            yb, gyb = np.split(z, 2, axis=-1)
            _weights(s, kb, out=yb)
            np.matmul(s, np.swapaxes(gpix, -1, -2), out=gyb)
            _softmax_grad(gyb, yb)
            _softmax_grad(gya, ya)
            # src is the pixel factor's queries and the rows it weighs: one product
            ds = z @ np.concatenate((gpix, kb), -2)
            dkb = np.swapaxes(gyb, -1, -2) @ s
            del z, yb, gyb
            np.add.at(ds.reshape(-1, c), rows,   # a row picked twice adds twice
                      np.swapaxes(gya, -1, -2) @ q + dkb @ wqk)
            dwqk = dkb.reshape(-1, c).T @ fr.reshape(-1, c)   # through kb = fr W_QKᵀ
            dq = gya @ fr
        _accumulate(src, ds)
        del ds
        dx, dwq = _linear_grads(x.data.reshape(-1, c), wqk, dq)
        dwqk = _sum_into(dwqk, dwq)
        dwqk *= scale   # of W_Q W_Kᵀ, which W_QK holds times 1/√C
        _accumulate(x, dx.reshape(x.shape))
        _accumulate(wq, dwqk @ wk.data)
        _accumulate(wk, dwqk.T @ wq.data)

    return _post_norm("attention_block", x, branch.reshape(x.shape), gamma, beta, bwd,
                      src, wq, wk, wv, wo, bo)


def feed_forward_block(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                       gamma: Tensor, beta: Tensor) -> Tensor:
    """LN(x + (relu(x w1 + b1) w2 + b2)) for x [..., C], w1 [C, H], b1 [H],
    w2 [H, C], b2 [C] and a norm's gain and shift [C]. The node keeps the
    relu output r; its backward takes the relu's mask as r > 0."""
    c = x.shape[-1]
    hidden = w1.shape[-1]
    if w1.shape != (c, hidden) or w2.shape != (hidden, c):
        raise ValueError(f"feed_forward_block: weights must be ({c}, H) and (H, {c}), "
                         f"got {w1.shape} and {w2.shape}")
    _check_bias("feed_forward_block", b1, hidden)
    _check_bias("feed_forward_block", b2, c)
    r = np.maximum((x.data.reshape(-1, c) @ w1.data + b1.data).reshape(x.shape[:-1] + (hidden,)),
                   0.0)
    r2 = r.reshape(-1, hidden)

    def bwd(gs):
        _accumulate(b2, np.sum(gs.reshape(-1, c), axis=(0,)))
        gr, dw2 = _linear_grads(r2, w2.data, gs)
        _accumulate(w2, dw2)
        gh = gr.reshape(r.shape) * (r > 0)
        _accumulate(b1, np.sum(gh.reshape(-1, hidden), axis=(0,)))
        dx, dw1 = _linear_grads(x.data.reshape(-1, c), w1.data, gh)
        _accumulate(x, dx.reshape(x.shape))
        _accumulate(w1, dw1)

    branch = r2 @ w2.data
    branch += b2.data
    return _post_norm("feed_forward_block", x, branch.reshape(x.shape), gamma, beta, bwd,
                      w1, b1, w2, b2)


# ---------------------------------------------------------------------------
# paper mechanisms as single nodes
#
# Each replaces a chain of small ops: the forward applies the chain's ufuncs
# in its order, and the backward replays the chain's rules and hands each
# input its contributions in the order the chain's nodes did, so values and
# gradients equal the composed ops bit for bit.
# ---------------------------------------------------------------------------

def amplify_stage(fbar: Tensor, pbar: Tensor) -> Tensor:
    """Scale every channel of pixel (i, j) of fbar[..., h, w, C] by the
    amplified map a[..., i, j] = sum_c (fbar + pbar)[..., i, j, c]^2, divided
    by its own mean over (h, w) plus 1e-12, so it has mean 1 and an all-zero
    map stays finite. The node keeps the map, not the sum fbar + pbar, which
    its backward forms again.
    """
    _check_same_shape("amplify_stage", fbar, pbar)
    if fbar.data.ndim < 3:
        raise ValueError(f"amplify_stage: expects [h, w, C] maps, with any leading axes, "
                         f"got {fbar.shape}")
    s = fbar.data + pbar.data
    raw = np.sum(s * s, axis=-1)
    hw = raw.shape[-2] * raw.shape[-1]
    r = 1.0 / (np.sum(raw, axis=(-2, -1), keepdims=True) * (1.0 / hw) + 1e-12)
    a = raw * r

    def bwd(g):
        _accumulate(fbar, g * a[..., None])
        graw = np.sum(g * fbar.data, axis=-1)
        gr = np.sum(graw * raw, axis=(-2, -1), keepdims=True)
        graw = graw * r + -gr * r * r * (1.0 / hw)
        ds = graw[..., None] * (fbar.data + pbar.data)
        ds += ds
        _accumulate(fbar, ds)
        _accumulate(pbar, ds)

    return _node(fbar.data * a[..., None], bwd, fbar, pbar)


# ---------------------------------------------------------------------------
# convolution / resampling
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None) -> Tensor:
    """Cross-correlate x[..., H, W, Cin] with w[kh, kw, Cin, Cout], zero
    padding, then add bias[Cout] if given; the windows of every leading
    index form the rows of one im2col product. The node keeps x, not its
    windows: the backward rebuilds them for the kernel's gradient."""
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

    def windows() -> np.ndarray:
        """The im2col rows [windows, kh * kw * Cin] of x, zero padded: one
        copy of a strided view whose [..., oh, ow, i, j, :] is the padded
        input's [..., oh * stride + i, ow * stride + j, :]."""
        xp = x.data
        if padding:
            xp = np.zeros(lead + (hp, wp, cin), x.data.dtype)
            xp[..., padding : padding + h, padding : padding + wd, :] = x.data
        *lead_strides, sh, sw, sc = xp.strides
        view = np.lib.stride_tricks.as_strided(
            xp, lead + (ho, wo, kh, kw, cin),
            tuple(lead_strides) + (sh * stride, sw * stride, sh, sw, sc), writeable=False)
        return view.copy().reshape(-1, kh * kw * cin)

    w2 = w.data.reshape(kh * kw * cin, cout)
    y = (windows() @ w2).reshape(lead + (ho, wo, cout))
    if bias is not None:
        y = y + bias.data

    def bwd(g):
        if bias is not None:
            _accumulate(bias, np.sum(g, axis=tuple(range(g.ndim - 1))))
        g2 = g.reshape(-1, cout)
        _accumulate(w, (windows().T @ g2).reshape(w.shape))
        if x.requires_grad:
            dcols = (g2 @ w2.T).reshape(lead + (ho, wo, kh, kw, cin))
            dxp = np.zeros(lead + (hp, wp, cin), x.data.dtype)
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


# ---------------------------------------------------------------------------
# the mask-classification loss, one node
# ---------------------------------------------------------------------------

def mask_classification_loss(mask_logits: Tensor, class_logits: Tensor, picks, targets, classes,
                             bce_weight: float, dice_weight: float, cls_weight: float) -> Tensor:
    """bce_weight * sum_g mean BCE_g + dice_weight * sum_g dice_g + cls_weight * mean CE.

    mask_logits [..., h, w, N] and class_logits [..., N, K] share leading
    axes, numbered as one flat batch; picks [G, 2] are matched (image,
    prototype) pairs, targets [G, hw] their binary masks and classes [..., N]
    every prototype's class. On a picked plane's logits z, BCE_g is
    log-sum-exp stable and dice_g = 1 - (2 sum p t + 1) / (sum p + sum t + 1)
    with p = sigmoid(z). A plane picked twice gets both gradients.
    """
    shape, k = mask_logits.shape, class_logits.shape[-1]
    pick, idx = np.asarray(picks, dtype=np.int64), np.asarray(classes, dtype=np.int64)
    t = np.asarray(targets, dtype=mask_logits.data.dtype)
    if (len(shape) < 3 or class_logits.shape[:-1] != shape[:-3] + shape[-1:] or t.ndim != 2
            or idx.shape != class_logits.shape[:-1] or t.shape[1] != shape[-3] * shape[-2]
            or pick.shape != (len(t), 2)):
        raise ValueError(f"mask_classification_loss: expects mask logits [..., h, w, N], class "
                         f"logits [..., N, K], picks [G, 2], targets [G, hw], classes [..., N], "
                         f"got {shape}, {class_logits.shape}, {pick.shape}, {t.shape}, {idx.shape}")
    batch, n = math.prod(shape[:-3]), shape[-1]
    img, proto = pick.T
    if pick.size and (pick.min() < 0 or img.max() >= batch or proto.max() >= n):
        raise ValueError(f"mask_classification_loss: pick out of range for {batch} x {n} planes")
    if idx.size and (idx.min() < 0 or idx.max() >= k):
        raise ValueError(f"mask_classification_loss: class index out of range for {k} classes")
    z = mask_logits.data.reshape(batch, -1, n)[img, :, proto]   # [G, hw]
    c = 1.0 / t.shape[1]
    e = np.exp(-np.abs(z))   # at most 1: the stable BCE and the sigmoid share it
    bce = np.sum(np.maximum(z, 0.0) - z * t + np.log1p(e), axis=1) * c
    p = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    num = np.sum(p * t, axis=1) * 2.0 + 1.0
    rden = 1.0 / (np.sum(p, axis=1) + np.sum(t, axis=1) + 1.0)
    dice = num * rden * -1.0 + 1.0
    zc = class_logits.data.reshape(-1, k)
    rows, cls = np.arange(len(zc)), idx.reshape(-1)
    zmax = np.max(zc, axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.sum(np.exp(zc - zmax), axis=1))
    ce = np.asarray(np.mean(lse - zc[rows, cls])) * cls_weight

    def bwd(g):
        gq = g * dice_weight * -1.0
        ginter = gq * rden * 2.0
        gden = -(gq * num) * rden * rden
        gz = (gden[:, None] + ginter[:, None] * t) * p * (1.0 - p) + g * bce_weight * c * (p - t)
        dz = np.zeros((batch, t.shape[1], n), dtype=gz.dtype)
        np.add.at(dz, (img, slice(None), proto), gz)
        _accumulate(mask_logits, dz.reshape(shape))
        pc = np.exp(zc - zmax)
        pc /= np.sum(pc, axis=1, keepdims=True)
        pc[rows, cls] -= 1.0
        pc *= float(g * cls_weight) / len(zc)
        _accumulate(class_logits, pc.reshape(class_logits.shape))

    return _node(np.asarray(np.sum(bce) * bce_weight + np.sum(dice) * dice_weight + ce), bwd,
                 mask_logits, class_logits)
