"""Built-in verification: oracle equivalences and invariants, one line each.

Each check compares a shipped code path against an independent brute-force
evaluation (literal sums, nested loops, exhaustive enumeration) or asserts
a structural invariant. ``run_selftest`` prints PASS/FAIL per property and
returns the number of failures.

This module is the one home of each oracle: the acceptance criteria call
the checks, and a check returns its worst error where a criterion reports
it; the unit tests call the checks or import the numpy replays instead of
writing their own.
"""

from __future__ import annotations

import functools
import itertools
import math
import zlib

import numpy as np

from . import tensor as T
from .fourier import dft2d_bruteforce, irfft2d, rfft2d
from .gradcheck import grad_check
from .layers import TokenSelfAttention, glorot_uniform
from .losses import LossWeights, hungarian_match, total_loss
from .matcher import select_reliable
from .metrics import ConfusionMatrix
from .model import ModelConfig, NightSegModel
from .phase import (choose_c_a, fourier_decompose, image_texture_stack, phase_reconstruct,
                    sobel_texture_map)
from .tensor import Tensor, attention_weights
from .train import AdamW

__all__ = ["run_selftest", "run_grad_suite", "CHECKS", "attention_weights_replay"]


def _rng(bump: int = 0) -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE + bump)


def check_matmul_oracle():
    rng = _rng(1)
    for _ in range(10):
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 3))
        got = T.matmul(Tensor(a), Tensor(b)).data
        want = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        assert np.abs(got - want).max() < 1e-12


CONV_CASES = ((1, 0), (1, 1), (2, 1), (2, 0), (3, 2))   # stride, padding


def check_conv2d_oracle(cases=CONV_CASES):
    """conv2d against six nested loops, for each (stride, padding) of cases
    on a 6x7 and a 7x6 input."""
    rng = _rng(2)
    for (h, w), (stride, pad) in itertools.product(((6, 7), (7, 6)), cases):
        x = rng.normal(size=(h, w, 3))
        k = rng.normal(size=(3, 3, 3, 2))
        got = T.conv2d(Tensor(x), Tensor(k), stride, pad).data
        xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
        want = np.zeros(((h + 2 * pad - 3) // stride + 1, (w + 2 * pad - 3) // stride + 1, 2))
        for oi, oj, oc in itertools.product(*map(range, want.shape)):
            for ki, kj, c in itertools.product(range(3), range(3), range(3)):
                want[oi, oj, oc] += xp[oi * stride + ki, oj * stride + kj, c] * k[ki, kj, c, oc]
        assert np.abs(got - want).max() < 1e-10


def weights_replay(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """softmax(q kᵀ / sqrt(C)) in plain numpy: product, scaling, max-subtracted softmax."""
    s = (q @ np.swapaxes(k, -1, -2)) * (1.0 / math.sqrt(q.shape[-1]))
    e = np.exp(s - np.max(s, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def check_attention_softmax():
    # a query [[1.0]] against one-feature keys x makes the logit row x itself
    rng = _rng(3)
    for n in (12, 17):
        x = rng.normal(size=n)
        got = attention_weights(np.array([[1.0]]), x[:, None])[0]
        assert np.abs(got - np.exp(x) / np.sum(np.exp(x))).max() < 1e-12
    big = attention_weights(np.array([[1.0]]), np.array([[1000.0], [0.0], [0.0]]))[0]
    assert np.isfinite(big).all() and abs(big[0] - 1.0) < 1e-12 and big[1] < 1e-300
    # query scales from 1e-2 to 1e2: near-uniform to near-one-hot rows
    for count, m, l, lo, hi in ((50, 5, 9, 0.1, 50.0), (100, 4, 7, 0.01, 100.0)):
        for _ in range(count):
            y = attention_weights(rng.normal(size=(m, 3)) * rng.uniform(lo, hi),
                                  rng.normal(size=(l, 3)))
            assert np.abs(y.sum(axis=1) - 1.0).max() < 1e-6 and (y >= 0).all()


def check_upsample_oracle():
    rng = _rng(5)
    x = rng.normal(size=(4, 4, 2))
    got = T.upsample_bilinear2x(Tensor(x)).data
    want = np.zeros((8, 8, 2))
    for a in range(8):
        for b in range(8):
            sy, sx = (a + 0.5) / 2 - 0.5, (b + 0.5) / 2 - 0.5
            y0, x0 = math.floor(sy), math.floor(sx)
            ty, tx = sy - y0, sx - x0
            for (yy, wy) in ((y0, 1 - ty), (y0 + 1, ty)):
                for (xx, wx) in ((x0, 1 - tx), (x0 + 1, tx)):
                    want[a, b] += wy * wx * x[min(max(yy, 0), 3), min(max(xx, 0), 3)]
    assert np.abs(got - want).max() < 1e-12
    const = T.upsample_bilinear2x(Tensor(np.full((3, 5, 1), 7.0))).data
    assert np.abs(const - 7.0).max() < 1e-12


def check_fft_oracle() -> float:
    """The half spectrum against the brute-force sum on 50 random 16x16
    planes and eight other extents; returns the worst error relative to
    max(1, |spectrum|)."""
    rng = _rng(6)
    worst = 0.0
    for shape in [(16, 16)] * 50 + [(4, 8), (8, 2), (1, 16), (3, 4), (6, 10), (5, 7), (16, 1),
                                    (4, 9)]:
        x = rng.normal(size=shape)
        fast = rfft2d(x)
        brute = dft2d_bruteforce(x)[:, : shape[1] // 2 + 1]
        assert fast.shape == brute.shape
        worst = max(worst, np.abs(fast - brute).max() / max(1.0, np.abs(brute).max()))
    assert worst < 1e-9, f"relative error {worst}"
    return worst


ROUNDTRIP_EXTENTS = ((2, 2), (3, 4), (4, 8), (4, 9), (5, 7), (6, 9), (6, 10), (8, 4), (8, 16),
                     (16, 16), (32, 8), (32, 32), (64, 64))


def check_fft_roundtrip(extents=ROUNDTRIP_EXTENTS) -> float:
    """irfft2d(rfft2d(x)) restores x in float64 at each extent; returns the
    worst error relative to max(1, |x|)."""
    rng = _rng(7)
    worst = 0.0
    for h, w in extents:
        x = rng.normal(size=(h, w))
        back = irfft2d(rfft2d(x), (h, w))
        assert back.dtype == np.float64
        worst = max(worst, np.abs(back - x).max() / max(1.0, np.abs(x).max()))
    assert worst < 1e-9, f"relative error {worst}"
    return worst


def check_phase_amplitude_invariant() -> float:
    """The reconstructed plane's own spectrum has modulus c_a at every bin;
    returns the worst deviation."""
    rng = _rng(8)
    worst = 0.0
    for shape in [(8, 8)] * 20 + [(16, 16)] * 20 + [(7, 5), (6, 9)]:
        spectrum = fourier_decompose(rng.uniform(size=shape))
        c_a = choose_c_a(spectrum)
        rec = phase_reconstruct(spectrum, c_a)
        assert rec.shape == shape
        worst = max(worst, np.abs(np.abs(rfft2d(rec)) - c_a).max())
    assert worst < 1e-6, f"modulus off c_a by {worst}"
    return worst


def check_amplitude_shift_invariance():
    rng = _rng(9)
    for _ in range(10):
        x = rng.normal(size=(8, 8))
        a0 = fourier_decompose(x).amplitude
        for shift in ((3, 5), (2, 5)):
            a1 = fourier_decompose(np.roll(x, shift, axis=(0, 1))).amplitude
            assert np.abs(a0 - a1).max() / max(1.0, np.abs(a0).max()) < 1e-9


def check_sobel():
    for shape, value in (((6, 6), 3.0), ((7, 9), 0.3)):
        assert np.abs(sobel_texture_map(np.full(shape, value))).max() == 0.0
    for width, edge in ((8, 4), (10, 5)):
        step = np.zeros((8, width))
        step[:, edge:] = 1.0
        # both columns straddling the edge, away from the top and bottom rows
        mag = sobel_texture_map(step)[1:-1, edge - 1:edge + 1]
        assert np.abs(mag - 4.0).max() < 1e-12


def check_flat_planes():
    """A flat channel, all zero or constant, has all-zero phase and Sobel
    maps; one pixel off the constant gives each map a texture again."""
    for shape, value in (((6, 6), 0.0), ((7, 9), 0.3), ((32, 64), 0.0), ((32, 64), 153 / 255)):
        plane = np.full(shape, value)
        for off, flat in ((0.0, True), (0.5, False)):
            plane[2, 3] += off
            assert fourier_decompose(plane).flat == flat
            for mode in ("phase", "sobel"):
                assert image_texture_stack(plane[..., None], mode).max() == (0.0 if flat else 1.0)


def check_amplify_oracle():
    rng = _rng(10)
    for shape in ((3, 4, 5), (4, 3, 5)):
        f = rng.normal(size=shape)
        p = rng.normal(size=shape)
        amap = np.zeros(shape[:2])
        for i, j, c in itertools.product(*map(range, shape)):
            amap[i, j] += (f[i, j, c] + p[i, j, c]) ** 2
        assert (amap >= 0).all()
        a = amap / (amap.mean() + 1e-12)
        want = np.zeros(shape)
        for i, j, c in itertools.product(*map(range, shape)):
            want[i, j, c] = f[i, j, c] * a[i, j]
        got = T.amplify_stage(Tensor(f), Tensor(p)).data
        assert np.abs(got - want).max() < 1e-12
        assert np.abs(got / f - a[:, :, None]).max() < 1e-8


def check_attention_permutation():
    rng = _rng(11)
    attn = TokenSelfAttention(np.random.default_rng(1), 6)
    for tokens in (6, 12):
        x = rng.normal(size=(tokens, 6))
        perm = rng.permutation(tokens)
        assert np.abs(attn(Tensor(x[perm])).data - attn(Tensor(x)).data[perm]).max() < 1e-9


def random_projections(rng: np.random.Generator, c: int) -> list[Tensor]:
    """Query, key and value weights [c, c], Glorot-uniform draws from rng."""
    return [glorot_uniform(rng, (c, c), c, c, np.float64) for _ in range(3)]


def check_matching_invariants():
    """Similarity rows sum to one, scores total the prototype count, the
    top-K order is (score descending, index ascending) and the bridge lies in
    [0, 1]: on 1000 instances of 3 prototypes over 10 pixels of width 4, and
    1000 of 2-5 prototypes over 4-15 pixels of width 3-6 at input scales 0.5-3."""
    rng = _rng(12)
    for case in range(2000):
        if case % 2:
            n, hw, c = (int(rng.integers(lo, hi)) for lo, hi in ((2, 6), (4, 16), (3, 7)))
            scales = rng.uniform(0.5, 3.0, size=2)
        else:
            n, hw, c, scales = 3, 10, 4, (1.0, 1.0)
        k = int(rng.integers(1, hw + 1))
        p = Tensor(rng.normal(size=(n, c)) * scales[0])
        fa = Tensor(rng.normal(size=(hw, c)) * scales[1])
        wq, wk, _ = random_projections(rng, c)
        q, q_pix = T.matmul(p, wq), T.matmul(fa, wq)
        sim = attention_weights(q.data, T.matmul(fa, wk).data)
        assert np.abs(sim.sum(axis=1) - 1.0).max() < 1e-6
        scores = sim.sum(axis=0)
        assert abs(scores.sum() - n) < 1e-5
        idx = select_reliable(sim, k)
        order = np.lexsort((np.arange(hw), -scores))
        assert np.array_equal(idx, order[:k])
        kr = T.matmul(Tensor(fa.data[idx]), wk)
        ya, yb = attention_weights(q.data, kr.data), attention_weights(q_pix.data, kr.data)
        assert np.abs(ya.sum(axis=1) - 1.0).max() < 1e-6
        assert np.abs(yb.sum(axis=1) - 1.0).max() < 1e-6
        sim_qk = ya @ yb.T
        assert sim_qk.min() >= 0.0 and sim_qk.max() <= 1.0 + 1e-9


def attention_weights_replay(q: np.ndarray, k: np.ndarray, head: np.ndarray):
    """softmax(q kᵀ / sqrt(C)) and the gradients of sum(y * head) in plain
    numpy: the steps of ``weights_replay``, then their backward rules in
    reverse, which the nodes run in place on one buffer. Returns (y, d q, d k)."""
    y = weights_replay(q, k)
    ds = y * (head - np.sum(head * y, axis=-1, keepdims=True)) * (1.0 / math.sqrt(q.shape[-1]))
    return y, ds @ k, np.swapaxes(np.swapaxes(q, -1, -2) @ ds, -1, -2)


def bridge_replay(q: np.ndarray, q_pix: np.ndarray, kr: np.ndarray, head: np.ndarray):
    """softmax(q krᵀ/√C) · softmax(q_pix krᵀ/√C)ᵀ and the gradients of
    sum(y * head) in plain numpy, one step at a time, forward then backward:
    the bridge of ``attention_block``'s reliable mode. Returns (y, d q,
    d q_pix, d kr)."""
    ya, yb = weights_replay(q, kr), weights_replay(q_pix, kr)
    y = ya @ np.swapaxes(yb, -1, -2)
    _, dq_pix, dkb = attention_weights_replay(
        q_pix, kr, np.swapaxes(np.swapaxes(ya, -1, -2) @ head, -1, -2))
    _, dq, dka = attention_weights_replay(q, kr, head @ yb)
    return y, dq, dq_pix, dkb + dka


def attention_blocks_replay(q: np.ndarray, k: np.ndarray, v: np.ndarray, head: np.ndarray):
    """softmax(q kᵀ / sqrt(C)) v taken one block of the engine's
    ``_ATTENTION_ROWS`` query rows at a time, and the gradients of
    sum(y * head), in plain numpy: the blocks' rows of y and of d q, and their
    d k and d v summed from the last block to the first. The attention of
    ``attention_block``, which recomputes each block's weights in its
    backward. Returns (y, d q, d k, d v)."""
    runs, rows = [], T._ATTENTION_ROWS
    for r0 in range(0, q.shape[-2], rows):
        hb = head[..., r0:r0 + rows, :]
        w, dq, dk = attention_weights_replay(q[..., r0:r0 + rows, :], k,
                                             hb @ np.swapaxes(v, -1, -2))
        runs.append((w @ v, dq, dk, np.swapaxes(w, -1, -2) @ hb))
    y, dq = (np.concatenate([run[i] for run in runs], axis=-2) for i in (0, 1))
    dk, dv = (functools.reduce(np.add, [run[i] for run in reversed(runs)]) for i in (2, 3))
    return y, dq, dk, dv


def _linear(a: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """The forward of a matmul node by a weight [K, N]: a's leading axes
    flattened into the rows of one product, plus the bias if given."""
    y = a.reshape(-1, w.shape[0]) @ w
    if b is not None:
        y = y + b
    return y.reshape(a.shape[:-1] + (w.shape[1],))


def _linear_back(a: np.ndarray, w: np.ndarray, g: np.ndarray):
    """The backward of a matmul node by a weight for its gradient g: (d a, d w)."""
    g2 = g.reshape(-1, w.shape[1])
    a2 = a.reshape(-1, w.shape[0])
    return (g2 @ np.swapaxes(w, -1, -2)).reshape(a.shape), np.swapaxes(a2, -1, -2) @ g2


def norm_replay(s: np.ndarray, gamma: np.ndarray, beta: np.ndarray, head: np.ndarray):
    """A layer norm node over the last axis with gain gamma and shift beta,
    then its backward for the gradient head, in plain numpy. Returns (y, d s,
    d gamma, d beta)."""
    mu = np.mean(s, axis=-1, keepdims=True)
    var = np.mean((s - mu) ** 2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (s - mu) * inv
    axes = tuple(range(s.ndim - 1))
    gg = head * gamma
    ds = inv * (gg - np.mean(gg, axis=-1, keepdims=True)
                - xhat * np.mean(gg * xhat, axis=-1, keepdims=True))
    return xhat * gamma + beta, ds, np.sum(head * xhat, axis=axes), np.sum(head, axis=axes)


def attention_block_replay(x, src, wq, wk, wv, wo, bo, gamma, beta, head, k=None):
    """The unabsorbed chain whose value and gradients one ``attention_block``
    node computes in absorbed form, the node's oracle: matmuls by W_Q of x
    and by W_K and W_V of src (x where src is None); attention
    (``attention_blocks_replay``), or with k given the top-k choice, the
    gather of the reliable keys, the bridge (``bridge_replay``, with its
    matmul by W_Q of src) and its matmul with V; the matmul by W_O plus b_O
    where given, add and layer norm. Then their backward rules in reverse,
    each operand's shares summed in the chain's order. Returns (out, d x,
    d src, d W_Q, d W_K, d W_V, d W_O, d b_O, d gamma, d beta), without d src
    or d b_O where src or b_O is None."""
    s = x if src is None else src
    q, keys, v = _linear(x, wq), _linear(s, wk), _linear(s, wv)
    if k is None:
        a = attention_blocks_replay(q, keys, v, np.zeros(q.shape, q.dtype))[0]
    else:
        idx = select_reliable(weights_replay(q, keys), k)
        kr = np.take_along_axis(keys, idx[..., None], axis=-2)
        q_pix = _linear(s, wq)
        w = weights_replay(q, kr) @ np.swapaxes(weights_replay(q_pix, kr), -1, -2)
        a = w @ v
    out, gs, dgamma, dbeta = norm_replay(x + _linear(a, wo, bo), gamma, beta, head)
    ga, dwo = _linear_back(a, wo, gs)
    if k is None:
        _, dq, dk, dv = attention_blocks_replay(q, keys, v, ga)
        shares = (("src", "v", dv), ("src", "k", dk), ("x", "q", dq))
    else:
        _, dq, dq_pix, dkr = bridge_replay(q, q_pix, kr, ga @ np.swapaxes(v, -1, -2))
        dk = np.zeros(keys.shape, keys.dtype)
        for i in np.ndindex(idx.shape[:-1]):
            dk[i][idx[i]] += dkr[i]
        shares = (("src", "v", np.swapaxes(w, -1, -2) @ ga), ("src", "q", dq_pix),
                  ("src", "k", dk), ("x", "q", dq))
    weights = {"q": wq, "k": wk, "v": wv}
    grads = {"x": gs}
    for operand, role, g in shares:
        dt, dw = _linear_back(x if operand == "x" else s, weights[role], g)
        for name, d in (("x" if src is None else operand, dt), ("w" + role, dw)):
            grads[name] = grads[name] + d if name in grads else d
    return (out, grads["x"], *([] if src is None else [grads["src"]]), grads["wq"], grads["wk"],
            grads["wv"], dwo, *([] if bo is None else [np.sum(gs.reshape(-1, wo.shape[1]), axis=0)]),
            dgamma, dbeta)


def feed_forward_replay(x, w1, b1, w2, b2, gamma, beta, head):
    """The chain one ``feed_forward_block`` node replaces: biased matmul,
    relu, biased matmul, add and layer norm; then their backward rules in
    reverse. Returns (out, d x, d w1, d b1, d w2, d b2, d gamma, d beta)."""
    h = _linear(x, w1, b1)
    r = np.maximum(h, 0.0)
    out, gs, dgamma, dbeta = norm_replay(x + _linear(r, w2, b2), gamma, beta, head)
    db2 = np.sum(gs.reshape(-1, w2.shape[1]), axis=0)
    gr, dw2 = _linear_back(r, w2, gs)
    gh = gr * (h > 0)
    db1 = np.sum(gh.reshape(-1, w1.shape[1]), axis=0)
    dxh, dw1 = _linear_back(x, w1, gh)
    return out, gs + dxh, dw1, db1, dw2, db2, dgamma, dbeta


# (leading axes, rows, features, x broadcast from one [rows, C] set as the
# matcher's expanded prototypes are); 300 rows span three weight blocks
BLOCK_CASES = (((), 7, 4, False), ((3,), 5, 4, False), ((2, 2), 6, 4, False),
               ((2,), 8, 16, True), ((), 300, 16, False))

# (leading axes, query rows, source rows, reliable keys, features, x
# broadcast); no source rows is self-attention, no reliable keys plain
# attention. Beyond BLOCK_CASES: self-attention over 600 tokens (a short last
# block) and the 2048 tokens of a 128x256 image's finest decoder stage
# (sixteen blocks); prototypes attending to pixels, plainly and through the
# reliable bridge, expanded over a batch at the desk model's 128 pixels, and
# at 2048 pixels
ATTENTION_CASES = tuple((lead, m, None, None, c, shared) for lead, m, c, shared in BLOCK_CASES) + (
    ((), 600, None, None, 16, False), ((), 2048, None, None, 64, False),
    ((), 3, 7, None, 5, False), ((2,), 8, 128, None, 64, True), ((), 8, 2048, None, 64, False),
    ((), 3, 7, 4, 5, False), ((2,), 8, 128, 32, 64, True), ((), 8, 2048, 64, 64, False))

DTYPES = (np.float32, np.float64)


# attention_block against its unabsorbed chain, relative to each output's
# largest magnitude: a probe of every ATTENTION_CASES entry and the unit
# tests' cases found at most 3.8e-12 in float64 and 3.1e-4 in float32, both
# on saturated softmaxes, whose gradients cancel; against an extended-
# precision replay the node was 5-9x further off than the chain there.
# Each bound is over ten times the probe's worst
ABSORBED_RTOL = {np.float32: 4e-3, np.float64: 5e-11}


def _block_node_oracle(cases, bump: int, dtypes=DTYPES, rtol=None):
    """Each case's node equals its composed chain's replay, value and every
    gradient, in each of dtypes, as one tape node, and computes the same value
    off a tape: bit for bit, or with rtol given, to rtol[dtype] of each
    output's largest magnitude. A case is
    (node, replay, x's leading axes, rows and features, whether x is
    broadcast from one [rows, C] set, the shapes of the operands after x)."""
    rng = _rng(bump)
    for dtype, (node, replay, lead, m, c, shared, shapes) in itertools.product(dtypes, cases):
        x = rng.normal(size=(m, c) if shared else lead + (m, c)).astype(dtype)
        if shared:
            x = np.broadcast_to(x, lead + (m, c))
        arrays = [x] + [rng.normal(size=s).astype(dtype) for s in shapes]
        head = rng.normal(size=lead + (m, c)).astype(dtype)
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        with T.Tape() as tape:
            y = node(*ts)
            assert len(tape) == 1
            T.backward(y, head)
        assert np.array_equal(node(*map(Tensor, arrays)).data, y.data)   # off a tape
        want = replay(*arrays, head)
        assert len(want) == len(ts) + 1
        for got, expected in zip([y.data] + [t.grad for t in ts], want):
            assert got.dtype == expected.dtype == dtype
            if rtol is None:
                assert np.array_equal(got, expected)
            else:
                assert np.abs(got - expected).max() <= rtol[dtype] * np.abs(expected).max()


def self_block(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, gamma: Tensor,
                beta: Tensor) -> Tensor:
    """A TokenSelfAttention block: attention_block from x to itself, no bias."""
    return T.attention_block(x, x, wq, wk, wv, wo, None, gamma, beta)


def _cross_block(k: int | None):
    """A matcher layer's cross update, attention_block from prototypes to
    pixels, through the top-k reliable keys where k is given."""
    select = None if k is None else functools.partial(select_reliable, k=k)
    return functools.partial(T.attention_block, select=select)


def check_attention_block_node(cases=ATTENTION_CASES, dtypes=DTYPES):
    """attention_block matches its unabsorbed chain to ABSORBED_RTOL:
    self-attention without a bias where a case has no source rows, else
    attention with a bias from x to a source, through the reliable bridge
    where the case gives K."""
    built = []
    for lead, m, l, k, c, shared in cases:
        weights = [(c, c)] * 4
        if l is None:
            built.append((self_block,
                          lambda x, *w: attention_block_replay(x, None, *w[:4], None, *w[4:]),
                          lead, m, c, shared, weights + [(c,)] * 2))
        else:
            built.append((_cross_block(k), functools.partial(attention_block_replay, k=k),
                          lead, m, c, shared, [lead + (l, c)] + weights + [(c,)] * 3))
    _block_node_oracle(built, 22, dtypes, ABSORBED_RTOL)


def check_feed_forward_block_node(cases=BLOCK_CASES):
    """feed_forward_block equals its five-node chain, bit for bit."""
    _block_node_oracle([(T.feed_forward_block, feed_forward_replay, lead, m, c, shared,
                         [(c, 2 * c), (2 * c,), (2 * c, c), (c,), (c,), (c,)])
                        for lead, m, c, shared in cases], 23)


def least_assignment_total(cost: np.ndarray) -> float:
    """The least total of cost[prototype, segment] over every injection of
    the segments (columns) into the prototypes (rows), by enumeration."""
    n, g = cost.shape
    injections = np.array(list(itertools.permutations(range(n), g)))
    return cost[injections, np.arange(g)].sum(axis=1).min()


def check_hungarian_oracle():
    """The assignment's total equals the minimum over every injection of
    segments into prototypes, on 2000 cost matrices of 1-7 prototypes: real
    costs to 1e-9, and integer costs in [0, 30) or [0, 50), whose many ties
    must still reach the optimum exactly."""
    rng = _rng(14)
    for case in range(2000):
        n = int(rng.integers(1, 8))
        g = int(rng.integers(1, n + 1))
        if case % 2:
            cost = rng.integers(0, (30, 50)[case // 2 % 2], size=(n, g)).astype(np.float64)
        else:
            cost = rng.normal(size=(n, g))
        got = hungarian_match(cost)
        assert len(set(got.tolist())) == g
        best = least_assignment_total(cost)
        total = cost[got, np.arange(g)].sum()
        assert total == best if case % 2 else abs(total - best) < 1e-9


def check_miou():
    cm = ConfusionMatrix(2)
    cm.update(np.array([[0, 1], [1, 1]]), np.array([[0, 1], [0, 1]]))
    per_class, mean = cm.iou()
    assert abs(per_class[0] - 0.5) < 1e-12
    assert abs(per_class[1] - 2 / 3) < 1e-12
    assert abs(mean - 7 / 12) < 1e-12
    rng = _rng(15)
    for shape, k in (((6, 9), 4), ((7, 9), 5)):
        for _ in range(100):
            m = rng.integers(0, k, size=shape)
            cm = ConfusionMatrix(k)
            cm.update(m, m)
            assert cm.iou()[1] == 1.0


class PerTensorAdamW:
    """AdamW as a loop over the parameters, one set of numpy expressions per
    tensor, rebinding each ``p.data``: the oracle for ``train.AdamW``'s
    in-place pass over one flat vector."""

    def __init__(self, params: list[tuple[str, Tensor]], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params}
        self.v = {n: np.zeros_like(p.data) for n, p in params}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for name, p in self.params:
            g = p.grad
            m = self.m[name] = self.b1 * self.m[name] + (1.0 - self.b1) * g
            v = self.v[name] = self.b2 * self.v[name] + (1.0 - self.b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data - self.lr * (update + self.weight_decay * p.data)


def check_adamw_matches_per_tensor():
    # one parameter spans two update chunks; the rate drops after step 3 as
    # at the phase-2 switch
    shapes = [(3, 4), (5,), (257, 300), (2, 3, 2), (7,), (1,)]
    for dtype in (np.float32, np.float64):
        rng = _rng(19)
        init = [rng.normal(size=s).astype(dtype) for s in shapes]
        flat = [(f"p{i}", Tensor(a.copy())) for i, a in enumerate(init)]
        ref = [(f"p{i}", Tensor(a.copy())) for i, a in enumerate(init)]
        opt = AdamW(flat, lr=1e-2, weight_decay=0.05)
        oracle = PerTensorAdamW(ref, lr=1e-2, weight_decay=0.05)
        for step in range(5):
            if step == 3:
                opt.lr = oracle.lr = 1e-3
            for (_, p), (_, q) in zip(flat, ref):
                p.grad = q.grad = rng.normal(size=p.data.shape).astype(dtype)
            opt.step()
            oracle.step()
        for (name, p), (_, q) in zip(flat, ref):
            assert p.data.dtype == q.data.dtype and np.array_equal(p.data, q.data), name
        for mine, theirs in ((opt.m, oracle.m), (opt.v, oracle.v)):
            assert np.array_equal(mine, np.concatenate([a.reshape(-1) for a in theirs.values()]))


def _conv(x: Tensor, k: Tensor, bias: Tensor | None = None) -> Tensor:
    return T.conv2d(x, k, 2, 1, bias)


def _mask_classification(m: Tensor, c: Tensor, t: Tensor) -> Tensor:
    # one image of 4 planes over 3x2 pixels and 3 classes, 2 planes picked, or
    # a batch of 2 that picks plane 3 of image 1 twice; the targets are t > 0
    picks, classes = ([[0, 2], [0, 0]], [2, 1, 0, 1]) if m.data.ndim == 3 else (
        [[1, 3], [0, 1], [1, 3]], [[2, 1, 0, 2], [0, 2, 2, 1]])
    return T.mask_classification_loss(m, c, picks, t.data > 0, classes, 1.5, 2.5, 0.7)


def _total_loss(mask_logits: Tensor, class_logits: Tensor, labels: Tensor) -> Tensor:
    # ground truth of 3 classes: the argmax over the last axis of a [4, 4, 3] draw
    return total_loss(mask_logits, class_logits, np.argmax(labels.data, axis=-1), 3,
                      LossWeights())


# prototypes, pixels, W_Q, W_K, W_V, W_O, b_O, gain, shift
_CROSS = [(3, 4), (7, 4)] + [(4, 4)] * 4 + [(4,)] * 3
_CROSS_BATCH = [(2, 3, 4), (2, 7, 4)] + _CROSS[2:]
# tokens, W_Q, W_K, W_V, W_O, gain, shift
_SELF = [(5, 4)] + [(4, 4)] * 4 + [(4,), (4,)]
# tokens, w1, b1, w2, b2, gain, shift
_FFN = [(3, 4), (4, 8), (8,), (8, 4), (4,), (4,), (4,)]
# mask logits, class logits, targets
_MASK = [(3, 2, 4), (4, 3), (2, 6)]

# name, f, the shapes of f's operands, the operand checked, the shape of the
# head (None where f is a scalar)
GRAD_SUITE = [
    ("matmul", T.matmul, [(4, 3), (3, 5)], 0, (4, 5)),
    ("conv2d (input)", _conv, [(4, 4, 2), (3, 3, 2, 4)], 0, (2, 2, 4)),
    ("conv2d (kernel)", _conv, [(4, 4, 2), (3, 3, 2, 4)], 1, (2, 2, 4)),
    ("token self-attention", lambda x: TokenSelfAttention(np.random.default_rng(2), 4)(x),
     [(4, 4)], 0, (4, 4)),
    ("amplify stage (features)", T.amplify_stage, [(2, 3, 4)] * 2, 0, (2, 3, 4)),
    ("amplify stage (phase)", T.amplify_stage, [(2, 3, 4)] * 2, 1, (2, 3, 4)),
    ("reliable cross-attention block (prototypes)", _cross_block(3), _CROSS, 0, (3, 4)),
    ("reliable cross-attention block over a batch (pixels)", _cross_block(3), _CROSS_BATCH, 1,
     (2, 3, 4)),
    ("reliable cross-attention block (W_Q)", _cross_block(3), _CROSS, 2, (3, 4)),
    ("mask-classification loss (mask logits)", _mask_classification, _MASK, 0, None),
    ("mask-classification loss (class logits)", _mask_classification, _MASK, 1, None),
    ("total loss (mask logits)", _total_loss, [(4, 4, 5), (5, 4), (4, 4, 3)], 0, None),
    ("total loss (class logits)", _total_loss, [(4, 4, 5), (5, 4), (4, 4, 3)], 1, None),
    ("matmul over [h,w,C] with bias (input)", T.matmul, [(2, 3, 4), (4, 5), (5,)], 0, (2, 3, 5)),
    ("matmul over [h,w,C] with bias (weight)", T.matmul, [(2, 3, 4), (4, 5), (5,)], 1, (2, 3, 5)),
    ("matmul over [h,w,C] with bias (bias)", T.matmul, [(2, 3, 4), (4, 5), (5,)], 2, (2, 3, 5)),
    ("conv2d (bias)", _conv, [(4, 4, 2), (3, 3, 2, 4), (4,)], 2, (2, 2, 4)),
    ("conv2d over a batch (input)", _conv, [(2, 4, 4, 2), (3, 3, 2, 4)], 0, (2, 2, 2, 4)),
    ("conv2d over a batch (kernel)", _conv, [(2, 4, 4, 2), (3, 3, 2, 4)], 1, (2, 2, 2, 4)),
    ("upsample over a batch", T.upsample_bilinear2x, [(2, 2, 3, 2)], 0, (2, 4, 6, 2)),
    ("amplify stage over a batch (features)", T.amplify_stage, [(2, 2, 3, 4)] * 2, 0, (2, 2, 3, 4)),
    ("amplify stage over a batch (phase)", T.amplify_stage, [(2, 2, 3, 4)] * 2, 1, (2, 2, 3, 4)),
    # a plane picked twice scatter-adds both gradients
    ("mask-classification loss over a batch, one plane picked twice (mask logits)",
     _mask_classification, [(2, 3, 2, 4), (2, 4, 3), (3, 6)], 0, None),
    ("cross-attention block (prototypes)", _cross_block(None), _CROSS, 0, (3, 4)),
    ("cross-attention block over a batch (pixels)", _cross_block(None), _CROSS_BATCH, 1, (2, 3, 4)),
    ("cross-attention block (W_Q)", _cross_block(None), _CROSS, 2, (3, 4)),
    ("self-attention block with a non-zero W_O (input)", self_block, _SELF, 0, (5, 4)),
    # the weights, bias and norm of every attention block; the absorbed
    # W_QK and W_VO hand each weight its share through the other
    *((f"self-attention block ({name})", self_block, _SELF, i, (5, 4))
      for i, name in enumerate(("W_Q", "W_K", "W_V", "W_O", "gain", "shift"), 1)),
    *((f"{kind} block ({name})", _cross_block(k), _CROSS, i, (3, 4))
      for kind, k in (("cross-attention", None), ("reliable cross-attention", 3))
      for i, name in enumerate(("W_K", "W_V", "W_O", "b_O", "gain", "shift"), 3)),
    *((f"feed-forward block ({name})", T.feed_forward_block, _FFN, i, (3, 4))
      for i, name in enumerate(("input", "w1", "b1", "w2", "b2", "gain", "shift"))),
]


def run_grad_suite() -> list[tuple[str, float]]:
    """Finite-difference errors for every differentiable composition.

    Small random instances, 64-bit, h=1e-5. Each entry draws its operands,
    then its head, from a generator seeded with the CRC-32 of its name, so an
    entry's inputs do not depend on the others. A non-scalar entry reduces
    through its head, sum(f(x) * head), so no check degenerates to a constant.
    """
    results = []
    for name, f, shapes, wrt, head_shape in GRAD_SUITE:
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        ops = [Tensor(rng.normal(size=s)) for s in shapes]
        head = None if head_shape is None else rng.normal(size=head_shape)
        err = grad_check(lambda t: f(*ops[:wrt], t, *ops[wrt + 1:]), ops[wrt], head)
        results.append((name, err))
    return results


def check_gradients():
    for name, err in run_grad_suite():
        assert err < 1e-4, f"{name}: max relative error {err}"


BATCHED_CASES = (("reliable", 4), ("reliable", 2), ("vanilla", 4))   # matcher.mode, decoder.depth


def check_batched_forward_matches_per_sample(cases=BATCHED_CASES) -> list:
    """A batch of 3 against 3 single-image forwards, to 1e-10 relative, for
    each (matcher mode, decoder depth) of cases; returns the batched outputs."""
    rng, outs = _rng(18), []
    for mode, depth in cases:
        model = NightSegModel(ModelConfig(
            num_classes=3, backbone_widths=(4, 5, 6, 7), phase_widths=(3, 4, 5, 6),
            decoder_channels=8, prototypes=4, reliable_k=4, matcher_layers=2,
            matcher_mode=mode, decoder_depth=depth, seed=6))
        images, textures = rng.uniform(size=(2, 3, 32, 64, 3))
        out = model(Tensor(images), Tensor(textures))
        for b in range(3):
            one = model(Tensor(images[b]), Tensor(textures[b]))
            for got, want in ((out.mask_logits.data[b], one.mask_logits.data),
                              (out.class_logits.data[b], one.class_logits.data)):
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        outs.append(out)
    return outs


# An off-init coordinate passes where |a - n| <= RTOL (|a| + |n|) + ATOL. ATOL is
# the floor near zero: rounding in the loss (~25-50) limits a difference with
# h = 1e-5 to ~5e-10, 1.4e-4 of a gradient of 1.8e-6. Over 2064 coordinates
# (12 draws per mode) the worst used 0.21 of this; 4 needed the smaller step.
EVERY_WEIGHT_RTOL, EVERY_WEIGHT_ATOL = 1e-4, 2e-9


def check_end_to_end_gradient() -> float:
    """A small model's total loss in both matcher modes. At init every
    parameter gets a gradient, the always-live groups a non-zero one, and one
    coordinate in 3 groups matches central differences. Then every weight
    moves off its init by N(0, 0.1), so no zero-init projection pins a branch
    at zero, and one coordinate of every parameter tensor must match; a relu
    kink inside the stencil is stepped off with h ten times smaller. Returns
    the worst off-init error as a share of its tolerance."""
    worst = 0.0
    for mode in ("reliable", "vanilla"):
        rng = _rng(17)
        model = NightSegModel(ModelConfig(
            num_classes=3, backbone_widths=(4, 5, 6, 7), phase_widths=(3, 4, 5, 6),
            decoder_channels=8, prototypes=4, reliable_k=4, matcher_layers=1,
            matcher_mode=mode, seed=5))
        # 64x64 keeps every attention block above one token, so no weight is
        # pinned at a structurally zero gradient
        image = Tensor(rng.uniform(size=(64, 64, 3)))
        texture = Tensor(rng.uniform(size=(64, 64, 3)))
        gt = rng.integers(0, 3, size=(16, 16))
        params = model.parameters()
        by_name = dict(params)

        def loss() -> Tensor:
            out = model(image, texture)
            return total_loss(out.mask_logits, out.class_logits, gt, 3, LossWeights())

        def errors(p: Tensor, coord: int, h: float) -> tuple[float, float]:
            """|a - n| and |a| + |n| in one coordinate of p, for step h."""
            flat = p.data.reshape(-1)
            keep = flat[coord]
            flat[coord] = keep + h
            fp = loss().item()
            flat[coord] = keep - h
            fm = loss().item()
            flat[coord] = keep
            a, n = p.grad.reshape(-1)[coord], (fp - fm) / (2 * h)
            return abs(a - n), abs(a) + abs(n)

        with T.Tape():
            T.backward(loss())
        # every parameter gets a gradient, though one behind a zero-initialized
        # output projection may be all zero until that projection moves
        missing = [n for n, p in params if p.grad is None]
        assert not missing, f"no gradient buffer for: {missing[:5]}"
        live = ("matcher.prototypes", "backbone.stage1.w", "phase_encoder.stem.w",
                "class_head.w", "decoder.proj_f.0.w")
        dead = [n for n in live if not np.any(by_name[n].grad)]
        assert not dead, f"zero gradient on always-live group: {dead}"
        for name in live[:3]:
            coord = int(rng.integers(by_name[name].data.size))
            diff, scale = errors(by_name[name], coord, 1e-5)
            err = diff / max(1e-8, scale)
            assert err < 1e-4, f"{mode} {name}[{coord}] at init: {err}"

        for _, p in params:
            p.data += rng.normal(scale=0.1, size=p.data.shape)
            p.grad = None
        with T.Tape():
            T.backward(loss())
        for name, p in params:
            coord = int(rng.integers(p.data.size))
            for h in (1e-5, 1e-6):
                diff, scale = errors(p, coord, h)
                share = diff / (EVERY_WEIGHT_RTOL * scale + EVERY_WEIGHT_ATOL)
                if share <= 1.0:
                    break
            assert share <= 1.0, f"{mode} {name}[{coord}] off by {share:.2f} of its tolerance"
            worst = max(worst, share)
    return worst


CHECKS = [
    ("matmul matches triple-loop oracle", check_matmul_oracle),
    ("conv2d matches nested-loop oracle", check_conv2d_oracle),
    ("attention softmax: direct formula, no overflow, rows sum to one", check_attention_softmax),
    ("bilinear upsample matches per-pixel formula", check_upsample_oracle),
    ("half-spectrum transform matches brute-force sum (50x16x16, 8 other extents)",
     check_fft_oracle),
    ("inverse transform restores the input", check_fft_roundtrip),
    ("constant-amplitude reconstruction keeps modulus c_a", check_phase_amplitude_invariant),
    ("amplitude plane invariant to circular shifts", check_amplitude_shift_invariance),
    ("sobel map: zero on constants, 4 on unit step", check_sobel),
    ("flat channels: zero phase and sobel maps", check_flat_planes),
    ("amplification matches per-pixel loop oracle", check_amplify_oracle),
    ("self-attention is permutation-equivariant", check_attention_permutation),
    ("attention block (self, cross and reliable) matches its unabsorbed chain",
     check_attention_block_node),
    ("feed-forward block equals its five-node chain, bit for bit", check_feed_forward_block_node),
    ("similarity invariants hold on 2000 random instances", check_matching_invariants),
    ("assignment matches exhaustive enumeration (2000 cases, half integer)",
     check_hungarian_oracle),
    ("mIoU hand example and self-comparison", check_miou),
    ("per-op gradients match finite differences", check_gradients),
    ("end-to-end gradients reach every group and match differences in every weight, both modes",
     check_end_to_end_gradient),
    ("a batch of 3 gives the logits of 3 single-image forwards", check_batched_forward_matches_per_sample),
    ("flat AdamW equals the per-tensor loop bit for bit", check_adamw_matches_per_tensor),
]


def run_selftest(verbose: bool = True) -> int:
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
            status = "PASS"
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            status = f"FAIL ({exc})"
        if verbose:
            print(f"{status:4s}  {name}" if status == "PASS" else f"{status}  {name}")
    if verbose:
        print(f"{len(CHECKS) - failures}/{len(CHECKS)} properties passed")
    return failures
