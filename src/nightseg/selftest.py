"""Built-in verification: oracle equivalences and invariants, one line each.

Each check compares a shipped code path against an independent brute-force
evaluation (literal sums, nested loops, exhaustive enumeration) or asserts
a structural invariant. ``run_selftest`` prints PASS/FAIL per property and
returns the number of failures.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import tensor as T
from .fourier import dft2d_bruteforce, fft2d, ifft2d
from .gradcheck import grad_check
from .layers import TokenSelfAttention, glorot_uniform
from .losses import LossWeights, hungarian_match, total_loss
from .matcher import bridged_similarity, select_reliable
from .metrics import miou
from .model import ModelConfig, NightSegModel
from .phase import choose_c_a, fourier_decompose, phase_reconstruct, sobel_texture_map
from .tensor import Tensor, attention_weights
from .train import AdamW

__all__ = ["run_selftest", "run_grad_suite", "CHECKS"]


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


def check_conv2d_oracle():
    rng = _rng(2)
    for stride, pad in ((1, 0), (1, 1), (2, 1)):
        x = rng.normal(size=(6, 7, 3))
        w = rng.normal(size=(3, 3, 3, 2))
        got = T.conv2d(Tensor(x), Tensor(w), stride, pad).data
        xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
        ho = (x.shape[0] + 2 * pad - 3) // stride + 1
        wo = (x.shape[1] + 2 * pad - 3) // stride + 1
        want = np.zeros((ho, wo, 2))
        for oi in range(ho):
            for oj in range(wo):
                for oc in range(2):
                    s = 0.0
                    for ki in range(3):
                        for kj in range(3):
                            for c in range(3):
                                s += xp[oi * stride + ki, oj * stride + kj, c] * w[ki, kj, c, oc]
                    want[oi, oj, oc] = s
        assert np.abs(got - want).max() < 1e-10


def check_softmax_oracle():
    rng = _rng(3)
    x = rng.normal(size=12)
    got = T.softmax(Tensor(x), axis=0).data
    want = np.exp(x) / np.sum(np.exp(x))
    assert np.abs(got - want).max() < 1e-12
    big = T.softmax(Tensor([1000.0, 0.0, 0.0]), axis=0).data
    assert np.isfinite(big).all() and abs(big[0] - 1.0) < 1e-12


def check_softmax_rows_sum_to_one():
    rng = _rng(4)
    for _ in range(50):
        x = rng.normal(size=(5, 9)) * rng.uniform(0.1, 50)
        y = T.softmax(Tensor(x), axis=1).data
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


def check_fft_oracle():
    rng = _rng(6)
    for shape in [(16, 16)] * 50 + [(6, 10)]:
        x = rng.normal(size=shape)
        brute = dft2d_bruteforce(x)
        err = np.abs(fft2d(x) - brute).max() / max(1.0, np.abs(brute).max())
        assert err < 1e-6


def check_fft_roundtrip():
    rng = _rng(7)
    for h, w in ((2, 2), (8, 4), (16, 16), (64, 64), (5, 7)):
        x = rng.normal(size=(h, w))
        back = ifft2d(fft2d(x))
        assert np.abs(back.real - x).max() / max(1.0, np.abs(x).max()) < 1e-9
        assert np.abs(back.imag).max() < 1e-9


def check_phase_amplitude_invariant():
    rng = _rng(8)
    for _ in range(20):
        x = rng.uniform(size=(8, 8))
        spectrum = fourier_decompose(Tensor(x))
        c_a = choose_c_a(spectrum)
        rec = phase_reconstruct(spectrum, c_a)
        # re-transform the reconstruction's complex spectrum by construction
        p = spectrum.phase.data
        mod = np.hypot(c_a * np.cos(p), c_a * np.sin(p))
        assert np.abs(mod - c_a).max() < 1e-6
        assert rec.imag_residue < 1e-9


def check_amplitude_shift_invariance():
    rng = _rng(9)
    for _ in range(10):
        x = rng.normal(size=(8, 8))
        a0 = fourier_decompose(Tensor(x)).amplitude.data
        shifted = np.roll(np.roll(x, 3, axis=0), 5, axis=1)
        a1 = fourier_decompose(Tensor(shifted)).amplitude.data
        assert np.abs(a0 - a1).max() / max(1.0, np.abs(a0).max()) < 1e-9


def check_sobel():
    assert np.abs(sobel_texture_map(Tensor(np.full((6, 6), 3.0))).data).max() == 0.0
    step = np.zeros((8, 8))
    step[:, 4:] = 1.0
    mag = sobel_texture_map(Tensor(step)).data
    assert np.abs(mag[2:6, 3] - 4.0).max() < 1e-12
    assert np.abs(mag[2:6, 4] - 4.0).max() < 1e-12


def check_amplify_oracle():
    rng = _rng(10)
    f = rng.normal(size=(3, 4, 5))
    p = rng.normal(size=(3, 4, 5))
    amap = np.zeros((3, 4))
    for i, j, c in itertools.product(range(3), range(4), range(5)):
        amap[i, j] += (f[i, j, c] + p[i, j, c]) ** 2
    assert (amap >= 0).all()
    for normalize, a in ((False, amap), (True, amap / (amap.mean() + 1e-12))):
        got = T.amplify_stage(Tensor(f), Tensor(p), normalize).data
        want = np.zeros_like(f)
        for i, j, c in itertools.product(range(3), range(4), range(5)):
            want[i, j, c] = f[i, j, c] * a[i, j]
        assert np.abs(got - want).max() < 1e-10


def check_attention_permutation():
    rng = _rng(11)
    attn = TokenSelfAttention(np.random.default_rng(1), 6)
    x = rng.normal(size=(6, 6))
    y = attn(Tensor(x)).data
    perm = np.array([3, 1, 4, 0, 5, 2])
    yp = attn(Tensor(x[perm])).data
    assert np.abs(yp - y[perm]).max() < 1e-9


def _random_projections(rng, c):
    """Query, key and value weights [c, c], drawn from a generator seeded by rng."""
    init = np.random.default_rng(int(rng.integers(1 << 31)))
    return [glorot_uniform(init, (c, c), c, c, np.float64) for _ in range(3)]


def _bridge(p: Tensor, fa: Tensor, wq: Tensor, wk: Tensor, k: int,
            renormalize: bool = False) -> Tensor:
    """The reliable bridge of a matcher layer, from its query and key weights."""
    q = T.matmul(p, wq)
    keys = T.matmul(fa, wk)
    idx = select_reliable(attention_weights(q, keys), k)
    return bridged_similarity(q, T.matmul(fa, wq), T.gather_rows(keys, idx), renormalize)


def check_matching_invariants():
    rng = _rng(12)
    for _ in range(1000):
        n, hw, c = 3, 10, 4
        k = int(rng.integers(1, hw + 1))
        p = Tensor(rng.normal(size=(n, c)))
        fa = Tensor(rng.normal(size=(hw, c)))
        wq, wk, _ = _random_projections(rng, c)
        q, q_pix = T.matmul(p, wq), T.matmul(fa, wq)
        sim = attention_weights(q, T.matmul(fa, wk))
        assert np.abs(sim.data.sum(axis=1) - 1.0).max() < 1e-6
        scores = sim.data.sum(axis=0)
        assert abs(scores.sum() - n) < 1e-5
        idx = select_reliable(sim, k)
        order = np.lexsort((np.arange(hw), -scores))
        assert np.array_equal(idx, order[:k])
        kr = T.matmul(T.gather_rows(fa, idx), wk)
        assert np.abs(attention_weights(q, kr).data.sum(axis=1) - 1.0).max() < 1e-6
        assert np.abs(attention_weights(q_pix, kr).data.sum(axis=1) - 1.0).max() < 1e-6
        sim_qk = bridged_similarity(q, q_pix, kr).data
        assert sim_qk.min() >= 0.0 and sim_qk.max() <= 1.0 + 1e-9


def _composed_attention(q: Tensor, k: Tensor) -> Tensor:
    return T.softmax(T.scale(T.matmul(q, T.transpose2d(k)), 1.0 / math.sqrt(q.shape[1])), axis=1)


def _attention_pass(weights_fn, q0: np.ndarray, k0: np.ndarray, head: np.ndarray):
    q, k = Tensor(q0.copy(), requires_grad=True), Tensor(k0.copy(), requires_grad=True)
    with T.Tape():
        y = weights_fn(q, k)
        T.backward(T.tsum(T.mul(y, Tensor(head))))
    return y.data, q.grad, k.grad


def check_attention_weights_composed():
    rng = _rng(13)
    for dtype in (np.float32, np.float64):
        for m, l, c in ((5, 9, 3), (8, 2048, 64), (2048, 16, 64)):
            q, k, head = (rng.normal(size=s).astype(dtype) for s in ((m, c), (l, c), (m, l)))
            fused = _attention_pass(T.attention_weights, q, k, head)
            for a, b in zip(fused, _attention_pass(_composed_attention, q, k, head)):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def check_hungarian_oracle():
    rng = _rng(14)
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        g = int(rng.integers(1, n + 1))
        cost = rng.normal(size=(n, g))
        got = hungarian_match(cost)
        best = min(sum(cost[p[i], i] for i in range(g))
                   for p in itertools.permutations(range(n), g))
        total = sum(cost[got[i], i] for i in range(g))
        assert len(set(got.tolist())) == g
        assert abs(total - best) < 1e-9


def check_miou():
    pred = np.array([[0, 1], [1, 1]])
    gt = np.array([[0, 1], [0, 1]])
    per_class, mean = miou(pred, gt, 2)
    assert abs(per_class[0] - 0.5) < 1e-12
    assert abs(per_class[1] - 2 / 3) < 1e-12
    assert abs(mean - 7 / 12) < 1e-12
    rng = _rng(15)
    for _ in range(100):
        m = rng.integers(0, 4, size=(6, 9))
        _, mm = miou(m, m, 4)
        assert mm == 1.0


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
            if g is None:
                continue
            m = self.m[name] = self.b1 * self.m[name] + (1.0 - self.b1) * g
            v = self.v[name] = self.b2 * self.v[name] + (1.0 - self.b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data - self.lr * (update + self.weight_decay * p.data)


def check_adamw_matches_per_tensor():
    # one parameter spans two update chunks; absent gradients sit at
    # non-adjacent positions, at either end and in the middle; the rate
    # drops after step 3 as at the phase-2 switch
    shapes = [(3, 4), (5,), (257, 300), (2, 3, 2), (7,), (1,)]
    absent = [set(), {1, 3}, set(), {0, 2, 5}, {4}]
    for dtype in (np.float32, np.float64):
        rng = _rng(19)
        init = [rng.normal(size=s).astype(dtype) for s in shapes]
        flat = [(f"p{i}", Tensor(a.copy())) for i, a in enumerate(init)]
        ref = [(f"p{i}", Tensor(a.copy())) for i, a in enumerate(init)]
        opt = AdamW(flat, lr=1e-2, weight_decay=0.05)
        oracle = PerTensorAdamW(ref, lr=1e-2, weight_decay=0.05)
        for step, skip in enumerate(absent):
            if step == 3:
                opt.lr = oracle.lr = 1e-3
            for i, ((_, p), (_, q)) in enumerate(zip(flat, ref)):
                p.grad = q.grad = None if i in skip else rng.normal(size=p.data.shape).astype(dtype)
            opt.step()
            oracle.step()
        for (name, p), (_, q) in zip(flat, ref):
            assert p.data.dtype == q.data.dtype and np.array_equal(p.data, q.data), name
        for mine, theirs in ((opt.m, oracle.m), (opt.v, oracle.v)):
            assert np.array_equal(mine, np.concatenate([a.reshape(-1) for a in theirs.values()]))


def run_grad_suite() -> list[tuple[str, float]]:
    """Finite-difference errors for every differentiable composition.

    Small random instances, 64-bit, h=1e-5; each entry reduces through a
    fixed random weighting so no check degenerates to a constant.
    """
    rng = _rng(16)
    results: list[tuple[str, float]] = []

    b = Tensor(rng.normal(size=(3, 5)))
    h1 = Tensor(rng.normal(size=(4, 5)))
    results.append(("matmul", grad_check(
        lambda x: T.tsum(T.mul(T.matmul(x, b), h1)), Tensor(rng.normal(size=(4, 3))))))

    w = Tensor(rng.normal(size=(3, 3, 2, 4)))
    h2 = Tensor(rng.normal(size=(2, 2, 4)))
    results.append(("conv2d (input)", grad_check(
        lambda x: T.tsum(T.mul(T.conv2d(x, w, 2, 1), h2)), Tensor(rng.normal(size=(4, 4, 2))))))
    x0 = Tensor(rng.normal(size=(4, 4, 2)))
    results.append(("conv2d (kernel)", grad_check(
        lambda k: T.tsum(T.mul(T.conv2d(x0, k, 2, 1), h2)), Tensor(rng.normal(size=(3, 3, 2, 4))))))

    h3 = Tensor(rng.normal(size=(3, 6)))
    results.append(("softmax", grad_check(
        lambda x: T.tsum(T.mul(T.softmax(x, axis=1), h3)), Tensor(rng.normal(size=(3, 6))))))

    attn = TokenSelfAttention(np.random.default_rng(2), 4)
    h4 = Tensor(rng.normal(size=(4, 4)))
    results.append(("token self-attention", grad_check(
        lambda x: T.tsum(T.mul(attn(x), h4)), Tensor(rng.normal(size=(4, 4))))))

    phi = Tensor(rng.normal(size=(2, 3, 4)))
    h5 = Tensor(rng.normal(size=(2, 3, 4)))
    f0 = Tensor(rng.normal(size=(2, 3, 4)))
    for normalize in (True, False):
        tag = "normalized" if normalize else "raw"
        results.append((f"amplify stage (features, {tag})", grad_check(
            lambda x: T.tsum(T.mul(T.amplify_stage(x, phi, normalize), h5)), Tensor(f0.data.copy()))))
        results.append((f"amplify stage (phase, {tag})", grad_check(
            lambda x: T.tsum(T.mul(T.amplify_stage(f0, x, normalize), h5)), Tensor(phi.data.copy()))))

    wq, wk, wv = _random_projections(_rng(161), 4)
    fa0 = Tensor(rng.normal(size=(7, 4)))
    v0 = Tensor(rng.normal(size=(7, 4)))
    h6 = Tensor(rng.normal(size=(3, 4)))

    results.append(("bridged similarity + update (prototypes)", grad_check(
        lambda p: T.tsum(T.mul(T.matmul(_bridge(p, fa0, wq, wk, 3), v0), h6)),
        Tensor(rng.normal(size=(3, 4))))))

    p0 = Tensor(rng.normal(size=(3, 4)))

    results.append(("bridged similarity + update (pixels)", grad_check(
        lambda fa: T.tsum(T.mul(T.matmul(_bridge(p0, fa, wq, wk, 3), T.matmul(fa, wv)), h6)),
        Tensor(rng.normal(size=(7, 4))))))

    tgt = (rng.random((4, 4)) > 0.5).astype(np.float64)
    results.append(("dice", grad_check(
        lambda x: T.bce_dice_loss(x, tgt, 0.0, 1.0), Tensor(rng.normal(size=(4, 4))))))
    results.append(("bce", grad_check(
        lambda x: T.bce_dice_loss(x, tgt, 1.0, 0.0), Tensor(rng.normal(size=(4, 4))))))
    results.append(("ce", grad_check(
        lambda x: T.ce_logits(x, np.array([1, 0, 2])), Tensor(rng.normal(size=(3, 4))))))

    gt = rng.integers(0, 3, size=(4, 4))
    cls0 = Tensor(rng.normal(size=(5, 4)))
    results.append(("total loss (mask logits)", grad_check(
        lambda m: total_loss(m, cls0, gt, 3, LossWeights()), Tensor(rng.normal(size=(4, 4, 5))))))
    m0 = Tensor(rng.normal(size=(4, 4, 5)))
    results.append(("total loss (class logits)", grad_check(
        lambda c: total_loss(m0, c, gt, 3, LossWeights()), Tensor(rng.normal(size=(5, 4))))))

    k0 = Tensor(rng.normal(size=(6, 4)))
    h7 = Tensor(rng.normal(size=(3, 6)))
    results.append(("attention weights (queries)", grad_check(
        lambda q: T.tsum(T.mul(T.attention_weights(q, k0), h7)), Tensor(rng.normal(size=(3, 4))))))
    q0 = Tensor(rng.normal(size=(3, 4)))
    results.append(("attention weights (keys)", grad_check(
        lambda k: T.tsum(T.mul(T.attention_weights(q0, k), h7)), Tensor(rng.normal(size=(6, 4))))))

    mm = [rng.normal(size=s) for s in ((2, 3, 4), (4, 5), (5,))]   # input, weight, bias
    h8 = Tensor(rng.normal(size=(2, 3, 5)))
    for i, part in enumerate(("input", "weight", "bias")):
        ops = [Tensor(m) for m in mm]
        results.append((f"matmul over [h,w,C] with bias ({part})", grad_check(
            lambda t: T.tsum(T.mul(T.matmul(*ops[:i], t, *ops[i + 1:]), h8)), ops[i])))
    results.append(("conv2d (bias)", grad_check(
        lambda b: T.tsum(T.mul(T.conv2d(x0, w, 2, 1, b), h2)), Tensor(rng.normal(size=4)))))

    # a generator of their own keeps the draws of the entries above unchanged
    rng = _rng(162)
    h9 = Tensor(rng.normal(size=(3, 5)))
    results.append(("normalize rows", grad_check(
        lambda x: T.tsum(T.mul(T.normalize_rows(x), h9)), Tensor(rng.uniform(0.5, 1.5, (3, 5))))))
    results.append(("bridged similarity renormalized (prototypes)", grad_check(
        lambda p: T.tsum(T.mul(T.matmul(_bridge(p, fa0, wq, wk, 3, True), v0), h6)),
        Tensor(rng.normal(size=(3, 4))))))
    tgt2 = (rng.random((3, 6)) > 0.5).astype(np.float64)
    results.append(("bce + dice loss", grad_check(
        lambda x: T.bce_dice_loss(x, tgt2, 1.5, 2.5), Tensor(rng.normal(size=(3, 6))))))

    # ops over a leading batch axis of 2
    rng = _rng(163)
    wb = Tensor(rng.normal(size=(3, 3, 2, 4)))
    hb1 = Tensor(rng.normal(size=(2, 2, 2, 4)))
    xb = Tensor(rng.normal(size=(2, 4, 4, 2)))
    results.append(("conv2d over a batch (input)", grad_check(
        lambda x: T.tsum(T.mul(T.conv2d(x, wb, 2, 1), hb1)), Tensor(xb.data.copy()))))
    results.append(("conv2d over a batch (kernel)", grad_check(
        lambda k: T.tsum(T.mul(T.conv2d(xb, k, 2, 1), hb1)), Tensor(wb.data.copy()))))
    hb2 = Tensor(rng.normal(size=(2, 4, 6, 2)))
    results.append(("upsample over a batch", grad_check(
        lambda x: T.tsum(T.mul(T.upsample_bilinear2x(x), hb2)), Tensor(rng.normal(size=(2, 2, 3, 2))))))
    fb, pb, hb3 = (Tensor(rng.normal(size=(2, 2, 3, 4))) for _ in range(3))
    results.append(("amplify stage over a batch (features, normalized)", grad_check(
        lambda x: T.tsum(T.mul(T.amplify_stage(x, pb, True), hb3)), Tensor(fb.data.copy()))))
    results.append(("amplify stage over a batch (phase, normalized)", grad_check(
        lambda x: T.tsum(T.mul(T.amplify_stage(fb, x, True), hb3)), Tensor(pb.data.copy()))))
    qb, kb = Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(2, 6, 4)))
    hb4 = Tensor(rng.normal(size=(2, 3, 6)))
    results.append(("attention weights over a batch (queries)", grad_check(
        lambda q: T.tsum(T.mul(T.attention_weights(q, kb), hb4)), Tensor(qb.data.copy()))))
    results.append(("attention weights over a batch (keys)", grad_check(
        lambda k: T.tsum(T.mul(T.attention_weights(qb, k), hb4)), Tensor(kb.data.copy()))))
    rows = np.array([[4, 0, 4], [1, 2, 3]])   # a repeated row scatter-adds twice
    hb5 = Tensor(rng.normal(size=(2, 3, 3)))
    results.append(("gather rows over a batch", grad_check(
        lambda x: T.tsum(T.mul(T.gather_rows(x, rows), hb5)), Tensor(rng.normal(size=(2, 5, 3))))))

    return results


def check_gradients():
    for name, err in run_grad_suite():
        assert err < 1e-4, f"{name}: max relative error {err}"


def check_batched_forward_matches_per_sample():
    rng = _rng(18)
    cfg = ModelConfig(num_classes=3, backbone_widths=(4, 5, 6, 7), phase_widths=(3, 4, 5, 6),
                      decoder_channels=8, prototypes=4, reliable_k=4, matcher_layers=2, seed=6)
    model = NightSegModel(cfg)
    images, textures = rng.uniform(size=(2, 3, 32, 64, 3))
    out = model(Tensor(images), Tensor(textures))
    for b in range(3):
        one = model(Tensor(images[b]), Tensor(textures[b]))
        for got, want in ((out.mask_logits.data[b], one.mask_logits.data),
                          (out.class_logits.data[b], one.class_logits.data)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def check_end_to_end_gradient():
    rng = _rng(17)
    cfg = ModelConfig(num_classes=3, backbone_widths=(4, 5, 6, 7), phase_widths=(3, 4, 5, 6),
                      decoder_channels=8, prototypes=4, reliable_k=4, matcher_layers=1, seed=5)
    model = NightSegModel(cfg)
    # 64x64 keeps every attention block above one token, so no weight is
    # pinned at a structurally zero gradient
    image = rng.uniform(size=(64, 64, 3))
    texture = rng.uniform(size=(64, 64, 3))
    gt = rng.integers(0, 3, size=(16, 16))

    def loss_value() -> Tensor:
        out = model(Tensor(image), Tensor(texture))
        return total_loss(out.mask_logits, out.class_logits, gt, 3, LossWeights())

    from .tensor import Tape, backward

    with Tape():
        backward(loss_value())
    params = model.parameters()
    # every parameter participates in the backward pass; branches behind a
    # zero-initialized output projection legitimately hold exact-zero grads
    # until that projection moves
    missing = [n for n, p in params if p.grad is None]
    assert not missing, f"no gradient buffer for: {missing[:5]}"
    live = ("matcher.prototypes", "backbone.stage1.w", "phase_encoder.stem.w",
            "class_head.w", "decoder.proj0.f.w")
    by_name = dict(params)
    dead = [n for n in live if not np.any(by_name[n].grad)]
    assert not dead, f"zero gradient on always-live group: {dead}"

    # finite-difference spot check on one random coordinate in 3 groups
    h = 1e-5
    for name in ("matcher.prototypes", "backbone.stage1.w", "phase_encoder.stem.w"):
        p = by_name[name]
        coord = int(rng.integers(p.data.size))
        flat = p.data.reshape(-1)
        keep = flat[coord]
        flat[coord] = keep + h
        fp = loss_value().item()
        flat[coord] = keep - h
        fm = loss_value().item()
        flat[coord] = keep
        numeric = (fp - fm) / (2 * h)
        analytic = p.grad.reshape(-1)[coord]
        err = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
        assert err < 1e-4, f"{name}[{coord}]: {err}"
    for _, p in params:
        p.grad = None


CHECKS = [
    ("matmul matches triple-loop oracle", check_matmul_oracle),
    ("conv2d matches nested-loop oracle", check_conv2d_oracle),
    ("softmax matches direct formula and resists overflow", check_softmax_oracle),
    ("softmax rows sum to one", check_softmax_rows_sum_to_one),
    ("bilinear upsample matches per-pixel formula", check_upsample_oracle),
    ("fast transform matches brute-force sum (50x16x16, 6x10)", check_fft_oracle),
    ("inverse transform restores the input", check_fft_roundtrip),
    ("constant-amplitude reconstruction keeps modulus c_a", check_phase_amplitude_invariant),
    ("amplitude plane invariant to circular shifts", check_amplitude_shift_invariance),
    ("sobel map: zero on constants, 4 on unit step", check_sobel),
    ("amplification matches per-pixel loop oracle, raw and normalized", check_amplify_oracle),
    ("self-attention is permutation-equivariant", check_attention_permutation),
    ("fused attention weights equal the composed ops bit for bit", check_attention_weights_composed),
    ("similarity invariants hold on 1000 random instances", check_matching_invariants),
    ("assignment matches exhaustive enumeration (1000 cases)", check_hungarian_oracle),
    ("mIoU hand example and self-comparison", check_miou),
    ("per-op gradients match finite differences", check_gradients),
    ("end-to-end loss gradients reach all parameter groups", check_end_to_end_gradient),
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
