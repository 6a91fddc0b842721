"""Tensor engine: forward oracles, tape semantics, gradient rules."""

import math

import numpy as np
import pytest

from nightseg import tensor as T
from nightseg.gradcheck import grad_check
from nightseg.layers import Conv2dLayer, Linear
from nightseg.tensor import Tape, Tensor, backward


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), Tensor(a))
        assert np.array_equal(out.data, a)

    def test_hand_dot_product(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 3))
        want = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        got = T.matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - want).max() < 1e-12

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def biased_run(f, operands, head):
    """Value and operand gradients of sum(f(*operands) * head) on fresh tensors."""
    ts = [None if d is None else Tensor(d.copy(), requires_grad=True) for d in operands]
    with Tape():
        y = f(*ts)
        backward(T.tsum(T.mul(y, Tensor(head))))
    return y.data, [None if t is None else t.grad for t in ts]


class TestMatmulLeadingAxesAndBias:
    """a[..., K] @ b[K, N] + bias[N] is one flattened GEMM; values and
    gradients equal the numpy formulas bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(3, 4), (6,)], ids=["hwK", "MK"])
    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "nobias"])
    def test_equals_flattened_gemm_bit_for_bit(self, dtype, lead, with_bias):
        rng = np.random.default_rng(len(lead) * 10 + with_bias)
        k, n = 5, 7
        a = rng.normal(size=lead + (k,)).astype(dtype)
        b = rng.normal(size=(k, n)).astype(dtype)
        bias = rng.normal(size=n).astype(dtype) if with_bias else None
        head = rng.normal(size=lead + (n,)).astype(dtype)
        y, (da, db, dbias) = biased_run(T.matmul, (a, b, bias), head)

        a2, g2 = a.reshape(-1, k), head.reshape(-1, n)
        want = a2 @ b
        if with_bias:
            want = want + bias
        assert y.dtype == dtype and y.shape == lead + (n,)
        assert np.array_equal(y, want.reshape(lead + (n,)))
        assert np.array_equal(da, (g2 @ b.T).reshape(a.shape))
        assert np.array_equal(db, a2.T @ g2)
        if with_bias:
            assert dbias.dtype == dtype and np.array_equal(dbias, np.sum(g2, axis=(0,)))

    def test_linear_on_a_map_records_one_tape_node(self):
        lin = Linear(np.random.default_rng(0), 4, 3)
        x = Tensor(np.ones((2, 5, 4)), requires_grad=True)
        with Tape() as tape:
            y = lin(x)
            assert len(tape) == 1
        assert y.shape == (2, 5, 3)

    @pytest.mark.parametrize("bias_shape", [(4,), (3, 1), ()])
    def test_mismatched_bias_rejected(self, bias_shape):
        with pytest.raises(ValueError, match="matmul: bias"):
            T.matmul(Tensor(np.zeros((2, 2, 5))), Tensor(np.zeros((5, 3))),
                     Tensor(np.zeros(bias_shape)))

    def test_weight_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D b"):
            T.matmul(Tensor(np.zeros((2, 5))), Tensor(np.zeros((5, 3, 1))))
        with pytest.raises(ValueError, match="inner extents differ"):
            T.matmul(Tensor(np.zeros((2, 2, 5))), Tensor(np.zeros((4, 3))))


class TestSoftmax:
    def test_uniform_input(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]), axis=0).data
        assert np.abs(out - 1 / 3).max() < 1e-15

    def test_large_logit_no_overflow(self):
        out = T.softmax(Tensor([1000.0, 0.0, 0.0]), axis=0).data
        assert np.isfinite(out).all()
        assert abs(out[0] - 1.0) < 1e-12
        assert out[1] < 1e-300

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=17)
        want = np.exp(x) / np.sum(np.exp(x))
        got = T.softmax(Tensor(x), axis=0).data
        assert np.abs(got - want).max() < 1e-12

    def test_rows_sum_to_one_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = rng.normal(size=(4, 7)) * rng.uniform(0.01, 100)
            y = T.softmax(Tensor(x), axis=1).data
            assert np.abs(y.sum(axis=1) - 1.0).max() < 1e-6
            assert (y >= 0).all()


def composed_attention(q, k):
    """softmax(q k^T / sqrt(C)) from the separate primitives: the oracle."""
    return T.softmax(T.scale(T.matmul(q, T.transpose2d(k)), 1.0 / math.sqrt(q.shape[1])), axis=1)


def attention_run(f, qd, kd, head):
    """Weights and gradients of sum(f(q, k) * head) for fresh q and k."""
    q = Tensor(qd.copy(), requires_grad=True)
    k = Tensor(kd.copy(), requires_grad=True)
    with Tape():
        y = f(q, k)
        backward(T.tsum(T.mul(y, Tensor(head))))
    return y.data, q.grad, k.grad


class TestAttentionWeights:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m,l,c", [(6, 6, 4), (64, 64, 64), (5, 9, 3), (8, 2048, 64),
                                       (2048, 16, 64)])
    def test_equals_composed_ops_bit_for_bit(self, dtype, m, l, c):
        rng = np.random.default_rng(m * 7 + l + c)
        qd = (rng.normal(size=(m, c)) * 3.0).astype(dtype)
        kd = (rng.normal(size=(l, c)) * 3.0).astype(dtype)
        head = rng.normal(size=(m, l)).astype(dtype)
        got = attention_run(T.attention_weights, qd, kd, head)
        want = attention_run(composed_attention, qd, kd, head)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(a, b)

    def test_self_attention_shares_one_tensor(self):
        rng = np.random.default_rng(3)
        xd, head = rng.normal(size=(7, 4)), rng.normal(size=(7, 7))
        grads = []
        for f in (T.attention_weights, composed_attention):
            x = Tensor(xd.copy(), requires_grad=True)
            with Tape():
                backward(T.tsum(T.mul(f(x, x), Tensor(head))))
            grads.append(x.grad)
        assert np.array_equal(grads[0], grads[1])

    def test_shared_key_accumulates_both_gradients(self):
        # the reliable bridge soft-assigns prototypes and pixels over one key set
        rng = np.random.default_rng(4)
        q1d, q2d, krd = rng.normal(size=(3, 4)), rng.normal(size=(9, 4)), rng.normal(size=(5, 4))
        h1, h2 = Tensor(rng.normal(size=(3, 5))), Tensor(rng.normal(size=(9, 5)))
        grads = []
        for f in (T.attention_weights, composed_attention):
            q1, q2 = Tensor(q1d), Tensor(q2d)
            kr = Tensor(krd.copy(), requires_grad=True)
            with Tape():
                backward(T.add(T.tsum(T.mul(f(q1, kr), h1)), T.tsum(T.mul(f(q2, kr), h2))))
            grads.append(kr.grad)
        assert np.array_equal(grads[0], grads[1])
        single = attention_run(T.attention_weights, q1d, krd, h1.data)[2]
        assert np.abs(grads[0] - single).max() > 1e-6

    @pytest.mark.parametrize("wrt", ["queries", "keys"])
    def test_gradient_matches_finite_differences(self, wrt):
        rng = np.random.default_rng(5)
        other = Tensor(rng.normal(size=(6, 4)))
        head = Tensor(rng.normal(size=(3, 6) if wrt == "queries" else (6, 3)))
        x = Tensor(rng.normal(size=(3, 4)))
        if wrt == "queries":
            err = grad_check(lambda q: T.tsum(T.mul(T.attention_weights(q, other), head)), x)
        else:
            err = grad_check(lambda k: T.tsum(T.mul(T.attention_weights(other, k), head)), x)
        assert err < 1e-4

    def test_no_downstream_gradient_leaves_grads_unset(self):
        # reliable mode: the first weights only choose the top-K points
        q = Tensor(np.ones((2, 3)), requires_grad=True)
        k = Tensor(np.ones((4, 3)), requires_grad=True)
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            T.attention_weights(q, k)
            backward(T.tsum(x))
        assert q.grad is None and k.grad is None

    def test_records_one_tape_node(self):
        q = Tensor(np.ones((2, 3)), requires_grad=True)
        k = Tensor(np.ones((4, 3)), requires_grad=True)
        with Tape() as tape:
            T.attention_weights(q, k)
            assert len(tape) == 1
            composed_attention(q, k)
            assert len(tape) == 5

    @pytest.mark.parametrize("qs,ks,msg", [
        ((2, 5), (4, 4), "inner extents differ"),
        ((2, 3, 1), (4, 3), "expects 2-D operands"),
        ((2, 3), (3,), "expects 2-D operands"),
    ])
    def test_bad_shapes_rejected(self, qs, ks, msg):
        with pytest.raises(ValueError, match=msg):
            T.attention_weights(Tensor(np.zeros(qs)), Tensor(np.zeros(ks)))


def conv_oracle(x, w, stride, pad):
    """Six-nested-loop cross-correlation with zero padding."""
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    kh, kw, cin, cout = w.shape
    ho = (x.shape[0] + 2 * pad - kh) // stride + 1
    wo = (x.shape[1] + 2 * pad - kw) // stride + 1
    out = np.zeros((ho, wo, cout))
    for oi in range(ho):
        for oj in range(wo):
            for oc in range(cout):
                acc = 0.0
                for ki in range(kh):
                    for kj in range(kw):
                        for c in range(cin):
                            acc += xp[oi * stride + ki, oj * stride + kj, c] * w[ki, kj, c, oc]
                out[oi, oj, oc] = acc
    return out


class TestConv2d:
    def test_1x1_unit_kernel_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5, 1))
        w = np.ones((1, 1, 1, 1))
        out = T.conv2d(Tensor(x), Tensor(w)).data
        assert np.array_equal(out, x)

    def test_box_sum(self):
        x = np.ones((3, 3, 1))
        w = np.ones((3, 3, 1, 1))
        out = T.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        assert out[1, 1, 0] == 9.0

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0), (3, 2)])
    def test_matches_nested_loop_oracle(self, stride, pad):
        rng = np.random.default_rng(stride * 10 + pad)
        x = rng.normal(size=(7, 6, 3))
        w = rng.normal(size=(3, 3, 3, 2))
        got = T.conv2d(Tensor(x), Tensor(w), stride, pad).data
        assert np.abs(got - conv_oracle(x, w, stride, pad)).max() < 1e-10

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bias_adds_inside_the_node_bit_for_bit(self, dtype):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 5, 3)).astype(dtype)
        w = rng.normal(size=(3, 3, 3, 4)).astype(dtype)
        bias = rng.normal(size=4).astype(dtype)
        head = rng.normal(size=(3, 3, 4)).astype(dtype)
        y, (dx, dw, dbias) = biased_run(lambda x, w, b: T.conv2d(x, w, 2, 1, b), (x, w, bias), head)
        y0, (dx0, dw0) = biased_run(lambda x, w: T.conv2d(x, w, 2, 1), (x, w), head)
        assert np.array_equal(y, y0 + bias)
        assert np.array_equal(dx, dx0) and np.array_equal(dw, dw0)
        assert dbias.dtype == dtype and np.array_equal(dbias, np.sum(head, axis=(0, 1)))

    def test_conv_layer_records_one_tape_node(self):
        conv = Conv2dLayer(np.random.default_rng(0), 2, 3, 3, 1, 1)
        with Tape() as tape:
            conv(Tensor(np.ones((4, 4, 2)), requires_grad=True))
            assert len(tape) == 1

    def test_mismatched_bias_rejected(self):
        with pytest.raises(ValueError, match="conv2d: bias"):
            T.conv2d(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((3, 3, 2, 3))), 1, 1,
                     Tensor(np.zeros(2)))

    def test_kernel_larger_than_padded_input_rejected(self):
        with pytest.raises(ValueError, match="larger than padded input"):
            T.conv2d(Tensor(np.zeros((2, 2, 1))), Tensor(np.zeros((5, 5, 1, 1))))


class TestUpsample:
    def test_constant_plane(self):
        out = T.upsample_bilinear2x(Tensor(np.full((3, 4, 2), 7.0))).data
        assert out.shape == (6, 8, 2)
        assert np.abs(out - 7.0).max() == 0.0

    def test_single_pixel_replicates(self):
        out = T.upsample_bilinear2x(Tensor(np.full((1, 1, 1), 2.5))).data
        assert out.shape == (2, 2, 1)
        assert np.abs(out - 2.5).max() == 0.0

    def test_matches_per_pixel_formula_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 4, 2))
        got = T.upsample_bilinear2x(Tensor(x)).data
        want = np.zeros((8, 8, 2))
        for a in range(8):
            for b in range(8):
                sy, sx = (a + 0.5) / 2 - 0.5, (b + 0.5) / 2 - 0.5
                y0, x0 = math.floor(sy), math.floor(sx)
                ty, tx = sy - y0, sx - x0
                for yy, wy in ((y0, 1 - ty), (y0 + 1, ty)):
                    for xx, wx in ((x0, 1 - tx), (x0 + 1, tx)):
                        want[a, b] += wy * wx * x[min(max(yy, 0), 3), min(max(xx, 0), 3)]
        assert np.abs(got - want).max() < 1e-12


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor([1.0, 5.0, -2.0], requires_grad=True)
        with Tape():
            backward(T.tsum(x))
        assert np.array_equal(x.grad, np.ones(3))

    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            backward(T.tsum(T.mul(x, x)))
        assert np.array_equal(x.grad, np.array([2.0, 4.0]))

    def test_composite_conv_softmax_sum_matches_fd(self):
        # the row sums of softmax are constant, so both gradients vanish
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(3, 3, 2, 2)))
        x = Tensor(rng.normal(size=(4, 4, 2)), requires_grad=True)
        with Tape():
            backward(T.tsum(T.softmax(T.reshape(T.conv2d(x, w, 1, 1), (32,)), axis=0)))
        assert np.abs(x.grad).max() < 1e-12
        h = 1e-5
        flat = x.data.reshape(-1)
        keep = flat[0]

        def f():
            return T.tsum(T.softmax(T.reshape(T.conv2d(x, w, 1, 1), (32,)), axis=0)).item()

        flat[0] = keep + h
        fp = f()
        flat[0] = keep - h
        fm = f()
        flat[0] = keep
        assert abs((fp - fm) / (2 * h)) < 1e-9

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            y = T.mul(x, x)
            with pytest.raises(ValueError, match="scalar"):
                backward(y)

    def test_loss_off_tape_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        y = T.tsum(x)  # no active tape
        with pytest.raises(ValueError, match="tape"):
            backward(y)

    def test_tape_consumed_after_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.tsum(x)
            backward(y)
            assert len(tape) == 0
            with pytest.raises(RuntimeError, match="consumed"):
                tape.run(y)

    def test_every_requires_grad_ancestor_gets_grad(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 3)), requires_grad=False)
        with Tape():
            backward(T.tsum(T.mul(T.add(T.matmul(a, b), c), c)))
        assert a.grad is not None and a.grad.shape == a.shape
        assert b.grad is not None and b.grad.shape == b.shape
        assert c.grad is None

    def test_fanout_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape():
            backward(T.tsum(T.add(T.mul(x, x), T.mul(x, x))))
        assert np.allclose(x.grad, [12.0])

    def test_backward_replays_in_exact_reverse_execution_order(self):
        order = []
        original = Tape.record

        def spying_record(self, out, fn, _orig=original):
            tag = len(order)
            order.append(("fwd", tag))

            def wrapped(g):
                order.append(("bwd", tag))
                fn(g)

            _orig(self, out, wrapped)

        x = Tensor([1.0, 2.0], requires_grad=True)
        Tape.record = spying_record
        try:
            with Tape():
                backward(T.tsum(T.relu(T.mul(x, x))))
        finally:
            Tape.record = original
        fwd = [t for kind, t in order if kind == "fwd"]
        bwd = [t for kind, t in order if kind == "bwd"]
        assert bwd == list(reversed(fwd))

    def test_branch_off_the_loss_path_is_never_replayed(self):
        replayed = []
        original = Tape.record

        def spying_record(self, out, fn, _orig=original):
            def wrapped(g):
                replayed.append(out)
                fn(g)

            _orig(self, out, wrapped)

        x = Tensor([1.0, 2.0], requires_grad=True)
        Tape.record = spying_record
        try:
            with Tape():
                live = T.mul(x, x)
                dead = T.relu(T.scale(x, 3.0))   # a second branch the loss does not use
                loss = T.tsum(live)
                backward(loss)
        finally:
            Tape.record = original
        assert len(replayed) == 2 and replayed[0] is loss and replayed[1] is live
        assert dead.grad is None
        assert np.array_equal(x.grad, [2.0, 4.0])


class TestGradCheckExamples:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert grad_check(lambda t: T.tsum(T.mul(t, t)), x) < 1e-9

    def test_softmax_conservation(self):
        # analytic gradient of sum(softmax(x)) is exactly zero
        x = Tensor(np.random.default_rng(1).normal(size=5), requires_grad=True)
        with Tape():
            backward(T.tsum(T.softmax(x, axis=0)))
        assert np.abs(x.grad).max() < 1e-12

    def test_dice_loss_gradient(self):
        rng = np.random.default_rng(2)
        tgt = (rng.random((4, 4)) > 0.5).astype(np.float64)
        err = grad_check(lambda t: T.bce_dice_loss(t, tgt, 0.0, 1.0), Tensor(rng.normal(size=(4, 4))))
        assert err < 1e-4

    def test_non_finite_reported_with_coordinate(self):
        def f(t):
            return T.tsum(T.mul(t, t))  # 1e200 squared overflows to inf

        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="coordinate"):
            grad_check(f, Tensor([1.0, 1e200, 2.0]))


class TestPerOpGradients:
    """Every primitive, checked against central differences on random instances."""

    @pytest.mark.parametrize("case", range(10))
    def test_random_instances(self, case):
        rng = np.random.default_rng(100 + case)
        head = Tensor(rng.normal(size=(3, 4)))
        ops = [
            lambda x: T.tsum(T.mul(T.add(x, head), head)),
            lambda x: T.tsum(T.mul(T.mul(x, head), head)),
            lambda x: T.tsum(T.mul(T.scale(x, -1.7), head)),
            lambda x: T.tsum(T.mul(T.relu(x), head)),
            lambda x: T.tsum(T.mul(T.reshape(T.transpose2d(x), (3, 4)), head)),
        ]
        x = Tensor(rng.normal(size=(3, 4)))
        for f in ops:
            assert grad_check(f, Tensor(x.data.copy())) < 1e-4


def _sigmoid(z):
    pos = z >= 0
    r = np.empty_like(z)
    r[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    r[~pos] = ez / (1.0 + ez)
    return r


def amplify_chain(f, p, head, normalize):
    """The composed amplification in plain numpy: add, mul, tsum(axis=2), then,
    if normalize, tsum, scale(1/n), add_scalar(1e-12), recip and
    mul_scalar_t, then scale_pixels; the gradients of sum(y * head) replay
    those ops' backward rules in reverse order and accumulate as they did.
    Returns (y, d fbar, d pbar)."""
    s = f + p
    sq = s * s
    raw = np.sum(sq, axis=2)
    a = raw
    if normalize:
        total = np.asarray(np.sum(raw))
        mean = np.asarray(total * (1.0 / raw.size))
        r = np.asarray(1.0 / np.asarray(mean + 1e-12))
        a = raw * r.reshape(())
    y = f * a[:, :, None]
    g = head  # the gradient sum(y * head) sends to y
    df = g * a[:, :, None]
    ga = np.sum(g * f, axis=2)
    graw = ga
    if normalize:
        graw = ga * r.reshape(())
        gr = np.asarray(np.sum(ga * raw)).reshape(r.shape)
        gtotal = (-gr * r * r) * (1.0 / raw.size)
        graw = graw + np.broadcast_to(gtotal, raw.shape).copy()
    gsq = np.broadcast_to(np.expand_dims(graw, 2), sq.shape).copy()
    ds = gsq * s
    ds = ds + gsq * s
    return y, df + ds, ds


def normalize_rows_chain(x, head):
    """scale_rows(x, recip(tsum(x, axis=1))) and the gradient of sum(y * head)."""
    inv = 1.0 / np.sum(x, axis=1)
    y = x * inv[:, None]
    g = head
    dx = g * inv[:, None]
    grs = -np.sum(g * x, axis=1) * inv * inv
    return y, dx + np.broadcast_to(np.expand_dims(grs, 1), x.shape).copy()


def bce_dice_chain(z, t, w_bce, w_dice):
    """The composed matched-mask loss in plain numpy: bce_with_logits, tmean,
    the row dice (sigmoid, mul, tsums, add, scale, add_scalar, recip, neg),
    the weighted tsums and their add; then the loss gradient, the dice part
    before the BCE part as the tape accumulated them. Returns (loss, d logits)."""
    c = 1.0 / z.shape[1]
    bce = np.sum(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z))), axis=1) * c
    y = _sigmoid(z)
    inter = np.sum(y * t, axis=1)
    num = inter * 2.0 + 1.0
    rden = 1.0 / ((np.sum(y, axis=1) + np.sum(t, axis=1)) + 1.0)
    q = num * rden
    dice = q * -1.0 + 1.0
    loss = (np.asarray(np.asarray(np.sum(bce)) * w_bce)
            + np.asarray(np.asarray(np.sum(dice)) * w_dice))
    g = np.ones_like(np.asarray(loss))
    gd = np.broadcast_to(g * w_dice, dice.shape).copy()
    gb = np.broadcast_to(g * w_bce, bce.shape).copy()
    gq = gd * -1.0
    grden = gq * num
    ginter = (gq * rden) * 2.0
    gden = -grden * rden * rden
    gy = np.broadcast_to(np.expand_dims(gden, 1), z.shape).copy()
    gy = gy + np.broadcast_to(np.expand_dims(ginter, 1), z.shape).copy() * t
    dz = gy * y * (1.0 - y)
    gbl = np.broadcast_to(np.expand_dims(gb * c, 1), z.shape).copy()
    return loss, dz + gbl * (_sigmoid(z) - t)


def _same_bits(got, want, dtype):
    for a, b in zip(got, want):
        assert np.asarray(a).dtype == np.asarray(b).dtype == dtype
        assert np.array_equal(a, b)


class TestSingleNodeMechanisms:
    """amplify_stage, normalize_rows and bce_dice_loss equal the composed
    chains they replace, value and every gradient, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # the desk model's coarse and 64x128 fine stages, and a 96x160 image's
    # coarsest stage, whose pixel count is no power of two
    @pytest.mark.parametrize("shape", [(2, 4, 64), (16, 32, 64), (3, 5, 64)])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_amplify_stage(self, dtype, shape, normalize):
        rng = np.random.default_rng(shape[0] + normalize)
        fd, pd, head = (rng.normal(size=shape).astype(dtype) for _ in range(3))
        f, p = Tensor(fd, requires_grad=True), Tensor(pd, requires_grad=True)
        with Tape():
            y = T.amplify_stage(f, p, normalize)
            backward(T.tsum(T.mul(y, Tensor(head))))
        _same_bits((y.data, f.grad, p.grad), amplify_chain(fd, pd, head, normalize), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_normalize_rows(self, dtype):
        rng = np.random.default_rng(8)
        xd = rng.uniform(0.01, 1.0, size=(8, 128)).astype(dtype)
        head = rng.normal(size=(8, 128)).astype(dtype)
        x = Tensor(xd, requires_grad=True)
        with Tape():
            y = T.normalize_rows(x)
            backward(T.tsum(T.mul(y, Tensor(head))))
        _same_bits((y.data, x.grad), normalize_rows_chain(xd, head), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("g", [1, 4])
    @pytest.mark.parametrize("w_bce,w_dice", [(5.0, 5.0), (0.7, 1.3)])
    def test_bce_dice_loss(self, dtype, g, w_bce, w_dice):
        rng = np.random.default_rng(g)
        zd = (rng.normal(size=(g, 128)) * 4.0).astype(dtype)
        t = (rng.random((g, 128)) > 0.5).astype(np.float64)
        z = Tensor(zd, requires_grad=True)
        with Tape():
            loss = T.bce_dice_loss(z, t, w_bce, w_dice)
            backward(loss)
        _same_bits((loss.data, z.grad), bce_dice_chain(zd, t.astype(dtype), w_bce, w_dice), dtype)

    def test_each_records_one_tape_node(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        with Tape() as tape:
            T.amplify_stage(x, x, True)
            T.normalize_rows(T.reshape(x, (6, 4)))
            T.bce_dice_loss(T.reshape(x, (6, 4)), np.ones((6, 4)), 1.0, 1.0)
            assert len(tape) == 5

    @pytest.mark.parametrize("call,msg", [
        (lambda: T.amplify_stage(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))), r"\[h, w, C\]"),
        (lambda: T.normalize_rows(Tensor(np.ones(3))), "2-D"),
        (lambda: T.bce_dice_loss(Tensor(np.zeros((2, 3))), np.zeros((3, 2)), 1.0, 1.0), "same shape"),
    ])
    def test_bad_shapes_rejected(self, call, msg):
        with pytest.raises(ValueError, match=msg):
            call()


def test_dtype_preserved_float32():
    x = Tensor(np.ones((2, 2), dtype=np.float32))
    y = T.add(x, x)
    assert y.data.dtype == np.float32


def _weighted_run(f, arrays, head):
    """f's value and the gradient of sum(f * head) w.r.t. each operand."""
    ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape():
        y = f(*ts)
        backward(T.tsum(T.mul(y, Tensor(head))))
    return y.data, [t.grad for t in ts]


def _close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


LEADING_AXIS_CASES = {
    # name: (op, per-sample operand shapes, shapes of operands every sample shares)
    "conv2d": (lambda x, w, b: T.conv2d(x, w, 2, 1, b), [(6, 8, 2)], [(3, 3, 2, 4), (4,)]),
    "conv2d 4x4 stride 4": (lambda x, w: T.conv2d(x, w, 4, 0), [(8, 8, 3)], [(4, 4, 3, 2)]),
    "upsample": (T.upsample_bilinear2x, [(2, 3, 2)], []),
    "amplify normalized": (lambda f, p: T.amplify_stage(f, p, True), [(2, 3, 4), (2, 3, 4)], []),
    "amplify raw": (lambda f, p: T.amplify_stage(f, p, False), [(2, 3, 4), (2, 3, 4)], []),
    "attention weights": (T.attention_weights, [(4, 5), (6, 5)], []),
    "matmul of stacks": (lambda a, b, c: T.matmul(a, b, c), [(4, 5), (5, 2)], [(2,)]),
    "matmul by a weight": (lambda a, w: T.matmul(a, w), [(2, 4, 5)], [(5, 2)]),
    "transpose2d": (T.transpose2d, [(4, 5)], []),
    "normalize rows": (T.normalize_rows, [(4, 5)], []),
    "softmax": (lambda x: T.softmax(x, axis=-1), [(4, 5)], []),
    "layer norm": (T.layer_norm, [(4, 5)], [(5,), (5,)]),
}


class TestLeadingAxes:
    """A batch of 3 through one op equals the op on each sample alone: values
    and per-sample gradients per sample, shared-operand gradients summed."""

    @pytest.mark.parametrize("name", sorted(LEADING_AXIS_CASES))
    def test_batch_equals_per_sample(self, name):
        f, batched, shared = LEADING_AXIS_CASES[name]
        rng = np.random.default_rng(sum(map(ord, name)))
        xb = [rng.uniform(0.5, 1.5, size=(3, *s)) for s in batched]
        xs = [rng.uniform(0.5, 1.5, size=s) for s in shared]
        y_shape = f(*(Tensor(a) for a in (*xb, *xs))).shape
        head = rng.normal(size=y_shape)
        y, grads = _weighted_run(f, [*xb, *xs], head)
        ones = [_weighted_run(f, [*(a[b] for a in xb), *xs], head[b]) for b in range(3)]
        for b, (y_b, grads_b) in enumerate(ones):
            _close(y[b], y_b)
            for g, g_b in zip(grads[:len(xb)], grads_b):
                _close(g[b], g_b)
        for i in range(len(xb), len(xb) + len(xs)):
            _close(grads[i], sum(g_b[i] for _, g_b in ones))

    def test_gather_rows_picks_per_row(self):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(3, 5, 2))
        idx = np.array([[4, 0, 4], [1, 2, 3], [0, 0, 0]])
        head = rng.normal(size=(3, 3, 2))
        y, (g,) = _weighted_run(lambda t: T.gather_rows(t, idx), [x], head)
        for b in range(3):
            y_b, (g_b,) = _weighted_run(lambda t: T.gather_rows(t, idx[b]), [x[b]], head[b])
            assert np.array_equal(y[b], y_b) and np.array_equal(g[b], g_b)

    def test_expand_shares_one_tensor_and_sums_its_gradient(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(4, 5))
        head = rng.normal(size=(3, 2, 4, 5))
        y, (g,) = _weighted_run(lambda t: T.expand(t, (3, 2)), [x], head)
        assert np.array_equal(y, np.broadcast_to(x, (3, 2, 4, 5)))
        assert np.array_equal(g, head.sum(axis=(0, 1)))

    def test_mismatched_leading_axes_rejected(self):
        with pytest.raises(ValueError, match="batch axes lead a"):
            T.matmul(Tensor(np.zeros((2, 4, 5))), Tensor(np.zeros((3, 5, 2))))
        with pytest.raises(ValueError, match="same leading axes"):
            T.attention_weights(Tensor(np.zeros((2, 4, 5))), Tensor(np.zeros((3, 6, 5))))
        with pytest.raises(ValueError, match="same leading axes"):
            T.gather_rows(Tensor(np.zeros((2, 4, 5))), np.zeros((3, 1), dtype=np.int64))
