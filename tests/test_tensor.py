"""Tensor engine: forward oracles, tape semantics, gradient rules."""

import tracemalloc
import weakref

import numpy as np
import pytest

from nightseg import tensor as T
from nightseg.gradcheck import grad_check
from nightseg.layers import Conv2dLayer, Linear, TokenSelfAttention
from nightseg.matcher import select_reliable
from nightseg.selftest import (ABSORBED_RTOL, ATTENTION_CASES, BLOCK_CASES, CONV_CASES,
                               attention_block_replay, attention_blocks_replay,
                               attention_weights_replay,
                               check_attention_block_node, check_attention_softmax,
                               check_conv2d_oracle, check_feed_forward_block_node,
                               check_matmul_oracle, check_upsample_oracle, norm_replay,
                               self_block, weights_replay)
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
        check_matmul_oracle()

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def biased_run(f, operands, head):
    """Value and operand gradients of sum(f(*operands) * head) on fresh tensors."""
    ts = [None if d is None else Tensor(d.copy(), requires_grad=True) for d in operands]
    with Tape():
        y = f(*ts)
        backward(y, head)
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


def weights_of(logits):
    """attention_weights of the query [[1.0]] against one-feature keys: the
    softmax of the logit vector itself (1 * x and x / sqrt(1) are exact)."""
    return T.attention_weights(np.array([[1.0]]), np.asarray(logits)[:, None])[0]


class TestSoftmax:
    """The row softmax that ends attention_weights. The direct formula, the
    overflow guard and the row sums are one selftest check."""

    def test_uniform_input(self):
        out = weights_of([0.0, 0.0, 0.0])
        assert np.abs(out - 1 / 3).max() < 1e-15

    def test_large_logit_no_overflow(self):
        check_attention_softmax()

    def test_matches_direct_formula(self):
        check_attention_softmax()

    def test_rows_sum_to_one_sweep(self):
        check_attention_softmax()


class TestAttentionWeights:
    """The plain-array weights the top-K choice reads."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m,l,c", [(6, 6, 4), (64, 64, 64), (5, 9, 3), (8, 2048, 64),
                                       (2048, 16, 64)])
    def test_equals_composed_ops_bit_for_bit(self, dtype, m, l, c):
        rng = np.random.default_rng(m * 7 + l + c)
        qd = (rng.normal(size=(m, c)) * 3.0).astype(dtype)
        kd = (rng.normal(size=(l, c)) * 3.0).astype(dtype)
        head = rng.normal(size=(m, l)).astype(dtype)
        got = T.attention_weights(qd, kd)
        want = attention_weights_replay(qd, kd, head)[0]
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("qs,ks,msg", [
        ((2, 5), (4, 4), "inner extents differ"),
        ((2, 3, 1), (4, 3), "expects 2-D operands"),
        ((2, 3), (3,), "expects 2-D operands"),
    ])
    def test_bad_shapes_rejected(self, qs, ks, msg):
        with pytest.raises(ValueError, match=msg):
            T.attention_weights(np.zeros(qs), np.zeros(ks))


def reliable(k):
    """attention_block's choice of the top-k reliable keys."""
    return lambda w: select_reliable(w, k)


def block_operands(seed, x_shape, src_shape):
    """x, src, W_Q, W_K, W_V, W_O [C, C], b_O, a gain and a shift [C], drawn
    from a normal generator seeded with seed."""
    rng = np.random.default_rng(seed)
    c = x_shape[-1]
    return [rng.normal(size=s) for s in (x_shape, src_shape, *[(c, c)] * 4, (c,), (c,), (c,))]


def close_to_chain(got, want):
    """A float64 attention_block gradient matches its unabsorbed chain's."""
    assert np.abs(got - want).max() <= ABSORBED_RTOL[np.float64] * np.abs(want).max()


def zeros_block(xs, ss, select=None):
    """attention_block on zeros, from x of shape xs to src of shape ss, with
    [C, C] weights and [C] b_O, gain and shift for x's C."""
    c = xs[-1]
    ws = [Tensor(np.zeros(s)) for s in [(c, c)] * 4 + [(c,)] * 3]
    return T.attention_block(Tensor(np.zeros(xs)), Tensor(np.zeros(ss)), *ws, select)


class TestBridgedSimilarity:
    """attention_block's reliable bridge on the tape; its values and
    gradients against the unabsorbed numpy replay are in
    TestSingleNodeMechanisms."""

    def test_one_tensor_in_every_role(self):
        # x is the queries and the source of the pixel queries, keys and values
        xd, _, *ws = block_operands(3, (7, 4), (7, 4))
        head = np.random.default_rng(4).normal(size=(7, 4))
        x = Tensor(xd.copy(), requires_grad=True)
        with Tape():
            backward(T.attention_block(x, x, *map(Tensor, ws), reliable(3)), head)
        close_to_chain(x.grad, attention_block_replay(xd, None, *ws, head, k=3)[1])

    def test_shared_key_accumulates_both_gradients(self):
        # prototypes and pixels are soft-assigned over one key set, so W_K
        # takes the key gradients of both sides
        xd, srcd, wq, wk, wv, wo, bo, gamma, beta = ops = block_operands(4, (3, 4), (6, 4))
        head = np.random.default_rng(5).normal(size=(3, 4))
        _, grads = _weighted_run(lambda *t: T.attention_block(*t, reliable(5)), ops, head)
        q, q_pix, keys, v = xd @ wq, srcd @ wq, srcd @ wk, srcd @ wv
        idx = select_reliable(weights_replay(q, keys), 5)
        kr = keys[idx]
        ya, yb = weights_replay(q, kr), weights_replay(q_pix, kr)
        gs = norm_replay(xd + ((ya @ yb.T) @ v) @ wo + bo, gamma, beta, head)[1]
        gw = (gs @ wo.T) @ v.T
        sides = (attention_weights_replay(q_pix, kr, (ya.T @ gw).T)[2],
                 attention_weights_replay(q, kr, gw @ yb)[2])

        def wk_grad(dkr):
            dk = np.zeros(keys.shape)
            dk[idx] += dkr
            return srcd.T @ dk

        close_to_chain(grads[3], wk_grad(sides[0] + sides[1]))
        assert min(np.abs(grads[3] - wk_grad(side)).max() for side in sides) > 1e-6

    @pytest.mark.parametrize("wrt", ["queries", "pixel queries", "keys"])
    def test_gradient_matches_finite_differences(self, wrt):
        # the prototypes, the pixels, and W_K, which reaches the output only
        # through the reliable keys
        ops = [Tensor(a) for a in block_operands(5, (3, 4), (6, 4))]
        head = np.random.default_rng(6).normal(size=(3, 4))
        i = {"queries": 0, "pixel queries": 1, "keys": 3}[wrt]
        err = grad_check(lambda t: T.attention_block(*ops[:i], t, *ops[i + 1:], reliable(5)),
                         Tensor(ops[i].data.copy()), head)
        assert err < 1e-4

    def test_no_downstream_gradient_leaves_grads_unset(self):
        # a node no gradient reaches is skipped
        x, src = (Tensor(np.ones(s), requires_grad=True) for s in ((2, 3), (5, 3)))
        ws = [Tensor(np.ones(s)) for s in [(3, 3)] * 4 + [(3,)] * 3]
        y = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            T.attention_block(x, src, *ws, reliable(4))
            backward(T.add(y, y), np.ones(2))
        assert x.grad is None and src.grad is None

    def test_records_one_tape_node(self):
        x, src = (Tensor(np.ones(s), requires_grad=True) for s in ((2, 3), (5, 3)))
        ws = [Tensor(np.ones(s), requires_grad=True) for s in [(3, 3)] * 4 + [(3,)] * 3]
        with Tape() as tape:
            T.attention_block(x, src, *ws, reliable(4))
            assert len(tape) == 1

    # the shapes of x and src, and the indices select gives
    @pytest.mark.parametrize("shapes,msg", [
        (((2, 5), (6, 4), [0]), "inner extents differ"),
        (((2, 2, 4), (2, 6, 3), [[0], [1]]), "inner extents differ"),
        (((2, 4), (4,), [0]), "expects 2-D operands"),
        (((2, 2, 4), (3, 4, 4), [[0], [1]]), "same leading axes"),
        (((2, 4), (6, 4), []), "empty reliable set"),
        (((2, 2, 4), (2, 6, 4), [0, 1]), "same leading axes"),
        (((2, 4), (6, 4), [6]), "index out of range"),
    ])
    def test_bad_shapes_rejected(self, shapes, msg):
        xs, ss, idx = shapes
        with pytest.raises(ValueError, match=msg):
            zeros_block(xs, ss, lambda w: np.array(idx, np.int64))


def blocks_match_whole_product(lead, m, l, c, dtype):
    """attention_blocks_replay, the attention in attention_block's replay,
    equals the whole composed weights·V, value and every gradient: bit for
    bit in one block, and to rounding (1e-5 in float32, 1e-13 in float64,
    relative) over several."""
    rng = np.random.default_rng(m + l + c)
    qd, kd = ((rng.normal(size=lead + s) * 3.0).astype(dtype) for s in ((m, c), (l, c)))
    vd, head = (rng.normal(size=lead + s).astype(dtype) for s in ((l, c), (m, c)))
    w, dq, dk = attention_weights_replay(qd, kd, head @ np.swapaxes(vd, -1, -2))
    whole = (w @ vd, dq, dk, np.swapaxes(w, -1, -2) @ head)
    blocks = attention_blocks_replay(qd, kd, vd, head)
    if m <= T._ATTENTION_ROWS:
        _same_bits(blocks, whole, dtype)
    tol = 1e-5 if dtype == np.float32 else 1e-13
    for got, want in zip(blocks, whole):
        assert np.abs(got - want).max() <= tol * np.abs(want).max()


class TestAttention:
    """attention_block's softmax(q kᵀ/√C) v, on blocks of _ATTENTION_ROWS query rows."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # one row block with and without batch axes; the 128x256 model's 1/8 stage
    # over a batch of 2 and its 1/4 stage (four and sixteen blocks of 128
    # rows); eight prototype queries over 2048 pixel keys
    @pytest.mark.parametrize("lead,m,l,c", [
        ((), 5, 7, 3), ((3,), 5, 7, 3), ((2, 2), 6, 4, 3), ((2,), 512, 512, 64),
        ((), 2048, 2048, 64), ((), 8, 2048, 64)])
    def test_equals_composed_ops_bit_for_bit(self, dtype, lead, m, l, c):
        check_attention_block_node([(lead, m, l, None, c, False)], (dtype,))
        blocks_match_whole_product(lead, m, l, c, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_short_last_block(self, dtype, lead):
        # 600 tokens end in a short block, 600 % T._ATTENTION_ROWS rows (88
        # at 128 or 256 rows a block). BLAS may evaluate the short block's
        # products with another kernel than the 600-row ones
        check_attention_block_node([(lead, 600, None, None, 16, False)], (dtype,))
        blocks_match_whole_product(lead, 600, 600, 16, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kept_log_sum_exp(self, dtype):
        # one-hot queries read each row's logits straight from a column of the
        # sources (1 * z and 0 * z add up exactly), so the kept row
        # log-sum-exp is checked against a float64 logaddexp.reduce of those
        # very logits: rows of equal logits, rows spanning ±1e3 and plain
        # draws, 300 rows in three blocks, the last one short
        rng = np.random.default_rng(16)
        m, n = 300, 40
        z = np.concatenate([np.repeat(rng.uniform(-5.0, 5.0, size=(2, 100, 1)), n, axis=-1),
                            rng.uniform(-1e3, 1e3, size=(2, 100, n)),
                            rng.normal(size=(2, 100, n)) * 3.0], axis=1).astype(dtype)
        z[:, 100:200, :2] = [1e3, -1e3]
        q = np.broadcast_to(np.eye(m, dtype=dtype), (2, m, m)).copy()
        s = np.swapaxes(z, -1, -2).copy()   # [2, n, m]: row i of q picks z[:, i]
        out, lse = T._attention_forward(q, s)
        want = np.logaddexp.reduce(z.astype(np.float64), axis=-1)[..., None]
        assert lse.shape == (2, m, 1) and lse.dtype == dtype
        tol = n * np.finfo(dtype).eps * np.maximum(1.0, np.abs(want))
        assert (np.abs(lse - want) <= tol).all(), np.abs(lse - want).max()
        g = rng.normal(size=out.shape).astype(dtype)
        dq, ds = T._attention_backward(g, q, s, lse, out)
        for a in (out, dq, ds):
            assert a.dtype == dtype and np.isfinite(a).all()

    @staticmethod
    def _self_attention_2048(requires_grad):
        # 2048 float32 tokens of width 8: the [2048, 2048] weights would take
        # 16 MiB, a row block 1 MiB
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2048, 8)).astype(np.float32), requires_grad=requires_grad)
        ws = [Tensor(rng.normal(size=(8, 8)).astype(np.float32)) for _ in range(4)]
        norm = [Tensor(np.ones(8, np.float32)), Tensor(np.zeros(8, np.float32))]
        return x, ws + norm, rng.normal(size=(2048, 8)).astype(np.float32)

    def test_off_tape_the_weights_exist_one_block_at_a_time(self):
        x, ws, _ = self._self_attention_2048(False)
        tracemalloc.start()
        try:
            self_block(x, *ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_on_a_tape_the_weights_exist_one_block_at_a_time(self):
        # the backward recomputes each block's weights: until it has run, the
        # node holds the rows' log-sum-exp, not the 16 MiB [2048, 2048] buffer
        x, ws, head = self._self_attention_2048(True)
        tracemalloc.start()
        try:
            with Tape():
                y = self_block(x, *ws)
                held = tracemalloc.get_traced_memory()[0]
                backward(y, head)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held < 4 * 2**20, held
        assert peak < 8 * 2**20, peak

    def test_self_attention_shares_one_tensor(self):
        # x is its own source, and one weight is W_Q, W_K, W_V and W_O
        xd, _, wd, *_, gamma, beta = block_operands(3, (7, 4), (7, 4))
        head = np.random.default_rng(4).normal(size=(7, 4))
        x, w = Tensor(xd.copy(), requires_grad=True), Tensor(wd.copy(), requires_grad=True)
        with Tape():
            backward(self_block(x, w, w, w, w, Tensor(gamma), Tensor(beta)), head)
        _, dx, dwq, dwk, dwv, dwo, _, _ = attention_block_replay(xd, None, wd, wd, wd, wd, None,
                                                                 gamma, beta, head)
        close_to_chain(x.grad, dx)
        close_to_chain(w.grad, dwo + dwv + dwk + dwq)

    def test_records_one_tape_node(self):
        x = Tensor(np.ones((2, 4, 3)), requires_grad=True)
        ws = [Tensor(np.ones(s)) for s in [(3, 3)] * 4 + [(3,)] * 2]
        with Tape() as tape:
            self_block(x, *ws)
            assert len(tape) == 1

    # the shapes of x, src and W_V
    @pytest.mark.parametrize("qs,ks,vs,msg", [
        ((2, 5), (4, 4), (5, 5), "inner extents differ"),
        ((2, 3, 1), (4, 1), (1, 1), "expects 2-D operands"),
        ((2, 3), (4, 3), (5, 2), "weights must be"),
        ((2, 2, 3), (2, 4, 3), (3, 2), "weights must be"),
    ])
    def test_bad_shapes_rejected(self, qs, ks, vs, msg):
        c = qs[-1]
        ws = [Tensor(np.zeros(s)) for s in [(c, c), (c, c), vs, (c, c), (c,), (c,), (c,)]]
        with pytest.raises(ValueError, match=msg):
            T.attention_block(Tensor(np.zeros(qs)), Tensor(np.zeros(ks)), *ws)


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

    @pytest.mark.parametrize("stride,pad", CONV_CASES)
    def test_matches_nested_loop_oracle(self, stride, pad):
        check_conv2d_oracle([(stride, pad)])

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
        check_upsample_oracle()


def square(x):
    """x @ xᵀ for a one-row x [1, n]: the scalar sum of squares, as a [1, 1] tensor."""
    return T.matmul(x, T.transpose2d(x))


class TestBackward:
    def test_sum_gives_ones(self):
        # a seed of ones is the gradient of the sum of the output
        x = Tensor([1.0, 5.0, -2.0], requires_grad=True)
        with Tape():
            backward(T.reshape(x, (3, 1)), np.ones((3, 1)))
        assert np.array_equal(x.grad, np.ones(3))

    def test_quadratic(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape():
            backward(square(x))
        assert np.array_equal(x.grad, np.array([[2.0, 4.0]]))

    def test_composite_conv_softmax_sum_matches_fd(self):
        # the rows of the attention softmax sum to one, so with every value
        # row equal no gradient reaches the conv input of the keys
        rng = np.random.default_rng(0)
        kernel = rng.normal(size=(3, 3, 2, 3))
        kernel[..., 2] = 0.0   # channel 2 is its bias, 1, at every pixel
        conv_w, conv_b = Tensor(kernel), Tensor([0.0, 0.0, 1.0])
        x = Tensor(rng.normal(size=(4, 4, 2)), requires_grad=True)
        wk = np.diag([1.0, 1.0, 0.0])   # the keys read channels 0 and 1
        wv = np.zeros((3, 3))
        wv[2] = [1.0, 2.0, 3.0]         # every value row is [1, 2, 3]
        eye = Tensor(np.eye(3))
        head = np.array([[1.0, -2.0, 0.5]])

        def block():
            src = T.reshape(T.conv2d(x, conv_w, 1, 1, conv_b), (16, 3))
            return T.attention_block(Tensor([[1.0, 0.5, 0.0]]), src, eye, Tensor(wk), Tensor(wv),
                                     eye, None, Tensor(np.ones(3)), Tensor(np.zeros(3)))

        with Tape():
            backward(block(), head)
        assert np.abs(x.grad).max() < 1e-12
        h = 1e-5
        flat = x.data.reshape(-1)
        keep = flat[0]
        flat[0] = keep + h
        fp = np.sum(block().data * head)
        flat[0] = keep - h
        fm = np.sum(block().data * head)
        flat[0] = keep
        assert abs((fp - fm) / (2 * h)) < 1e-9

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            y = T.add(x, x)
            with pytest.raises(ValueError, match="scalar"):
                backward(y)

    def test_loss_off_tape_rejected(self):
        x = Tensor([[1.0]], requires_grad=True)
        y = square(x)  # no active tape
        with pytest.raises(ValueError, match="tape"):
            backward(y)

    def test_tape_consumed_after_backward(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            y = square(x)
            backward(y)
            assert len(tape) == 0
            with pytest.raises(RuntimeError, match="consumed"):
                tape.run(y)

    def test_each_node_is_released_once_it_has_run(self):
        # an array only the last node's closure holds is freed before the
        # node recorded ahead of it runs
        x = Tensor([1.0, -2.0], requires_grad=True)
        private = np.array([3.0, 4.0])
        alive = weakref.ref(private)
        seen = []
        with Tape() as tape:
            h = T.relu(x)
            tape.record(h, lambda g: seen.append(alive() is None))
            y = Tensor(h.data * private, requires_grad=True)

            def bwd(g, w=private):
                h.grad = g * w

            tape.record(y, bwd)
            y.tape = tape
            del private, bwd
            backward(y, np.ones(2))
        assert seen == [True]
        assert np.array_equal(x.grad, [3.0, 0.0])

    def test_every_requires_grad_ancestor_gets_grad(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 3)), requires_grad=False)
        with Tape():
            backward(T.add(T.matmul(a, b), c), c.data)
        assert a.grad is not None and a.grad.shape == a.shape
        assert b.grad is not None and b.grad.shape == b.shape
        assert c.grad is None

    def test_fanout_accumulates(self):
        x = Tensor([[3.0]], requires_grad=True)
        with Tape():
            backward(T.add(square(x), square(x)))
        assert np.allclose(x.grad, [[12.0]])

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

        x = Tensor([[1.0, 2.0]], requires_grad=True)
        Tape.record = spying_record
        try:
            with Tape():
                backward(T.relu(square(x)))
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
                live = T.add(x, x)
                dead = T.relu(T.reshape(x, (2, 1)))   # a second branch the loss does not use
                loss = T.relu(live)
                backward(loss, np.array([1.0, 3.0]))
        finally:
            Tape.record = original
        assert len(replayed) == 2 and replayed[0] is loss and replayed[1] is live
        assert dead.grad is None
        assert np.array_equal(x.grad, [2.0, 6.0])

    def test_seed_equals_the_projection_it_replaces(self):
        # the gradients of sum(y * h), once taken through a product and a sum node
        rng = np.random.default_rng(6)
        for dtype in (np.float32, np.float64):
            xd, wd = rng.normal(size=(4, 3)).astype(dtype), rng.normal(size=(3, 5)).astype(dtype)
            head = rng.normal(size=(4, 5)).astype(dtype)
            x, w = Tensor(xd, requires_grad=True), Tensor(wd, requires_grad=True)
            with Tape():
                backward(T.matmul(x, w), head)
            g = np.broadcast_to(np.ones((), dtype), head.shape).copy() * head
            assert x.grad.dtype == dtype and np.array_equal(x.grad, g @ wd.T)
            assert np.array_equal(w.grad, xd.T @ g)

    def test_seed_is_copied_in_the_output_dtype(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        head = np.full((2, 3), 0.1)
        with Tape():
            y = T.relu(x)
            backward(y, head)
        assert y.grad is not head and y.grad.dtype == np.float32
        assert np.array_equal(x.grad, head.astype(np.float32))

    @pytest.mark.parametrize("shape", [(3, 2), (6,), (1, 2, 3), ()])
    def test_seed_of_another_shape_rejected(self, shape):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape():
            y = T.relu(x)
            with pytest.raises(ValueError, match=r"backward: seed .* does not match output \(2, 3\)"):
                backward(y, np.ones(shape))
        assert y.grad is None and x.grad is None


class TestGradCheckExamples:
    def test_sum_of_squares(self):
        x = Tensor([[1.0, 2.0, 3.0]])
        assert grad_check(square, x) < 1e-9

    def test_softmax_conservation(self):
        # every attention row sums to one, so with every value row equal the
        # queries and keys, and so W_Q and W_K, get no gradient
        rng = np.random.default_rng(1)
        xd, srcd, wq, wk, _, wo, bo, gamma, beta = block_operands(1, (3, 4), (5, 4))
        srcd[:, 0] = 1.0
        wv = np.zeros((4, 4))
        wv[0] = 1.0   # every value row is ones
        wq, wk = Tensor(wq, requires_grad=True), Tensor(wk, requires_grad=True)
        with Tape():
            backward(T.attention_block(Tensor(xd), Tensor(srcd), wq, wk, Tensor(wv), Tensor(wo),
                                       Tensor(bo), Tensor(gamma), Tensor(beta)),
                     rng.normal(size=(3, 4)))
        assert np.abs(wq.grad).max() < 1e-12 and np.abs(wk.grad).max() < 1e-12

    def test_dice_loss_gradient(self):
        # the dice term alone, on each of 4 prototype planes over 2x2 pixels
        rng = np.random.default_rng(2)
        tgt = (rng.random((4, 4)) > 0.5).astype(np.float64)
        picks = [[0, 0], [0, 1], [0, 2], [0, 3]]
        err = grad_check(lambda t: T.mask_classification_loss(
            t, Tensor(np.zeros((4, 2))), picks, tgt, np.zeros(4, int), 0.0, 1.0, 0.0),
            Tensor(rng.normal(size=(2, 2, 4))))
        assert err < 1e-4

    def test_non_finite_reported_with_coordinate(self):
        # 1e200 squared overflows to inf
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="coordinate"):
            grad_check(square, Tensor([[1.0, 1e200, 2.0]]))


class TestPerOpGradients:
    """Every primitive, checked against central differences on random instances."""

    @pytest.mark.parametrize("case", range(10))
    def test_random_instances(self, case):
        rng = np.random.default_rng(100 + case)
        head = rng.normal(size=(3, 4))
        ops = [
            lambda x: T.add(x, Tensor(head)),
            T.relu,
            lambda x: T.reshape(T.transpose2d(x), (3, 4)),
        ]
        x = Tensor(rng.normal(size=(3, 4)))
        for f in ops:
            assert grad_check(f, Tensor(x.data.copy()), head) < 1e-4


def _sigmoid(z):
    pos = z >= 0
    r = np.empty_like(z)
    r[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    r[~pos] = ez / (1.0 + ez)
    return r


def amplify_chain(f, p, head):
    """The composed amplification in plain numpy: add, mul, tsum(axis=2),
    tsum, scale(1/n), add_scalar(1e-12), recip, mul_scalar_t, then
    scale_pixels; the gradients of sum(y * head) replay those ops' backward
    rules in reverse order and accumulate as they did.
    Returns (y, d fbar, d pbar)."""
    s = f + p
    sq = s * s
    raw = np.sum(sq, axis=2)
    total = np.asarray(np.sum(raw))
    mean = np.asarray(total * (1.0 / raw.size))
    r = np.asarray(1.0 / np.asarray(mean + 1e-12))
    a = raw * r.reshape(())
    y = f * a[:, :, None]
    g = head  # the gradient sum(y * head) sends to y
    df = g * a[:, :, None]
    ga = np.sum(g * f, axis=2)
    graw = ga * r.reshape(())
    gr = np.asarray(np.sum(ga * raw)).reshape(r.shape)
    gtotal = (-gr * r * r) * (1.0 / raw.size)
    graw = graw + np.broadcast_to(gtotal, raw.shape).copy()
    gsq = np.broadcast_to(np.expand_dims(graw, 2), sq.shape).copy()
    ds = gsq * s
    ds = ds + gsq * s
    return y, df + ds, ds


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


def mask_classification_chain(m, c, picks, t, classes, w_bce, w_dice, w_cls):
    """The composed loss path in plain numpy: reshape, transpose2d and reshape
    of the mask logits, gather_rows of the picked planes and bce_dice_chain on
    them; reshape of the class logits and the row CE; their add. Then the
    gradients: the planes' rows scattered into zeros, a repeated pick added
    twice, and back through the transpose; the CE rows' softmax less the
    one-hot target. Returns (loss, d mask logits, d class logits)."""
    *lead, h, w, n = m.shape
    b = int(np.prod(lead))
    planes = np.swapaxes(m.reshape(b, h * w, n), 1, 2).reshape(b * n, h * w)
    rows = picks[:, 0] * n + picks[:, 1]
    mask_loss, dz = bce_dice_chain(planes[rows], t, w_bce, w_dice)
    dplanes = np.zeros(planes.shape, dz.dtype)
    np.add.at(dplanes, rows, dz)
    zc, idx = c.reshape(-1, c.shape[-1]), classes.reshape(-1)
    r = np.arange(len(zc))
    zmax = np.max(zc, axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.sum(np.exp(zc - zmax), axis=1))
    ce = np.asarray(np.mean(lse - zc[r, idx])) * w_cls
    pc = np.exp(zc - zmax)
    pc /= np.sum(pc, axis=1, keepdims=True)
    pc[r, idx] -= 1.0
    dc = pc * (float(np.ones((), c.dtype) * w_cls) / len(zc))
    return (np.asarray(mask_loss + ce),
            np.swapaxes(dplanes.reshape(b, n, h * w), 1, 2).reshape(m.shape), dc.reshape(c.shape))


def _same_bits(got, want, dtype):
    for a, b in zip(got, want):
        assert np.asarray(a).dtype == np.asarray(b).dtype == dtype
        assert np.array_equal(a, b)


BLOCK_NODE_CHECKS = {
    "self-attention block": lambda cases: check_attention_block_node(
        [(lead, m, None, None, c, shared) for lead, m, c, shared in cases]),
    "feed-forward block": check_feed_forward_block_node}


class TestBlockNodes:
    """attention_block matches its unabsorbed chain to ABSORBED_RTOL, and
    feed_forward_block equals its chain bit for bit, value and every
    gradient, in float32 and float64, each as one tape node."""

    @pytest.mark.parametrize("case", BLOCK_CASES, ids=str)
    @pytest.mark.parametrize("name", sorted(BLOCK_NODE_CHECKS))
    def test_equals_composed_chain_bit_for_bit(self, name, case):
        BLOCK_NODE_CHECKS[name]([case])

    @pytest.mark.parametrize("name", sorted(BLOCK_NODE_CHECKS))
    def test_model_widths(self, name):
        # the 128x256 model's 1/8 decoder stage over a batch of 2, and the
        # matcher's 8 shared prototypes
        BLOCK_NODE_CHECKS[name]([((2,), 512, 64, False), ((2,), 8, 64, True)])

    # prototypes attending to pixels, plainly and through the reliable bridge
    @pytest.mark.parametrize("case", [c for c in ATTENTION_CASES if c[2] is not None], ids=str)
    def test_cross_attention_equals_composed_chain_bit_for_bit(self, case):
        check_attention_block_node([case])

    def test_self_attention_block_keeps_one_weight_block(self):
        # beyond its input, the node keeps its output, the attention output,
        # the norm's xhat and inv and one [2, 128, 512] block of weights,
        # about 1.3 MiB; not q, k, v, their W_O product or the residual sum
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 512, 64)).astype(np.float32), requires_grad=True)
        attn = TokenSelfAttention(rng, 64, np.float32)
        tracemalloc.start()
        try:
            with Tape():
                before = tracemalloc.get_traced_memory()[0]
                attn(x)
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        kept = 3 * x.data.nbytes + 2 * 512 * 4 + 2 * T._ATTENTION_ROWS * 512 * 4
        assert held < kept + 64 * 2**10, (held, kept)

    def test_self_attention_block_keeps_only_the_log_sum_exp(self):
        # beyond its input, the node keeps its output, the attention output,
        # the norm's xhat and inv and the [2, 512, 1] row log-sum-exp: no
        # [2, 128, 512] block of weights (512 KiB)
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 512, 64)).astype(np.float32), requires_grad=True)
        attn = TokenSelfAttention(rng, 64, np.float32)
        tracemalloc.start()
        try:
            with Tape():
                before = tracemalloc.get_traced_memory()[0]
                attn(x)
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        kept = 3 * x.data.nbytes + 2 * (2 * 512 * 4)
        assert held < kept + 64 * 2**10, (held, kept)

    @staticmethod
    def _prototypes_over_pixels():
        # 8 prototypes over the 2048 pixels of a 128x256 image, batch 2
        rng = np.random.default_rng(12)
        x, src = (Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                  for s in ((2, 8, 64), (2, 2048, 64)))
        ws = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
              for s in [(64, 64)] * 4 + [(64,)] * 3]
        return x, src, ws, rng.normal(size=(2, 8, 64)).astype(np.float32)

    @pytest.mark.parametrize("k", [16, None], ids=["reliable", "vanilla"])
    def test_cross_attention_block_keeps_no_source_map(self, k):
        # the node keeps the reliable rows with their [2, K, 64] products, or
        # the rows' [2, 8, 1] log-sum-exp, under a quarter of one
        # [2, 2048, 64] map; the backward recomputes the [2, 2048, K] factor
        x, src, ws, _ = self._prototypes_over_pixels()
        tracemalloc.start()
        try:
            with Tape():
                before = tracemalloc.get_traced_memory()[0]
                T.attention_block(x, src, *ws, None if k is None else reliable(k))
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < src.data.nbytes / 4, held

    @pytest.mark.parametrize("k", [16, None], ids=["reliable", "vanilla"])
    def test_cross_attention_block_projects_no_source_map(self, k):
        # absorbed into W_QK and W_VO, the projections of the [2, 2048, 64]
        # pixels are never formed: the forward's transients stay under half
        # such a map, and the backward's, beyond d src, under one more
        x, src, ws, head = self._prototypes_over_pixels()
        one_map = src.data.nbytes
        tracemalloc.start()
        try:
            with Tape():
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                y = T.attention_block(x, src, *ws, None if k is None else reliable(k))
                forward = tracemalloc.get_traced_memory()[1] - before
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                backward(y, head)
                back = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert src.grad.shape == src.shape
        assert forward < one_map / 2, forward
        assert back < 2 * one_map, back

    def test_conv2d_keeps_its_input_not_its_windows(self):
        # a 3x3 kernel over [2, 64, 64, 8]: the windows are nine inputs, 2.25 MiB
        # in float32; beyond x, which its closure holds, the node keeps only its
        # output, one input's size
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 64, 64, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 8, 8)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            with Tape():
                before = tracemalloc.get_traced_memory()[0]
                y = T.conv2d(x, w, 1, 1)
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < y.data.nbytes + x.data.nbytes, held

    def test_amplify_stage_keeps_no_sum(self):
        # beyond its output it keeps the [2, 32, 32] map and its unscaled sums,
        # not the [2, 32, 32, 64] sum fbar + pbar
        rng = np.random.default_rng(14)
        f, p = (Tensor(rng.normal(size=(2, 32, 32, 64)).astype(np.float32), requires_grad=True)
                for _ in range(2))
        tracemalloc.start()
        try:
            with Tape():
                before = tracemalloc.get_traced_memory()[0]
                y = T.amplify_stage(f, p)
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < y.data.nbytes + f.data.nbytes / 4, held

    def test_attention_backward_writes_dq_over_q(self):
        # 300 query rows: three blocks, the last one short; each block's d s
        # share must read its q rows before d q lands. The queries come
        # scaled by 1/sqrt(C) = 0.25, the scale weights_replay applies, and
        # the gradients are those of the scaled queries' logits. The sources
        # s are the keys and the values, so d s sums both shares
        rng = np.random.default_rng(15)
        q, s = (rng.normal(size=(2, n, 16)) for n in (300, 40))
        qs = q * 0.25
        out, lse = T._attention_forward(qs, s)
        g = rng.normal(size=out.shape)
        private = qs.copy()
        dq, ds = T._attention_backward(g, private, s, lse, out)
        assert dq is private
        w = weights_replay(q, s)
        gw = g @ np.swapaxes(s, -1, -2)
        gs = (gw - np.sum(gw * w, axis=-1, keepdims=True)) * w
        np.testing.assert_allclose(dq, gs @ s, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ds, np.swapaxes(gs, -1, -2) @ qs + np.swapaxes(w, -1, -2) @ g,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("call,msg", [
        (lambda z: T.attention_block(z((2, 3)), z((2, 3)), *[z((3, 3))] * 4, None, z((2,)),
                                     z((3,))), r"gain/shift must"),
        (lambda z: self_block(z((3,)), *[z((3, 3))] * 4, z((3,)), z((3,))),
         r"tokens \[\.\.\., M, C\]"),
        (lambda z: self_block(z((2, 3)), *[z((3, 3))] * 3, z((3, 2)), z((3,)), z((3,))),
         r"weights must be \(3, 3\)"),
        (lambda z: T.attention_block(z((2, 3)), z((4, 3)), *[z((3, 3))] * 4, z((2,)), z((3,)),
                                     z((3,))), "attention_block: bias"),
        (lambda z: T.feed_forward_block(z((2, 3)), z((3, 6)), z((6,)), z((3, 6)), z((3,)),
                                        z((3,)), z((3,))), r"weights must be"),
        (lambda z: T.feed_forward_block(z((2, 3)), z((3, 6)), z((3,)), z((6, 3)), z((3,)),
                                        z((3,)), z((3,))), "bias"),
    ])
    def test_bad_shapes_rejected(self, call, msg):
        with pytest.raises(ValueError, match=msg):
            call(lambda shape: Tensor(np.zeros(shape)))


class TestSingleNodeMechanisms:
    """amplify_stage and mask_classification_loss equal the composed chains
    they replace, value and every gradient, bit for bit; the reliable bridge
    of attention_block matches its unabsorbed chain to ABSORBED_RTOL."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # the desk model's coarse and 64x128 fine stages, and a 96x160 image's
    # coarsest stage, whose pixel count is no power of two
    @pytest.mark.parametrize("shape", [(2, 4, 64), (16, 32, 64), (3, 5, 64)])
    def test_amplify_stage(self, dtype, shape):
        rng = np.random.default_rng(shape[0])
        fd, pd, head = (rng.normal(size=shape).astype(dtype) for _ in range(3))
        f, p = Tensor(fd, requires_grad=True), Tensor(pd, requires_grad=True)
        with Tape():
            y = T.amplify_stage(f, p)
            backward(y, head)
        _same_bits((y.data, f.grad, p.grad), amplify_chain(fd, pd, head), dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # the desk model's 8 prototypes over its 128 pixels and 32 reliable
    # points, alone and over a batch of 2
    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_bridged_similarity(self, dtype, lead):
        check_attention_block_node([(lead, 8, 128, 32, 64, False)], (dtype,))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # g planes picked: one of one image, or four over a batch of 3 with one
    # plane picked twice; the desk model's 8 prototypes over 8x16 pixels
    @pytest.mark.parametrize("g", [1, 4])
    @pytest.mark.parametrize("w_bce,w_dice", [(5.0, 5.0), (0.7, 1.3)])
    def test_bce_dice_loss(self, dtype, g, w_bce, w_dice):
        rng = np.random.default_rng(g)
        lead, picks = ((), np.array([[0, 5]])) if g == 1 else (
            (3,), np.array([[0, 1], [2, 6], [1, 0], [2, 6]]))
        md = (rng.normal(size=lead + (8, 16, 8)) * 4.0).astype(dtype)
        cd = (rng.normal(size=lead + (8, 5)) * 3.0).astype(dtype)
        t = (rng.random((g, 128)) > 0.5).astype(np.float64)
        classes = rng.integers(0, 5, size=lead + (8,))
        m, c = Tensor(md, requires_grad=True), Tensor(cd, requires_grad=True)
        with Tape():
            loss = T.mask_classification_loss(m, c, picks, t, classes, w_bce, w_dice, 2.0)
            backward(loss)
        _same_bits((loss.data, m.grad, c.grad),
                   mask_classification_chain(md, cd, picks, t.astype(dtype), classes, w_bce,
                                             w_dice, 2.0), dtype)

    def test_each_records_one_tape_node(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        with Tape() as tape:
            T.amplify_stage(x, x)
            rows = T.reshape(x, (6, 4))
            ws = [Tensor(np.eye(4))] * 4 + [Tensor(np.zeros(4)), Tensor(np.ones(4)),
                                             Tensor(np.zeros(4))]
            T.attention_block(rows, rows, *ws, reliable(3))
            T.mask_classification_loss(x, Tensor(np.ones((4, 3))), [[0, 1]], np.ones((1, 6)),
                                       np.zeros(4, int), 1.0, 1.0, 1.0)
            assert len(tape) == 4

    @pytest.mark.parametrize("call,msg", [
        (lambda: T.amplify_stage(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3)))), r"\[h, w, C\]"),
        (lambda: zeros_block((2, 3), (3,), reliable(1)), "2-D"),
    ] + [(lambda m=m, c=c, p=p, t=t, k=k: T.mask_classification_loss(
        Tensor(np.zeros(m)), Tensor(np.zeros(c)), p, np.zeros(t), k, 1.0, 1.0, 1.0), msg)
        for m, c, p, t, k, msg in [
            ((2, 3), (3, 2), [[0, 0]], (1, 2), [0, 0, 0], "expects mask logits"),
            ((2, 2, 3), (4, 2), [[0, 0]], (1, 4), [0, 0, 0], "expects mask logits"),
            ((2, 2, 3), (3, 2), [[0, 0]], (1, 3), [0, 0, 0], "expects mask logits"),
            ((2, 2, 3), (3, 2), [[0, 0]], (2, 4), [0, 0, 0], "expects mask logits"),
            ((2, 2, 3), (3, 2), [0, 0], (1, 4), [0, 0, 0], "expects mask logits"),
            ((2, 2, 3), (3, 2), [[0, 0]], (1, 4), [0, 0], "expects mask logits"),
            ((2, 2, 3), (3, 2), [[1, 0]], (1, 4), [0, 0, 0], "pick out of range"),
            ((2, 2, 2, 3), (2, 3, 2), [[0, 3]], (1, 4), [[0] * 3] * 2, "pick out of range"),
            ((2, 2, 3), (3, 2), [[0, -1]], (1, 4), [0, 0, 0], "pick out of range"),
            ((2, 2, 3), (3, 2), [[0, 0]], (1, 4), [0, 2, 0], "class index out of range"),
            ((2, 2, 3), (3, 2), [[0, 0]], (1, 4), [0, -1, 0], "class index out of range"),
        ]])
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
        backward(y, head)
    return y.data, [t.grad for t in ts]


def _close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


LEADING_AXIS_CASES = {
    # name: (op, per-sample operand shapes, shapes of operands every sample shares)
    "conv2d": (lambda x, w, b: T.conv2d(x, w, 2, 1, b), [(6, 8, 2)], [(3, 3, 2, 4), (4,)]),
    "conv2d 4x4 stride 4": (lambda x, w: T.conv2d(x, w, 4, 0), [(8, 8, 3)], [(4, 4, 3, 2)]),
    "upsample": (T.upsample_bilinear2x, [(2, 3, 2)], []),
    "amplify normalized": (T.amplify_stage, [(2, 3, 4), (2, 3, 4)], []),
    "bridged similarity": (lambda x, src, *w: T.attention_block(x, src, *w, reliable(3)),
                           [(4, 5), (6, 5)], [(5, 5)] * 4 + [(5,)] * 3),
    "attention": (T.attention_block, [(4, 5), (6, 5)], [(5, 5)] * 4 + [(5,)] * 3),
    "matmul of stacks": (lambda a, b, c: T.matmul(a, b, c), [(4, 5), (5, 2)], [(2,)]),
    "matmul by a weight": (lambda a, w: T.matmul(a, w), [(2, 4, 5)], [(5, 2)]),
    "transpose2d": (T.transpose2d, [(4, 5)], []),
    "self-attention block": (self_block, [(4, 5)], [(5, 5)] * 4 + [(5,), (5,)]),
    "feed-forward block": (T.feed_forward_block, [(4, 5)],
                           [(5, 10), (10,), (10, 5), (5,), (5,), (5,)]),
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

    def test_loss_picks_planes_per_image(self):
        # the loss on a batch of 3 is the sum of its images' losses, each with
        # its own picks, one plane picked twice, and the CE mean over 3 N rows
        rng = np.random.default_rng(40)
        m, c = rng.normal(size=(3, 2, 3, 5)), rng.normal(size=(3, 5, 4))
        picks = np.array([[0, 4], [2, 1], [0, 0], [0, 4], [1, 2]])
        t = (rng.random((5, 6)) > 0.5).astype(np.float64)
        classes = rng.integers(0, 4, size=(3, 5))

        def loss(m, c, picks, t, classes, w_cls):
            return T.mask_classification_loss(m, c, picks, t, classes, 1.5, 2.5, w_cls)

        y, (gm, gc) = _weighted_run(
            lambda m, c: loss(m, c, picks, t, classes, 0.9), [m, c], np.ones(()))
        total = 0.0
        for b in range(3):
            mine = picks[:, 0] == b
            one = np.stack([np.zeros(mine.sum(), int), picks[mine, 1]], axis=1)
            y_b, (gm_b, gc_b) = _weighted_run(
                lambda m, c: loss(m, c, one, t[mine], classes[b], 0.3), [m[b], c[b]], np.ones(()))
            total += y_b
            _close(gm[b], gm_b)
            _close(gc[b], gc_b)
        _close(y, np.asarray(total))

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
            T.attention_weights(np.zeros((2, 4, 5)), np.zeros((3, 6, 5)))
        with pytest.raises(ValueError, match="expects mask logits"):
            T.mask_classification_loss(Tensor(np.zeros((2, 2, 3, 5))), Tensor(np.zeros((3, 5, 4))),
                                       [[0, 0]], np.zeros((1, 6)), np.zeros((3, 5), int),
                                       1.0, 1.0, 1.0)
