"""Reliable matching: similarities, scores, top-K, bridging, layer recipe."""

import numpy as np
import pytest

from nightseg.gradcheck import grad_check
from nightseg.layers import glorot_uniform
from nightseg.matcher import (ReliableMatcher, ReliableMatcherLayer,
                              bridged_similarity, select_reliable)
from nightseg.tensor import Tensor, attention_weights
from nightseg import tensor as T


def make_proj(seed, c=4):
    """Query and key weights [c, c]."""
    rng = np.random.default_rng(seed)
    return (glorot_uniform(rng, (c, c), c, c, np.float64),
            glorot_uniform(rng, (c, c), c, c, np.float64))


def soft(rows):
    e = np.exp(rows - rows.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cross_similarity(p, fa, wq, wk):
    """The vanilla prototype-to-pixel weights a matcher layer forms."""
    return attention_weights(T.matmul(p, wq), T.matmul(fa, wk))


class TestCrossSimilarity:
    def test_zero_logits_uniform_rows(self):
        wq, wk = make_proj(0)
        sim = cross_similarity(Tensor(np.zeros((3, 4))), Tensor(np.zeros((6, 4))), wq, wk)
        assert np.abs(sim.data - 1 / 6).max() < 1e-12

    def test_dominating_key_gives_one_hot(self):
        c = 4
        fa = np.zeros((5, c))
        fa[3] = 100.0
        sim = attention_weights(Tensor(np.ones((2, c))), Tensor(fa))
        assert sim.data[:, 3].min() > 1 - 1e-9

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(1)
        wq, wk = make_proj(2)
        p = rng.normal(size=(3, 4))
        fa = rng.normal(size=(6, 4))
        sim = cross_similarity(Tensor(p), Tensor(fa), wq, wk).data
        want = soft((p @ wq.data) @ (fa @ wk.data).T / 2.0)
        assert np.abs(sim - want).max() < 1e-10

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inner extents"):
            attention_weights(Tensor(np.zeros((2, 5))), Tensor(np.zeros((4, 4))))


class TestReliableScores:
    """The reliable score of a pixel is its column sum of the similarity."""

    def test_uniform_sim(self):
        # equal scores everywhere: the tie-break takes the first pixels
        assert select_reliable(Tensor(np.full((2, 4), 0.25)), 2).tolist() == [0, 1]

    def test_total_equals_prototype_count(self):
        rng = np.random.default_rng(4)
        wq, wk = make_proj(5)
        sim = cross_similarity(Tensor(rng.normal(size=(7, 4))),
                               Tensor(rng.normal(size=(9, 4))), wq, wk)
        assert sim.data.sum(axis=0).sum() == pytest.approx(7.0, abs=1e-5)

    def test_matches_column_sum_loop(self):
        rng = np.random.default_rng(6)
        sim = rng.uniform(size=(5, 8))
        want = np.array([sum(sim[n, m] for n in range(5)) for m in range(8)])
        order = sorted(range(8), key=lambda m: (-want[m], m))
        assert select_reliable(Tensor(sim), 8).tolist() == order


class TestSelectReliable:
    def test_argtop(self):
        assert select_reliable(Tensor([[0.5, 2.0, 1.0, 0.3]]), 2).tolist() == [1, 2]

    def test_tie_break_ascending_index(self):
        assert select_reliable(Tensor([[1.0, 1.0, 1.0, 1.0]]), 2).tolist() == [0, 1]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sim = rng.normal(size=(3, 20))
            scores = sim.sum(axis=0)
            want = sorted(range(20), key=lambda i: (-scores[i], i))[:5]
            assert select_reliable(Tensor(sim), 5).tolist() == want

    def test_k_out_of_range_rejected(self):
        # K = 0 would leave the bridge with an empty reliable set
        for k in (0, 5):
            with pytest.raises(ValueError, match="outside"):
                select_reliable(Tensor(np.ones((2, 4))), k)

    def test_full_k_returns_all_pixels(self):
        rng = np.random.default_rng(8)
        sim = rng.uniform(0.1, 1.0, size=(2, 6))
        assert sorted(select_reliable(Tensor(sim), 6).tolist()) == list(range(6))

    def test_batch_rows_choose_alone_with_the_same_tie_break(self):
        sim = np.array([[[1.0, 1.0, 1.0, 1.0]],
                        [[0.5, 2.0, 2.0, 0.5]],
                        [[3.0, 1.0, 3.0, 3.0]]])
        got = select_reliable(Tensor(sim), 2)
        assert got.tolist() == [[0, 1], [1, 2], [0, 2]]
        for b in range(3):
            assert np.array_equal(got[b], select_reliable(Tensor(sim[b]), 2))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        sim = rng.normal(size=(4, 30))
        a = select_reliable(Tensor(sim), 7)
        b = select_reliable(Tensor(sim.copy()), 7)
        assert np.array_equal(a, b)


def reliable_inputs(seed_data, seed_proj, n, hw, k):
    """(p, fa, q, q_pix, kr, idx, wq, wk) for a reliable bridge over random inputs."""
    rng = np.random.default_rng(seed_data)
    wq, wk = make_proj(seed_proj)
    p = Tensor(rng.normal(size=(n, 4)))
    fa = Tensor(rng.normal(size=(hw, 4)))
    q, q_pix = T.matmul(p, wq), T.matmul(fa, wq)
    idx = select_reliable(attention_weights(q, T.matmul(fa, wk)), k)
    kr = T.matmul(T.gather_rows(fa, idx), wk)
    return p, fa, q, q_pix, kr, idx, wq, wk


class TestBridgedSimilarity:
    def test_k1_all_ones(self):
        _, _, q, q_pix, kr, _, _, _ = reliable_inputs(10, 11, 3, 6, 1)
        assert np.abs(attention_weights(q, kr).data - 1.0).max() < 1e-12
        assert np.abs(attention_weights(q_pix, kr).data - 1.0).max() < 1e-12
        assert np.abs(bridged_similarity(q, q_pix, kr).data - 1.0).max() < 1e-12

    def test_disjoint_one_hot_supports_give_zero(self):
        # orthogonal one-hot rows: prototype routed to point 0, pixel to point 1
        sim_q = np.array([[1.0, 0.0]])
        sim_k = np.array([[0.0, 1.0]])
        assert (sim_q @ sim_k.T)[0, 0] == 0.0

    def test_matches_composed_oracle_and_range(self):
        p, fa, q, q_pix, kr, idx, wq, wk = reliable_inputs(12, 13, 3, 8, 4)
        sim_qk = bridged_similarity(q, q_pix, kr).data

        fr = fa.data[idx]
        want_q = soft((p.data @ wq.data) @ (fr @ wk.data).T / 2.0)
        want_k = soft((fa.data @ wq.data) @ (fr @ wk.data).T / 2.0)
        assert np.abs(attention_weights(q, kr).data - want_q).max() < 1e-10
        assert np.abs(attention_weights(q_pix, kr).data - want_k).max() < 1e-10
        assert np.abs(sim_qk - want_q @ want_k.T).max() < 1e-10
        assert sim_qk.min() >= 0.0
        assert sim_qk.max() <= 1.0 + 1e-9

    def test_renormalized_rows_sum_to_one(self):
        _, _, q, q_pix, kr, _, _, _ = reliable_inputs(14, 15, 3, 8, 3)
        sim_qk = bridged_similarity(q, q_pix, kr, renormalize=True)
        assert np.abs(sim_qk.data.sum(axis=1) - 1.0).max() < 1e-9

    def test_empty_reliable_set_rejected(self):
        _, _, q, q_pix, kr, _, _, _ = reliable_inputs(16, 17, 2, 5, 2)
        empty = T.gather_rows(kr, np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            bridged_similarity(q, q_pix, empty)


class TestMatcherLayer:
    def test_output_shape(self):
        rng = np.random.default_rng(21)
        layer = ReliableMatcherLayer(rng, 6, k=4)
        out = layer(Tensor(rng.normal(size=(5, 6))), Tensor(rng.normal(size=(9, 6))))
        assert out.shape == (5, 6)

    @pytest.mark.parametrize("mode", ["reliable", "vanilla"])
    def test_pixel_permutation_invariance(self, mode):
        rng = np.random.default_rng(22)
        layer = ReliableMatcherLayer(rng, 6, k=4, mode=mode)
        p = Tensor(rng.normal(size=(4, 6)))
        fa = rng.normal(size=(10, 6))
        base = layer(p, Tensor(fa)).data
        for trial in range(10):
            perm = np.random.default_rng(100 + trial).permutation(10)
            out = layer(p, Tensor(fa[perm])).data
            assert np.abs(out - base).max() < 1e-9

    @pytest.mark.parametrize("mode,renormalize", [("reliable", False), ("reliable", True),
                                                  ("vanilla", False)])
    def test_cross_update_matches_numpy_oracle(self, mode, renormalize):
        rng = np.random.default_rng(31)
        layer = ReliableMatcherLayer(rng, 4, k=3, mode=mode, renormalize=renormalize)
        layer.out_proj.w.data = rng.normal(size=(4, 4))  # let the update reach the output
        p = rng.normal(size=(3, 4))
        fa = rng.normal(size=(7, 4))
        got = layer(Tensor(p), Tensor(fa)).data

        p1 = layer.attn_in(Tensor(p)).data
        wq, wk, wv = layer.wq.data, layer.wk.data, layer.wv.data
        weights = soft((p1 @ wq) @ (fa @ wk).T / 2.0)
        if mode == "reliable":
            scores = weights.sum(axis=0)
            idx = sorted(range(7), key=lambda i: (-scores[i], i))[:3]
            kr = fa[idx] @ wk
            weights = soft((p1 @ wq) @ kr.T / 2.0) @ soft((fa @ wq) @ kr.T / 2.0).T
            if renormalize:
                weights = weights / weights.sum(axis=1, keepdims=True)
        upd = (weights @ (fa @ wv)) @ layer.out_proj.w.data + layer.out_proj.b.data
        p2 = layer.norm_cross(Tensor(p1 + upd))
        want = layer.ffn(layer.attn_out(p2)).data
        assert np.abs(got - want).max() < 1e-9

    def test_gradient_reaches_everything(self):
        rng = np.random.default_rng(23)
        layer = ReliableMatcherLayer(rng, 4, k=3)
        fa0 = np.random.default_rng(24).normal(size=(7, 4))
        head = Tensor(np.random.default_rng(25).normal(size=(3, 4)))

        def f_p(t):
            return T.tsum(T.mul(layer(t, Tensor(fa0)), head))

        assert grad_check(f_p, Tensor(np.random.default_rng(26).normal(size=(3, 4)))) < 1e-4

        p0 = np.random.default_rng(27).normal(size=(3, 4))

        def f_fa(t):
            return T.tsum(T.mul(layer(Tensor(p0), t), head))

        assert grad_check(f_fa, Tensor(fa0.copy())) < 1e-4

        def f_wq(t):
            layer.wq = t
            return T.tsum(T.mul(layer(Tensor(p0), Tensor(fa0)), head))

        assert grad_check(f_wq, Tensor(layer.wq.data.copy())) < 1e-4

    def test_vanilla_uniform_sim_gives_mean_value(self):
        rng = np.random.default_rng(28)
        layer = ReliableMatcherLayer(rng, 4, k=2, mode="vanilla")
        # zero prototypes after self-attention still give uniform sim rows,
        # so the cross update is the mean of the value rows
        fa = rng.normal(size=(6, 4))
        p1 = layer.attn_in(Tensor(np.zeros((3, 4))))
        sim = cross_similarity(p1, Tensor(fa), layer.wq, layer.wk)
        if np.abs(sim.data - 1 / 6).max() < 1e-9:
            upd = sim.data @ (fa @ layer.wv.data)
            want = (fa @ layer.wv.data).mean(axis=0)
            assert np.abs(upd - want).max() < 1e-9

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ReliableMatcherLayer(np.random.default_rng(0), 4, k=2, mode="windowed")


class TestMatcherStack:
    def test_prototype_count_and_output_shape(self):
        rng = np.random.default_rng(29)
        m = ReliableMatcher(rng, num_prototypes=5, width=6, k=3, num_layers=2)
        out = m(Tensor(rng.normal(size=(11, 6))))
        assert out.shape == (5, 6)
        assert m.prototypes.data.std() < 0.1  # init scale 0.02

    def test_parameter_names_unique(self):
        m = ReliableMatcher(np.random.default_rng(30), 4, 6, 3, num_layers=3)
        names = [n for n, _ in m.parameters()]
        assert len(names) == len(set(names))
