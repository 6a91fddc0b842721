"""Amplified decoder: projections, amplification, attention, fusion shapes."""

import numpy as np
import pytest

from nightseg import tensor as T
from nightseg.decoder import HierarchicalAmplifiedDecoder
from nightseg.gradcheck import grad_check
from nightseg.layers import Pyramid, TokenSelfAttention
from nightseg.selftest import (check_amplify_oracle, check_attention_permutation, norm_replay,
                               weights_replay)
from nightseg.tensor import Tensor


def unit_norm(x):
    """LayerNorm over the last axis with unit gain and zero shift."""
    c = x.shape[-1]
    return norm_replay(x, np.ones(c), np.zeros(c), np.zeros_like(x))[0]


def _pyramids(rng, h5=1, w5=2, cf=(7, 6, 5, 4), cp=(5, 4, 3, 2), zero=False):
    make = (lambda s: np.zeros(s)) if zero else (lambda s: rng.normal(size=s))
    fp = Pyramid(stages=[Tensor(make((h5 * 2 ** i, w5 * 2 ** i, cf[i]))) for i in range(4)])
    pp = Pyramid(stages=[Tensor(make((h5 * 2 ** i, w5 * 2 ** i, cp[i]))) for i in range(4)])
    return fp, pp


def _upsample_to_finest(x):
    for _ in range(3):
        x = T.upsample_bilinear2x(Tensor(x)).data
    return x


def _depth1_oracle(dec, f, p):
    """A depth-1 decoder's output: its stage-0 projections, amplification and
    (zero-initialized W_O, so residual-only) attention, upsampled to the finest stage."""
    lin_f = dec.proj_f[0]
    fbar = f @ lin_f.w.data + lin_f.b.data
    if p is not None:
        lin_p = dec.proj_p[0]
        pbar = p @ lin_p.w.data + lin_p.b.data
        raw = ((fbar + pbar) ** 2).sum(axis=2)
        fbar = fbar * (raw * (1.0 / (raw.mean() + 1e-12)))[:, :, None]
    return _upsample_to_finest(unit_norm(fbar))


class TestProjection:
    """Per-stage projections to the shared width, seen through a depth-1 decoder."""

    def test_identity_initialized_projection_passes_features_through(self):
        rng = np.random.default_rng(0)
        fp, _ = _pyramids(rng, cf=(4, 6, 5, 4))
        dec = HierarchicalAmplifiedDecoder(rng, [4, 6, 5, 4], [5, 4, 3, 2], 4, depth=1,
                                           phase=False)
        dec.proj_f[0].w.data = np.eye(4)
        dec.proj_f[0].b.data[:] = 0.0
        want = _upsample_to_finest(unit_norm(fp.stages[0].data))
        assert np.abs(dec(fp, None).data - want).max() < 1e-12

    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(1)
        fp, pp = _pyramids(rng)
        dec = HierarchicalAmplifiedDecoder(rng, [7, 6, 5, 4], [5, 4, 3, 2], 6, depth=1)
        for lin in (dec.proj_f[0], dec.proj_p[0]):
            lin.w.data[:] = 0.0
            lin.b.data[:] = 0.0
        assert np.abs(dec(fp, pp).data).max() == 0.0

    def test_matches_per_pixel_matmul_oracle(self):
        rng = np.random.default_rng(2)
        fp, pp = _pyramids(rng)
        f, p = fp.stages[0].data, pp.stages[0].data
        for phase in (False, True):
            dec = HierarchicalAmplifiedDecoder(rng, [7, 6, 5, 4], [5, 4, 3, 2], 6, depth=1,
                                               phase=phase)
            for lin in dec.proj_f + (dec.proj_p or []):
                lin.b.data = rng.normal(size=lin.b.data.shape)
            got = dec(fp, pp if phase else None).data
            assert np.abs(got - _depth1_oracle(dec, f, p if phase else None)).max() < 1e-10

    def test_spatial_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        fp, _ = _pyramids(rng)  # coarsest stage 1x2
        _, pp = _pyramids(rng, h5=2, w5=1)  # coarsest stage 2x1
        dec = HierarchicalAmplifiedDecoder(rng, [7, 6, 5, 4], [5, 4, 3, 2], 6)
        with pytest.raises(ValueError, match="misaligned"):
            dec(fp, pp)


class TestAmplifiedMap:
    """The map itself, read off as amplify_stage's per-pixel gain out / fbar."""

    def test_zero_inputs_zero_raw_map(self):
        # the 1e-12 keeps the all-zero map finite
        out = T.amplify_stage(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((2, 2, 3))))
        assert np.abs(out.data).max() == 0.0

    def test_single_channel_hand_value(self):
        f = np.full((1, 2, 1), 1.0)
        p = np.array([[[2.0], [0.0]]])
        out = T.amplify_stage(Tensor(f), Tensor(p))
        # raw map (1+2)^2 = 9 and (1+0)^2 = 1, mean 5
        assert out.data[0, :, 0] == pytest.approx([1.8, 0.2])

    def test_matches_loop_oracle_and_nonnegative(self):
        check_amplify_oracle()

    def test_normalized_map_has_mean_one(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(4, 4, 6))
        out = T.amplify_stage(Tensor(f), Tensor(rng.normal(size=(4, 4, 6))))
        assert (out.data / f).mean() == pytest.approx(1.0, abs=1e-6)


class TestAmplifyStage:
    def test_bundle_carries_map_and_weighted_features(self):
        check_amplify_oracle()

    def test_mismatched_bundle_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            T.amplify_stage(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((2, 3, 3))))

    def test_batch_equals_each_map_alone(self):
        # each map is scaled by its own mean, never by the batch's
        rng = np.random.default_rng(31)
        f = rng.normal(size=(2, 3, 4, 5)) * np.array([1.0, 10.0])[:, None, None, None]
        p = rng.normal(size=(2, 3, 4, 5))
        got = T.amplify_stage(Tensor(f), Tensor(p)).data
        for b in range(2):
            want = T.amplify_stage(Tensor(f[b]), Tensor(p[b])).data
            assert np.abs(got[b] - want).max() <= 1e-12 * np.abs(want).max()


class TestAmplify:
    """Per-pixel reweighting: every channel of pixel (i, j) scaled by a[i, j]."""

    def test_ones_map_is_identity(self):
        rng = np.random.default_rng(6)
        f = rng.integers(-8, 8, size=(3, 4, 2)) / 4.0
        unit = np.zeros((3, 4, 2))
        unit[:, :, 0] = 1.0
        # f + (unit - f) is exactly the unit vector, so the raw map is exactly
        # 1 everywhere and its mean-scaled map is 1 / (1 + 1e-12)
        out = T.amplify_stage(Tensor(f), Tensor(unit - f))
        assert np.allclose(out.data, f, rtol=2e-12, atol=0.0)

    def test_matches_broadcast_loop_oracle(self):
        check_amplify_oracle()


class TestSelfAttention:
    """The attention layer the decoder applies to each stage's h*w pixel tokens."""

    def test_single_token_weight_is_one(self):
        rng = np.random.default_rng(8)
        attn = TokenSelfAttention(rng, 5)
        x = rng.normal(size=(1, 5))
        got = attn(Tensor(x)).data
        # softmax over one element is exactly 1: the layer reduces to the
        # normalized residual path LN(x + (V)Wo)
        want = unit_norm(x + (x @ attn.wv.data) @ attn.wo.data)
        assert np.abs(got - want).max() < 1e-12

    def test_identical_tokens_identical_outputs(self):
        rng = np.random.default_rng(9)
        attn = TokenSelfAttention(rng, 4)
        row = rng.normal(size=4)
        out = attn(Tensor(np.tile(row, (2, 1)))).data
        assert np.abs(out[0] - out[1]).max() < 1e-12

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(10)
        a = TokenSelfAttention(rng, 4)
        a.wo.data = rng.normal(size=(4, 4))  # exercise a nonzero output proj
        t = rng.normal(size=(4, 4))
        got = a(Tensor(t)).data
        att = weights_replay(t @ a.wq.data, t @ a.wk.data)
        want = unit_norm(t + (att @ (t @ a.wv.data)) @ a.wo.data)
        assert np.abs(got - want).max() < 1e-8

    def test_permutation_equivariance(self):
        check_attention_permutation()

    def test_token_budget_enforced(self):
        rng = np.random.default_rng(12)
        attn = TokenSelfAttention(rng, 2)
        with pytest.raises(ValueError, match="4096"):
            attn(Tensor(np.zeros((65 * 64, 2))))


class TestHierarchicalDecode:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_output_extents_equal_finest_stage(self, depth):
        rng = np.random.default_rng(depth)
        fp, pp = _pyramids(rng)
        dec = HierarchicalAmplifiedDecoder(rng, [7, 6, 5, 4], [5, 4, 3, 2], 8, depth=depth)
        out = dec(fp, pp)
        assert out.shape == (8, 16, 8)

    def test_zero_pyramids_zero_output(self):
        rng = np.random.default_rng(20)
        fp, pp = _pyramids(rng, zero=True)
        dec = HierarchicalAmplifiedDecoder(rng, [7, 6, 5, 4], [5, 4, 3, 2], 8, depth=4)
        out = dec(fp, pp)
        assert np.abs(out.data).max() == 0.0

    def test_phase_misalignment_rejected(self):
        rng = np.random.default_rng(21)
        fp, _ = _pyramids(rng)  # coarsest stage 1x2
        bad_pp = Pyramid(
            stages=[Tensor(np.zeros((2 * 2 ** i, 4 * 2 ** i, c)))
                    for i, c in enumerate((5, 4, 3, 2))]  # coarsest stage 2x4
        )
        dec = HierarchicalAmplifiedDecoder(rng, [7, 6, 5, 4], [5, 4, 3, 2], 8)
        with pytest.raises(ValueError, match="misaligned"):
            dec(fp, bad_pp)

    def test_runs_without_phase_pyramid(self):
        rng = np.random.default_rng(22)
        fp, _ = _pyramids(rng)
        dec = HierarchicalAmplifiedDecoder(rng, [7, 6, 5, 4], [5, 4, 3, 2], 8, phase=False)
        out = dec(fp, None)
        assert out.shape == (8, 16, 8)

    def test_phase_pyramid_must_match_the_projections(self):
        rng = np.random.default_rng(24)
        fp, pp = _pyramids(rng)
        with_phase = HierarchicalAmplifiedDecoder(rng, [7, 6, 5, 4], [5, 4, 3, 2], 8)
        without = HierarchicalAmplifiedDecoder(rng, [7, 6, 5, 4], [5, 4, 3, 2], 8, phase=False)
        for dec, arg, msg in ((with_phase, None, "built with phase projections, got no"),
                              (without, pp, "built without phase projections, got a")):
            with pytest.raises(ValueError, match=msg) as exc:
                dec(fp, arg)
            assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("phase", [True, False])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_holds_only_the_weights_its_forward_reads(self, depth, phase):
        # the kept weights are those of a full decoder drawn from the same
        # seed; the rest are drawn too and dropped
        full = HierarchicalAmplifiedDecoder(np.random.default_rng(25), [7, 6, 5, 4],
                                            [5, 4, 3, 2], 8)
        dec = HierarchicalAmplifiedDecoder(np.random.default_rng(25), [7, 6, 5, 4],
                                           [5, 4, 3, 2], 8, depth=depth, phase=phase)
        kinds = ("proj_f", "proj_p", "attention") if phase else ("proj_f", "attention")
        stages = {tuple(n.split(".")[:2]) for n, _ in dec.parameters()}
        assert stages == {(kind, str(s)) for kind in kinds for s in range(depth)}
        by_name = dict(full.parameters())
        for name, p in dec.parameters():
            assert np.array_equal(p.data, by_name[name].data), name

    def test_gradient_reaches_coarsest_stage_and_phase(self):
        rng = np.random.default_rng(23)
        fp, pp = _pyramids(rng)
        dec = HierarchicalAmplifiedDecoder(rng, [7, 6, 5, 4], [5, 4, 3, 2], 6)
        head = rng.normal(size=(8, 16, 6))

        def f_feat(t):
            return dec(Pyramid(stages=[t] + fp.stages[1:]), pp)

        assert grad_check(f_feat, Tensor(fp.stages[0].data.copy()), head) < 1e-4

        def f_phase(t):
            return dec(fp, Pyramid(stages=[t] + pp.stages[1:]))

        assert grad_check(f_phase, Tensor(pp.stages[0].data.copy()), head) < 1e-4

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            HierarchicalAmplifiedDecoder(np.random.default_rng(0), [4] * 4, [3] * 4, 8, depth=5)


def test_feature_pyramid_doubling_enforced():
    with pytest.raises(ValueError, match="2x"):
        Pyramid(stages=[Tensor(np.zeros((2, 2, 1))), Tensor(np.zeros((3, 4, 1)))])
