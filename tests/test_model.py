"""Backbone stub, segmentation head, prediction, pooling."""

import collections
import itertools
from dataclasses import replace

import numpy as np
import pytest

from nightseg import tensor as T
from nightseg.decoder import HierarchicalAmplifiedDecoder
from nightseg.gradcheck import grad_check
from nightseg.model import (BackboneStub, ModelConfig, NightSegModel, SegOutput,
                            majority_pool, predict, segmentation_logits)
from nightseg.scenes import SceneConfig, gen_dataset
from nightseg.selftest import BATCHED_CASES, check_batched_forward_matches_per_sample
from nightseg.tensor import Tensor, backward
from nightseg.train import TrainConfig, load_dataset, train


class TestCheckImageSize:
    # the finest attended decoder stage has (H/32 * 2^(depth-1)) x (W/32 * 2^(depth-1)) tokens
    @pytest.mark.parametrize("depth,h,w,tokens", [
        (4, 128, 256, 2048), (4, 256, 256, 4096), (3, 256, 512, 2048), (1, 2048, 2048, 4096),
        (4, 256, 288, 4608), (4, 256, 512, 8192), (1, 2048, 2080, 4160),
    ])
    def test_attention_token_budget(self, depth, h, w, tokens):
        cfg = ModelConfig(decoder_depth=depth)
        if tokens <= 4096:
            cfg.check_image_size(h, w)
        else:
            with pytest.raises(ValueError, match=f"decoder.depth = {depth} attends over {tokens} "
                                                 f"tokens .* {h}x{w} images"):
                cfg.check_image_size(h, w)


class TestBackbone:
    def test_stride_schedule(self):
        bb = BackboneStub(np.random.default_rng(0), (4, 5, 6, 7))
        fp = bb(Tensor(np.random.default_rng(1).uniform(size=(32, 64, 3))))
        assert [s.shape for s in fp.stages] == [
            (1, 2, 7), (2, 4, 6), (4, 8, 5), (8, 16, 4)]

    def test_zero_weights_zero_pyramid(self):
        bb = BackboneStub(np.random.default_rng(2), (4, 5, 6, 7))
        for _, p in bb.parameters():
            p.data[:] = 0.0
        fp = bb(Tensor(np.random.default_rng(3).uniform(size=(32, 32, 3))))
        for s in fp.stages:
            assert np.abs(s.data).max() == 0.0

    def test_divisibility_precondition(self):
        bb = BackboneStub(np.random.default_rng(4), (4, 5, 6, 7))
        for shape in ((30, 64, 3), (48, 64, 3)):
            with pytest.raises(ValueError, match="divisible by 32"):
                bb(Tensor(np.zeros(shape)))

    def test_gradient_reaches_stem(self):
        bb = BackboneStub(np.random.default_rng(5), (2, 2, 2, 2))
        img = np.random.default_rng(6).uniform(size=(32, 32, 3))
        head = np.random.default_rng(7).normal(size=(1, 1, 2))

        def f(t):
            bb.stage1.w = t
            return bb(Tensor(img)).stages[0]

        assert grad_check(f, Tensor(bb.stage1.w.data.copy()), head) < 1e-4


class TestSegmentationLogits:
    def test_one_hot_features_identity_prototypes(self):
        e = np.zeros((2, 2, 4))
        e[0, 0, 0] = e[0, 1, 1] = e[1, 0, 2] = e[1, 1, 3] = 1.0
        m = segmentation_logits(Tensor(e), Tensor(np.eye(4)))
        assert np.array_equal(m.data.reshape(4, 4), np.eye(4))

    def test_zero_prototypes_zero_logits(self):
        rng = np.random.default_rng(8)
        m = segmentation_logits(Tensor(rng.normal(size=(3, 3, 5))), Tensor(np.zeros((2, 5))))
        assert np.abs(m.data).max() == 0.0

    def test_matches_per_pixel_matmul_oracle(self):
        rng = np.random.default_rng(9)
        e = rng.normal(size=(3, 4, 5))
        p = rng.normal(size=(6, 5))
        got = segmentation_logits(Tensor(e), Tensor(p)).data
        for i in range(3):
            for j in range(4):
                assert np.abs(got[i, j] - p @ e[i, j]).max() < 1e-10

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            segmentation_logits(Tensor(np.zeros((2, 2, 4))), Tensor(np.zeros((3, 5))))


class TestPredict:
    def test_single_prototype_single_class(self):
        out = SegOutput(mask_logits=Tensor(np.full((2, 3, 1), 5.0)),
                        class_logits=Tensor(np.array([[10.0, -10.0]])))
        pred = predict(out, 1)
        assert np.all(pred == 0)

    def test_symmetric_tie_goes_to_lowest_class(self):
        mask_logits = np.zeros((2, 2, 2))
        class_logits = np.zeros((2, 3))
        class_logits[0, 0] = 4.0
        class_logits[1, 1] = 4.0
        out = SegOutput(Tensor(mask_logits), Tensor(class_logits))
        assert np.all(predict(out, 2) == 0)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(10)
        n, k, h, w = 5, 3, 4, 6
        out = SegOutput(Tensor(rng.normal(size=(h, w, n))), Tensor(rng.normal(size=(n, k + 1))))
        got = predict(out, k)
        cz = out.class_logits.data
        probs = np.exp(cz) / np.exp(cz).sum(axis=1, keepdims=True)
        for i in range(h):
            for j in range(w):
                scores = [
                    sum(probs[p, c] / (1 + np.exp(-out.mask_logits.data[i, j, p]))
                        for p in range(n))
                    for c in range(k)
                ]
                assert got[i, j] == int(np.argmax(scores))


class TestMajorityPool:
    def test_uniform_blocks(self):
        m = np.repeat(np.repeat(np.array([[1, 2], [0, 3]]), 4, axis=0), 4, axis=1)
        assert majority_pool(m, 4).tolist() == [[1, 2], [0, 3]]

    def test_majority_and_tie_rule(self):
        block = np.zeros((4, 4), dtype=int)
        block[:2] = 2          # 8 pixels of class 2, 8 of class 0: tie -> 0
        assert majority_pool(block, 4)[0, 0] == 0
        block[2, 0] = 2        # 9 vs 7: majority 2
        assert majority_pool(block, 4)[0, 0] == 2

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            majority_pool(np.zeros((6, 8), dtype=int), 4)


def small_cfg(**kw):
    base = dict(num_classes=3, backbone_widths=(4, 5, 6, 7), phase_widths=(3, 4, 5, 6),
                decoder_channels=8, prototypes=4, reliable_k=4, matcher_layers=1, seed=0)
    base.update(kw)
    return ModelConfig(**base)


class TestFullModel:
    def test_output_contract(self):
        model = NightSegModel(small_cfg())
        rng = np.random.default_rng(11)
        out = model(Tensor(rng.uniform(size=(32, 64, 3))), Tensor(rng.uniform(size=(32, 64, 3))))
        assert out.mask_logits.shape == (8, 16, 4)
        assert out.class_logits.shape == (4, 4)  # classes + no-object

    def test_enhance_none_needs_no_texture(self):
        model = NightSegModel(small_cfg(enhance_op="none"))
        out = model(Tensor(np.random.default_rng(12).uniform(size=(32, 32, 3))), None)
        assert out.mask_logits.shape == (8, 8, 4)

    def test_texture_required_for_phase_mode(self):
        model = NightSegModel(small_cfg())
        with pytest.raises(ValueError, match="texture"):
            model(Tensor(np.zeros((32, 32, 3))), None)

    def test_too_few_prototypes_rejected(self):
        with pytest.raises(ValueError, match="prototypes"):
            NightSegModel(small_cfg(prototypes=2))

    def test_parameter_names_unique_and_dtype(self):
        model = NightSegModel(small_cfg(dtype=np.float32))
        params = model.parameters()
        names = [n for n, _ in params]
        assert len(names) == len(set(names))
        assert all(p.data.dtype == np.float32 for _, p in params)
        assert all(p.requires_grad for _, p in params)

    @pytest.mark.parametrize("depth", [1, 4])
    def test_depth_variants_run(self, depth):
        model = NightSegModel(small_cfg(decoder_depth=depth))
        rng = np.random.default_rng(13)
        out = model(Tensor(rng.uniform(size=(32, 32, 3))), Tensor(rng.uniform(size=(32, 32, 3))))
        assert out.mask_logits.shape == (8, 8, 4)

    def test_vanilla_mode_runs(self):
        model = NightSegModel(small_cfg(matcher_mode="vanilla"))
        rng = np.random.default_rng(14)
        out = model(Tensor(rng.uniform(size=(32, 32, 3))), Tensor(rng.uniform(size=(32, 32, 3))))
        assert np.isfinite(out.mask_logits.data).all()

    def test_tape_nodes_per_step_independent_of_batch(self, tmp_path, monkeypatch):
        # train records one forward and one loss per step over the whole
        # [B, ...] batch, so a step has as many nodes at batch 4 as at batch
        # 1: 66 in either matcher mode, whose 10 self-attention blocks, 3
        # cross updates and 3 feed-forward blocks are one node each, as is
        # the whole loss. Both modes record the same ops, so the mode changes
        # only what the cross update's node computes
        gen_dataset(SceneConfig(), 10, 15, tmp_path)
        ds = load_dataset(tmp_path, "phase")
        counts, ops = {}, {}

        def counting_backward(loss):
            counts.setdefault((mode, batch), []).append(len(loss.tape))
            ops.setdefault(mode, collections.Counter(
                fn.__qualname__ for _, fn in loss.tape._nodes))
            backward(loss)

        monkeypatch.setattr("nightseg.train.backward", counting_backward)
        for mode, batch in itertools.product(("reliable", "vanilla"), (1, 4)):
            model = NightSegModel(ModelConfig(num_classes=ds.num_classes, matcher_mode=mode,
                                              dtype=np.float32))
            train(model, ds, TrainConfig(iters=2, batch=batch, seed=1))
        assert counts == {("reliable", 1): [66] * 2, ("reliable", 4): [66] * 2,
                          ("vanilla", 1): [66] * 2, ("vanilla", 4): [66] * 2}, counts
        assert ops["reliable"] == ops["vanilla"], ops
        assert ops["reliable"]["mask_classification_loss.<locals>.bwd"] == 1, ops

    @pytest.mark.parametrize("mode", ["reliable", "vanilla"])
    def test_every_recorded_node_gets_a_gradient(self, tmp_path, monkeypatch, mode):
        # a node no gradient reaches costs its forward and holds its arrays
        # until backward for nothing
        gen_dataset(SceneConfig(), 6, 15, tmp_path)
        ds = load_dataset(tmp_path, "phase")
        recorded = []
        record = T.Tape.record

        def keeping_record(tape, out, fn):
            recorded.append(out)
            record(tape, out, fn)

        monkeypatch.setattr(T.Tape, "record", keeping_record)
        model = NightSegModel(small_cfg(num_classes=ds.num_classes, matcher_mode=mode,
                                        dtype=np.float32))
        train(model, ds, TrainConfig(iters=1, batch=4, seed=1))
        assert recorded
        dead = [i for i, out in enumerate(recorded) if out.grad is None]
        assert not dead, f"{len(dead)} of {len(recorded)} nodes got no gradient: {dead}"

    @pytest.mark.parametrize("overrides", [
        dict(decoder_depth=1), dict(decoder_depth=2), dict(decoder_depth=3), {},
        dict(enhance_op="sobel"), dict(enhance_op="none"),
        dict(enhance_op="none", decoder_depth=2), dict(matcher_mode="vanilla"),
    ], ids=["depth1", "depth2", "depth3", "default", "sobel", "none", "none-depth2", "vanilla"])
    def test_every_parameter_gets_a_gradient(self, tmp_path, monkeypatch, overrides):
        # a model holds only the weights its forward reads, so a training step
        # reaches each one; the dead ones of a shallower or texture-free model
        # are drawn and dropped, so every kept weight starts as in the model
        # that keeps them all: a depth-4 decoder with phase projections, which
        # for the phase and sobel ops is the default model
        gen_dataset(SceneConfig(), 6, 15, tmp_path)
        ds = load_dataset(tmp_path, overrides.get("enhance_op", "phase"))
        cfg = small_cfg(num_classes=ds.num_classes, matcher_layers=2, dtype=np.float32, **overrides)
        model = NightSegModel(cfg)
        with monkeypatch.context() as patch:
            patch.setattr("nightseg.model.HierarchicalAmplifiedDecoder",
                          lambda *a, **kw: HierarchicalAmplifiedDecoder(*a, **{**kw, "phase": True}))
            full = dict(NightSegModel(replace(cfg, decoder_depth=4)).parameters())
        for name, p in model.parameters():
            assert np.array_equal(p.data, full[name].data), name
        train(model, ds, TrainConfig(iters=1, batch=4, seed=1))
        missing = [name for name, p in model.parameters() if p.grad is None]
        assert not missing, f"{len(missing)} parameters got no gradient: {missing[:3]}"


def _at_path(root, name: str):
    """The object reached from root by a dotted parameter name; numeric parts index lists."""
    obj = root
    for part in name.split("."):
        obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
    return obj


class _Forwarding:
    """Stands in for a layer, forwarding every attribute read to it."""

    __slots__ = ("_target",)

    def __init__(self, target):
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class TestParameterWalk:
    """Every layer's weights are listed by walking its attributes."""

    @pytest.mark.parametrize("enhance_op", ["phase", "none"])
    def test_each_name_is_the_attribute_path_of_its_tensor(self, enhance_op):
        model = NightSegModel(small_cfg(matcher_layers=2, enhance_op=enhance_op))
        params = model.parameters()
        assert any(n.startswith("phase_encoder.") for n, _ in params) == (enhance_op == "phase")
        for name, p in params:
            assert _at_path(model, name) is p, name

    def test_forwarding_stand_ins_list_the_same_tensors(self):
        model = NightSegModel(small_cfg(matcher_layers=2))
        before = [(n, id(p)) for n, p in model.parameters()]
        model.decoder.attention[1] = _Forwarding(model.decoder.attention[1])
        model.matcher.layers[0] = _Forwarding(model.matcher.layers[0])
        for attr in ("backbone", "phase_encoder", "decoder", "matcher"):
            setattr(model, attr, _Forwarding(getattr(model, attr)))
        assert [(n, id(p)) for n, p in model.parameters()] == before

    def test_a_tensor_assigned_to_a_layer_is_a_parameter(self):
        model = NightSegModel(small_cfg())
        before = model.parameters()
        extra = Tensor(np.zeros(3), requires_grad=True)
        model.matcher.layers[0].ffn.scale = extra
        after = model.parameters()
        at = [n for n, _ in after].index("matcher.layers.0.ffn.norm.beta") + 1
        assert after[at] == ("matcher.layers.0.ffn.scale", extra)
        assert after[:at] + after[at + 1:] == before


def _weighted_output_loss(out: SegOutput, heads) -> Tensor:
    """sum(mask_logits * heads[0]) + sum(class_logits * heads[1]), each sum
    a [1, n] @ [n, 1] product: a loss linear in both outputs, so its
    gradient over a batch is the sum of the per-sample gradients."""
    def project(y, head):
        return T.matmul(T.reshape(y, (1, y.size)), Tensor(head.reshape(-1, 1)))

    return T.add(project(out.mask_logits, heads[0]), project(out.class_logits, heads[1]))


def _close(got, want, rtol=1e-10):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestBatchedModel:
    """A [B, H, W, 3] batch runs every layer once and equals B single-image runs."""

    @pytest.mark.parametrize("mode,depth", BATCHED_CASES)
    def test_batch_of_3_gives_the_logits_of_3_single_forwards(self, mode, depth):
        (out,) = check_batched_forward_matches_per_sample([(mode, depth)])
        assert out.mask_logits.shape == (3, 8, 16, 4) and out.class_logits.shape == (3, 4, 4)

    def test_parameter_gradients_are_the_sum_of_per_sample_gradients(self):
        model = NightSegModel(small_cfg(matcher_layers=2))
        params = model.parameters()
        rng = np.random.default_rng(17)
        images, textures = rng.uniform(size=(2, 3, 32, 64, 3))
        heads = rng.normal(size=(3, 8, 16, 4)), rng.normal(size=(3, 4, 4))

        def grads(image, texture, hs):
            for _, p in params:
                p.grad = None
            with T.Tape():
                T.backward(_weighted_output_loss(model(Tensor(image), Tensor(texture)), hs))
            return [p.grad for _, p in params]

        batched = grads(images, textures, heads)
        per_sample = [grads(images[b], textures[b], (heads[0][b], heads[1][b])) for b in range(3)]
        for (name, _), got, *each in zip(params, batched, *per_sample):
            want = sum(each)
            if np.any(want):
                _close(got, want)
            else:
                assert not np.any(got), name

    def test_texture_must_match_the_image_batch(self):
        model = NightSegModel(small_cfg())
        with pytest.raises(ValueError, match="misaligned"):
            model(Tensor(np.zeros((2, 32, 32, 3))), Tensor(np.zeros((3, 32, 32, 3))))
