"""Training loop: descent, determinism, checkpoints, divergence handling."""

import shutil
import tracemalloc

import numpy as np
import pytest

from nightseg.cli import main
from nightseg.config import build, parse_config
from nightseg.metrics import ConfusionMatrix
from nightseg.model import ModelConfig, NightSegModel, majority_pool, predict
from nightseg.netpbm import decode8, read_pgm, read_ppm8, write_ppm
from nightseg.scenes import SceneConfig, gen_dataset, parse_manifest
from nightseg.selftest import PerTensorAdamW
from nightseg.train import (AdamW, TrainConfig, TrainingDiverged, evaluate,
                            load_checkpoint, load_dataset, render_report,
                            save_checkpoint, train, _forward)
from nightseg.tensor import Tensor, backward
from nightseg.tensor_io import read_tensor, write_flat


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    gen_dataset(SceneConfig(), 10, 77, root)
    return root


SMALL = dict(backbone_widths=(4, 5, 6, 7), phase_widths=(3, 4, 5, 6), decoder_channels=8,
             prototypes=4, reliable_k=4, matcher_layers=1)


def small_model_cfg(ds, seed=0, dtype=np.float32, **overrides):
    return ModelConfig(num_classes=ds.num_classes, seed=seed, dtype=dtype,
                       **{**SMALL, **overrides})


class TestAdamW:
    def test_single_step_direction_and_magnitude(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.array([0.5, -0.5])
        opt = AdamW([("p", p)], lr=0.1, weight_decay=0.0)
        opt.step()
        # bias-corrected first step moves by about lr against the gradient sign
        assert np.allclose(p.data, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)

    def test_decoupled_weight_decay(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([0.0])
        opt = AdamW([("p", p)], lr=0.1, weight_decay=0.5)
        opt.step()
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_missing_grad_refused_before_any_state_changes(self):
        params = [(n, Tensor(np.arange(3.0) + i, requires_grad=True)) for i, n in enumerate("abc")]
        opt = AdamW(params, lr=0.1, weight_decay=0.1)
        for _, p in params:
            p.grad = np.ones(3)
        opt.step()
        before = opt.flat.copy(), opt.m.copy(), opt.v.copy()
        params[1][1].grad = None
        with pytest.raises(ValueError, match="parameter b has no gradient") as exc:
            opt.step()
        assert "\n" not in str(exc.value)
        assert opt.t == 1
        for got, want in zip((opt.flat, opt.m, opt.v), before):
            assert np.array_equal(got, want)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_per_tensor_loop(self, dtype):
        params = NightSegModel(ModelConfig(num_classes=3, seed=2, dtype=dtype, **SMALL)).parameters()
        ref = [(n, Tensor(p.data.copy())) for n, p in params]
        opt = AdamW(params, lr=1e-3, weight_decay=1e-4)
        oracle = PerTensorAdamW(ref, lr=1e-3, weight_decay=1e-4)
        rng = np.random.default_rng(8)
        for step in range(5):
            if step == 3:  # the phase-2 rate switch
                opt.lr = oracle.lr = 1e-4
            for (_, p), (_, q) in zip(params, ref):
                p.grad = q.grad = rng.normal(size=p.data.shape).astype(dtype)
            opt.step()
            oracle.step()
        for (name, p), (_, q) in zip(params, ref):
            assert p.data.dtype == dtype and np.array_equal(p.data, q.data), name
        for mine, theirs in ((opt.m, oracle.m), (opt.v, oracle.v)):
            assert np.array_equal(mine, np.concatenate([a.reshape(-1) for a in theirs.values()]))

    def test_parameters_become_views_of_the_flat_vector(self):
        params = NightSegModel(ModelConfig(num_classes=3, dtype=np.float32, **SMALL)).parameters()
        before = [p.data.copy() for _, p in params]
        opt = AdamW(params, lr=1e-3)
        assert opt.flat.dtype == np.float32
        assert np.array_equal(opt.flat, np.concatenate([b.reshape(-1) for b in before]))
        for (name, p), b in zip(params, before):
            assert np.shares_memory(p.data, opt.flat), name
            assert np.array_equal(p.data, b), name
        for _, p in params:
            p.grad = np.ones_like(p.data)
        opt.step()
        assert all(np.shares_memory(p.data, opt.flat) for _, p in params)
        assert not np.array_equal(params[0][1].data, before[0])

    def test_mixed_dtypes_rejected(self):
        params = [("a", Tensor(np.zeros(2, np.float32))), ("b", Tensor(np.zeros(2)))]
        with pytest.raises(ValueError, match="one dtype") as exc:
            AdamW(params, lr=0.1)
        assert "\n" not in str(exc.value)

    def test_tensor_listed_twice_rejected(self):
        p = Tensor(np.zeros(3))
        with pytest.raises(ValueError, match="parameter b is the tensor already listed as a") as exc:
            AdamW([("a", p), ("c", Tensor(np.zeros(1))), ("b", p)], lr=0.1)
        assert "\n" not in str(exc.value)


class TestTrainLoop:
    def test_one_iteration_reduces_loss_on_frozen_batch(self, tiny_data):
        ds = load_dataset(tiny_data, "phase")
        mc = small_model_cfg(ds)
        model = NightSegModel(mc)
        tc = TrainConfig(iters=8, batch=2, seed=5, log_every=1, lr1=1e-3, lr2=1e-4)
        log = train(model, ds, tc)
        first = float(log[0].split("loss ")[1].split(" ")[0])
        last = float(log[-1].split("loss ")[1].split(" ")[0])
        assert last < first

    def test_same_seed_bit_identical_logs(self, tiny_data):
        ds = load_dataset(tiny_data, "phase")
        logs = []
        for _ in range(2):
            model = NightSegModel(small_model_cfg(ds, seed=3))
            logs.append(train(model, ds, TrainConfig(iters=5, batch=2, seed=3, log_every=1)))
        assert logs[0] == logs[1]

    def test_checkpoint_roundtrip(self, tiny_data, tmp_path):
        ds = load_dataset(tiny_data, "phase")
        model = NightSegModel(small_model_cfg(ds))
        params = model.parameters()
        save_checkpoint(tmp_path / "ckpt", model)
        model2 = NightSegModel(small_model_cfg(ds))
        for _, p in model2.parameters():
            p.data = p.data + 1.0  # scramble
        load_checkpoint(tmp_path / "ckpt", model2)
        for (n1, p1), (n2, p2) in zip(params, model2.parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data.astype(np.float32), p2.data)

    def test_checkpoint_name_mismatch_rejected(self, tiny_data, tmp_path):
        ds = load_dataset(tiny_data, "phase")
        model = NightSegModel(small_model_cfg(ds))
        save_checkpoint(tmp_path / "ckpt", model)
        other = NightSegModel(small_model_cfg(ds, matcher_layers=2))
        with pytest.raises(ValueError, match="config.txt line 8: checkpoint has "
                                             "'matcher.layers = 1', the model would write "
                                             "'matcher.layers = 2'"):
            load_checkpoint(tmp_path / "ckpt", other)

    def test_checkpoint_is_one_payload_and_byte_identical_across_runs(self, tiny_data, tmp_path):
        ds = load_dataset(tiny_data, "phase")
        for run in ("run1", "run2"):
            model = NightSegModel(small_model_cfg(ds, seed=3))
            train(model, ds, TrainConfig(iters=3, batch=2, seed=3), out_dir=tmp_path / run)
        one, two = (tmp_path / run / "checkpoint" for run in ("run1", "run2"))
        names = ["config.txt", "params.nft", "params.txt"]
        assert sorted(f.name for f in one.iterdir()) == names
        assert sorted(f.name for f in two.iterdir()) == names
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
        # config.txt is a config file that builds the saved model again
        values = parse_config(one / "config.txt")
        assert build(ModelConfig, values, num_classes=ds.num_classes, seed=3,
                     dtype=build(TrainConfig, values).dtype) == model.cfg
        lines = (one / "params.txt").read_text(encoding="utf-8").splitlines()
        assert [line.split()[0] for line in lines] == [n for n, _ in model.parameters()]
        assert [tuple(map(int, line.split()[1:])) for line in lines] == \
            [p.data.shape for _, p in model.parameters()]
        flat = read_tensor(one / "params.nft")
        assert flat.dtype == np.float32
        assert np.array_equal(flat, np.concatenate([p.data.reshape(-1)
                                                    for _, p in model.parameters()]))

    def test_float64_checkpoint_roundtrips_exactly(self, tiny_data, tmp_path):
        ds = load_dataset(tiny_data, "phase")
        model = NightSegModel(small_model_cfg(ds, dtype=np.float64))
        save_checkpoint(tmp_path / "ckpt", model)
        assert (tmp_path / "ckpt" / "params.nft").read_bytes()[:4] == b"NFT8"
        other = NightSegModel(small_model_cfg(ds, seed=1, dtype=np.float64))
        load_checkpoint(tmp_path / "ckpt", other)
        for (name, p), (_, q) in zip(model.parameters(), other.parameters()):
            assert q.data.dtype == np.float64 and np.array_equal(p.data, q.data), name

    def test_f32_checkpoint_refused_by_float64_model(self, tiny_data, tmp_path):
        ds = load_dataset(tiny_data, "phase")
        save_checkpoint(tmp_path / "ckpt", NightSegModel(small_model_cfg(ds)))
        wide = NightSegModel(small_model_cfg(ds, seed=1, dtype=np.float64))
        before = [p.data.copy() for _, p in wide.parameters()]
        with pytest.raises(ValueError, match="checkpoint has 'train.dtype = float32', the model "
                                             "would write 'train.dtype = float64'"):
            load_checkpoint(tmp_path / "ckpt", wide)
        for (name, p), b in zip(wide.parameters(), before):
            assert np.array_equal(p.data, b), name

    def test_f8_checkpoint_refused_by_float32_model(self, tiny_data, tmp_path):
        ds = load_dataset(tiny_data, "phase")
        save_checkpoint(tmp_path / "ckpt", NightSegModel(small_model_cfg(ds, dtype=np.float64)))
        with pytest.raises(ValueError, match="checkpoint has 'train.dtype = float64', the model "
                                             "would write 'train.dtype = float32'"):
            load_checkpoint(tmp_path / "ckpt", NightSegModel(small_model_cfg(ds)))

    def test_divergence_aborts_with_checkpoint(self, tiny_data, tmp_path):
        ds = load_dataset(tiny_data, "phase")
        model = NightSegModel(small_model_cfg(ds))
        model.class_head.w.data[:] = np.nan
        with pytest.raises(TrainingDiverged, match="iteration 0; weights at divergence saved"):
            train(model, ds, TrainConfig(iters=2, batch=1, seed=0), out_dir=tmp_path / "run")
        assert (tmp_path / "run" / "checkpoint" / "params.txt").exists()

    def test_divergence_without_out_dir_writes_nothing(self, tiny_data, tmp_path, monkeypatch):
        ds = load_dataset(tiny_data, "phase")
        model = NightSegModel(small_model_cfg(ds))
        model.class_head.w.data[:] = np.nan
        monkeypatch.chdir(tmp_path)
        with pytest.raises(TrainingDiverged, match="iteration 0") as exc:
            train(model, ds, TrainConfig(iters=2, batch=1, seed=0), out_dir=None)
        assert exc.value.checkpoint is None
        assert "saved" not in str(exc.value)
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_gradient_aborts_before_the_step(self, tiny_data, tmp_path, monkeypatch):
        ds = load_dataset(tiny_data, "phase")
        model = NightSegModel(small_model_cfg(ds))
        params = dict(model.parameters())
        before = {n: p.data.copy() for n, p in params.items()}

        def poisoned_backward(loss):
            backward(loss)
            g = params["matcher.prototypes"].grad.copy()
            g.flat[0] = np.nan
            params["matcher.prototypes"].grad = g

        monkeypatch.setattr("nightseg.train.backward", poisoned_backward)
        with pytest.raises(TrainingDiverged, match="non-finite gradient of matcher.prototypes at "
                                                   "iteration 0; weights at divergence saved"):
            train(model, ds, TrainConfig(iters=2, batch=1, seed=0), out_dir=tmp_path / "run")
        for name, p in params.items():
            assert np.array_equal(p.data, before[name]), name
        saved = NightSegModel(small_model_cfg(ds, seed=1))
        load_checkpoint(tmp_path / "run" / "checkpoint", saved)
        for name, p in saved.parameters():
            assert np.array_equal(p.data, before[name]), name

    @pytest.mark.parametrize("case,msg", [
        ("short payload", r"holds float32 shape \(\d+,\); the model reads \d+ float32 values"),
        ("no extents", "line 2: checkpoint has 'backbone.stage1.b', the model would write "
                       "'backbone.stage1.b 4'"),
        ("non-integer extent", "line 2: checkpoint has 'backbone.stage1.b 4 x'"),
        ("zero extent", "line 2: checkpoint has 'backbone.stage1.b 4 0'"),
        ("repeated name", "line 3: checkpoint has 'backbone.stage1.b 4', the model would write "
                          "'backbone.stage2.w 3 3 4 5'"),
        ("blank line", "line 2: checkpoint has ''"),
        ("shape", "checkpoint has 'backbone.stage1.w 4 3 4 4', the model would write "
                  "'backbone.stage1.w 4 4 3 4'"),
        ("name set", "checkpoint has 'backbone.renamed 4 4 3 4', the model would write "
                     "'backbone.stage1.w 4 4 3 4'"),
    ])
    def test_bad_checkpoint_rejected_before_any_weight_changes(self, tiny_data, tmp_path,
                                                               capsys, case, msg):
        ds = load_dataset(tiny_data, "phase")
        ckpt = save_checkpoint(tmp_path / "ckpt", NightSegModel(small_model_cfg(ds)))
        lines = (ckpt / "params.txt").read_text(encoding="utf-8").splitlines()
        name, *dims = lines[0].split()
        if case == "short payload":
            write_flat(ckpt / "params.nft", [read_tensor(ckpt / "params.nft")[:-1]])
        else:
            edits = {"no extents": (1, lines[1].split()[0]),
                     "non-integer extent": (1, lines[1] + " x"),
                     "zero extent": (1, lines[1] + " 0"),
                     "repeated name": (2, lines[1]),
                     "blank line": (1, ""),
                     "shape": (0, " ".join([name, *reversed(dims)])),
                     "name set": (0, " ".join(["backbone.renamed", *dims]))}
            at, text = edits[case]
            lines[at] = text
            (ckpt / "params.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        model = NightSegModel(small_model_cfg(ds, seed=1))
        before = [p.data.copy() for _, p in model.parameters()]
        with pytest.raises(ValueError, match=msg) as exc:
            load_checkpoint(ckpt, model)
        assert "\n" not in str(exc.value)
        for (n, p), b in zip(model.parameters(), before):
            assert np.array_equal(p.data, b), n

        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(tiny_data),
                     "--report", str(tmp_path / "report.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("nightseg: ") and err.count("\n") == 1
        assert not (tmp_path / "report.txt").exists()

    def test_evaluate_and_report_format(self, tiny_data):
        ds = load_dataset(tiny_data, "phase")
        model = NightSegModel(small_model_cfg(ds))
        report = render_report(evaluate(model, ds, np.float32))
        lines = report.strip().splitlines()
        assert lines[0].startswith("background ")
        assert len(lines) == ds.num_classes + 1
        assert lines[-1].startswith("miou ")
        float(lines[-1].split()[1])  # parses

    def test_evaluate_equals_a_loop_of_single_image_predictions(self, tiny_data):
        # the check the benchmark makes of evaluate(): a direct call of the
        # model on each unbatched float32 val sample, then predict
        ds = load_dataset(tiny_data, "phase")
        model = NightSegModel(small_model_cfg(ds))
        train(model, ds, TrainConfig(iters=3, batch=2, seed=4))
        cm = ConfusionMatrix(ds.num_classes)
        for i in ds.val_idx:
            out = model(Tensor(ds.images[i].astype(np.float32)),
                        Tensor(ds.textures[i].astype(np.float32)))
            pred = predict(out, ds.num_classes)
            assert pred.shape == ds.masks[i].shape
            cm.update(pred, ds.masks[i])
        assert np.array_equal(evaluate(model, ds, np.float32).counts, cm.counts)

    @pytest.mark.parametrize("model_dtype,run_dtype", [(np.float64, np.float32),
                                                       (np.float32, np.float64)],
                             ids=["f64-model", "f32-model"])
    @pytest.mark.parametrize("run", [
        lambda model, ds, dtype: train(model, ds, TrainConfig(iters=1, batch=2, dtype=dtype)),
        lambda model, ds, dtype: evaluate(model, ds, dtype),
    ], ids=["train", "evaluate"])
    def test_foreign_run_dtype_refused(self, tiny_data, monkeypatch, model_dtype, run_dtype, run):
        # refused before any work: numpy would compute silently in the wider dtype
        ds = load_dataset(tiny_data, "phase")
        model = NightSegModel(small_model_cfg(ds, dtype=model_dtype))

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr("nightseg.train.AdamW", no_work)
        monkeypatch.setattr("nightseg.train._forward", no_work)
        want = rf"^train\.dtype {np.dtype(run_dtype)} differs from the model's {np.dtype(model_dtype)}"
        with pytest.raises(ValueError, match=want):
            run(model, ds, run_dtype)


def parse_text(tmp_path, text: str) -> dict[str, str]:
    """Parse config text the way the command line does: from a file."""
    path = tmp_path / "test.cfg"
    path.write_text(text, encoding="utf-8")
    return parse_config(path)


def test_a_64x128_training_step_peak_memory(tmp_path):
    # one batch-2 step of the default model at 64x128 (512 tokens at the
    # finest decoder stage), traced from the call to train. Run alone it read
    # 13.24 MiB (12.09 after the other tests of this file filled the engine's
    # caches), and 15.07 MiB when the conv nodes kept their windows,
    # amplify_stage its sum and the attention backward a separate d q and
    # every gradient share at once
    gen_dataset(SceneConfig(64, 128, 4), 2, 1, tmp_path)
    ds = load_dataset(tmp_path, "phase")
    model = NightSegModel(ModelConfig(num_classes=ds.num_classes, seed=1, dtype=np.float32))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train(model, ds, TrainConfig(iters=1, batch=2, seed=1, dtype=np.float32), out_dir=None)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 13.75 * 2**20, peak / 2**20   # the measurement plus 0.5 MiB


class TestTrainConfig:
    def test_phase_rate_ordering_enforced(self):
        with pytest.raises(ValueError, match="below"):
            TrainConfig(lr1=1e-4, lr2=1e-3)

    def test_from_config_defaults_and_overrides(self, tmp_path):
        cfg = parse_text(tmp_path, "train.iters = 12\ntrain.lr1 = 0.005\n")
        tc = build(TrainConfig, cfg)
        assert tc.iters == 12
        assert tc.lr1 == pytest.approx(0.005)
        assert tc.phase1_iters == 9  # 80% default
        assert tc.dtype == np.float32

    def test_loss_weights_from_config(self, tmp_path):
        cfg = parse_text(tmp_path, "train.lambda_cls = 3\ntrain.lambda_bce = 1\n")
        tc = build(TrainConfig, cfg)
        assert tc.weights.cls == 3.0
        assert tc.weights.bce == 1.0
        assert tc.weights.dice == 5.0

    def test_two_phase_schedule_applied(self, tiny_data):
        ds = load_dataset(tiny_data, "phase")
        model = NightSegModel(small_model_cfg(ds))
        tc = TrainConfig(iters=4, phase1_iters=2, batch=1, seed=0, log_every=1,
                         lr1=1e-3, lr2=1e-5)
        log = train(model, ds, tc)
        assert "lr 0.001" in log[0] and "lr 0.001" in log[1]
        assert "lr 1e-05" in log[2] and "lr 1e-05" in log[3]


class TestLoadDataset:
    def test_split_and_texture_cache(self, tiny_data):
        ds = load_dataset(tiny_data, "phase")
        assert len(ds.train_idx) == 8 and len(ds.val_idx) == 2
        assert ds.textures is not None and len(ds.textures) == 10
        # the pooled quarter-resolution masks, in manifest order
        _, entries = parse_manifest(tiny_data / "manifest.txt")
        for i, (_, mask_name, _) in enumerate(entries):
            full = read_pgm((tiny_data / mask_name).read_bytes())
            assert full.shape == (32, 64)
            assert np.array_equal(ds.masks[i], majority_pool(full, 4))

    def test_enhance_none_skips_textures(self, tiny_data):
        ds = load_dataset(tiny_data, "none")
        assert ds.textures is None

    def test_sobel_textures(self, tiny_data):
        ds = load_dataset(tiny_data, "sobel")
        assert ds.textures[0].shape == (32, 64, 3)

    def test_header_without_class_count_refused(self, tiny_data, tmp_path):
        lines = (tiny_data / "manifest.txt").read_text(encoding="utf-8").splitlines()
        (tmp_path / "manifest.txt").write_text(
            "\n".join(ln for ln in lines if not ln.startswith("# num_classes")) + "\n",
            encoding="utf-8")
        with pytest.raises(ValueError, match="header needs integer num_classes, height and width"):
            load_dataset(tmp_path, "phase")

    def test_an_all_zero_and_a_constant_channel_load_with_zero_textures_and_train(
            self, tiny_data, tmp_path):
        # neither has energy outside the DC bin, so neither has a phase texture:
        # the all-zero channel's c_a would be 0, the constant one's map a spike
        data = tmp_path / "data"
        shutil.copytree(tiny_data, data)
        _, entries = parse_manifest(data / "manifest.txt")
        name = entries[4][0]
        image = decode8(read_ppm8((data / name).read_bytes()))
        image[..., 1] = 0.0
        image[..., 2] = 0.6
        (data / name).write_bytes(write_ppm(image))
        ds = load_dataset(data, "phase")
        assert np.all(ds.textures[4][..., 1:] == 0.0) and ds.textures[4][..., 0].max() == 1.0
        model = NightSegModel(small_model_cfg(ds))
        ds.train_idx = [4, 5]
        log = train(model, ds, TrainConfig(iters=2, batch=2, seed=0, log_every=1))
        assert len(log) == 2 and all(np.isfinite(float(line.split()[3])) for line in log)


def _file_images(data_dir):
    _, entries = parse_manifest(data_dir / "manifest.txt")
    # value / 255 in float64, the decoding written out
    return [read_ppm8((data_dir / name).read_bytes()) / 255.0 for name, _, _ in entries]


class TestEightBitImages:
    def test_each_image_is_read_ppm_of_its_file_bit_for_bit(self, tiny_data):
        ds = load_dataset(tiny_data, "phase")
        for i, expect in enumerate(_file_images(tiny_data)):
            got = ds.images[i]
            assert got.dtype == np.float64 and got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()

    def test_len_and_iteration(self, tiny_data):
        ds = load_dataset(tiny_data, "none")
        expect = _file_images(tiny_data)
        assert len(ds.images) == len(expect) == 10
        assert [a.tobytes() for a in ds.images] == [a.tobytes() for a in expect]
        assert all(v.dtype == np.uint8 and not v.flags.writeable for v in ds.images.values)

    def test_a_changed_image_leaves_the_next_access_unchanged(self, tiny_data):
        ds = load_dataset(tiny_data, "none")
        first = ds.images[3]
        expect = first.copy()
        first[...] = -1.0
        assert ds.images[3].tobytes() == expect.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("idx", [[3, 0, 7], [5], 6], ids=["batch3", "batch1", "single"])
    def test_forward_input_equals_the_float64_stack_cast(self, tiny_data, dtype, idx):
        ds = load_dataset(tiny_data, "phase")
        floats = _file_images(tiny_data)
        old = floats[idx] if isinstance(idx, int) else np.stack([floats[i] for i in idx])
        seen = _forward(lambda images, textures: (images.data, textures.data), ds, idx, dtype)
        expect = old.astype(dtype)
        assert seen[0].dtype == dtype and seen[0].shape == expect.shape
        assert seen[0].tobytes() == expect.tobytes()
        tex = ds.textures[idx] if isinstance(idx, int) else np.stack([ds.textures[i] for i in idx])
        assert seen[1].tobytes() == tex.astype(dtype).tobytes()

    def test_retained_bytes_are_8bit_images_textures_and_masks(self, tiny_data):
        load_dataset(tiny_data, "phase")   # transform caches are made once, outside the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ds = load_dataset(tiny_data, "phase")
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        h, w = 32, 64
        per_image = ds.textures[0].nbytes + h * w * 3 + ds.masks[0].nbytes
        # a float64 image would add 7*h*w*3 = 43008 bytes per image
        assert kept <= len(ds.images) * (per_image + 2048)
