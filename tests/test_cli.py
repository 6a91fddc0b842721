"""Command-line surface: exit codes, file outputs, subcommand wiring."""

import functools
import shutil

import numpy as np
import pytest

import nightseg.cli
from nightseg.cli import main
from nightseg.config import build, known_keys
from nightseg.model import ModelConfig, NightSegModel
from nightseg.netpbm import decode8, read_pgm, read_ppm8, write_pgm, write_ppm
from nightseg.scenes import parse_manifest
from nightseg.train import load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    assert main(["gen-data", "--out", str(root), "--count", "8", "--seed", "5"]) == 0
    return root


class TestDispatch:
    def test_unknown_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--out", "x", "--frodo", "1"])
        assert exc.value.code == 2

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("gen-data", "phase-extract", "train", "eval", "ablate",
                    "grad-check", "selftest"):
            assert cmd in out


class TestGenData:
    def test_writes_expected_files(self, dataset):
        assert (dataset / "manifest.txt").exists()
        assert len(list(dataset.glob("img_*.ppm"))) == 8
        assert len(list(dataset.glob("msk_*.pgm"))) == 8


class TestPhaseExtract:
    def test_phase_mode_writes_texture(self, dataset, tmp_path):
        out = tmp_path / "tex.ppm"
        rc = main(["phase-extract", "--in", str(dataset / "img_00000.ppm"),
                   "--out", str(out)])
        assert rc == 0
        tex = decode8(read_ppm8(out.read_bytes()))
        assert tex.shape == (32, 64, 3)

    def test_sobel_mode_writes_texture(self, dataset, tmp_path):
        out = tmp_path / "tex_sobel.ppm"
        assert main(["phase-extract", "--in", str(dataset / "img_00001.ppm"),
                     "--out", str(out), "--mode", "sobel"]) == 0
        assert decode8(read_ppm8(out.read_bytes())).shape == (32, 64, 3)


@pytest.fixture(scope="module")
def tiny_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(
        "train.iters = 6\n"
        "train.batch = 2\n"
        "train.seed = 1\n"
        "train.log_every = 2\n"
        "backbone.widths = 4 5 6 7\n"
        "phase_enc.widths = 3 4 5 6\n"
        "decoder.channels = 8\n"
        "matcher.prototypes = 4\n"
        "matcher.reliable_k = 4\n"
        "matcher.layers = 1\n",
        encoding="utf-8",
    )
    return path


class TestTrainEvalCli:
    def test_train_then_eval(self, dataset, tiny_cfg, tmp_path):
        run = tmp_path / "run"
        assert main(["train", "--config", str(tiny_cfg), "--data", str(dataset),
                     "--out", str(run)]) == 0
        assert (run / "checkpoint" / "params.txt").exists()
        assert (run / "checkpoint" / "config.txt").exists()
        assert (run / "train_log.txt").exists()
        report = tmp_path / "report.txt"
        assert main(["eval", "--ckpt", str(run / "checkpoint"),
                     "--data", str(dataset), "--report", str(report)]) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[-1].startswith("miou ")

    def test_ablate_matcher_two_rows(self, dataset, tiny_cfg, tmp_path, capsys):
        report = tmp_path / "ablate.txt"
        assert main(["ablate", "--axis", "matcher", "--config", str(tiny_cfg),
                     "--data", str(dataset), "--report", str(report)]) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "axis matcher"
        assert lines[1] == "setting miou"
        assert lines[2].startswith("vanilla_attention ")
        assert lines[3].startswith("reliable_attention ")
        for row in lines[2:]:
            float(row.split()[1])

    @pytest.mark.parametrize("axis, ops", [("matcher", ["phase"]), ("depth", ["phase"]),
                                           ("enhance-op", ["none", "sobel", "phase"])])
    def test_ablate_loads_the_dataset_once_per_enhance_op(self, dataset, tiny_cfg, monkeypatch,
                                                           axis, ops):
        import nightseg.train

        load, loads = nightseg.train.load_dataset, []

        def counted(data, enhance_op):
            loads.append(enhance_op)
            return load(data, enhance_op)

        monkeypatch.setattr("nightseg.train.load_dataset", counted)
        assert main(["ablate", "--axis", axis, "--config", str(tiny_cfg),
                     "--data", str(dataset)]) == 0
        assert loads == ops

    @pytest.mark.parametrize("key,value", [("matcher.mode", "vanilla"), ("enhance.op", "sobel"),
                                           ("matcher.reliable_k", "4"), ("decoder.depth", "2")])
    def test_checkpoint_refused_by_a_model_one_key_apart(self, dataset, tmp_path, monkeypatch,
                                                         request, capsys, key, value):
        # the first three keys own no weight, so only config.txt tells the models apart
        ckpt = save_checkpoint(tmp_path / "ckpt", NightSegModel(ModelConfig(dtype=np.float32)))
        other = NightSegModel(build(ModelConfig, {key: value}, dtype=np.float32))
        before = [p.data.copy() for _, p in other.parameters()]
        with pytest.raises(ValueError) as exc:
            load_checkpoint(ckpt, other)
        assert "config.txt line" in str(exc.value) and f"'{key} = {value}'" in str(exc.value)
        assert "\n" not in str(exc.value)
        for (name, p), b in zip(other.parameters(), before):
            assert np.array_equal(p.data, b), name
        # eval builds its model from config.txt; built one key apart, it exits 2
        request.getfixturevalue("no_data_load")
        monkeypatch.setattr(nightseg.cli, "_build",
                            functools.partial(nightseg.cli._build, overrides={key: value}))
        rc = main(["eval", "--ckpt", str(ckpt), "--data", str(dataset),
                   "--report", str(tmp_path / "r.txt")])
        _assert_one_line_exit_2(rc, capsys, "config.txt line", key)
        assert not (tmp_path / "r.txt").exists()

    def test_eval_refuses_the_logits_of_a_diverged_run(self, dataset, tiny_cfg, tmp_path,
                                                       capsys):
        # a rate of 1e9 diverges at iteration 1; the weights it saves are finite,
        # but the logits they give on the val samples are not
        cfg = tmp_path / "diverge.cfg"
        kept = [k for k in tiny_cfg.read_text().splitlines() if not k.startswith("train.iters ")]
        cfg.write_text("\n".join(kept + ["train.iters = 3", "train.lr1 = 1e9", "train.lr2 = 1"])
                       + "\n", encoding="utf-8")
        run = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(dataset),
                     "--out", str(run)]) == 1
        assert capsys.readouterr().err == (f"non-finite logits at iteration 1; weights at "
                                           f"divergence saved to {run / 'checkpoint'}\n")
        # the log is written line by line, so the failed run keeps its iteration-0 line
        log = (run / "train_log.txt").read_text(encoding="utf-8")
        assert log.startswith("iter 0 loss ") and log.count("\n") == 1
        rc = main(["eval", "--ckpt", str(run / "checkpoint"),
                   "--data", str(dataset), "--report", str(tmp_path / "r.txt")])
        _assert_one_line_exit_2(rc, capsys, "non-finite logits on val sample")
        assert not (tmp_path / "r.txt").exists()

    def test_ablate_reports_a_diverged_row_in_one_line(self, tiny_cfg, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data), "--count", "20", "--seed", "42"]) == 0
        cfg = tmp_path / "diverge.cfg"
        kept = [k for k in tiny_cfg.read_text().splitlines() if not k.startswith("train.iters ")]
        cfg.write_text("\n".join(kept + ["train.iters = 3", "train.lr1 = 1e9", "train.lr2 = 1"])
                       + "\n", encoding="utf-8")
        capsys.readouterr()
        report = tmp_path / "ablate.txt"
        rc = main(["ablate", "--axis", "matcher", "--config", str(cfg), "--data", str(data),
                   "--report", str(report)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("nightseg: ablate row vanilla_attention: "
                                "non-finite logits at iteration 1\n")
        assert captured.out == "" and not report.exists()


@pytest.fixture(scope="module")
def dataset_48x64(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data_48x64")
    assert main(["gen-data", "--out", str(root), "--count", "2", "--seed", "5",
                 "--height", "48", "--width", "64"]) == 0
    return root


@pytest.fixture(scope="module")
def dataset_256x512(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data_256x512")
    assert main(["gen-data", "--out", str(root), "--count", "1", "--seed", "5",
                 "--height", "256", "--width", "512"]) == 0
    return root


@pytest.fixture(scope="module")
def dataset_no_val(tmp_path_factory):
    # an 80/20 split of 4 samples puts all 4 in train
    root = tmp_path_factory.mktemp("cli_data_no_val")
    assert main(["gen-data", "--out", str(root), "--count", "4", "--seed", "5"]) == 0
    return root


@pytest.fixture
def no_data_load(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("load_dataset called for a config that should be rejected")
    monkeypatch.setattr("nightseg.train.load_dataset", fail)


def _assert_one_line_exit_2(rc, capsys, *needles):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("nightseg: ")
    for needle in needles:
        assert needle in err


@pytest.mark.usefixtures("no_data_load")
class TestBadConfigExit2:
    @pytest.mark.parametrize("line,key", [
        ("enhance.op = Phase", "enhance.op"),
        ("train.batch = 0", "train.batch"),
        ("train.dtype = float16", "train.dtype"),
        ("matcher.reliable_k = 500", "matcher.reliable_k"),
        ("phase.c_a = -1", "phase.c_a"),
        ("train.log_every = 0", "train.log_every"),
        ("decoder.depth = 7", "decoder.depth"),
        ("decoder.channels = 0", "decoder.channels"),
        ("backbone.widths = 4 5 6 0", "backbone.widths"),
        ("phase_enc.widths = 0 4 5 6", "phase_enc.widths"),
        ("matcher.layers = 0", "matcher.layers"),
        ("train.lr2 = -0.001", "train.lr2"),
        ("train.weight_decay = -1", "train.weight_decay"),
        ("train.lambda_cls = -2", "train.lambda_cls"),
        ("train.lambda_bce = -1", "train.lambda_bce"),
        ("train.lambda_dice = -1", "train.lambda_dice"),
        ("train.lr1 = nan", "train.lr1"),
        ("phase.c_a = inf", "phase.c_a"),
        ("train.lambda_dice = nan", "train.lambda_dice"),
        ("decoder.normalize_amp_map = false", "decoder.normalize_amp_map"),
        ("reliable.renormalize = true", "reliable.renormalize"),
    ])
    def test_bad_value_rejected_before_data_loads(self, dataset, tiny_cfg, tmp_path, capsys,
                                                  line, key):
        cfg = tmp_path / "bad.cfg"
        kept = [k for k in tiny_cfg.read_text().splitlines() if not k.startswith(key + " ")]
        cfg.write_text("\n".join(kept + [line]) + "\n", encoding="utf-8")
        rc = main(["train", "--config", str(cfg), "--data", str(dataset),
                   "--out", str(tmp_path / "run")])
        # a key outside the schema (phase.c_a and the other deleted keys) is refused as unknown
        needles = (key,) if key in known_keys() else (key, "unknown key")
        _assert_one_line_exit_2(rc, capsys, *needles)
        assert not (tmp_path / "run").exists()

    def test_extents_not_divisible_by_32_rejected(self, dataset_48x64, tiny_cfg, tmp_path,
                                                  capsys):
        rc = main(["train", "--config", str(tiny_cfg), "--data", str(dataset_48x64),
                   "--out", str(tmp_path / "run")])
        _assert_one_line_exit_2(rc, capsys, "(48, 64)", "divisible by 32")

    def test_attention_token_budget_checked(self, dataset_256x512, tiny_cfg, tmp_path, capsys):
        # depth 4 attends over 64x128 = 8192 tokens at 256x512, over the 4096 budget
        rc = main(["train", "--config", str(tiny_cfg), "--data", str(dataset_256x512),
                   "--out", str(tmp_path / "run")])
        _assert_one_line_exit_2(rc, capsys, "decoder.depth", "256x512", "8192")
        cfg = tmp_path / "depth3.cfg"
        cfg.write_text(tiny_cfg.read_text() + "decoder.depth = 3\n", encoding="utf-8")
        with pytest.raises(AssertionError, match="load_dataset called"):
            main(["train", "--config", str(cfg), "--data", str(dataset_256x512),
                  "--out", str(tmp_path / "run")])

    def test_eval_and_ablate_share_the_checks(self, dataset, tmp_path, capsys):
        # eval reads the checkpoint's config.txt through the same checks
        cfg = tmp_path / "config.txt"
        cfg.write_text("train.batch = 0\n", encoding="utf-8")
        rc = main(["eval", "--ckpt", str(tmp_path),
                   "--data", str(dataset), "--report", str(tmp_path / "r.txt")])
        _assert_one_line_exit_2(rc, capsys, "train.batch")
        # the vanilla row alone would accept this K; the reliable row is checked before any run
        cfg.write_text("matcher.reliable_k = 500\n", encoding="utf-8")
        rc = main(["ablate", "--axis", "matcher", "--config", str(cfg), "--data", str(dataset)])
        _assert_one_line_exit_2(rc, capsys, "matcher.reliable_k")

    def test_missing_config_file(self, dataset, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "absent.cfg"), "--data", str(dataset),
                   "--out", str(tmp_path / "run")])
        _assert_one_line_exit_2(rc, capsys, "absent.cfg")

    def test_eval_of_a_checkpoint_without_config_refused(self, dataset, tmp_path, capsys):
        # a checkpoint written before config.txt existed says nothing of its model
        save_checkpoint(tmp_path / "ckpt", NightSegModel(ModelConfig(dtype=np.float32)))
        (tmp_path / "ckpt" / "config.txt").unlink()
        rc = main(["eval", "--ckpt", str(tmp_path / "ckpt"), "--data", str(dataset),
                   "--report", str(tmp_path / "r.txt")])
        _assert_one_line_exit_2(rc, capsys, str(tmp_path / "ckpt" / "config.txt"))
        assert not (tmp_path / "r.txt").exists()

    def test_missing_data_directory(self, tiny_cfg, tmp_path, capsys):
        rc = main(["train", "--config", str(tiny_cfg), "--data", str(tmp_path / "absent"),
                   "--out", str(tmp_path / "run")])
        _assert_one_line_exit_2(rc, capsys, "absent")

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_gen_data_count_below_one_rejected(self, tmp_path, capsys, count):
        rc = main(["gen-data", "--out", str(tmp_path / "data"), "--count", count])
        _assert_one_line_exit_2(rc, capsys, "count", count)
        assert not (tmp_path / "data").exists()

    def test_train_without_train_split_rejected(self, dataset, tiny_cfg, tmp_path, capsys):
        lines = (dataset / "manifest.txt").read_text(encoding="utf-8").splitlines()
        (tmp_path / "manifest.txt").write_text(
            "\n".join(ln.replace(" train", " val") for ln in lines) + "\n", encoding="utf-8")
        rc = main(["train", "--config", str(tiny_cfg), "--data", str(tmp_path),
                   "--out", str(tmp_path / "run")])
        _assert_one_line_exit_2(rc, capsys, "no train samples", "train reads")
        assert not (tmp_path / "run").exists()

    def test_eval_and_ablate_without_val_split_rejected(self, dataset_no_val, tiny_cfg,
                                                        tmp_path, capsys):
        rc = main(["eval", "--ckpt", str(tmp_path),
                   "--data", str(dataset_no_val), "--report", str(tmp_path / "r.txt")])
        _assert_one_line_exit_2(rc, capsys, "no val samples", "eval reads")
        assert not (tmp_path / "r.txt").exists()
        rc = main(["ablate", "--axis", "matcher", "--config", str(tiny_cfg),
                   "--data", str(dataset_no_val)])
        _assert_one_line_exit_2(rc, capsys, "no val samples", "ablate reads")

    @pytest.mark.parametrize("flags,flag", [
        (["--noise-std", "-1"], "--noise-std"),
        (["--noise-std", "nan"], "--noise-std"),
        (["--contrast-gap", "nan"], "--contrast-gap"),
        (["--deceivers", "-2", "-1"], "--deceivers"),
        (["--deceivers", "3", "1"], "--deceivers"),
        (["--height", "0"], "--height"),
        (["--width", "11"], "--width"),
    ])
    def test_gen_data_bad_scene_flag_rejected(self, tmp_path, capsys, flags, flag):
        rc = main(["gen-data", "--out", str(tmp_path / "data"), "--count", "2", *flags])
        _assert_one_line_exit_2(rc, capsys, flag)
        assert not (tmp_path / "data").exists()


def _run_on_a_damaged_copy(command, split, damage, dataset, tiny_cfg, tmp_path, capsys,
                           monkeypatch):
    """Runs command on a copy of dataset whose first sample of split was
    changed by damage(data, image name, mask name), which returns the name
    of the file it changed; no texture may be computed and no model run.
    Returns the exit code, the changed file and the output that command
    would have written."""
    ckpt = tmp_path / "run" / "checkpoint"
    if command == "eval":
        assert main(["train", "--config", str(tiny_cfg), "--data", str(dataset),
                     "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    _, entries = parse_manifest(data / "manifest.txt")
    name = damage(data, *next((img, msk) for img, msk, s in entries if s == split))

    def no_step(*args, **kwargs):
        raise AssertionError("a texture or a model ran on a dataset with a bad file")

    for target in ("image_texture_stack", "total_loss", "predict"):
        monkeypatch.setattr(f"nightseg.train.{target}", no_step)
    out = {"train": tmp_path / "bad_run", "eval": tmp_path / "r.txt",
           "ablate": tmp_path / "table.txt"}[command]
    args = {"train": ["--config", str(tiny_cfg), "--out", str(out)],
            "eval": ["--ckpt", str(ckpt), "--report", str(out)],
            "ablate": ["--config", str(tiny_cfg), "--axis", "matcher", "--report", str(out)]}
    return main([command, "--data", str(data), *args[command]]), data / name, out


_COMMAND_SPLITS = [("train", "train"), ("eval", "val"), ("ablate", "val")]


class TestBadMaskExit2:
    """A mask label outside the manifest's class range fails as the dataset
    loads, before any texture or step, with one line naming the mask file."""

    @pytest.mark.parametrize("command,split", _COMMAND_SPLITS)
    def test_label_outside_the_class_range_names_its_file(self, dataset, tiny_cfg, tmp_path,
                                                          capsys, monkeypatch, command, split):
        def relabel(data, _, name):
            mask = read_pgm((data / name).read_bytes())
            mask[3, 5] = 9
            (data / name).write_bytes(write_pgm(mask))
            return name

        rc, path, out = _run_on_a_damaged_copy(command, split, relabel, dataset, tiny_cfg,
                                               tmp_path, capsys, monkeypatch)
        _assert_one_line_exit_2(rc, capsys, str(path), "outside [0, 4): [0", ", 9]")
        assert not out.exists()


class TestBadExtentsExit2:
    """An image or mask whose extents differ from the manifest's header fails
    as the dataset loads, before any texture or step, with one line naming
    the file."""

    @staticmethod
    def narrow_image(data, name, _):
        image = decode8(read_ppm8((data / name).read_bytes()))
        (data / name).write_bytes(write_ppm(image[:, :48]))
        return name

    @staticmethod
    def short_mask(data, _, name):
        mask = read_pgm((data / name).read_bytes())
        (data / name).write_bytes(write_pgm(mask[:24]))
        return name

    @pytest.mark.parametrize("damage,extents", [(narrow_image, "32x48"), (short_mask, "24x64")],
                             ids=["image", "mask"])
    @pytest.mark.parametrize("command,split", _COMMAND_SPLITS)
    def test_extents_other_than_the_header_name_their_file(self, dataset, tiny_cfg, tmp_path,
                                                           capsys, monkeypatch, command, split,
                                                           damage, extents):
        rc, path, out = _run_on_a_damaged_copy(command, split, damage, dataset, tiny_cfg,
                                               tmp_path, capsys, monkeypatch)
        _assert_one_line_exit_2(rc, capsys, str(path),
                                f"extents {extents} differ from the manifest's 32x64")
        assert not out.exists()


class TestVerificationCli:
    def test_grad_check_exit_0(self, capsys):
        assert main(["grad-check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_selftest_exit_0(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "properties passed" in out
