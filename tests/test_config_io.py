"""Config parsing and the binary tensor format."""

import re
from pathlib import Path

import numpy as np
import pytest

from nightseg.config import build, known_keys, parse_config
from nightseg.losses import LossWeights
from nightseg.model import ModelConfig
from nightseg.tensor import Tensor
from nightseg.tensor_io import (decode_tensor, encode_tensor, read_tensor, write_flat,
                                write_tensor)
from nightseg.train import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def parse_text(tmp_path, text: str) -> dict[str, str]:
    """Parse config text the way the command line does: from a file."""
    path = tmp_path / "test.cfg"
    path.write_text(text, encoding="utf-8")
    return parse_config(path)


class TestConfig:
    def test_parse_values_and_comments(self, tmp_path):
        cfg = parse_text(
            tmp_path,
            "# comment line\n"
            "decoder.depth = 2\n"
            "matcher.mode = vanilla  # trailing comment\n"
            "\n"
            "train.lr1 = 0.002\n",
        )
        mc = build(ModelConfig, cfg)
        assert mc.decoder_depth == 2
        assert mc.matcher_mode == "vanilla"
        assert build(TrainConfig, cfg).lr1 == pytest.approx(0.002)

    def test_defaults_when_absent(self, tmp_path):
        cfg = parse_text(tmp_path, "")
        assert build(ModelConfig, cfg, num_classes=3) == ModelConfig(num_classes=3)
        assert build(TrainConfig, cfg) == TrainConfig()
        mc = build(ModelConfig, cfg)
        assert mc.decoder_depth == 4
        assert mc.normalize_amp_map is True
        assert mc.backbone_widths == (16, 32, 48, 64)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown key"):
            parse_text(tmp_path, "decoder.depht = 2\n")

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            parse_text(tmp_path, "decoder.depth = 1\ndecoder.depth = 2\n")

    def test_missing_equals_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="key = value"):
            parse_text(tmp_path, "decoder.depth 2\n")

    def test_bool_and_ints_parsing(self, tmp_path):
        cfg = parse_text(
            tmp_path,
            "decoder.normalize_amp_map = false\nbackbone.widths = 8,16, 24 32\n",
        )
        mc = build(ModelConfig, cfg)
        assert mc.normalize_amp_map is False
        assert mc.backbone_widths == (8, 16, 24, 32)
        for spelling, value in [("TRUE", True), ("1", True), ("yes", True),
                                ("False", False), ("0", False), ("no", False)]:
            assert build(ModelConfig, {"reliable.renormalize": spelling}).renormalize is value

    def test_bad_bool_rejected(self, tmp_path):
        cfg = parse_text(tmp_path, "decoder.normalize_amp_map = maybe\n")
        with pytest.raises(ValueError, match="decoder.normalize_amp_map: expected a boolean"):
            build(ModelConfig, cfg)

    @pytest.mark.parametrize("cls,key,raw,msg", [
        (ModelConfig, "decoder.depth", "two", "decoder.depth: expected an integer"),
        (ModelConfig, "decoder.depth", "7", "decoder.depth must be one of 1, 2, 3, 4, got 7"),
        (ModelConfig, "decoder.channels", "0", "decoder.channels must be >= 1"),
        (ModelConfig, "backbone.widths", "16 0 48 64", "entries of backbone.widths must be >= 1"),
        (ModelConfig, "phase_enc.widths", "8 16 24 0", "entries of phase_enc.widths must be >= 1"),
        (ModelConfig, "backbone.widths", "8 16 24", "backbone.widths: expected 4 integers"),
        (ModelConfig, "enhance.op", "Phase", "enhance.op must be one of phase, sobel, none"),
        (ModelConfig, "matcher.mode", "hard", "matcher.mode must be one of reliable, vanilla"),
        (ModelConfig, "matcher.prototypes", "3",
         "matcher.prototypes must be at least the class count 4"),
        (ModelConfig, "matcher.layers", "0", "matcher.layers must be >= 1, got 0"),
        (ModelConfig, "matcher.layers", "-1", "matcher.layers must be >= 1, got -1"),
        (TrainConfig, "train.lr1", "fast", "train.lr1: expected a number"),
        (TrainConfig, "phase.c_a", "mean", "phase.c_a: expected a number"),
        (TrainConfig, "train.dtype", "float16", "train.dtype must be one of float32, float64"),
        (TrainConfig, "train.iters", "0", "train.iters must be >= 1"),
        (TrainConfig, "train.batch", "0", "train.batch must be >= 1"),
        (TrainConfig, "train.log_every", "0", "train.log_every must be >= 1"),
        (TrainConfig, "train.phase1_iters", "-1", "train.phase1_iters must be >= 0"),
        (TrainConfig, "train.phase1_iters", "5001",
         "train.phase1_iters must be at most train.iters"),
        (TrainConfig, "train.lr2", "-0.001", "train.lr2 must be >= 0, got -0.001"),
        (TrainConfig, "train.weight_decay", "-1", "train.weight_decay must be >= 0, got -1.0"),
        (TrainConfig, "train.lambda_cls", "-2", "train.lambda_cls must be >= 0, got -2.0"),
        (TrainConfig, "train.lambda_bce", "-1", "train.lambda_bce must be >= 0"),
        (TrainConfig, "train.lambda_dice", "-1", "train.lambda_dice must be >= 0"),
        (TrainConfig, "train.lr1", "nan", "train.lr1 must be finite, got nan"),
        (TrainConfig, "train.lr2", "inf", "train.lr2 must be finite, got inf"),
        (TrainConfig, "train.weight_decay", "-inf", "train.weight_decay must be finite"),
        (TrainConfig, "phase.c_a", "inf", "phase.c_a must be finite, got inf"),
        (TrainConfig, "train.lambda_dice", "nan", "train.lambda_dice must be finite, got nan"),
    ])
    def test_bad_value_names_its_key(self, cls, key, raw, msg):
        with pytest.raises(ValueError, match=re.escape(msg)):
            build(cls, {key: raw})

    def test_loss_weights_checked_when_built_directly(self):
        with pytest.raises(ValueError, match="train.lambda_bce must be >= 0"):
            LossWeights(bce=-1.0)
        with pytest.raises(ValueError, match="train.lambda_cls must be finite"):
            LossWeights(cls=float("nan"))

    def test_readme_table_matches_schema(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `([^`]+)` \| ([^|]+?) \|", section, flags=re.M)
        assert sorted(k for k, _ in rows) == sorted(known_keys())
        for key, default in rows:
            if default in ("80%", "mean amplitude"):
                continue
            values = {key: default}
            assert build(ModelConfig, values) == ModelConfig(), key
            assert build(TrainConfig, values) == TrainConfig(), key


class TestTensorFile:
    def test_header_layout(self):
        blob = encode_tensor(np.zeros((2, 3), dtype=np.float32))
        assert blob[:4] == b"NFT1"
        assert blob[4:8] == (2).to_bytes(4, "little")
        assert blob[8:12] == (2).to_bytes(4, "little")
        assert blob[12:16] == (3).to_bytes(4, "little")
        assert len(blob) == 16 + 4 * 6

    def test_roundtrip_row_major(self):
        rng = np.random.default_rng(0)
        for shape in ((4,), (2, 3), (2, 3, 4), (1, 2, 3, 4)):
            arr = rng.normal(size=shape).astype(np.float32)
            back = decode_tensor(encode_tensor(arr))
            assert back.shape == shape
            assert np.array_equal(back, arr)

    def test_tensor_wrapper_roundtrip(self, tmp_path):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        write_tensor(tmp_path / "t.nft", t)
        assert np.array_equal(read_tensor(tmp_path / "t.nft"), t.data)

    def test_float64_roundtrips_exactly(self):
        arr = np.random.default_rng(1).normal(size=(3, 5))
        blob = encode_tensor(arr)
        assert blob[:4] == b"NFT8"
        assert len(blob) == 16 + 8 * 15
        back = decode_tensor(blob)
        assert back.dtype == np.float64
        assert np.array_equal(back, arr)

    def test_float32_stays_f32(self):
        back = decode_tensor(encode_tensor(np.array([np.pi], dtype=np.float32)))
        assert back.dtype == np.float32
        assert back[0] == np.float32(np.pi)

    @pytest.mark.parametrize("dtype,magic", [(np.float32, b"NFT1"), (np.float64, b"NFT8")])
    def test_write_flat_is_one_rank1_tensor(self, tmp_path, dtype, magic):
        parts = [np.arange(6, dtype=dtype).reshape(2, 3), np.array([7.5], dtype=dtype)]
        write_flat(tmp_path / "f.nft", parts)
        assert (tmp_path / "f.nft").read_bytes()[:4] == magic
        back = read_tensor(tmp_path / "f.nft")
        assert back.dtype == dtype
        assert np.array_equal(back, [0, 1, 2, 3, 4, 5, 7.5])

    def test_write_flat_rejects_mixed_dtypes(self, tmp_path):
        with pytest.raises(ValueError, match="one dtype"):
            write_flat(tmp_path / "f.nft", [np.zeros(2, np.float32), np.zeros(2)])
        assert not (tmp_path / "f.nft").exists()

    @pytest.mark.parametrize("blob,msg", [
        (b"XXXX" + bytes(8), "magic"),
        (b"NFT1", "rank"),
        (b"NFT1" + (0).to_bytes(4, "little"), "rank"),
        (b"NFT1" + (2).to_bytes(4, "little") + (2).to_bytes(4, "little"), "extents"),
        (b"NFT1" + (1).to_bytes(4, "little") + (0).to_bytes(4, "little"), "zero extent"),
        (b"NFT1" + (1).to_bytes(4, "little") + (2).to_bytes(4, "little") + bytes(4), "length mismatch"),
        (b"NFT8" + (1).to_bytes(4, "little") + (2).to_bytes(4, "little") + bytes(8), "length mismatch"),
    ])
    def test_malformed_rejected(self, blob, msg):
        with pytest.raises(ValueError, match=msg):
            decode_tensor(blob)
