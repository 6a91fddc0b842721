"""Config parsing and the binary tensor format."""

import re
import struct
from pathlib import Path

import numpy as np
import pytest

from nightseg.config import build, known_keys, parse_config
from nightseg.losses import LossWeights
from nightseg.model import ModelConfig
from nightseg.tensor_io import decode_tensor, read_tensor, write_flat
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

    def test_int_tuple_parsing(self, tmp_path):
        cfg = parse_text(tmp_path, "backbone.widths = 8,16, 24 32\n")
        assert build(ModelConfig, cfg).backbone_widths == (8, 16, 24, 32)

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
            if default == "80%":
                continue
            values = {key: default}
            assert build(ModelConfig, values) == ModelConfig(), key
            assert build(TrainConfig, values) == TrainConfig(), key


def nft_blob(arr: np.ndarray) -> bytes:
    """A tensor file's bytes, laid out by hand: magic, u32 LE rank and
    extents, then the row-major f4 (or, for float64, f8) values."""
    magic, stored = (b"NFT8", "<f8") if arr.dtype == np.float64 else (b"NFT1", "<f4")
    head = magic + struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape)
    return head + arr.astype(stored).tobytes()


class TestTensorFile:
    def test_header_layout(self, tmp_path):
        write_flat(tmp_path / "f.nft", [np.zeros((2, 3), dtype=np.float32)])
        blob = (tmp_path / "f.nft").read_bytes()
        assert blob[:4] == b"NFT1"
        assert blob[4:8] == (1).to_bytes(4, "little")
        assert blob[8:12] == (6).to_bytes(4, "little")
        assert len(blob) == 12 + 4 * 6

    def test_roundtrip_row_major(self):
        rng = np.random.default_rng(0)
        for shape in ((4,), (2, 3), (2, 3, 4), (1, 2, 3, 4)):
            arr = rng.normal(size=shape).astype(np.float32)
            back = decode_tensor(nft_blob(arr))
            assert back.shape == shape
            assert np.array_equal(back, arr)

    def test_float64_roundtrips_exactly(self, tmp_path):
        arr = np.random.default_rng(1).normal(size=(3, 5))
        write_flat(tmp_path / "f.nft", [arr])
        blob = (tmp_path / "f.nft").read_bytes()
        assert blob[:4] == b"NFT8"
        assert len(blob) == 12 + 8 * 15
        back = decode_tensor(blob)
        assert back.dtype == np.float64
        assert np.array_equal(back, arr.reshape(-1))

    def test_float32_stays_f32(self, tmp_path):
        write_flat(tmp_path / "f.nft", [np.array([np.pi], dtype=np.float32)])
        back = read_tensor(tmp_path / "f.nft")
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
