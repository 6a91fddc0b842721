"""Scene generator and dataset writer: determinism, labels, splits."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from nightseg.cli import main
from nightseg.netpbm import decode8, read_pgm, read_ppm8
from nightseg.scenes import (SceneConfig, _shape_region, gen_dataset, generate_scene,
                             parse_manifest)


class TestGenerateScene:
    def test_deterministic_per_seed(self):
        cfg = SceneConfig()
        a = generate_scene(cfg, 123)
        b = generate_scene(cfg, 123)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.mask, b.mask)

    def test_different_seeds_differ(self):
        cfg = SceneConfig()
        a = generate_scene(cfg, 1)
        b = generate_scene(cfg, 2)
        assert not np.array_equal(a.image, b.image)

    def test_image_range_and_mask_labels(self):
        cfg = SceneConfig()
        for seed in range(20):
            s = generate_scene(cfg, seed)
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert s.mask.min() >= 0 and s.mask.max() < cfg.num_classes

    def test_every_class_present_over_100_seeds(self):
        cfg = SceneConfig()
        for seed in range(100):
            s = generate_scene(cfg, seed)
            present = set(np.unique(s.mask).tolist())
            assert present == set(range(cfg.num_classes))

    def test_flat_background_when_disabled_knobs(self):
        cfg = SceneConfig(ambient=(0.1, 0.1), deceivers=(0, 0), noise_std=0.0,
                          objects_min=0, objects_max=0)
        s = generate_scene(cfg, 5)
        # no objects, no deceivers, no noise: only the smooth gradient and tint
        assert np.all(s.mask == 0)
        assert s.image.std() < 0.05

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="ambient"):
            SceneConfig(ambient=(0.5, 0.2))
        with pytest.raises(ValueError, match="contrast"):
            SceneConfig(contrast_gap=0.0)
        with pytest.raises(ValueError, match="background"):
            SceneConfig(num_classes=1)


def _full_image_footprint(rng, h, w):
    """The footprint over the whole image, as the generator once computed
    it; also the open box [top, top+oh) x [left, left+ow), None for a band."""
    kind = rng.choice(["rect", "ellipse", "band"])
    ii, jj = np.mgrid[0:h, 0:w]
    if kind == "band":
        bh = int(rng.integers(8, max(9, h // 3 + 2) + 1))
        top = int(rng.integers(0, h - bh + 1))
        return (ii >= top) & (ii < top + bh), None
    oh = int(rng.integers(12, min(22, h) + 1))
    ow = int(rng.integers(12, min(28, w) + 1))
    top = int(rng.integers(0, h - oh + 1))
    left = int(rng.integers(0, w - ow + 1))
    box = (top, top + oh, left, left + ow)
    if kind == "rect":
        return (ii >= top) & (ii < top + oh) & (jj >= left) & (jj < left + ow), box
    cy, cx = top + oh / 2.0, left + ow / 2.0
    return ((ii - cy) / (oh / 2.0)) ** 2 + ((jj - cx) / (ow / 2.0)) ** 2 <= 1.0, box


@pytest.mark.parametrize("height,width", [(12, 12), (32, 64), (128, 256)])
def test_box_footprint_equals_full_image_footprint(height, width):
    closing = 0   # footprints reaching row top+oh or column left+ow
    for seed in range(200):
        ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(4):   # successive draws from one stream, as in a scene
            rows, cols, inside = _shape_region(ours, height, width)
            want, box = _full_image_footprint(oracle, height, width)
            got = np.zeros((height, width), dtype=bool)
            got[rows, cols] = inside
            assert np.array_equal(got, want), (seed, rows, cols)
            if box is not None:
                open_box = np.zeros_like(want)
                open_box[box[0]:box[1], box[2]:box[3]] = True
                closing += bool((want & ~open_box).any())
    assert closing > 0 or (height, width) == (12, 12)   # a 12x12 box fills the image


class TestGenDataset:
    def test_file_layout_and_split(self, tmp_path):
        cfg = SceneConfig()
        manifest = gen_dataset(cfg, 10, 7, tmp_path)
        images = sorted(tmp_path.glob("img_*.ppm"))
        masks = sorted(tmp_path.glob("msk_*.pgm"))
        assert len(images) == 10 and len(masks) == 10
        meta, entries = parse_manifest(manifest)
        assert meta["num_classes"] == "4"
        assert len(entries) == 10
        splits = [e[2] for e in entries]
        assert splits.count("val") == 2  # 20% of 10
        names = {e[0] for e in entries} | {e[1] for e in entries}
        assert names == {p.name for p in images} | {p.name for p in masks}

    def test_identical_manifests_for_same_seed(self, tmp_path):
        cfg = SceneConfig()
        m1 = gen_dataset(cfg, 8, 3, tmp_path / "a")
        m2 = gen_dataset(cfg, 8, 3, tmp_path / "b")
        assert m1.read_bytes() == m2.read_bytes()
        for i in range(8):
            assert (tmp_path / "a" / f"img_{i:05d}.ppm").read_bytes() == \
                   (tmp_path / "b" / f"img_{i:05d}.ppm").read_bytes()

    def test_partition_disjoint_and_exhaustive(self, tmp_path):
        manifest = gen_dataset(SceneConfig(), 25, 9, tmp_path)
        _, entries = parse_manifest(manifest)
        train = {e[0] for e in entries if e[2] == "train"}
        val = {e[0] for e in entries if e[2] == "val"}
        assert not (train & val)
        assert len(train | val) == 25

    def test_files_decode(self, tmp_path):
        gen_dataset(SceneConfig(), 3, 11, tmp_path)
        img = decode8(read_ppm8((tmp_path / "img_00000.ppm").read_bytes()))
        msk = read_pgm((tmp_path / "msk_00000.pgm").read_bytes())
        assert img.shape == (32, 64, 3)
        assert msk.shape == (32, 64)

    def test_memory_does_not_grow_with_count(self, tmp_path):
        # a 64x128 sample holds ~0.3 MiB; each is written before the next is made
        cfg = SceneConfig(height=64, width=128)
        gen_dataset(cfg, 1, 5, tmp_path / "warm")
        peaks = []
        for count in (5, 25):
            tracemalloc.start()
            try:
                gen_dataset(cfg, count, 5, tmp_path / str(count))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**20, peaks

    def test_malformed_manifest_line_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("img_0.ppm msk_0.pgm nowhere\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_manifest(path)


@pytest.mark.parametrize("height,width,digest", [
    (12, 12, "cd75eecd35e667349974867074f15c1f93ed743715d28dbbb475eef5eb4c0094"),
    (32, 64, "f3d55af905b95e90e151bd2b193a005c664b3bcbab99921866067bf2ee0f90f8"),
    (32, 96, "c76069299645ab35e5ca0fadc60a950a50c0c18cc2adf6eff9b85534f961a767"),
    (128, 256, "fd7b83db06ab60379d1855e2ab6ce700b022f1162be450402b297c88aa2049e2"),
])
def test_gen_data_output_is_pinned(tmp_path, height, width, digest):
    # the SHA-256 of every file gen-data writes (name and bytes, in name
    # order); it pins the generator's random stream at the smallest allowed
    # extents, at the desk size and at the benchmark's two prep sizes
    assert main(["gen-data", "--out", str(tmp_path), "--count", "20", "--seed", "42",
                 "--height", str(height), "--width", str(width)]) == 0
    sha = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    assert sha.hexdigest() == digest
