"""Procedural night scenes: dark, low-contrast images with labeled objects.

Every scene is a dim background with a smooth illumination gradient,
textured foreground objects (each class has its own stripe frequency and
orientation, offset from the background by a small contrast gap) and
"deceiver" patches: background regions whose brightness matches a
foreground class but which carry no class texture. Intensity alone is
therefore ambiguous; texture is what separates the classes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import check_options, option
from .netpbm import write_pgm, write_ppm

__all__ = ["SceneConfig", "SceneSample", "generate_scene", "gen_dataset", "parse_manifest",
           "read_manifest"]


@dataclass
class SceneConfig:
    """Scene parameters; the keyed ones are set by ``gen-data`` flags, and a
    rejected value names its flag."""

    # the smallest object footprint is 12x12 pixels
    height: int = option("--height", 32, at_least=12)
    width: int = option("--width", 64, at_least=12)
    num_classes: int = option("--classes", 4)
    objects_min: int | None = None     # default: one object per foreground class
    objects_max: int | None = None
    ambient: tuple[float, float] = (0.05, 0.20)
    contrast_gap: float = option("--contrast-gap", 0.06)
    texture_amp: float = 0.10
    deceivers: tuple[int, int] = option("--deceivers", (1, 2), at_least=0)
    noise_std: float = option("--noise-std", 0.01, at_least=0)

    def __post_init__(self):
        check_options(self)
        if not (0.0 <= self.ambient[0] <= self.ambient[1] <= 1.0):
            raise ValueError(f"ambient range {self.ambient} must sit inside [0,1]")
        if self.contrast_gap <= 0:
            raise ValueError(f"--contrast-gap must be positive, got {self.contrast_gap}")
        if self.deceivers[0] > self.deceivers[1]:
            raise ValueError(f"--deceivers MIN must not exceed MAX, got {self.deceivers}")
        if self.num_classes < 2:
            raise ValueError(f"--classes {self.num_classes}: need a background class and "
                             f"at least one foreground class")
        n_fg = self.num_classes - 1
        if self.objects_min is None:
            self.objects_min = n_fg
        if self.objects_max is None:
            self.objects_max = n_fg + 1

    def to_lines(self) -> list[str]:
        """One ``field = value`` manifest header line per field; tuples space-separated."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return [f"{name} = {' '.join(map(str, v)) if isinstance(v, tuple) else v}"
                for name, v in values]


@dataclass
class SceneSample:
    image: np.ndarray   # [H, W, 3] in [0, 1]
    mask: np.ndarray    # [H, W] int class indices
    seed: int


# per-class texture patterns that stay distinguishable after 4x downsampling:
# period-8 stripes still oscillate in the quarter-resolution feature maps
# (two samples per period), and the checker differs structurally. classes
# beyond the table reuse entries with a doubled period.
_TEXTURE_KINDS = [("rows", 8.0), ("cols", 8.0), ("checker", 4.0), ("diag", 8.0)]


def _class_texture(cls: int, ii: np.ndarray, jj: np.ndarray, phase: float,
                   amp: float) -> np.ndarray:
    k = cls - 1
    kind, period = _TEXTURE_KINDS[k % len(_TEXTURE_KINDS)]
    period *= 2.0 ** (k // len(_TEXTURE_KINDS))
    w = 2.0 * np.pi / period
    if kind == "rows":
        return amp * np.sin(w * ii + phase)
    if kind == "cols":
        return amp * np.sin(w * jj + phase)
    if kind == "checker":
        return amp * np.sin(w * ii + phase) * np.sin(w * jj + phase)
    return amp * np.sin(w * (ii + jj) / np.sqrt(2.0) + phase)


def _shape_region(rng: np.random.Generator, h: int, w: int) -> tuple[slice, slice, np.ndarray]:
    """A random rectangle / ellipse / horizontal band: its bounding box as
    row and column slices, and its boolean footprint inside that box. It
    fits any image of at least 12x12 pixels."""
    kind = rng.choice(["rect", "ellipse", "band"])
    if kind == "band":
        bh = int(rng.integers(8, max(9, h // 3 + 2) + 1))
        top = int(rng.integers(0, h - bh + 1))
        return slice(top, top + bh), slice(0, w), np.ones((bh, w), dtype=bool)
    oh = int(rng.integers(12, min(22, h) + 1))
    ow = int(rng.integers(12, min(28, w) + 1))
    top = int(rng.integers(0, h - oh + 1))
    left = int(rng.integers(0, w - ow + 1))
    if kind == "rect":
        return slice(top, top + oh), slice(left, left + ow), np.ones((oh, ow), dtype=bool)
    # the test is closed, so row top+oh and column left+ow touch the ellipse
    # where the other coordinate sits exactly on the centre
    bottom, right = min(top + oh + 1, h), min(left + ow + 1, w)
    ii = np.arange(top, bottom)[:, None]
    jj = np.arange(left, right)[None, :]
    cy, cx = top + oh / 2.0, left + ow / 2.0
    inside = ((ii - cy) / (oh / 2.0)) ** 2 + ((jj - cx) / (ow / 2.0)) ** 2 <= 1.0
    return slice(top, bottom), slice(left, right), inside


def generate_scene(cfg: SceneConfig, seed: int) -> SceneSample:
    """Deterministic scene for (cfg, seed)."""
    rng = np.random.default_rng(seed)
    h, w = cfg.height, cfg.width
    # pixel coordinates as a column and a row; they broadcast to [h, w]
    ii = np.arange(h, dtype=np.float64)[:, None]
    jj = np.arange(w, dtype=np.float64)[None, :]

    ambient = rng.uniform(*cfg.ambient)
    gy, gx = rng.uniform(-0.03, 0.03, size=2)
    base = ambient + gy * (ii / h - 0.5) + gx * (jj / w - 0.5)
    tint = rng.uniform(0.9, 1.1, size=3)
    image = base[:, :, None] * tint[None, None, :]
    mask = np.zeros((h, w), dtype=np.int64)
    fg_level = ambient + cfg.contrast_gap

    # deceivers first, underneath real objects; intensity-matched, untextured
    n_dec = int(rng.integers(cfg.deceivers[0], cfg.deceivers[1] + 1))
    for _ in range(n_dec):
        rows, cols, inside = _shape_region(rng, h, w)
        image[rows, cols][inside] = fg_level * tint[None, :]

    n_obj = int(rng.integers(cfg.objects_min, cfg.objects_max + 1))
    classes = list(rng.permutation(np.arange(1, cfg.num_classes)))
    while len(classes) < n_obj:
        classes.append(int(rng.integers(1, cfg.num_classes)))
    classes = classes[:n_obj]

    def draw_object(cls: int) -> None:
        rows, cols, inside = _shape_region(rng, h, w)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        tex = _class_texture(int(cls), ii[rows], jj[:, cols], phase, cfg.texture_amp)
        # row and column stripes vary along one axis only
        level = np.broadcast_to((fg_level + tex)[:, :, None] * tint, inside.shape + (3,))
        image[rows, cols][inside] = level[inside]
        mask[rows, cols][inside] = int(cls)

    for cls in classes:
        draw_object(int(cls))

    # overlap may have buried a class entirely; redraw missing ones on top
    if cfg.objects_max > 0:
        for _ in range(100):
            missing = [c for c in range(1, cfg.num_classes) if not (mask == c).any()]
            if not missing:
                break
            draw_object(int(missing[0]))

    if cfg.noise_std > 0:
        image += rng.normal(0.0, cfg.noise_std, size=image.shape)
    return SceneSample(np.clip(image, 0.0, 1.0, out=image), mask, seed)


def gen_dataset(cfg: SceneConfig, count: int, seed: int, out_dir: str | Path) -> Path:
    """Write image/mask pairs and a manifest; 80/20 train/val split.

    Per-sample seeds are seed^index, so regeneration produces identical
    files; the split is drawn from the seed, not from file order. Each
    sample is written, in index order, as soon as it is generated, so memory
    does not grow with ``count``.
    """
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    val_count = count // 5
    val_idx = set(
        np.random.default_rng([seed, 0x51A17]).choice(count, size=val_count, replace=False).tolist()
    )
    lines = ["# night-scene dataset manifest"]
    lines += [f"# count = {count}", f"# seed = {seed}"]
    lines += [f"# {ln}" for ln in cfg.to_lines()]
    for i in range(count):
        sample = generate_scene(cfg, seed ^ i)
        img_name = f"img_{i:05d}.ppm"
        msk_name = f"msk_{i:05d}.pgm"
        (out / img_name).write_bytes(write_ppm(sample.image))
        (out / msk_name).write_bytes(write_pgm(sample.mask))
        split = "val" if i in val_idx else "train"
        lines.append(f"{img_name} {msk_name} {split}")
    manifest = out / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def parse_manifest(path: str | Path) -> tuple[dict[str, str], list[tuple[str, str, str]]]:
    """Returns (config key/value pairs, [(image, mask, split), ...])."""
    meta: dict[str, str] = {}
    entries: list[tuple[str, str, str]] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                meta[k.strip()] = v.strip()
            continue
        parts = line.split()
        if len(parts) != 3 or parts[2] not in ("train", "val"):
            raise ValueError(f"malformed manifest line: {raw!r}")
        entries.append((parts[0], parts[1], parts[2]))
    return meta, entries


def read_manifest(path: str | Path) -> tuple[tuple[int, int, int], list[tuple[str, str, str]]]:
    """Returns ((num_classes, height, width) from the header, [(image, mask,
    split), ...]); a header without those three as integers is refused."""
    meta, entries = parse_manifest(path)
    try:
        dims = tuple(int(meta[k]) for k in ("num_classes", "height", "width"))
    except (KeyError, ValueError):
        raise ValueError(f"{path}: header needs integer num_classes, height and width") from None
    return dims, entries
