"""Training and evaluation: AdamW, two-phase LR, checkpoints, mIoU reports.

Runs are fully deterministic under a fixed seed: data order, init, and
updates all come from seeded generators, and losses/metrics are written
with fixed formatting so repeated runs produce byte-identical logs.
Losses and evaluation live on the model's native quarter-resolution grid
against majority-pooled ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import Config
from .losses import LossWeights, total_loss
from .metrics import ConfusionMatrix
from .model import ModelConfig, NightSegModel, SegOutput, majority_pool, predict
from .netpbm import read_pgm, read_ppm
from .phase import image_texture_stack
from .scenes import parse_manifest
from .tensor import Tape, Tensor, backward
from .tensor_io import read_tensor, write_tensor

__all__ = [
    "TrainConfig",
    "AdamW",
    "LoadedDataset",
    "load_dataset",
    "save_checkpoint",
    "load_checkpoint",
    "train",
    "evaluate",
    "render_report",
    "TrainingDiverged",
]


class TrainingDiverged(RuntimeError):
    def __init__(self, iteration: int, ckpt: Path):
        super().__init__(f"non-finite loss at iteration {iteration}; last good checkpoint: {ckpt}")
        self.iteration = iteration
        self.checkpoint = ckpt


@dataclass
class TrainConfig:
    iters: int = 3000
    phase1_iters: int | None = None   # default: 80% of iters
    lr1: float = 1e-3
    lr2: float = 1e-4
    batch: int = 4
    seed: int = 0
    weight_decay: float = 1e-4
    weights: LossWeights = None       # type: ignore[assignment]
    dtype: object = np.float32
    log_every: int = 1
    c_a: float | None = None

    def __post_init__(self):
        if self.phase1_iters is None:
            self.phase1_iters = (self.iters * 4) // 5
        if self.weights is None:
            self.weights = LossWeights()
        if self.lr2 >= self.lr1:
            raise ValueError(f"second-phase rate {self.lr2} must be below first-phase rate {self.lr1}")
        if self.c_a is not None and not self.c_a > 0:
            raise ValueError(f"phase.c_a must be > 0, got {self.c_a}")

    @classmethod
    def from_config(cls, cfg: Config) -> "TrainConfig":
        iters = cfg.get_int("train.iters", 3000)
        phase1 = cfg.get_int("train.phase1_iters", (iters * 4) // 5)
        dtype = {"float32": np.float32, "float64": np.float64}[cfg.get_str("train.dtype", "float32")]
        c_a = cfg.get_float("phase.c_a", 0.0) if "phase.c_a" in cfg.values else None
        return cls(
            iters=iters,
            phase1_iters=phase1,
            lr1=cfg.get_float("train.lr1", 1e-3),
            lr2=cfg.get_float("train.lr2", 1e-4),
            batch=cfg.get_int("train.batch", 4),
            seed=cfg.get_int("train.seed", 0),
            weight_decay=cfg.get_float("train.weight_decay", 1e-4),
            weights=LossWeights(
                cls=cfg.get_float("train.lambda_cls", 2.0),
                bce=cfg.get_float("train.lambda_bce", 5.0),
                dice=cfg.get_float("train.lambda_dice", 5.0),
            ),
            dtype=dtype,
            log_every=cfg.get_int("train.log_every", 1),
            c_a=c_a,
        )


def model_config_from(cfg: Config, num_classes: int, seed: int, dtype) -> ModelConfig:
    return ModelConfig(
        num_classes=num_classes,
        backbone_widths=cfg.get_ints("backbone.widths", (16, 32, 48, 64)),
        phase_widths=cfg.get_ints("phase_enc.widths", (8, 16, 24, 32)),
        decoder_channels=cfg.get_int("decoder.channels", 64),
        decoder_depth=cfg.get_int("decoder.depth", 4),
        normalize_amp_map=cfg.get_bool("decoder.normalize_amp_map", True),
        enhance_op=cfg.get_str("enhance.op", "phase"),
        prototypes=cfg.get_int("matcher.prototypes", 8),
        reliable_k=cfg.get_int("matcher.reliable_k", 16),
        matcher_layers=cfg.get_int("matcher.layers", 3),
        matcher_mode=cfg.get_str("matcher.mode", "reliable"),
        renormalize=cfg.get_bool("reliable.renormalize", False),
        seed=seed,
        dtype=dtype,
    )


class AdamW:
    """Adaptive moments with decoupled weight decay."""

    def __init__(self, params: list[tuple[str, Tensor]], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params}
        self.v = {n: np.zeros_like(p.data) for n, p in params}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            m = self.m[name] = self.b1 * self.m[name] + (1.0 - self.b1) * g
            v = self.v[name] = self.b2 * self.v[name] + (1.0 - self.b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data - self.lr * (update + self.weight_decay * p.data)

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None


@dataclass
class LoadedDataset:
    images: list[np.ndarray]
    masks: list[np.ndarray]       # quarter-resolution, majority pooled
    full_masks: list[np.ndarray]
    textures: list[np.ndarray] | None
    train_idx: list[int]
    val_idx: list[int]
    num_classes: int
    height: int
    width: int


def load_dataset(data_dir: str | Path, enhance_op: str, c_a: float | None = None) -> LoadedDataset:
    """Read a generated dataset and precompute texture maps once per image."""
    data_dir = Path(data_dir)
    meta, entries = parse_manifest(data_dir / "manifest.txt")
    num_classes = int(meta.get("num_classes", 4))
    images, masks, full_masks, textures = [], [], [], []
    train_idx, val_idx = [], []
    for i, (img_name, msk_name, split) in enumerate(entries):
        img = read_ppm((data_dir / img_name).read_bytes())
        msk = read_pgm((data_dir / msk_name).read_bytes())
        images.append(img)
        full_masks.append(msk)
        masks.append(majority_pool(msk, 4))
        if enhance_op in ("phase", "sobel"):
            textures.append(image_texture_stack(img, mode=enhance_op, c_a=c_a))
        (train_idx if split == "train" else val_idx).append(i)
    return LoadedDataset(
        images=images,
        masks=masks,
        full_masks=full_masks,
        textures=textures if enhance_op != "none" else None,
        train_idx=train_idx,
        val_idx=val_idx,
        num_classes=num_classes,
        height=int(meta.get("height", images[0].shape[0])),
        width=int(meta.get("width", images[0].shape[1])),
    )


def save_checkpoint(out_dir: str | Path, params: list[tuple[str, Tensor]]) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for name, p in params:
        write_tensor(out / f"{name}.nft", p)
        names.append(name)
    (out / "params.txt").write_text("\n".join(names) + "\n", encoding="utf-8")
    return out


def load_checkpoint(ckpt_dir: str | Path, model: NightSegModel) -> None:
    ckpt = Path(ckpt_dir)
    listed = (ckpt / "params.txt").read_text(encoding="utf-8").split()
    params = dict(model.parameters())
    if set(listed) != set(params):
        missing = sorted(set(params) - set(listed))
        extra = sorted(set(listed) - set(params))
        raise ValueError(f"checkpoint mismatch; missing {missing}, unexpected {extra}")
    for name in listed:
        arr = read_tensor(ckpt / f"{name}.nft")
        p = params[name]
        if arr.shape != p.data.shape:
            raise ValueError(f"checkpoint tensor {name}: shape {arr.shape} != model {p.data.shape}")
        p.data = arr.astype(p.data.dtype)


def _forward_sample(model: NightSegModel, ds: LoadedDataset, idx: int, dtype) -> SegOutput:
    image = Tensor(ds.images[idx].astype(dtype))
    texture = None
    if ds.textures is not None:
        texture = Tensor(ds.textures[idx].astype(dtype))
    return model(image, texture)


def train(model: NightSegModel, ds: LoadedDataset, tc: TrainConfig,
          out_dir: str | Path | None = None) -> list[str]:
    """Optimize the model; returns the per-logged-iteration loss lines."""
    params = model.parameters()
    opt = AdamW(params, lr=tc.lr1, weight_decay=tc.weight_decay)
    batch_rng = np.random.default_rng([tc.seed, 0xBA7C4])
    dtype = tc.dtype
    log: list[str] = []
    ckpt_dir = Path(out_dir) / "checkpoint" if out_dir is not None else None

    for it in range(tc.iters):
        opt.lr = tc.lr1 if it < tc.phase1_iters else tc.lr2
        idxs = batch_rng.choice(len(ds.train_idx), size=min(tc.batch, len(ds.train_idx)),
                                replace=False)
        opt.zero_grad()
        with Tape():
            loss = None
            for j in idxs:
                sample = ds.train_idx[int(j)]
                out = _forward_sample(model, ds, sample, dtype)
                if not (np.isfinite(out.mask_logits.data).all()
                        and np.isfinite(out.class_logits.data).all()):
                    ckpt = save_checkpoint(ckpt_dir or "last_good_checkpoint", params)
                    raise TrainingDiverged(it, ckpt)
                term = total_loss(out.mask_logits, out.class_logits,
                                  ds.masks[sample], ds.num_classes, tc.weights)
                loss = term if loss is None else loss + term
            loss = loss * (1.0 / len(idxs))
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                ckpt = save_checkpoint(ckpt_dir or "last_good_checkpoint", params)
                raise TrainingDiverged(it, ckpt)
            backward(loss)
        opt.step()
        if it % tc.log_every == 0 or it == tc.iters - 1:
            log.append(f"iter {it} loss {loss_val:.6f} lr {opt.lr:.6g}")

    if out_dir is not None:
        save_checkpoint(ckpt_dir, params)
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "train_log.txt").write_text("\n".join(log) + "\n", encoding="utf-8")
    return log


def evaluate(model: NightSegModel, ds: LoadedDataset, dtype=np.float32,
             split: str = "val") -> ConfusionMatrix:
    cm = ConfusionMatrix(ds.num_classes)
    indices = ds.val_idx if split == "val" else ds.train_idx
    for idx in indices:
        out = _forward_sample(model, ds, idx, dtype)
        cm.update(predict(out, ds.num_classes), ds.masks[idx])
    return cm


def class_name(c: int) -> str:
    return "background" if c == 0 else f"object_{c}"


def render_report(cm: ConfusionMatrix) -> str:
    """One `class_name iou` line per class, then `miou <value>`.

    Metrics are on the quarter-resolution grid; classes absent from both
    prediction and ground truth print n/a and are excluded from the mean.
    """
    per_class, mean = cm.iou()
    lines = []
    for c in range(cm.num_classes):
        value = "n/a" if np.isnan(per_class[c]) else f"{per_class[c]:.6f}"
        lines.append(f"{class_name(c)} {value}")
    lines.append(f"miou {mean:.6f}")
    return "\n".join(lines) + "\n"
