"""Training and evaluation: AdamW, two-phase LR, checkpoints, mIoU reports.

Runs are fully deterministic under a fixed seed: data order, init, and
updates all come from seeded generators, and losses/metrics are written
with fixed formatting so repeated runs produce byte-identical logs.
Losses and evaluation live on the model's native quarter-resolution grid
against majority-pooled ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import check_options, option
from .losses import LossWeights, total_loss
from .metrics import ConfusionMatrix
from .model import NightSegModel, SegOutput, majority_pool, predict
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
    def __init__(self, iteration: int, ckpt: Path | None, what: str = "loss"):
        saved = f"; weights at divergence saved to {ckpt}" if ckpt is not None else ""
        super().__init__(f"non-finite {what} at iteration {iteration}{saved}")
        self.iteration = iteration
        self.checkpoint = ckpt


@dataclass
class TrainConfig:
    iters: int = option("train.iters", 5000, at_least=1)
    phase1_iters: int | None = option("train.phase1_iters", None, at_least=0)  # None: 80% of iters
    lr1: float = option("train.lr1", 1e-3)
    lr2: float = option("train.lr2", 1e-4)
    batch: int = option("train.batch", 4, at_least=1)
    seed: int = option("train.seed", 0)
    weight_decay: float = option("train.weight_decay", 1e-4)
    weights: LossWeights = field(default_factory=LossWeights)
    dtype: object = option("train.dtype", np.float32,
                           choices={"float32": np.float32, "float64": np.float64})
    log_every: int = option("train.log_every", 1, at_least=1)
    c_a: float | None = option("phase.c_a", None)              # None: mean amplitude

    def __post_init__(self):
        if self.phase1_iters is None:
            self.phase1_iters = (self.iters * 4) // 5
        check_options(self)
        if self.phase1_iters > self.iters:
            raise ValueError(f"train.phase1_iters must be at most train.iters = {self.iters}, "
                             f"got {self.phase1_iters}")
        if self.lr2 >= self.lr1:
            raise ValueError(f"second-phase rate train.lr2 = {self.lr2} must be below "
                             f"first-phase rate train.lr1 = {self.lr1}")
        if self.c_a is not None and not self.c_a > 0:
            raise ValueError(f"phase.c_a must be > 0, got {self.c_a}")


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
    textures: list[np.ndarray] | None
    train_idx: list[int]
    val_idx: list[int]
    num_classes: int


def load_dataset(data_dir: str | Path, enhance_op: str, c_a: float | None = None) -> LoadedDataset:
    """Read a generated dataset and precompute texture maps once per image."""
    data_dir = Path(data_dir)
    meta, entries = parse_manifest(data_dir / "manifest.txt")
    images, masks, textures = [], [], []
    train_idx, val_idx = [], []
    for i, (img_name, msk_name, split) in enumerate(entries):
        img = read_ppm((data_dir / img_name).read_bytes())
        msk = read_pgm((data_dir / msk_name).read_bytes())
        images.append(img)
        masks.append(majority_pool(msk, 4))
        if enhance_op in ("phase", "sobel"):
            textures.append(image_texture_stack(img, mode=enhance_op, c_a=c_a))
        (train_idx if split == "train" else val_idx).append(i)
    return LoadedDataset(
        images=images,
        masks=masks,
        textures=textures if enhance_op != "none" else None,
        train_idx=train_idx,
        val_idx=val_idx,
        num_classes=int(meta["num_classes"]),
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


def _forward(model: NightSegModel, ds: LoadedDataset, idx: int | list[int], dtype) -> SegOutput:
    """The model on sample ``idx``, or on the samples of a list stacked into one batch."""
    def pick(arrays: list[np.ndarray]) -> Tensor:
        a = arrays[idx] if isinstance(idx, int) else np.stack([arrays[i] for i in idx])
        return Tensor(a.astype(dtype))

    return model(pick(ds.images), None if ds.textures is None else pick(ds.textures))


def train(model: NightSegModel, ds: LoadedDataset, tc: TrainConfig,
          out_dir: str | Path | None = None) -> list[str]:
    """Optimize the model; returns the per-logged-iteration loss lines.

    Each step runs its batch through the model as one [B, ...] stack on one
    tape; the loss matches every image separately and averages over them.
    """
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
        batch = [ds.train_idx[int(j)] for j in idxs]
        opt.zero_grad()
        with Tape():
            out = _forward(model, ds, batch, dtype)
            if not (np.isfinite(out.mask_logits.data).all()
                    and np.isfinite(out.class_logits.data).all()):
                raise TrainingDiverged(it, ckpt_dir and save_checkpoint(ckpt_dir, params))
            loss = total_loss(out.mask_logits, out.class_logits,
                              np.stack([ds.masks[i] for i in batch]), ds.num_classes, tc.weights)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise TrainingDiverged(it, ckpt_dir and save_checkpoint(ckpt_dir, params))
            backward(loss)
        for name, p in params:
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise TrainingDiverged(it, ckpt_dir and save_checkpoint(ckpt_dir, params),
                                       f"gradient of {name}")
        opt.step()
        if it % tc.log_every == 0 or it == tc.iters - 1:
            log.append(f"iter {it} loss {loss_val:.6f} lr {opt.lr:.6g}")

    if out_dir is not None:
        save_checkpoint(ckpt_dir, params)
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "train_log.txt").write_text("\n".join(log) + "\n", encoding="utf-8")
    return log


def evaluate(model: NightSegModel, ds: LoadedDataset, dtype) -> ConfusionMatrix:
    cm = ConfusionMatrix(ds.num_classes)
    for idx in ds.val_idx:
        out = _forward(model, ds, idx, dtype)
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
