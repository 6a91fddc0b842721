"""Training and evaluation: AdamW, two-phase LR, checkpoints, mIoU reports.

Runs are fully deterministic under a fixed seed: data order, init, and
updates all come from seeded generators, and losses/metrics are written
with fixed formatting so repeated runs produce byte-identical logs.
Losses and evaluation live on the model's native quarter-resolution grid
against majority-pooled ground truth.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .config import check_options, option, render_config
from .losses import LossWeights, total_loss
from .metrics import ConfusionMatrix
from .model import NightSegModel, SegOutput, majority_pool, predict
from .netpbm import decode8, read_pgm, read_ppm8
from .phase import image_texture_stack
from .scenes import read_manifest
from .tensor import Tape, Tensor, backward
from .tensor_io import read_tensor, write_flat

__all__ = [
    "TrainConfig",
    "AdamW",
    "EightBitImages",
    "LoadedDataset",
    "load_dataset",
    "save_checkpoint",
    "load_checkpoint",
    "train",
    "evaluate",
    "render_report",
    "TrainingDiverged",
    "NonFiniteGradient",
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
    lr2: float = option("train.lr2", 1e-4, at_least=0)
    batch: int = option("train.batch", 4, at_least=1)
    seed: int = option("train.seed", 0)
    weight_decay: float = option("train.weight_decay", 1e-4, at_least=0)
    weights: LossWeights = field(default_factory=LossWeights)
    dtype: object = option("train.dtype", np.float32,
                           choices={"float32": np.float32, "float64": np.float64})
    log_every: int = option("train.log_every", 1, at_least=1)

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


class AdamW:
    """Adaptive moments with decoupled weight decay (Loshchilov & Hutter),
    over one contiguous weight vector.

    The constructor concatenates every parameter, in the given order, into
    ``flat`` and rebinds each ``p.data`` to a view of its slice, so ``step``
    updates all weights in place with a few ufuncs per chunk. ``m`` and ``v``
    are flat vectors of the same layout. Every parameter needs a gradient at
    every step. Rebinding a ``p.data`` afterwards detaches it: the optimizer
    keeps updating its slice of ``flat``, which the parameter no longer shows.
    """

    def __init__(self, params: list[tuple[str, Tensor]], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        dtypes = {p.data.dtype for _, p in params}
        if len(dtypes) != 1:
            raise ValueError(f"AdamW needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        seen: dict[int, str] = {}
        for name, p in params:
            if id(p) in seen:
                raise ValueError(f"AdamW: parameter {name} is the tensor already listed as "
                                 f"{seen[id(p)]}")
            seen[id(p)] = name
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.flat = np.concatenate([p.data.reshape(-1) for _, p in params])
        bounds = np.cumsum([0] + [p.data.size for _, p in params]).tolist()
        self._slices = list(zip(params, bounds, bounds[1:]))   # ((name, p), lo, hi)
        for (_, p), lo, hi in self._slices:
            p.data = self.flat[lo:hi].reshape(p.data.shape)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def step(self) -> None:
        """One update of every parameter.

        Raises, before any state changes, ValueError if a parameter has no
        gradient and NonFiniteGradient if a gradient holds NaN or inf.
        """
        for name, p in self.params:
            if p.grad is None:
                raise ValueError(f"AdamW: parameter {name} has no gradient")
        # the gradients, gathered into a vector that lives only for this step
        # and is then overwritten chunk by chunk with the update
        g = np.concatenate([p.grad for _, p in self.params], axis=None,
                           out=np.empty_like(self.flat))
        if not np.isfinite(g).all():
            name = next(n for (n, _), lo, hi in self._slices if not np.isfinite(g[lo:hi]).all())
            raise NonFiniteGradient(name)
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        scratch = np.empty(min(_CHUNK, self.flat.size), self.flat.dtype)
        for a in range(0, self.flat.size, _CHUNK):
            b = min(a + _CHUNK, self.flat.size)
            w, m, v, gc, s = (self.flat[a:b], self.m[a:b], self.v[a:b], g[a:b], scratch[:b - a])
            # the per-tensor expressions, operand for operand:
            # m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
            # u = (m/bc1) / (sqrt(v/bc2) + eps); w = w - lr*(u + wd*w)
            np.multiply(gc, 1.0 - self.b1, out=s)
            m *= self.b1
            m += s
            np.multiply(gc, 1.0 - self.b2, out=s)
            s *= gc
            v *= self.b2
            v += s
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, bc1, out=gc)
            gc /= s
            np.multiply(w, self.weight_decay, out=s)
            gc += s
            gc *= self.lr
            w -= gc

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None


_CHUNK = 1 << 16   # elements per pass of AdamW's update: bounds its scratch


class NonFiniteGradient(FloatingPointError):
    """A NaN or inf gradient, found by ``AdamW.step`` before it changed anything."""

    def __init__(self, name: str):
        super().__init__(f"non-finite gradient of {name}")
        self.name = name


class EightBitImages(Sequence):
    """A read-only sequence of images held as their PPM files' uint8 values.

    ``images[i]`` is ``decode8`` of image i's values, a fresh float64 [H,W,3]
    array in [0,1]. ``values`` holds the 8-bit arrays, read-only, as
    ``read_ppm8`` read them from the files.
    """

    def __init__(self, values: list[np.ndarray]):
        for v in values:
            v.flags.writeable = False
        self.values = tuple(values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> np.ndarray:
        return decode8(self.values[i])


@dataclass
class LoadedDataset:
    """A generated dataset in memory, in manifest order: the images as their
    8-bit file values, the pooled masks and, unless the op is "none", the
    float64 textures."""

    images: EightBitImages
    masks: list[np.ndarray]       # quarter-resolution, majority pooled
    textures: list[np.ndarray] | None   # float64, one per image
    train_idx: list[int]
    val_idx: list[int]
    num_classes: int


def load_dataset(data_dir: str | Path, enhance_op: str) -> LoadedDataset:
    """Read a generated dataset: every image as its 8-bit file values, every
    mask majority pooled to the quarter grid and, for the ``phase`` and
    ``sobel`` ops, every image's float64 texture, computed once from its
    decoded values. An image or mask whose extents differ from the
    manifest's, and a mask label outside its class range, are refused before
    any texture is computed."""
    data_dir = Path(data_dir)
    (num_classes, height, width), entries = read_manifest(data_dir / "manifest.txt")
    images, masks = [], []
    train_idx, val_idx = [], []
    for i, (img_name, msk_name, split) in enumerate(entries):
        img = read_ppm8((data_dir / img_name).read_bytes())
        msk = read_pgm((data_dir / msk_name).read_bytes())
        for name, arr in ((img_name, img), (msk_name, msk)):
            if arr.shape[:2] != (height, width):
                raise ValueError(f"{data_dir / name}: extents {arr.shape[0]}x{arr.shape[1]} "
                                 f"differ from the manifest's {height}x{width}")
        if msk.max() >= num_classes:
            raise ValueError(f"{data_dir / msk_name}: mask labels outside [0, {num_classes}): "
                             f"{np.unique(msk).tolist()}")
        images.append(img)
        masks.append(majority_pool(msk, 4))
        (train_idx if split == "train" else val_idx).append(i)
    textures = None if enhance_op == "none" else [
        image_texture_stack(decode8(img), mode=enhance_op) for img in images]
    return LoadedDataset(
        images=EightBitImages(images),
        masks=masks,
        textures=textures,
        train_idx=train_idx,
        val_idx=val_idx,
        num_classes=num_classes,
    )


def _checkpoint_texts(model: NightSegModel) -> dict[str, str]:
    """The model's checkpoint texts: ``config.txt``, each ``ModelConfig`` key and
    ``train.dtype``, and ``params.txt``, one ``name d0 d1 ...`` line per parameter."""
    config = render_config(model.cfg) + f"train.dtype = {np.dtype(model.cfg.dtype)}\n"
    params = "".join(" ".join([name, *map(str, p.data.shape)]) + "\n"
                     for name, p in model.parameters())
    return {"config.txt": config, "params.txt": params}


def save_checkpoint(out_dir: str | Path, model: NightSegModel) -> Path:
    """Write the model's ``config.txt`` and ``params.txt``, and ``params.nft``,
    every parameter's values in ``params.txt`` order as one rank-1 tensor (f8
    for a float64 model, f32 otherwise)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_flat(out / "params.nft", [p.data for _, p in model.parameters()])
    for name, text in _checkpoint_texts(model).items():
        (out / name).write_text(text, encoding="utf-8")
    return out


def load_checkpoint(ckpt_dir: str | Path, model: NightSegModel) -> None:
    """Copy a checkpoint's weights into the model's parameter arrays.

    Its ``config.txt`` and ``params.txt`` must be, line for line, the ones this
    model would write, and its payload the model's dtype and value count; the
    first difference is refused before any weight is written.
    """
    ckpt = Path(ckpt_dir)
    for name, text in _checkpoint_texts(model).items():
        theirs = (ckpt / name).read_text(encoding="utf-8").splitlines()
        for i, (got, want) in enumerate(zip_longest(theirs, text.splitlines(),
                                                    fillvalue="<end of file>"), 1):
            if got != want:
                raise ValueError(f"{ckpt / name} line {i}: checkpoint has {got!r}, "
                                 f"the model would write {want!r}")
    params = [p for _, p in model.parameters()]
    bounds, dtype = np.cumsum([p.data.size for p in params]), params[0].data.dtype
    flat = read_tensor(ckpt / "params.nft")
    if flat.shape != (bounds[-1],) or flat.dtype != dtype:
        raise ValueError(f"checkpoint payload {ckpt / 'params.nft'} holds {flat.dtype} shape "
                         f"{flat.shape}; the model reads {bounds[-1]} {dtype} values")
    for p, values in zip(params, np.split(flat, bounds[:-1])):
        p.data[...] = values.reshape(p.data.shape)


def _forward(model: NightSegModel, ds: LoadedDataset, idx: int | list[int], dtype) -> SegOutput:
    """The model on sample ``idx``, or on the samples of a list stacked into one
    batch. The 8-bit images are stacked first and decoded once, into ``dtype``."""
    def pick(arrays: Sequence[np.ndarray]) -> np.ndarray:
        return arrays[idx] if isinstance(idx, int) else np.stack([arrays[i] for i in idx])

    images = Tensor(decode8(pick(ds.images.values), dtype))
    return model(images, None if ds.textures is None else Tensor(pick(ds.textures).astype(dtype)))


def _finite(out: SegOutput) -> bool:
    """Whether every mask and class logit is finite."""
    return bool(np.isfinite(out.mask_logits.data).all() and np.isfinite(out.class_logits.data).all())


def _check_run_dtype(model: NightSegModel, dtype) -> None:
    """Refuse a run dtype other than the model's: numpy would silently compute
    in the wider of the two."""
    want = np.dtype(model.cfg.dtype)
    if np.dtype(dtype) != want:
        raise ValueError(f"train.dtype {np.dtype(dtype)} differs from the model's {want} weights")


def train(model: NightSegModel, ds: LoadedDataset, tc: TrainConfig,
          out_dir: str | Path | None = None) -> list[str]:
    """Optimize the model; returns the per-logged-iteration loss lines.

    Each step runs its batch through the model as one [B, ...] stack on one
    tape; the loss matches every image separately and averages over them.
    ``tc.dtype`` must be the model's dtype.
    """
    _check_run_dtype(model, tc.dtype)
    params = model.parameters()
    opt = AdamW(params, lr=tc.lr1, weight_decay=tc.weight_decay)
    batch_rng = np.random.default_rng([tc.seed, 0xBA7C4])
    dtype = tc.dtype
    log: list[str] = []
    ckpt_dir = Path(out_dir) / "checkpoint" if out_dir is not None else None
    if out_dir is not None:   # the log is written line by line, so a failed run keeps it
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "train_log.txt").write_text("", encoding="utf-8")

    for it in range(tc.iters):
        opt.lr = tc.lr1 if it < tc.phase1_iters else tc.lr2
        idxs = batch_rng.choice(len(ds.train_idx), size=min(tc.batch, len(ds.train_idx)),
                                replace=False)
        batch = [ds.train_idx[int(j)] for j in idxs]
        opt.zero_grad()
        with Tape():
            out = _forward(model, ds, batch, dtype)
            if not _finite(out):
                raise TrainingDiverged(it, ckpt_dir and save_checkpoint(ckpt_dir, model), "logits")
            loss = total_loss(out.mask_logits, out.class_logits,
                              np.stack([ds.masks[i] for i in batch]), ds.num_classes, tc.weights)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise TrainingDiverged(it, ckpt_dir and save_checkpoint(ckpt_dir, model))
            backward(loss)
        try:
            opt.step()
        except NonFiniteGradient as exc:
            raise TrainingDiverged(it, ckpt_dir and save_checkpoint(ckpt_dir, model),
                                   f"gradient of {exc.name}") from None
        if it % tc.log_every == 0 or it == tc.iters - 1:
            log.append(f"iter {it} loss {loss_val:.6f} lr {opt.lr:.6g}")
            if out_dir is not None:
                with open(Path(out_dir) / "train_log.txt", "a", encoding="utf-8") as f:
                    f.write(log[-1] + "\n")

    if ckpt_dir is not None:
        save_checkpoint(ckpt_dir, model)
    return log


def evaluate(model: NightSegModel, ds: LoadedDataset, dtype) -> ConfusionMatrix:
    """The confusion matrix of the val split, run in ``dtype``, which must be
    the model's. A sample with a non-finite logit is refused: its argmax would
    score weights that diverged as if they had trained."""
    _check_run_dtype(model, dtype)
    cm = ConfusionMatrix(ds.num_classes)
    for idx in ds.val_idx:
        out = _forward(model, ds, idx, dtype)
        if not _finite(out):
            raise ValueError(f"evaluate: non-finite logits on val sample {idx} (manifest order)")
        cm.update(predict(out, ds.num_classes), ds.masks[idx])
    return cm


def render_report(cm: ConfusionMatrix) -> str:
    """One `class_name iou` line per class, then `miou <value>`.

    Metrics are on the quarter-resolution grid; classes absent from both
    prediction and ground truth print n/a and are excluded from the mean.
    """
    per_class, mean = cm.iou()
    lines = []
    for c in range(cm.num_classes):
        value = "n/a" if np.isnan(per_class[c]) else f"{per_class[c]:.6f}"
        lines.append(f"{'background' if c == 0 else f'object_{c}'} {value}")
    lines.append(f"miou {mean:.6f}")
    return "\n".join(lines) + "\n"
