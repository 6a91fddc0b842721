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
from .tensor_io import read_tensor, write_flat

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
    """Adaptive moments with decoupled weight decay (Loshchilov & Hutter),
    over one contiguous weight vector.

    The constructor concatenates every parameter, in the given order, into
    ``flat`` and rebinds each ``p.data`` to a view of its slice, so ``step``
    updates all weights in place with a few ufuncs per chunk. ``m`` and ``v``
    are flat vectors of the same layout. A parameter whose ``grad`` is None
    keeps its weight, ``m`` and ``v`` bit for bit and gets no decay.
    Rebinding a ``p.data`` afterwards detaches it: the optimizer keeps
    updating its slice of ``flat``, which the parameter no longer shows.
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
        """One update of every parameter that has a gradient.

        Raises NonFiniteGradient, before any state changes, if a gradient
        holds NaN or inf.
        """
        # the gradients, 0 where None, gathered into a vector that lives only
        # for this step and is then overwritten chunk by chunk with the update
        g = np.concatenate([np.zeros_like(p.data) if p.grad is None else p.grad
                            for _, p in self.params], axis=None, out=np.empty_like(self.flat))
        if not np.isfinite(g).all():
            name = next(n for (n, _), lo, hi in self._slices if not np.isfinite(g[lo:hi]).all())
            raise NonFiniteGradient(name)
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        scratch = np.empty(min(_CHUNK, self.flat.size), self.flat.dtype)
        for lo, hi in self._runs_with_grad():
            for a in range(lo, hi, _CHUNK):
                b = min(a + _CHUNK, hi)
                w, m, v, gc, s = (self.flat[a:b], self.m[a:b], self.v[a:b], g[a:b],
                                  scratch[:b - a])
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

    def _runs_with_grad(self) -> list[tuple[int, int]]:
        """The [lo, hi) ranges of ``flat`` covered by adjacent parameters
        that have a gradient."""
        runs: list[tuple[int, int]] = []
        for (_, p), lo, hi in self._slices:
            if p.grad is None:
                continue
            if runs and runs[-1][1] == lo:
                runs[-1] = (runs[-1][0], hi)
            else:
                runs.append((lo, hi))
        return runs

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None


_CHUNK = 1 << 16   # elements per pass of AdamW's update: bounds its scratch


class NonFiniteGradient(FloatingPointError):
    """A NaN or inf gradient, found by ``AdamW.step`` before it changed anything."""

    def __init__(self, name: str):
        super().__init__(f"non-finite gradient of {name}")
        self.name = name


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
    """Write ``params.txt``, one ``name d0 d1 ...`` line per parameter, and
    ``params.nft``, every parameter's values in that order as one rank-1
    tensor (f8 for a float64 model, f32 otherwise)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_flat(out / "params.nft", [p.data for _, p in params])
    lines = [" ".join([name, *map(str, p.data.shape)]) for name, p in params]
    (out / "params.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def load_checkpoint(ckpt_dir: str | Path, model: NightSegModel) -> None:
    """Copy a checkpoint's weights into the model's parameter arrays.

    Names, shapes and the payload length are all checked before any
    parameter is written. An f32 payload loads into a float64 model as an
    exact upcast; an f8 payload is refused by a float32 model, which would
    have to round it.
    """
    ckpt = Path(ckpt_dir)
    listed: dict[str, tuple[int, ...]] = {}
    for i, line in enumerate((ckpt / "params.txt").read_text(encoding="utf-8").splitlines(), 1):
        try:
            name, *dims = line.split()
            shape = tuple(map(int, dims))
        except ValueError:
            name, shape = "", ()
        if not shape or min(shape) < 1 or name in listed:
            raise ValueError(f"{ckpt / 'params.txt'} line {i}: expected a new name and its "
                             f"positive extents, got {line!r}")
        listed[name] = shape
    params = dict(model.parameters())
    if set(listed) != set(params):
        missing = sorted(set(params) - set(listed))
        extra = sorted(set(listed) - set(params))
        raise ValueError(f"checkpoint mismatch; missing {missing}, unexpected {extra}")
    for name, shape in listed.items():
        if shape != params[name].data.shape:
            raise ValueError(f"checkpoint tensor {name}: shape {shape} != model "
                             f"{params[name].data.shape}")
    flat = read_tensor(ckpt / "params.nft")
    need = sum(p.data.size for p in params.values())
    if flat.ndim != 1 or flat.size != need:
        raise ValueError(f"checkpoint payload {ckpt / 'params.nft'} holds shape {flat.shape}; "
                         f"params.txt lists {need} values")
    dtype = next(iter(params.values())).data.dtype
    if not np.can_cast(flat.dtype, dtype, "safe"):
        raise ValueError(f"checkpoint holds {flat.dtype} weights; a {dtype} model would round them")
    lo = 0
    for name, shape in listed.items():
        p = params[name]
        p.data[...] = flat[lo:lo + p.data.size].reshape(shape)
        lo += p.data.size


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
        try:
            opt.step()
        except NonFiniteGradient as exc:
            raise TrainingDiverged(it, ckpt_dir and save_checkpoint(ckpt_dir, params),
                                   f"gradient of {exc.name}") from None
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
