"""The three benchmark workloads and the checks on their outputs.

Each workload prepares its inputs from the workload seed (set-up), then
runs closed-loop rounds: one round is one call of the measured public
function(s), timed around that call only, followed by output checks
outside the timed region. A failed check marks the round's operations
failed.

- ``train-desk``: ``train()`` at the paper's acceptance size (32x64 desk
  data, default model, float32, batch 4) from a freshly built model. Tiny
  arrays and ~1400 tape nodes per step: per-op overhead, backward,
  loss/Hungarian matching and AdamW dominate; ``fourier`` only runs in
  set-up.
- ``infer-large``: ``evaluate()`` over the val split of 128x256 data with
  weights restored by ``load_checkpoint``. No tape, backward, Hungarian or
  AdamW; the finest decoder stage attends over 2048 tokens, so arithmetic
  and memory traffic dominate.
- ``prep``: ``gen_dataset`` then ``load_dataset(enhance_op="phase")`` over
  a fixed mix of image sizes, one size per round. Power-of-two 128x256 images take the radix-2
  transform, the 32x96 image the brute-force DFT; the tensor engine does
  no work.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import nightseg
from nightseg import train as ns_train
from nightseg.metrics import ConfusionMatrix
from nightseg.model import ModelConfig, NightSegModel
from nightseg.scenes import SceneConfig, gen_dataset

__all__ = ["RoundResult", "TrainDesk", "InferLarge", "Prep", "WORKLOADS", "describe",
           "phase_texture_oracle"]

Instrument = Callable[[object], None]


@dataclass
class RoundResult:
    ops: int          # steps, samples or images attempted
    failed: int       # of those, how many failed or failed a check
    seconds: float    # wall time of the measured call(s)
    units: float      # samples (train/infer) or megapixels (prep) processed
    group: str = ""   # rounds of one group do the same work


def _report_error(what: str) -> None:
    print(f"perfbench: {what} raised:\n{traceback.format_exc()}", file=sys.stderr, flush=True)


def _model_config(num_classes: int, seed: int) -> ModelConfig:
    # the default model of `nightseg train`: phase enhancement, reliable
    # matcher, depth 4, width 64; float32 as in training runs
    return ModelConfig(num_classes=num_classes, seed=seed, dtype=np.float32)


@dataclass
class TrainDesk:
    name = "train-desk"
    op_markers = ("train.zero_grad",)   # one op per training step
    rounds_per_cycle = 1
    count: int = 250
    height: int = 32
    width: int = 64
    num_classes: int = 4
    iters: int = 5
    batch: int = 4

    @property
    def samples_per_op(self) -> int:
        return self.batch

    def generate(self, work: Path, seed: int) -> list[Path]:
        data = work / "desk"
        gen_dataset(SceneConfig(self.height, self.width, self.num_classes), self.count, seed, data)
        return [data]

    def prepare(self, work: Path, seed: int) -> dict:
        ds = ns_train.load_dataset(self.generate(work, seed)[0], "phase")
        mc = _model_config(ds.num_classes, seed)
        tc = ns_train.TrainConfig(iters=self.iters, batch=self.batch, seed=seed, dtype=np.float32)
        return {"ds": ds, "mc": mc, "tc": tc, "model": NightSegModel(mc),
                "out": work / "run", "reference": None}

    def run_round(self, st: dict, instrument: Instrument) -> RoundResult:
        model = st.pop("model", None) or NightSegModel(st["mc"])
        instrument(model)
        t0 = perf_counter()
        try:
            log = ns_train.train(model, st["ds"], st["tc"], out_dir=st["out"])
        except Exception:
            _report_error("train()")
            log = None
        dt = perf_counter() - t0
        ok = log is not None and _losses_finite(log, self.iters)
        if ok:
            text = "\n".join(log)
            if st["reference"] is None:
                st["reference"] = text
            ok = text == st["reference"]
        return RoundResult(self.iters, 0 if ok else self.iters, dt, self.iters * self.batch)

    def finish(self, st: dict) -> dict:
        ref = st["reference"] or ""
        return {"loss_log_sha256": hashlib.sha256(ref.encode()).hexdigest(),
                "final_loss_line": ref.rsplit("\n", 1)[-1]}


def _losses_finite(log: list[str], iters: int) -> bool:
    if len(log) != iters:
        return False
    for line in log:
        parts = line.split()
        if len(parts) != 6 or parts[2] != "loss" or not np.isfinite(float(parts[3])):
            return False
    return True


@dataclass
class InferLarge:
    name = "infer-large"
    op_markers = ("model",)   # one op per evaluated sample
    samples_per_op = 1
    rounds_per_cycle = 1
    count: int = 20
    height: int = 128
    width: int = 256
    num_classes: int = 4
    ckpt_iters: int = 1
    ckpt_batch: int = 2

    def generate(self, work: Path, seed: int) -> list[Path]:
        data = work / "large"
        gen_dataset(SceneConfig(self.height, self.width, self.num_classes), self.count, seed, data)
        return [data]

    def prepare(self, work: Path, seed: int) -> dict:
        ds = ns_train.load_dataset(self.generate(work, seed)[0], "phase")
        mc = _model_config(ds.num_classes, seed)
        # the checkpoint `nightseg eval` would restore, written by a short run
        tc = ns_train.TrainConfig(iters=self.ckpt_iters, batch=self.ckpt_batch, seed=seed,
                                  dtype=np.float32)
        ns_train.train(NightSegModel(mc), ds, tc, out_dir=work / "ckpt_run")
        model = NightSegModel(mc)
        ns_train.load_checkpoint(work / "ckpt_run" / "checkpoint", model)
        val_pixels = sum(ds.masks[i].size for i in ds.val_idx)
        return {"ds": ds, "model": model, "val_pixels": val_pixels, "reference": None}

    def run_round(self, st: dict, instrument: Instrument) -> RoundResult:
        ds = st["ds"]
        n = len(ds.val_idx)
        instrument(st["model"])
        t0 = perf_counter()
        try:
            cm = ns_train.evaluate(st["model"], ds, np.float32)
        except Exception:
            _report_error("evaluate()")
            cm = None
        dt = perf_counter() - t0
        ok = cm is not None and cm.total == st["val_pixels"]
        if ok:
            if st["reference"] is None:
                st["reference"] = cm.counts.copy()
            ok = np.array_equal(cm.counts, st["reference"])
        return RoundResult(n, 0 if ok else n, dt, n)

    def finish(self, st: dict) -> dict:
        """Recompute the predictions directly and check them against evaluate()."""
        ds, model = st["ds"], st["model"]
        digest = hashlib.sha256()
        cm = ConfusionMatrix(ds.num_classes)
        for i in ds.val_idx:
            out = model(nightseg.Tensor(ds.images[i].astype(np.float32)),
                        nightseg.Tensor(ds.textures[i].astype(np.float32)))
            pred = nightseg.predict(out, ds.num_classes)
            digest.update(np.ascontiguousarray(pred, dtype="<i8").tobytes())
            cm.update(pred, ds.masks[i])
        ref = st["reference"]
        return {"prediction_sha256": digest.hexdigest(),
                "predictions_match_evaluate": ref is not None and np.array_equal(cm.counts, ref)}


def phase_texture_oracle(image: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Phase-only texture of an [H,W,3] image from numpy's FFT, independent of
    nightseg's transforms: amplitude forced to its mean, zero bins phase 0,
    each channel min-max scaled to [0,1].

    Returns the texture, a per-channel slack and the number of bins whose
    phase is undefined at working precision (amplitude at rounding level,
    e.g. an exactly vanishing Nyquist bin of an 8-bit image). Any float
    transform may give such a bin any phase; each one can move a pixel of
    the unscaled reconstruction by at most 2*c_a/(H*W), and the slack is the
    resulting bound on the scaled texture. It is 0 when no bin is undefined.
    """
    h, w = image.shape[:2]
    chans, slack, undefined = [], [], 0
    for c in range(image.shape[2]):
        f = np.fft.fft2(image[:, :, c])
        amp = np.abs(f)
        c_a = amp.mean()
        ph = np.where(amp == 0.0, 0.0, np.angle(f))
        rec = np.fft.ifft2(c_a * np.exp(1j * ph)).real
        lo, hi = rec.min(), rec.max()
        chans.append((rec - lo) / (hi - lo) if hi > lo else np.zeros_like(rec))
        n_undefined = int(np.count_nonzero(amp <= 1e-9 * c_a))
        undefined += n_undefined
        delta = 2.0 * n_undefined * c_a / (h * w)
        spread = hi - lo - 2.0 * delta
        slack.append(0.0 if n_undefined == 0 else 4.0 * delta / spread if spread > 0 else 1.0)
    return np.stack(chans, axis=2), np.array(slack), undefined


@dataclass
class Prep:
    name = "prep"
    op_markers = ("scenes.generate", "netpbm.read_ppm")   # one op per image written or read
    samples_per_op = 1
    # (height, width, images): mostly power-of-two images on the radix-2
    # path, plus one model-valid size that falls back to the brute-force DFT.
    # Rounds cycle through the groups, one group per round.
    mix: tuple[tuple[int, int, int], ...] = ((128, 256, 8), (32, 96, 1))
    num_classes: int = 4
    tolerance: float = 1e-9

    @property
    def rounds_per_cycle(self) -> int:
        return len(self.mix)

    def generate(self, work: Path, seed: int, groups=None) -> list[Path]:
        dirs = []
        for h, w, n in groups or self.mix:
            dirs.append(work / f"{h}x{w}")
            gen_dataset(SceneConfig(h, w, self.num_classes), n, seed, dirs[-1])
        return dirs

    def prepare(self, work: Path, seed: int) -> dict:
        return {"work": work, "seed": seed, "round": 0, "oracle_max_err": 0.0,
                "oracle_undefined_bins": 0}

    def run_round(self, st: dict, instrument: Instrument) -> RoundResult:
        h, w, n = group = self.mix[st["round"] % len(self.mix)]
        root = st["work"] / f"round{st['round']}"
        st["round"] += 1
        t0 = perf_counter()
        try:
            ds = ns_train.load_dataset(self.generate(root, st["seed"], [group])[0], "phase")
        except Exception:
            _report_error("gen_dataset()/load_dataset()")
            ds = None
        dt = perf_counter() - t0
        failed = n if ds is None else self._check(group, ds, st)
        shutil.rmtree(root, ignore_errors=True)
        return RoundResult(n, failed, dt, h * w * n / 1e6, f"{h}x{w}")

    def _check(self, group: tuple[int, int, int], ds, st: dict) -> int:
        h, w, n = group
        textures = ds.textures or []
        if len(ds.images) != n or len(textures) != n:
            return n
        failed = 0
        for i, (img, tex) in enumerate(zip(ds.images, textures)):
            ok = (img.shape == (h, w, 3) and tex.shape == img.shape
                  and bool(np.all(np.isfinite(tex))) and tex.min() >= 0.0 and tex.max() <= 1.0)
            if ok and i == 0:
                expect, slack, undefined = phase_texture_oracle(img)
                err = np.max(np.abs(tex - expect), axis=(0, 1))
                st["oracle_max_err"] = max(st["oracle_max_err"], float(err.max()))
                st["oracle_undefined_bins"] = max(st["oracle_undefined_bins"], undefined)
                ok = bool(np.all(err <= self.tolerance + slack))
            failed += not ok
        return failed

    def finish(self, st: dict) -> dict:
        return {"oracle_max_abs_err": st["oracle_max_err"],
                "oracle_undefined_bins": st["oracle_undefined_bins"]}


WORKLOADS = {w.name: w for w in (TrainDesk, InferLarge, Prep)}


def describe(workload) -> dict:
    """The workload's configuration, for the result file and its hash."""
    return {"name": workload.name, **asdict(workload)}
