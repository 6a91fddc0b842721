"""Command-line entry point wiring data generation, training, and checks."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nightseg",
        description="Night-scene segmentation: synthetic data, training, evaluation, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # an omitted scene flag is left out of args, so SceneConfig supplies its default
    g = sub.add_parser("gen-data", help="generate a synthetic night-scene dataset",
                       argument_default=argparse.SUPPRESS)
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--count", type=int, default=250)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--height", type=int)
    g.add_argument("--width", type=int)
    g.add_argument("--classes", dest="num_classes", type=int, metavar="CLASSES")
    g.add_argument("--noise-std", type=float)
    g.add_argument("--contrast-gap", type=float)
    g.add_argument("--deceivers", type=int, nargs=2, metavar=("MIN", "MAX"))

    p = sub.add_parser("phase-extract", help="write a texture map for one image")
    p.add_argument("--in", dest="input", required=True, help="input PPM image")
    p.add_argument("--out", required=True, help="output PPM texture map")
    p.add_argument("--mode", choices=("phase", "sobel"), default="phase")

    t = sub.add_parser("train", help="train a model on a generated dataset")
    t.add_argument("--config", required=True, help="key = value config file")
    t.add_argument("--data", required=True, help="dataset directory (with manifest.txt)")
    t.add_argument("--out", required=True, help="run directory for checkpoint and logs")

    e = sub.add_parser("eval", help="evaluate a checkpoint on the validation split")
    e.add_argument("--ckpt", required=True, help="checkpoint directory written by train")
    e.add_argument("--data", required=True, help="dataset directory")
    e.add_argument("--report", required=True, help="metrics report output path")

    a = sub.add_parser("ablate", help="train/evaluate each setting of one component")
    a.add_argument("--axis", choices=("phase", "matcher", "depth", "enhance-op"), required=True)
    a.add_argument("--config", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--report", default=None, help="optional file for the table")

    sub.add_parser("grad-check", help="finite-difference check of every differentiable op")
    sub.add_parser("selftest", help="run all oracle-equivalence and invariant suites")
    return parser


def _cmd_gen_data(args) -> int:
    from dataclasses import fields

    from .scenes import SceneConfig, gen_dataset

    scene = {f.name: getattr(args, f.name) for f in fields(SceneConfig) if hasattr(args, f.name)}
    if "deceivers" in scene:
        scene["deceivers"] = tuple(scene["deceivers"])
    manifest = gen_dataset(SceneConfig(**scene), args.count, args.seed, args.out)
    print(f"wrote {args.count} samples to {args.out} (manifest: {manifest})")
    return 0


def _cmd_phase_extract(args) -> int:
    from .netpbm import read_ppm, write_ppm
    from .phase import image_texture_stack

    image = read_ppm(Path(args.input).read_bytes())
    texture = image_texture_stack(image, mode=args.mode)
    Path(args.out).write_bytes(write_ppm(texture))
    print(f"wrote {args.out}")
    return 0


def _build(args, overrides: dict[str, str] | None = None):
    """Train config and model for the command's dataset, validated against its
    manifest; reads no image, so a bad config or a missing split fails before
    the data loads. ``eval`` builds the model its checkpoint's config.txt names."""
    from .config import build, parse_config
    from .model import ModelConfig, NightSegModel
    from .scenes import read_manifest
    from .train import TrainConfig

    manifest = Path(args.data) / "manifest.txt"
    (num_classes, height, width), entries = read_manifest(manifest)
    for split in {"train": ["train"], "eval": ["val"], "ablate": ["train", "val"]}[args.command]:
        if all(entry[2] != split for entry in entries):
            raise ValueError(f"{manifest} lists no {split} samples, which {args.command} reads")
    config = Path(args.ckpt) / "config.txt" if args.command == "eval" else args.config
    values = {**parse_config(config), **(overrides or {})}
    tc = build(TrainConfig, values)
    mc = build(ModelConfig, values, num_classes=num_classes, seed=tc.seed, dtype=tc.dtype)
    mc.check_image_size(height, width)
    return tc, NightSegModel(mc)


def _cmd_train(args) -> int:
    from .train import TrainingDiverged, load_dataset, train

    tc, model = _build(args)
    ds = load_dataset(args.data, model.cfg.enhance_op)
    try:
        log = train(model, ds, tc, out_dir=args.out)
    except TrainingDiverged as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print("\n".join(log[-3:]))
    print(f"checkpoint written to {Path(args.out) / 'checkpoint'}")
    return 0


def _cmd_eval(args) -> int:
    from .train import evaluate, load_checkpoint, load_dataset, render_report

    tc, model = _build(args)
    load_checkpoint(args.ckpt, model)
    ds = load_dataset(args.data, model.cfg.enhance_op)
    report = render_report(evaluate(model, ds, tc.dtype))
    Path(args.report).write_text(report, encoding="utf-8")
    print(report, end="")
    return 0


_ABLATION_ROWS = {
    "phase": [("without_phase", {"enhance.op": "none"}),
              ("with_phase", {"enhance.op": "phase"})],
    "matcher": [("vanilla_attention", {"matcher.mode": "vanilla"}),
                ("reliable_attention", {"matcher.mode": "reliable"})],
    "depth": [(f"depth_{d}", {"decoder.depth": str(d)}) for d in (1, 2, 3, 4)],
    "enhance-op": [("no_enhance", {"enhance.op": "none"}),
                   ("sobel", {"enhance.op": "sobel"}),
                   ("fourier_phase", {"enhance.op": "phase"})],
}


def _cmd_ablate(args) -> int:
    from .train import evaluate, load_dataset, train

    rows = [(label, *_build(args, overrides))
            for label, overrides in _ABLATION_ROWS[args.axis]]
    lines = [f"axis {args.axis}", "setting miou"]
    ds = ds_op = None
    for label, tc, model in rows:
        if model.cfg.enhance_op != ds_op:   # rows of one op share one load
            ds = None   # free the last op's dataset before the next one loads
            ds_op = model.cfg.enhance_op
            ds = load_dataset(args.data, ds_op)
        train(model, ds, tc, out_dir=None)
        _, mean = evaluate(model, ds, tc.dtype).iou()
        lines.append(f"{label} {mean:.6f}")
        print(lines[-1])
    table = "\n".join(lines) + "\n"
    if args.report:
        Path(args.report).write_text(table, encoding="utf-8")
    return 0


def _cmd_grad_check(_args) -> int:
    from .selftest import run_grad_suite

    worst = 0.0
    for name, err in run_grad_suite():
        status = "PASS" if err < 1e-4 else "FAIL"
        print(f"{status}  {name}: max relative error {err:.3e}")
        worst = max(worst, err)
    return 0 if worst < 1e-4 else 1


def _cmd_selftest(_args) -> int:
    from .selftest import run_selftest

    return 0 if run_selftest() == 0 else 1


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "phase-extract": _cmd_phase_extract,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "grad-check": _cmd_grad_check,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a rejected config or argument value, or a missing
    input file, exits 2 with one line."""
    import numpy as np
    args = build_parser().parse_args(argv)
    # a run that diverges is reported by the finiteness checks of train and
    # evaluate, in one line, not by numpy's overflow warnings
    quiet = "ignore" if args.command in ("train", "eval", "ablate") else None
    try:
        with np.errstate(over=quiet, invalid=quiet):
            return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"nightseg: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
