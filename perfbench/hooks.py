"""Where the traced run wraps nightseg, and how it puts everything back.

Targets are looked up by name when they are installed. A name that no
longer exists (a refactor removed or renamed it) is recorded as missing,
so the per-layer metrics that depend on it are reported absent and the
run still completes. Every installed wrapper is undone by ``restore``,
which checks that each original object is back in place.
"""

from __future__ import annotations

import importlib
import re
from contextlib import contextmanager
from typing import Callable, Iterator

from .tracing import Tracer

__all__ = ["GLOBAL_TARGETS", "MODEL_TARGETS", "Hooks", "resolve"]


def _out_len(args, result) -> int:
    return len(result)


def _in_len(args, result) -> int:
    return len(args[0])


# (span name, module, attribute path[, measure]). A dotted path whose head is
# a class wraps the class attribute, so every instance is traced. Functions
# are wrapped in the namespace they are looked up from at call time.
GLOBAL_TARGETS: tuple[tuple, ...] = (
    ("train.load_dataset", "nightseg.train", "load_dataset"),
    ("train.load_checkpoint", "nightseg.train", "load_checkpoint"),
    ("train.save_checkpoint", "nightseg.train", "save_checkpoint"),
    ("train.zero_grad", "nightseg.train", "AdamW.zero_grad"),
    ("train.adamw", "nightseg.train", "AdamW.step"),
    ("tensor.backward", "nightseg.train", "backward"),
    ("tensor_io.read_tensor", "nightseg.train", "read_tensor"),
    ("losses.total", "nightseg.train", "total_loss"),
    ("losses.matching", "nightseg.losses", "matching_costs"),
    ("losses.hungarian", "nightseg.losses", "hungarian_match"),
    ("model", "nightseg.model", "NightSegModel.__call__"),
    ("model.predict", "nightseg.train", "predict"),
    ("model.majority_pool", "nightseg.train", "majority_pool"),
    ("metrics.update", "nightseg.metrics", "ConfusionMatrix.update"),
    ("phase.texture", "nightseg.train", "image_texture_stack"),
    ("fourier.fft2d", "nightseg.phase", "fft2d"),
    ("fourier.ifft2d", "nightseg.phase", "ifft2d"),
    ("fourier.dft2d_bruteforce", "nightseg.phase", "dft2d_bruteforce"),
    ("fourier.idft2d_bruteforce", "nightseg.phase", "idft2d_bruteforce"),
    ("decoder.amplify", "nightseg.decoder", "amplify_stage"),
    ("matcher.select", "nightseg.matcher", "select_reliable"),
    ("scenes.generate", "nightseg.scenes", "generate_scene"),
    ("netpbm.write_ppm", "nightseg.scenes", "write_ppm", _out_len),
    ("netpbm.write_pgm", "nightseg.scenes", "write_pgm", _out_len),
    ("netpbm.read_ppm", "nightseg.train", "read_ppm", _in_len),
    ("netpbm.read_pgm", "nightseg.train", "read_pgm", _in_len),
)

# (span name, attribute path from a NightSegModel instance). The layer
# object is replaced by a proxy, so one stage or layer can be told apart
# from its siblings of the same class.
MODEL_TARGETS: tuple[tuple[str, str], ...] = (
    ("model.backbone", "backbone"),
    ("phase.encoder", "phase_encoder"),
    ("decoder.fwd", "decoder"),
    *((f"decoder.attn{i}", f"decoder.attention[{i}]") for i in range(4)),
    ("matcher.fwd", "matcher"),
    *((f"matcher.layer{i}", f"matcher.layers[{i}]") for i in range(3)),
)

_STEP = re.compile(r"^(\w+)(?:\[(\d+)\])?$")


def resolve(root: object, path: str) -> tuple[object, str | int]:
    """The container and key that hold ``path`` below ``root``.

    Raises LookupError (or AttributeError) if any step is missing.
    """
    parts = path.split(".")
    obj = root
    for i, part in enumerate(parts):
        m = _STEP.match(part)
        if m is None:
            raise LookupError(f"bad target path {path!r}")
        name, index = m.group(1), m.group(2)
        last = i == len(parts) - 1
        if last and index is None:
            if not hasattr(obj, name):
                raise AttributeError(name)
            return obj, name
        obj = getattr(obj, name)
        if index is not None:
            if last:
                obj[int(index)]  # raises IndexError if the stage is gone
                return obj, int(index)
            obj = obj[int(index)]
    raise LookupError(f"empty target path {path!r}")


class _Traced:
    """Stands in for a layer object: calls are traced, attributes forwarded."""

    __slots__ = ("_target", "_call")

    def __init__(self, target: object, call: Callable):
        self._target = target
        self._call = call

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(self._target, name)


def _read(container, key):
    if isinstance(key, int):
        return container[key]
    if isinstance(container, type):
        # the raw class attribute, so restoring does not rebind a method
        for klass in container.__mro__:
            if key in vars(klass):
                return vars(klass)[key]
    return getattr(container, key)


def _write(container, key, value) -> None:
    if isinstance(key, int):
        container[key] = value
    else:
        setattr(container, key, value)


class Hooks:
    """Installs tracing wrappers and records how to undo each one."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: set[str] = set()
        self._undo: list[tuple[object, str | int, object, bool]] = []

    def install_global(self, targets=GLOBAL_TARGETS) -> None:
        for name, module, path, *measure in targets:
            try:
                container, key = resolve(importlib.import_module(module), path)
            except (ImportError, LookupError, AttributeError, TypeError):
                self.missing.add(name)
                continue
            original = _read(container, key)
            owned = not isinstance(container, type) or key in vars(container)
            wrapped = self.tracer.wrap(name, original, measure[0] if measure else None)
            _write(container, key, wrapped)
            self._undo.append((container, key, original, owned))

    def install_model(self, model: object, targets=MODEL_TARGETS) -> None:
        for name, path in targets:
            try:
                container, key = resolve(model, path)
                original = _read(container, key)
            except (LookupError, AttributeError, TypeError):
                self.missing.add(name)
                continue
            if original is None or not callable(original):
                self.missing.add(name)
                continue
            _write(container, key, _Traced(original, self.tracer.wrap(name, original)))
            self._undo.append((container, key, original, True))

    def restore(self) -> None:
        """Undo every wrapper, newest first, and check each original is back."""
        while self._undo:
            container, key, original, owned = self._undo.pop()
            if owned:
                _write(container, key, original)
            else:
                delattr(container, key)
            if _read(container, key) is not original and owned:
                raise RuntimeError(f"hook on {container!r}.{key} was not restored")

    @contextmanager
    def installed(self, targets=GLOBAL_TARGETS) -> Iterator["Hooks"]:
        """Global hooks for the duration; model hooks added inside are undone too."""
        try:
            self.install_global(targets)
            yield self
        finally:
            self.restore()
