"""Plain-text configuration: one ``key = value`` per line, ``#`` comments.

The config dataclasses are the schema: each key is declared once, with its
default, on the field it sets (``option``), and ``build`` converts a parsed
file's strings by those fields' declared types.
"""

from __future__ import annotations

import math
import typing
from collections.abc import Mapping
from dataclasses import field, fields, is_dataclass
from pathlib import Path

__all__ = ["option", "check_options", "known_keys", "build", "parse_config", "render_config"]

_EXPECTED = {int: "an integer", float: "a number"}


def option(key: str, default, *, choices=None, at_least=None):
    """A dataclass field set by config ``key`` (for ``SceneConfig``, by the
    ``gen-data`` flag it names). ``choices`` lists the accepted
    values, or maps each accepted spelling to its value; ``at_least`` is an
    inclusive lower bound, on every entry of a tuple. ``check_options``
    enforces both, and rejects a non-finite float."""
    return field(default=default, metadata={"key": key, "choices": choices, "at_least": at_least})


def check_options(obj) -> None:
    """Reject a keyed field of ``obj`` that is a non-finite float or lies
    outside its declared choices or bound."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "key" in f.metadata and isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.metadata['key']} must be finite, got {value}")
        choices, least = f.metadata.get("choices"), f.metadata.get("at_least")
        allowed = choices.values() if isinstance(choices, Mapping) else choices
        if choices is not None and value not in allowed:
            raise ValueError(f"{f.metadata['key']} must be one of {', '.join(map(str, choices))}, "
                             f"got {value!r}")
        if least is not None and min(value if isinstance(value, tuple) else (value,)) < least:
            entries = "entries of " if isinstance(value, tuple) else ""
            raise ValueError(f"{entries}{f.metadata['key']} must be >= {least}, got {value}")


def _keys(cls) -> set[str]:
    keys, hints = set(), typing.get_type_hints(cls)
    for f in fields(cls):
        if "key" in f.metadata:
            keys.add(f.metadata["key"])
        elif is_dataclass(hints[f.name]):
            keys |= _keys(hints[f.name])
    return keys


def known_keys() -> set[str]:
    """Every config key: the keyed fields of ``ModelConfig`` and ``TrainConfig``."""
    from .model import ModelConfig   # deferred: both modules import this one
    from .train import TrainConfig

    return _keys(ModelConfig) | _keys(TrainConfig)


def _convert(key: str, raw: str, tp, choices):
    if isinstance(choices, Mapping):   # an unknown spelling is left for check_options to reject
        return choices.get(raw, raw)
    args = typing.get_args(tp)
    if type(None) in args:    # optional: a present value has the other type
        tp = next(a for a in args if a is not type(None))
        args = typing.get_args(tp)
    is_tuple = typing.get_origin(tp) is tuple
    try:
        if not is_tuple:
            return tp(raw)
        ints = tuple(int(p) for p in raw.replace(",", " ").split())
        if len(ints) == len(args):
            return ints
    except ValueError:
        pass
    expected = f"{len(args)} integers" if is_tuple else _EXPECTED[tp]
    raise ValueError(f"config key {key}: expected {expected}, got {raw!r}")


def build(cls, values: dict[str, str], **given):
    """``cls(**given)``, with each keyed field that ``values`` sets read from its
    string; an absent key keeps the field's default."""
    kwargs, hints = {}, typing.get_type_hints(cls)
    for f in fields(cls):
        if f.name in given:
            continue
        key, tp = f.metadata.get("key"), hints[f.name]
        if key in values:
            kwargs[f.name] = _convert(key, values[key], tp, f.metadata["choices"])
        elif key is None and is_dataclass(tp):
            kwargs[f.name] = build(tp, values)
    return cls(**kwargs, **given)


def parse_config(path: str | Path) -> dict[str, str]:
    """Parse a config file into its key/value strings; unknown keys are rejected."""
    text = Path(path).read_text(encoding="utf-8")
    keys = known_keys()
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (p.strip() for p in line.split("=", 1))
        if key not in keys:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def render_config(obj) -> str:
    """``obj``'s keyed fields as ``key = value`` lines in schema order, each
    spelled so that ``build`` reads its value back."""
    values = {f.metadata["key"]: getattr(obj, f.name) for f in fields(obj) if "key" in f.metadata}
    return "".join(f"{key} = {' '.join(map(str, v)) if isinstance(v, tuple) else v}\n"
                   for key, v in values.items())
