"""Per-layer metrics computed from the spans of a traced run.

Times are inclusive (a span's whole duration) in ms, divided by the
metric's denominator: the operations of the traced rounds (a training
step, an evaluated sample or a prepared image) or the number of calls of
the named spans. Forward self times, which exclude child spans, go to
the result file alongside.

A metric is absent, and reported as 0 in the metrics with its name in
the result's ``absent`` list, when a span it needs could not be hooked
(the wrapped name no longer exists), when its denominator is 0, or, for
times, when the layer never ran in the measured scope.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .tracing import Span, self_nodes, self_times

__all__ = ["LayerMetric", "LAYER_METRICS", "NODE_BUCKETS", "NODE_METRICS", "FORWARD_SPANS",
           "ALL_NAMES", "UNITS", "compute", "forward_self_ms"]

_FAST = ("fourier.fft2d", "fourier.ifft2d")
_BRUTE = ("fourier.dft2d_bruteforce", "fourier.idft2d_bruteforce")
_DECODER = ("decoder.fwd", "decoder.attn0", "decoder.attn1", "decoder.attn2", "decoder.attn3",
            "decoder.amplify")
_MATCHER = ("matcher.fwd", "matcher.layer0", "matcher.layer1", "matcher.layer2", "matcher.select")
_LOSS = ("losses.total", "losses.matching", "losses.hungarian")

# spans under the model's forward pass
FORWARD_SPANS = ("model", "model.backbone", "phase.encoder") + _DECODER + _MATCHER

# tape nodes a span records itself are charged to its bucket; "heads" is the
# model's own code outside its submodules (class head, mask logits) and
# "train_loop" whatever a step records outside the model and the loss
NODE_BUCKETS = {
    "backbone": ("model.backbone",),
    "phase_encoder": ("phase.encoder",),
    "decoder": _DECODER,
    "matcher": _MATCHER,
    "heads": ("model",),
    "loss": _LOSS,
}


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    spans: tuple[str, ...]
    kind: str = "ms"        # ms: summed duration; calls: span count; value: summed span values
    per: tuple[str, ...] = ()  # spans whose count divides; () = operations
    scope: str = "run"      # run: traced rounds only; all: set-up included


def _ms(name, spans, per=(), scope="run"):
    return LayerMetric(name, "ms", tuple(spans), "ms", tuple(per), scope)


LAYER_METRICS: tuple[LayerMetric, ...] = (
    _ms("model.backbone_ms", ["model.backbone"]),
    _ms("model.predict_ms", ["model.predict"]),
    _ms("model.majority_pool_ms", ["model.majority_pool"], ["model.majority_pool"], "all"),
    _ms("phase.encoder_ms", ["phase.encoder"]),
    _ms("phase.texture_ms", ["phase.texture"], ["phase.texture"], "all"),
    _ms("fourier.fast_ms", _FAST, ["phase.texture"], "all"),
    _ms("fourier.bruteforce_ms", _BRUTE, ["phase.texture"], "all"),
    LayerMetric("fourier.fast_calls", "count", _FAST, "calls", ("phase.texture",), "all"),
    LayerMetric("fourier.bruteforce_calls", "count", _BRUTE, "calls", ("phase.texture",), "all"),
    LayerMetric("fourier.fast_ratio", "ratio", _FAST, "calls", _FAST + _BRUTE, "all"),
    *(_ms(f"{s}_ms", [s]) for s in _DECODER),
    *(_ms(f"{s}_ms", [s]) for s in _MATCHER),
    *(_ms(f"{s}_ms", [s]) for s in _LOSS),
    _ms("tensor.backward_ms", ["tensor.backward"]),
    _ms("train.adamw_ms", ["train.adamw"]),
    _ms("train.checkpoint_ms", ["train.save_checkpoint"], ["train.save_checkpoint"], "all"),
    _ms("train.load_dataset_ms", ["train.load_dataset"], ["train.load_dataset"], "all"),
    _ms("tensor_io.load_ms", ["tensor_io.read_tensor"], ["train.load_checkpoint"], "all"),
    _ms("metrics.update_ms", ["metrics.update"]),
    _ms("scenes.generate_ms", ["scenes.generate"], ["scenes.generate"], "all"),
    _ms("netpbm.write_ms", ["netpbm.write_ppm", "netpbm.write_pgm"], ["netpbm.write_ppm"], "all"),
    _ms("netpbm.read_ms", ["netpbm.read_ppm", "netpbm.read_pgm"], ["netpbm.read_ppm"], "all"),
    LayerMetric("netpbm.bytes", "bytes",
                ("netpbm.write_ppm", "netpbm.write_pgm", "netpbm.read_ppm", "netpbm.read_pgm"),
                "value", ("netpbm.write_ppm", "netpbm.read_ppm"), "all"),
)

# computed from tape lengths rather than from the table above
NODE_METRICS = ("tensor.tape_nodes_per_step",
                *(f"tensor.nodes.{b}" for b in (*NODE_BUCKETS, "train_loop")))
OVERHEAD_METRIC = "trace.overhead_pct"

ALL_NAMES = tuple(m.name for m in LAYER_METRICS) + NODE_METRICS + (OVERHEAD_METRIC,)
UNITS = {**{m.name: m.unit for m in LAYER_METRICS}, **{n: "count" for n in NODE_METRICS},
         OVERHEAD_METRIC: "%"}


def _table_metrics(spans: list[Span], ops: int, missing: set[str]) -> dict[str, float | None]:
    out: dict[str, float | None] = {}
    for m in LAYER_METRICS:
        if missing & set(m.spans + m.per):
            out[m.name] = None
            continue
        chosen = [s for s in spans if m.scope == "all" or s.phase == "run"]
        hits = [s for s in chosen if s.name in m.spans]
        denom = sum(s.name in m.per for s in chosen) if m.per else ops
        if denom == 0 or (m.kind != "calls" and not hits):
            out[m.name] = None
        elif m.kind == "ms":
            out[m.name] = 1e3 * sum(s.duration for s in hits) / denom
        elif m.kind == "calls":
            out[m.name] = len(hits) / denom
        else:
            out[m.name] = sum(s.value or 0.0 for s in hits) / denom
    return out


def _node_metrics(spans: list[Span], samples: int, missing: set[str]) -> dict[str, float | None]:
    """Tape nodes per step, and per sample by bucket; the buckets plus
    ``train_loop`` partition each step's tape."""
    run = [i for i, s in enumerate(spans) if s.phase == "run"]
    steps = [spans[i].tape0 for i in run
             if spans[i].name == "tensor.backward" and spans[i].tape0 is not None]
    if "tensor.backward" in missing or not steps or samples == 0:
        return dict.fromkeys(NODE_METRICS)
    own = self_nodes(spans)
    bucket_of = {s: b for b, names in NODE_BUCKETS.items() for s in names}
    totals: dict[str, float] = defaultdict(float)
    for i in run:
        b = bucket_of.get(spans[i].name)
        if b is not None and own[i] is not None:
            totals[b] += own[i]
    out: dict[str, float | None] = {"tensor.tape_nodes_per_step": sum(steps) / len(steps)}
    for b, names in NODE_BUCKETS.items():
        out[f"tensor.nodes.{b}"] = None if missing & set(names) else totals[b] / samples
    out["tensor.nodes.train_loop"] = (sum(steps) - sum(totals.values())) / samples
    return out


def forward_self_ms(spans: list[Span], ops: int) -> dict[str, float]:
    """Self time per operation of each forward span name in the traced rounds."""
    own = self_times(spans)
    acc: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s.phase == "run" and s.name in FORWARD_SPANS:
            acc[s.name] += own[i]
    return {k: 1e3 * v / max(ops, 1) for k, v in sorted(acc.items())}


def compute(spans: list[Span], ops: int, samples: int, missing: set[str],
            overhead_pct: float | None) -> dict[str, float | None]:
    """Every per-layer metric by name; None where absent."""
    out = _table_metrics(spans, ops, missing)
    out.update(_node_metrics(spans, samples, missing))
    out[OVERHEAD_METRIC] = overhead_pct
    return out
