"""Traced rounds restore every wrapped attribute, tolerate vanished names,
and attribute every tape node of a step to exactly one bucket."""

import importlib

import pytest

import nightseg.tensor
from perfbench import layer_metrics
from perfbench.hooks import GLOBAL_TARGETS, MODEL_TARGETS, Hooks, _read, resolve
from perfbench.tracing import Tracer
from perfbench.workloads import InferLarge, Prep, TrainDesk


def _tape_len():
    tape = nightseg.tensor.active_tape()
    return None if tape is None else len(tape)


def _snapshot(model=None) -> dict:
    out = {}
    for name, module, path, *_ in GLOBAL_TARGETS:
        container, key = resolve(importlib.import_module(module), path)
        out[name] = (container, key, _read(container, key))
    for name, path in MODEL_TARGETS if model is not None else ():
        container, key = resolve(model, path)
        out[name] = (container, key, _read(container, key))
    return out


def _assert_restored(before: dict) -> None:
    for name, (container, key, original) in before.items():
        assert _read(container, key) is original, name
    for container, key, _ in before.values():
        if isinstance(container, type):
            assert not hasattr(_read(container, key), "__wrapped__")


def _traced(workload, tmp_path, targets=GLOBAL_TARGETS, rounds=1):
    tracer = Tracer(_tape_len, workload.op_markers)
    hooks = Hooks(tracer)
    with hooks.installed(targets=targets):
        st = workload.prepare(tmp_path, 3)
    results = []
    for _ in range(rounds):
        with hooks.installed(targets=targets):
            tracer.phase = "run"
            results.append(workload.run_round(st, hooks.install_model))
        tracer.phase = "idle"
    return tracer, hooks, st, results


@pytest.mark.parametrize("workload", [
    TrainDesk(count=10, iters=2, batch=2),
    InferLarge(count=5, height=32, width=64),
    Prep(mix=((32, 64, 1), (16, 24, 1))),
], ids=lambda w: w.name)
def test_traced_round_restores_every_hook(workload, tmp_path):
    before = _snapshot()
    tracer, hooks, st, results = _traced(workload, tmp_path, rounds=2)
    assert not hooks.missing
    assert all(r.failed == 0 for r in results)
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)
    _assert_restored(before)
    model = st.get("model")
    if model is not None:
        _assert_restored(_snapshot(model))
        assert type(model.decoder).__name__ == "HierarchicalAmplifiedDecoder"
        assert all(type(a).__name__ == "SelfAttentionBlock" for a in model.decoder.attention)


def test_vanished_name_is_reported_absent_and_run_completes(tmp_path):
    targets = tuple(("fourier.fft2d", "nightseg.phase", "fft2d_removed") if t[0] == "fourier.fft2d"
                    else t for t in GLOBAL_TARGETS)
    before = _snapshot()
    workload = Prep(mix=((32, 64, 1), (16, 24, 1)))
    tracer, hooks, _, results = _traced(workload, tmp_path, targets=targets,
                                        rounds=workload.rounds_per_cycle)
    assert hooks.missing == {"fourier.fft2d"}
    assert all(r.failed == 0 for r in results)
    ops = sum(r.ops for r in results)
    values = layer_metrics.compute(tracer.spans, ops, ops, hooks.missing, 0.0)
    assert set(values) == set(layer_metrics.ALL_NAMES)
    for name in ("fourier.fast_ms", "fourier.fast_calls", "fourier.fast_ratio"):
        assert values[name] is None
    assert values["fourier.bruteforce_calls"] > 0
    assert values["phase.texture_ms"] > 0
    _assert_restored(before)


def test_node_buckets_sum_to_tape_nodes_per_step(tmp_path):
    workload = TrainDesk(count=10, iters=2, batch=2)
    tracer, hooks, _, results = _traced(workload, tmp_path)
    ops = results[0].ops
    values = layer_metrics.compute(tracer.spans, ops, ops * workload.batch, hooks.missing, 0.0)
    per_step = values["tensor.tape_nodes_per_step"]
    buckets = [values[n] for n in layer_metrics.NODE_METRICS if n.startswith("tensor.nodes.")]
    assert per_step > 0 and all(b is not None and b >= 0 for b in buckets)
    assert sum(buckets) * workload.batch == pytest.approx(per_step)
    # each sample's forward records nodes in every module of the default model
    assert all(values[f"tensor.nodes.{b}"] > 0
               for b in ("backbone", "phase_encoder", "decoder", "matcher", "loss"))
    # evaluation-only metrics are absent from training, and vice versa
    assert values["metrics.update_ms"] is None and values["tensor.backward_ms"] > 0
