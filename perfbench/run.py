#!/usr/bin/env python3
"""Run one nightseg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` a separate, traced run reports the
per-layer metrics instead. Each run also writes a result file with its
provenance under ``.perfbench_out/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("train-desk", "infer-large", "prep")
BLAS_THREADS = "1"     # one BLAS thread (<= nproc) keeps rounds steady on a shared machine
SETUP_REPEATS = 3      # set-ups per run: this process plus fresh child processes
WARMUP_S = 2.0         # rounds starting earlier are checked but not timed
MIN_ROUNDS = 3         # a run measures at least this many cycles (per half when traced)
CHILD_TIMEOUT_S = 150


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up time and exit (used for repeats)")
    return p.parse_args(argv)


def _pin_threads() -> None:
    # before numpy loads: BLAS reads these once, at library initialisation
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["NF_THREADS"] = "1"   # sequential dataset generation


def _child_setup_s(args: argparse.Namespace) -> float:
    """Set-up time of a fresh process: imports and caches start cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _run_cycles(workload, st, seconds: float, traced_round=None) -> list[tuple]:
    """Closed-loop cycles of rounds: warm-up for WARMUP_S, then measure for
    ``seconds`` and at least MIN_ROUNDS cycles (per half when traced).

    Returns (round, measured, traced) triples. Warm-up rounds are checked and
    counted but not timed. With ``traced_round``, every second measured
    cycle runs traced.
    """
    out = []
    plain = traced = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = min(plain, traced) if traced_round else plain
        if elapsed >= WARMUP_S + seconds and enough >= MIN_ROUNDS:
            return out
        measured = elapsed >= WARMUP_S
        use_trace = traced_round is not None and measured and traced < plain
        for _ in range(workload.rounds_per_cycle):
            r = traced_round() if use_trace else workload.run_round(st, lambda model: None)
            out.append((r, measured, use_trace))
        if measured:
            traced += use_trace
            plain += not use_trace


def _round_seconds(rounds: list) -> float:
    """Time of one cycle: per group, the lower quartile of its round times.

    Rounds of a group do identical work; slow rounds come from other load on
    the machine, so the fast quartile is the steadier estimate.
    """
    groups: dict[str, list[float]] = {}
    for r in rounds:
        groups.setdefault(r.group, []).append(r.seconds)
    return sum(statistics.quantiles(v, n=4, method="inclusive")[0] if len(v) > 1 else v[0]
               for v in groups.values())


def _cycle_units(rounds: list) -> float:
    return sum({r.group: r.units for r in rounds}.values())


def _counts(cycles: list[tuple], info: dict) -> dict:
    """The result's correctness fields: every operation of every round counts."""
    attempted = sum(r.ops for r, _, _ in cycles)
    failed = sum(r.failed for r, _, _ in cycles)
    if info.get("predictions_match_evaluate") is False:
        failed = attempted
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}


def _result_path(stem: str, suffix: str = ".json") -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    return results / f"{stem}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}{suffix}"


def _write_result(stem: str, payload: dict) -> Path:
    path = _result_path(stem)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    t_start = time.perf_counter()
    args = _parse(argv)
    _pin_threads()
    if not (ROOT / "src" / "nightseg" / "__init__.py").is_file():
        print(f"perfbench: no nightseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import provenance, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the benchmark or nightseg: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_start

    workload = workloads.WORKLOADS[args.workload]()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "tmp"))
    try:
        if args.setup_only:
            t0 = time.perf_counter()
            workload.prepare(work, args.seed)
            print(json.dumps({"setup_s": import_s + time.perf_counter() - t0}))
            return 0
        config = workloads.describe(workload)
        prov = provenance.provenance(ROOT, config, args.seed)
        if args.trace:
            return _traced(args, workload, work, prov)
        setups = [_child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
        t0 = time.perf_counter()
        st = workload.prepare(work, args.seed)
        setups.append(import_s + time.perf_counter() - t0)
        cycles = _run_cycles(workload, st, args.seconds)
        info = workload.finish(st)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [r for r, measured, _ in cycles if measured]
    throughput = _cycle_units(timed) / _round_seconds(timed)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "throughput_per_s": {"value": throughput, "unit": "1/s"},
    }
    named = {"train-desk": "train_samples_per_s", "infer-large": "infer_samples_per_s",
             "prep": "prep_mpix_per_s"}[args.workload]
    result = {**_counts(cycles, info), "metrics": metrics}
    path = _write_result(f"{args.workload}-s{args.seed}-e2e", {
        **result, "workload": args.workload, "provenance": prov, "checks": info,
        named: throughput, "setup_runs_s": setups,
        "rounds": [{**vars(r), "measured": m} for r, m, _ in cycles],
    })
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(f"{named} {throughput:.6g} ({len(timed)} timed rounds; {result['attempted']} ops "
          f"attempted, {result['failed']} failed); result {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def _traced(args, workload, work: Path, prov: dict) -> int:
    """Per-layer run: set-up and every second cycle run with hooks installed."""
    import nightseg.tensor
    from perfbench import hooks, layer_metrics, tracing

    active = getattr(nightseg.tensor, "active_tape", None)

    def tape_len():
        tape = active() if active is not None else None
        return None if tape is None else len(tape)

    tracer = tracing.Tracer(tape_len, workload.op_markers)
    hk = hooks.Hooks(tracer)
    with hk.installed():
        st = workload.prepare(work, args.seed)
    tracer.phase = "run"

    def traced_round():
        with hk.installed():
            return workload.run_round(st, hk.install_model)

    cycles = _run_cycles(workload, st, args.seconds, traced_round)
    info = workload.finish(st)
    plain = [r for r, measured, tr in cycles if measured and not tr]
    traced = [r for r, _, tr in cycles if tr]
    ops = sum(r.ops for r in traced)
    overhead = 100.0 * (_round_seconds(traced) / _round_seconds(plain) - 1.0)
    values = layer_metrics.compute(tracer.spans, ops, ops * workload.samples_per_op,
                                   hk.missing, overhead)
    absent = sorted(k for k, v in values.items() if v is None)
    metrics = {k: {"value": 0.0 if v is None else v, "unit": layer_metrics.UNITS[k]}
               for k, v in values.items()}
    self_ms = layer_metrics.forward_self_ms(tracer.spans, ops)
    largest = max(self_ms, key=self_ms.get) if self_ms else None
    stem = f"{args.workload}-s{args.seed}-trace"
    spans_path = _result_path(stem, ".spans.jsonl")
    tracer.write_jsonl(spans_path)
    result = {**_counts(cycles, info), "metrics": metrics}
    path = _write_result(stem, {
        **result, "workload": args.workload, "provenance": prov, "checks": info,
        "absent": absent, "missing_hooks": sorted(hk.missing),
        "forward_self_ms": self_ms, "largest_forward_self": largest,
        "trace_overhead_pct": overhead, "spans_file": spans_path.name,
        "rounds": [{**vars(r), "measured": m, "traced": t} for r, m, t in cycles],
    })
    print(f"largest forward self time: {largest}; tracing overhead {overhead:+.2f}% "
          f"({len(traced)} traced vs {len(plain)} untraced rounds)")
    print(f"absent: {', '.join(absent) or 'none'}; result {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
