"""Benchmark harness for nightseg: workloads, tracing hooks and provenance.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``perfbench/README.md``.
"""
