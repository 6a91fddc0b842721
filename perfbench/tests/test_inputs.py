"""The workload seed alone decides the generated inputs."""

from pathlib import Path

import pytest

from perfbench.workloads import InferLarge, Prep, TrainDesk

SMALL = [TrainDesk(count=6), InferLarge(count=5, height=32, width=64),
         Prep(mix=((32, 64, 2), (16, 24, 1)))]


def _files(dirs: list[Path]) -> dict[str, bytes]:
    return {f"{d.name}/{p.name}": p.read_bytes() for d in dirs for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_same_seed_same_bytes_other_seed_differs(workload, tmp_path):
    a = _files(workload.generate(tmp_path / "a", 5))
    b = _files(workload.generate(tmp_path / "b", 5))
    c = _files(workload.generate(tmp_path / "c", 6))
    assert a and a == b
    assert a.keys() == c.keys() and a != c
