"""Acceptance suite: every shipping criterion at its stated tolerance.

Criteria 1-7 call the oracle and property checks of ``nightseg.selftest``
(the gradient suite for 4), where each oracle is written once; 8-10 drive
the real CLI end to end (dataset generation, two identical training runs,
evaluation, ablation tables) inside a session-scoped fixture and are marked
``slow``.
One line per criterion is printed so a `pytest -s` run reads as a checklist.
"""

import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from nightseg.cli import main
from nightseg.selftest import (check_fft_oracle, check_fft_roundtrip, check_hungarian_oracle,
                               check_matching_invariants, check_miou,
                               check_phase_amplitude_invariant, run_grad_suite)


def _report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_fft_matches_bruteforce_within_budget():
    start = time.monotonic()
    worst = check_fft_oracle()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"suite took {elapsed:.2f}s"
    _report(1, f"50x16x16 and 8 other extents fast-vs-brute rel err {worst:.2e} in {elapsed:.2f}s")


def test_criterion_2_roundtrip_identity():
    worst = check_fft_roundtrip()
    _report(2, f"inverse(forward(x)) max rel err {worst:.2e} on 13 extents up to 64x64")


def test_criterion_3_reconstruction_modulus_invariant():
    worst = check_phase_amplitude_invariant()
    _report(3, f"reconstruction's spectrum modulus within {worst:.2e} of c_a on 42 images")


def test_criterion_4_gradient_suite():
    results = run_grad_suite()
    worst = max(err for _, err in results)
    for name, err in results:
        assert err < 1e-4, f"{name}: {err}"
    _report(4, f"{len(results)} differentiable compositions, worst rel err {worst:.2e}")


def test_criterion_5_attention_invariants_1000():
    check_matching_invariants()
    _report(5, "row sums, score totals, [0,1] range, and top-K order on 2000 instances")


def test_criterion_6_hungarian_1000_instances():
    check_hungarian_oracle()
    _report(6, "assignment optimum equals exhaustive enumeration on 2000 cost matrices")


def test_criterion_7_miou_hand_example_and_identity():
    check_miou()
    _report(7, "hand example exact (0.5, 2/3, 7/12) and mIoU(m, m) = 1 on 200 masks")


# ---------------------------------------------------------------------------
# end-to-end: criteria 8-10 share one dataset and two identical training runs
# ---------------------------------------------------------------------------

DESK_SEED = 42
TRAIN_SEED = 3


@dataclass
class DeskRun:
    data_dir: Path
    config: Path
    ablate_config: Path
    train_seconds: float
    iters: int
    reports: list[str]


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory) -> DeskRun:
    root = tmp_path_factory.mktemp("desk")
    data = root / "data"
    assert main(["gen-data", "--out", str(data), "--count", "250",
                 "--height", "32", "--width", "64", "--classes", "4",
                 "--seed", str(DESK_SEED)]) == 0

    config = root / "desk.cfg"
    config.write_text(f"train.seed = {TRAIN_SEED}\n", encoding="utf-8")
    ablate_cfg = root / "ablate.cfg"
    ablate_cfg.write_text(
        f"train.seed = {TRAIN_SEED}\ntrain.iters = 700\n", encoding="utf-8")

    from nightseg.config import build, parse_config
    from nightseg.train import TrainConfig

    iters = build(TrainConfig, parse_config(config)).iters

    reports = []
    train_seconds = 0.0
    for run in ("run1", "run2"):
        start = time.monotonic()
        assert main(["train", "--config", str(config), "--data", str(data),
                     "--out", str(root / run)]) == 0
        train_seconds = max(train_seconds, time.monotonic() - start)
        report = root / f"report_{run}.txt"
        assert main(["eval", "--ckpt", str(root / run / "checkpoint"), "--data", str(data),
                     "--report", str(report)]) == 0
        reports.append(report.read_text(encoding="utf-8"))
    return DeskRun(data, config, ablate_cfg, train_seconds, iters, reports)


def _parse_miou(report: str) -> float:
    last = report.strip().splitlines()[-1]
    assert last.startswith("miou ")
    return float(last.split()[1])


@pytest.mark.slow
def test_criterion_8_desk_run_reaches_070(desk_run):
    assert desk_run.iters <= 5000, "default schedule exceeds the iteration budget"
    assert desk_run.train_seconds <= 900, f"training took {desk_run.train_seconds:.0f}s"
    score = _parse_miou(desk_run.reports[0])
    assert score >= 0.70, f"val mIoU {score}"
    _report(8, f"250-sample desk run: {desk_run.iters} iters in "
               f"{desk_run.train_seconds:.0f}s, val mIoU {score:.3f} >= 0.70")


@pytest.mark.slow
@pytest.mark.parametrize("axis,rows", [
    ("matcher", ["vanilla_attention", "reliable_attention"]),
    ("phase", ["without_phase", "with_phase"]),
])
def test_criterion_9_ablation_tables(desk_run, axis, rows, capsys, tmp_path):
    report = tmp_path / f"ablate_{axis}.txt"
    rc = main(["ablate", "--axis", axis, "--config", str(desk_run.ablate_config),
               "--data", str(desk_run.data_dir), "--report", str(report)])
    assert rc == 0
    lines = report.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == f"axis {axis}"
    assert lines[1] == "setting miou"
    got_rows = [ln.split()[0] for ln in lines[2:]]
    assert got_rows == rows
    for ln in lines[2:]:
        value = float(ln.split()[1])
        assert 0.0 <= value <= 1.0
    _report(9, f"axis {axis}: {len(rows)} rows trained to completion ({', '.join(lines[2:])})")


@pytest.mark.slow
def test_criterion_10_byte_identical_reports(desk_run):
    assert desk_run.reports[0] == desk_run.reports[1]
    _report(10, "two identical-seed runs produced byte-identical metric reports")
