"""Acceptance suite: every shipping criterion at its stated tolerance.

Criteria 1-7 are direct property/oracle checks; 8-10 drive the real CLI
end to end (dataset generation, two identical training runs, evaluation,
ablation tables) inside a session-scoped fixture and are marked ``slow``.
One line per criterion is printed so a `pytest -s` run reads as a checklist.
"""

import itertools
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from nightseg.cli import main
from nightseg.fourier import dft2d_bruteforce, irfft2d, rfft2d
from nightseg import tensor as T
from nightseg.layers import glorot_uniform
from nightseg.losses import hungarian_match
from nightseg.matcher import select_reliable
from nightseg.metrics import miou
from nightseg.phase import choose_c_a, fourier_decompose, phase_reconstruct
from nightseg.selftest import run_grad_suite
from nightseg.tensor import Tensor, attention_weights, bridged_similarity


def _report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_fft_matches_bruteforce_within_budget():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        x = rng.normal(size=(16, 16))
        fast = rfft2d(x)
        brute = dft2d_bruteforce(x)[:, :9]   # the half spectrum, columns 0..W//2
        rel = np.abs(fast - brute).max() / max(1.0, np.abs(brute).max())
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    assert worst < 1e-6, f"relative error {worst}"
    assert elapsed < 5.0, f"suite took {elapsed:.2f}s"
    _report(1, f"50x16x16 fast-vs-brute rel err {worst:.2e} in {elapsed:.2f}s")


def test_criterion_2_roundtrip_identity():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for h, w in ((2, 2), (8, 16), (32, 8), (64, 64)):
        x = rng.normal(size=(h, w))
        back = irfft2d(rfft2d(x), (h, w))
        scale = max(1.0, np.abs(x).max())
        worst = max(worst, np.abs(back - x).max() / scale)
    assert worst < 1e-9
    _report(2, f"inverse(forward(x)) max rel err {worst:.2e} up to 64x64")


def test_criterion_3_reconstruction_modulus_invariant():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        img = rng.uniform(size=(16, 16))
        spectrum = fourier_decompose(img)
        c_a = choose_c_a(spectrum)
        rec = phase_reconstruct(spectrum, c_a)
        mod = np.abs(rfft2d(rec))
        worst = max(worst, np.abs(mod - c_a).max())
        assert rec.shape == (16, 16)
    assert worst < 1e-6
    _report(3, f"reconstruction's spectrum modulus within {worst:.2e} of c_a on 20 images")


def test_criterion_4_gradient_suite():
    results = run_grad_suite()
    worst = max(err for _, err in results)
    for name, err in results:
        assert err < 1e-4, f"{name}: {err}"
    _report(4, f"{len(results)} differentiable compositions, worst rel err {worst:.2e}")


def test_criterion_5_attention_invariants_1000():
    rng = np.random.default_rng(2027)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        hw = int(rng.integers(4, 16))
        c = int(rng.integers(3, 7))
        k = int(rng.integers(1, hw + 1))
        init = np.random.default_rng(int(rng.integers(1 << 31)))
        wq = glorot_uniform(init, (c, c), c, c, np.float64)
        wk = glorot_uniform(init, (c, c), c, c, np.float64)
        p = Tensor(rng.normal(size=(n, c)) * rng.uniform(0.5, 3.0))
        fa = Tensor(rng.normal(size=(hw, c)) * rng.uniform(0.5, 3.0))
        q, q_pix = T.matmul(p, wq), T.matmul(fa, wq)
        sim = attention_weights(q.data, T.matmul(fa, wk).data)
        assert np.abs(sim.sum(axis=1) - 1.0).max() < 1e-6
        scores = sim.sum(axis=0)
        assert abs(scores.sum() - n) < 1e-5
        idx = select_reliable(sim, k)
        want = sorted(range(hw), key=lambda i: (-scores[i], i))[:k]
        assert idx.tolist() == want
        kr = T.matmul(T.gather_rows(fa, idx), wk)
        assert np.abs(attention_weights(q.data, kr.data).sum(axis=1) - 1.0).max() < 1e-6
        assert np.abs(attention_weights(q_pix.data, kr.data).sum(axis=1) - 1.0).max() < 1e-6
        sim_qk = bridged_similarity(q, q_pix, kr).data
        assert sim_qk.min() >= 0.0
        assert sim_qk.max() <= 1.0 + 1e-9
    _report(5, "row sums, score totals, [0,1] range, and top-K order on 1000 instances")


def test_criterion_6_hungarian_1000_instances():
    rng = np.random.default_rng(2028)
    for case in range(1000):
        n = int(rng.integers(1, 8))
        g = int(rng.integers(1, n + 1))
        if case % 2:
            cost = rng.integers(0, 30, size=(n, g)).astype(np.float64)
        else:
            cost = rng.normal(size=(n, g))
        got = hungarian_match(cost)
        assert len(set(got.tolist())) == g
        best = min(sum(cost[p[i], i] for i in range(g))
                   for p in itertools.permutations(range(n), g))
        total = sum(cost[got[i], i] for i in range(g))
        if case % 2:
            assert total == best
        else:
            assert abs(total - best) < 1e-9
    _report(6, "assignment optimum equals exhaustive enumeration on 1000 cost matrices")


def test_criterion_7_miou_hand_example_and_identity():
    pred = np.array([[0, 1], [1, 1]])
    gt = np.array([[0, 1], [0, 1]])
    per_class, mean = miou(pred, gt, 2)
    assert abs(per_class[0] - 0.5) < 1e-12
    assert abs(per_class[1] - 2 / 3) < 1e-12
    assert abs(mean - 7 / 12) < 1e-12
    rng = np.random.default_rng(2029)
    for _ in range(100):
        m = rng.integers(0, 5, size=(7, 9))
        _, mm = miou(m, m, 5)
        assert mm == 1.0
    _report(7, "hand example exact (0.5, 2/3, 7/12) and miou(m,m)=1 on 100 masks")


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
        assert main(["eval", "--ckpt", str(root / run / "checkpoint"),
                     "--config", str(config), "--data", str(data),
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
