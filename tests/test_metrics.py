"""Confusion matrix and mIoU."""

import numpy as np
import pytest

from nightseg.metrics import ConfusionMatrix
from nightseg.selftest import check_miou


def iou_of(pred, gt, num_classes):
    """Per-class IoU and their mean over one prediction/ground-truth pair."""
    cm = ConfusionMatrix(num_classes)
    cm.update(pred, gt)
    return cm.iou()


def iou_oracle(pred, gt, num_classes):
    """Direct per-class set arithmetic, independent of the confusion matrix."""
    out = {}
    for c in range(num_classes):
        p = pred == c
        g = gt == c
        union = np.logical_or(p, g).sum()
        if union:
            out[c] = np.logical_and(p, g).sum() / union
    return out


class TestConfusionMatrix:
    def test_total_equals_pixel_count(self):
        rng = np.random.default_rng(0)
        cm = ConfusionMatrix(4)
        for _ in range(5):
            cm.update(rng.integers(0, 4, size=(6, 7)), rng.integers(0, 4, size=(6, 7)))
        assert cm.total == 5 * 42
        assert (cm.counts >= 0).all()

    def test_rows_are_ground_truth(self):
        cm = ConfusionMatrix(3)
        cm.update(np.array([[1]]), np.array([[2]]))
        assert cm.counts[2, 1] == 1

    def test_shape_mismatch_rejected(self):
        cm = ConfusionMatrix(2)
        with pytest.raises(ValueError, match="mismatch"):
            cm.update(np.zeros((2, 2), dtype=int), np.zeros((2, 3), dtype=int))

    def test_out_of_range_rejected(self):
        cm = ConfusionMatrix(2)
        with pytest.raises(ValueError, match="class indices"):
            cm.update(np.array([[5]]), np.array([[0]]))


class TestMiou:
    def test_identical_masks(self):
        check_miou()

    def test_hand_example(self):
        check_miou()

    def test_disjoint_single_class_masks(self):
        pred = np.zeros((2, 4), dtype=int)
        pred[:, :2] = 1
        gt = np.zeros((2, 4), dtype=int)
        gt[:, 2:] = 1
        per_class, _ = iou_of(pred, gt, 2)
        assert per_class[1] == 0.0

    def test_absent_class_excluded_from_mean(self):
        pred = np.zeros((3, 3), dtype=int)
        gt = np.zeros((3, 3), dtype=int)
        per_class, mean = iou_of(pred, gt, 4)
        assert np.isnan(per_class[1:]).all()
        assert mean == 1.0

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pred = rng.integers(0, 5, size=(8, 8))
            gt = rng.integers(0, 5, size=(8, 8))
            per_class, mean = iou_of(pred, gt, 5)
            want = iou_oracle(pred, gt, 5)
            for c, v in want.items():
                assert per_class[c] == pytest.approx(v, abs=1e-12)
            assert mean == pytest.approx(np.mean(list(want.values())), abs=1e-12)
