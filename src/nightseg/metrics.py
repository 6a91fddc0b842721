"""Segmentation metrics: confusion matrix and mean intersection-over-union."""

from __future__ import annotations

import numpy as np

__all__ = ["ConfusionMatrix"]


class ConfusionMatrix:
    """Pixel counts indexed [ground truth class, predicted class]."""

    def __init__(self, num_classes: int):
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, pred: np.ndarray, gt: np.ndarray) -> None:
        pred = np.asarray(pred)
        gt = np.asarray(gt)
        if pred.shape != gt.shape:
            raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
        for arr, name in ((pred, "prediction"), (gt, "ground truth")):
            if arr.min() < 0 or arr.max() >= self.num_classes:
                raise ValueError(
                    f"{name} contains class indices outside [0, {self.num_classes})"
                )
        k = self.num_classes
        combined = k * gt.reshape(-1).astype(np.int64) + pred.reshape(-1)
        self.counts += np.bincount(combined, minlength=k * k).reshape(k, k)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def iou(self) -> tuple[np.ndarray, float]:
        """Per-class IoU (nan where a class is absent from both) and the mean.

        Classes absent from prediction and ground truth alike are excluded
        from the mean.
        """
        tp = np.diag(self.counts).astype(np.float64)
        fp = self.counts.sum(axis=0) - np.diag(self.counts)
        fn = self.counts.sum(axis=1) - np.diag(self.counts)
        union = tp + fp + fn
        per_class = np.full(self.num_classes, np.nan)
        present = union > 0
        per_class[present] = tp[present] / union[present]
        mean = float(per_class[present].mean()) if present.any() else float("nan")
        return per_class, mean
