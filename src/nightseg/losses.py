"""Mask-classification losses: assignment, dice/BCE/CE, and the combined loss.

Ground truth is decomposed into one binary segment per class present.
Each segment is assigned to a distinct prototype by minimum-cost matching
(class probability + BCE + dice costs); matched prototypes are supervised
with dice and BCE on their mask plane, and all prototypes receive a
cross-entropy target (matched -> segment class, unmatched -> "no object").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import option
from .tensor import Tensor

__all__ = [
    "LossWeights",
    "hungarian_match",
    "decompose_gt",
    "class_and_mask_probs",
    "matching_costs",
    "total_loss",
]


@dataclass
class LossWeights:
    cls: float = option("train.lambda_cls", 2.0)
    bce: float = option("train.lambda_bce", 5.0)
    dice: float = option("train.lambda_dice", 5.0)


def hungarian_match(cost: np.ndarray) -> np.ndarray:
    """Min-cost one-to-one assignment of G columns to distinct rows of cost[N, G].

    Returns proto_for_segment[G]. Shortest-augmenting-path form with row
    and column potentials; requires N >= G.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"hungarian_match: expects a 2-D cost matrix, got shape {c.shape}")
    n, g = c.shape
    if g > n:
        raise ValueError(f"hungarian_match: more segments ({g}) than prototypes ({n})")
    if not np.all(np.isfinite(c)):
        raise ValueError("hungarian_match: cost matrix contains non-finite values")

    a = c.T  # rows = segments (the scarce side), cols = prototypes
    INF = np.inf
    u = np.zeros(g + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.int64)   # p[j] = segment (1-based) matched to column j
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, g + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, INF)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = a[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    proto_for_segment = np.full(g, -1, dtype=np.int64)
    for j in range(1, n + 1):
        if p[j]:
            proto_for_segment[p[j] - 1] = j - 1
    return proto_for_segment


def decompose_gt(mask: np.ndarray, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Binary segment per class present in the mask.

    Returns (labels[G], targets[G, hw]); a single-class mask yields one
    segment. Rejects out-of-range labels.
    """
    m = np.asarray(mask)
    if m.min() < 0 or m.max() >= num_classes:
        raise ValueError(f"mask labels outside [0, {num_classes}): {sorted(np.unique(m))}")
    labels = np.unique(m)
    flat = m.reshape(-1)
    targets = np.stack([(flat == c).astype(np.float64) for c in labels])
    return labels.astype(np.int64), targets


def class_and_mask_probs(mask_logits: np.ndarray,
                         class_logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 row-softmax of the [N, K] class logits and clipped sigmoid of
    the mask logits (any layout); plain numpy, no gradients."""
    cz = class_logits.astype(np.float64)
    cmax = cz.max(axis=1, keepdims=True)
    probs = np.exp(cz - cmax)
    probs /= probs.sum(axis=1, keepdims=True)
    masks = 1.0 / (1.0 + np.exp(-np.clip(np.asarray(mask_logits, dtype=np.float64), -60, 60)))
    return probs, masks


def matching_costs(mask_logits: np.ndarray, class_logits: np.ndarray,
                   targets: np.ndarray, labels: np.ndarray,
                   weights: LossWeights) -> np.ndarray:
    """Assignment cost[N, G]; plain numpy, no gradients flow through matching."""
    n = class_logits.shape[0]
    z = mask_logits.reshape(-1, n).T.astype(np.float64)          # [N, hw]
    probs, sig = class_and_mask_probs(z, class_logits)

    g = targets.shape[0]
    cost = np.empty((n, g))
    for j in range(g):
        t = targets[j][None, :]
        bce = np.mean(np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z))), axis=1)
        inter = (sig * t).sum(axis=1)
        dice = 1.0 - (2.0 * inter + 1.0) / (sig.sum(axis=1) + t.sum() + 1.0)
        cost[:, j] = weights.cls * (-probs[:, labels[j]]) + weights.bce * bce + weights.dice * dice
    return cost


def total_loss(mask_logits: Tensor, class_logits: Tensor, gt_mask: np.ndarray,
               num_classes: int, weights: LossWeights = LossWeights()) -> Tensor:
    """Matched dice+BCE mask supervision plus weighted CE over all prototypes."""
    h, w, n = mask_logits.shape
    if class_logits.shape[0] != n:
        raise ValueError(
            f"total_loss: {n} mask planes vs {class_logits.shape[0]} class rows"
        )
    labels, targets = decompose_gt(gt_mask, num_classes)
    if gt_mask.shape != (h, w):
        raise ValueError(f"total_loss: ground truth {gt_mask.shape} != mask extents {(h, w)}")

    cost = matching_costs(mask_logits.data, class_logits.data, targets, labels, weights)
    proto_for_segment = hungarian_match(cost)

    ce_targets = np.full(n, num_classes, dtype=np.int64)  # final slot = "no object"
    ce_targets[proto_for_segment] = labels

    planes = T.transpose2d(T.reshape(mask_logits, (h * w, n)))   # [N, hw]
    matched = T.gather_rows(planes, proto_for_segment)           # [G, hw]
    mask_term = T.bce_dice_loss(matched, targets, weights.bce, weights.dice)
    return T.add(mask_term, T.scale(T.ce_logits(class_logits, ce_targets), weights.cls))
