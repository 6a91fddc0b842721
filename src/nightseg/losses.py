"""Mask-classification losses: assignment, dice/BCE/CE, and the combined loss.

Ground truth is decomposed into one binary segment per class present.
Each segment is assigned to a distinct prototype by minimum-cost matching
(class probability + BCE + dice costs); matched prototypes are supervised
with dice and BCE on their mask plane, and all prototypes receive a
cross-entropy target (matched -> segment class, unmatched -> "no object").
A batch runs the network once, but each image is decomposed and matched on
its own, as in Mask2Former; the losses then average over the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import check_options, option
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
    cls: float = option("train.lambda_cls", 2.0, at_least=0)
    bce: float = option("train.lambda_bce", 5.0, at_least=0)
    dice: float = option("train.lambda_dice", 5.0, at_least=0)

    def __post_init__(self):
        check_options(self)


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

    # the segment-independent parts of the BCE and dice costs, formed once
    mz = np.maximum(z, 0)
    lz = np.log1p(np.exp(-np.abs(z)))
    sig_sum = sig.sum(axis=1)
    g = targets.shape[0]
    cost = np.empty((n, g))
    for j in range(g):
        t = targets[j][None, :]
        bce = np.mean(mz - z * t + lz, axis=1)
        inter = (sig * t).sum(axis=1)
        dice = 1.0 - (2.0 * inter + 1.0) / (sig_sum + t.sum() + 1.0)
        cost[:, j] = weights.cls * (-probs[:, labels[j]]) + weights.bce * bce + weights.dice * dice
    return cost


def total_loss(mask_logits: Tensor, class_logits: Tensor, gt_mask: np.ndarray,
               num_classes: int, weights: LossWeights = LossWeights()) -> Tensor:
    """Matched dice+BCE mask supervision plus weighted CE over all prototypes,
    averaged over the batch.

    mask_logits [..., h, w, N], class_logits [..., N, K + 1] and gt_mask
    [..., h, w] share their leading (batch) axes, if any. Each image's
    ground truth is decomposed and matched on its own; then one dice+BCE
    node takes the matched rows of every image and one CE node all B·N
    prototypes, each scaled to the mean over the batch.
    """
    *lead, h, w, n = mask_logits.shape
    if class_logits.shape[:-1] != (*lead, n):
        raise ValueError(
            f"total_loss: {mask_logits.shape} mask planes vs {class_logits.shape} class rows"
        )
    gt = np.asarray(gt_mask)
    if gt.shape != (*lead, h, w):
        raise ValueError(f"total_loss: ground truth {gt.shape} != mask extents {(*lead, h, w)}")
    batch = math.prod(lead)
    logits = mask_logits.data.reshape(batch, h * w, n)
    cls_logits = class_logits.data.reshape(batch, n, -1)

    rows, targets = [], []
    ce_targets = np.full((batch, n), num_classes, dtype=np.int64)  # final slot = "no object"
    for b, gt_b in enumerate(gt.reshape(batch, h, w)):
        labels, targets_b = decompose_gt(gt_b, num_classes)
        cost = matching_costs(logits[b], cls_logits[b], targets_b, labels, weights)
        proto_for_segment = hungarian_match(cost)
        ce_targets[b, proto_for_segment] = labels
        rows.append(proto_for_segment + b * n)
        targets.append(targets_b)

    planes = T.transpose2d(T.reshape(mask_logits, (batch, h * w, n)))       # [B, N, hw]
    matched = T.gather_rows(T.reshape(planes, (batch * n, h * w)), np.concatenate(rows))
    mask_term = T.bce_dice_loss(matched, np.concatenate(targets),
                                weights.bce / batch, weights.dice / batch)
    class_rows = T.reshape(class_logits, (batch * n, class_logits.shape[-1]))
    return T.add(mask_term, T.scale(T.ce_logits(class_rows, ce_targets.reshape(-1)), weights.cls))
