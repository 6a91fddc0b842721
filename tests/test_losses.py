"""Losses and assignment: dice/BCE/CE values, Hungarian oracle, combined loss."""

import math

import numpy as np
import pytest

from nightseg import tensor as T
from nightseg.gradcheck import grad_check
from nightseg.losses import (LossWeights, decompose_gt, hungarian_match,
                             matching_costs, total_loss)
from nightseg.selftest import check_hungarian_oracle, least_assignment_total
from nightseg.tensor import Tensor


class TestHungarian:
    def test_two_by_two(self):
        match = hungarian_match(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert match.tolist() == [0, 1]

    def test_zero_diagonal_identity(self):
        rng = np.random.default_rng(0)
        cost = rng.uniform(1.0, 5.0, size=(4, 4))
        np.fill_diagonal(cost, 0.0)
        assert hungarian_match(cost).tolist() == [0, 1, 2, 3]

    def test_rectangular_6x4_matches_brute_force(self):
        check_hungarian_oracle()

    def test_random_sweep_against_oracle(self):
        check_hungarian_oracle()

    def test_integer_costs_exact(self):
        check_hungarian_oracle()

    def test_more_segments_than_prototypes_rejected(self):
        with pytest.raises(ValueError, match="segments"):
            hungarian_match(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            hungarian_match(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def _logit(p):
    """Logits whose sigmoid is p; 0 and 1 map to -40 and 40, which round to them."""
    with np.errstate(divide="ignore"):
        return np.clip(np.log(p) - np.log1p(-p), -40.0, 40.0)


def matched_loss(z, t, bce_weight, dice_weight, cls_weight=0.0, class_logits=None, classes=None):
    """The loss node on mask logits z [G, M] (a Tensor), each row the one
    plane of its own image, every plane picked against its target row of t;
    the class term is taken on class_logits [G, 1, K] (zero logits where
    None) against classes [G, 1]."""
    g, m = z.shape
    if class_logits is None:
        class_logits = Tensor(np.zeros((g, 1, 2), z.dtype))
    return T.mask_classification_loss(
        T.reshape(z, (g, 1, m, 1)), class_logits, np.stack([np.arange(g), np.zeros(g, int)], 1),
        np.reshape(t, (g, m)), np.zeros((g, 1), int) if classes is None else classes,
        bce_weight, dice_weight, cls_weight)


def dice(p, t):
    """Whole-array dice of probabilities p against t: the matched-mask loss
    with the other weights at 0."""
    return matched_loss(Tensor(_logit(p).reshape(1, -1)), t.reshape(1, -1), 0.0, 1.0)


class TestDice:
    def test_perfect_prediction_near_zero(self):
        t = np.zeros((4, 4))
        t[1:3, 1:3] = 1.0
        loss = dice(t.copy(), t)
        assert loss.item() < 0.02  # epsilon keeps exact zero out of reach

    def test_disjoint_prediction(self):
        t = np.zeros(16)
        t[:8] = 1.0
        pred = 1.0 - t
        loss = dice(pred, t)
        assert loss.item() == pytest.approx(1 - 1.0 / (16 + 1.0), abs=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        t = (rng.random(12) > 0.5).astype(np.float64)
        assert grad_check(lambda x: matched_loss(T.reshape(x, (1, 12)), t[None], 0.0, 1.0),
                          Tensor(rng.normal(size=12))) < 1e-4

    def test_rows_are_independent(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(3, 10))
        t = (rng.random((3, 10)) > 0.5).astype(np.float64)
        want = 0.0
        for g in range(3):
            p = 1.0 / (1.0 + np.exp(-z[g]))
            want += 1.0 - (2.0 * (p * t[g]).sum() + 1.0) / (p.sum() + t[g].sum() + 1.0)
        assert matched_loss(Tensor(z), t, 0.0, 1.0).item() == pytest.approx(want, abs=1e-12)
        singles = sum(matched_loss(Tensor(z[g:g + 1]), t[g:g + 1], 0.0, 1.0).item()
                      for g in range(3))
        assert singles == pytest.approx(want, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.uniform(size=10)
            t = (rng.random(10) > 0.5).astype(np.float64)
            assert dice(p, t).item() >= 0.0


def bce(z, t):
    """Mean BCE over all elements: the matched-mask loss of one row with the
    other weights at 0."""
    return matched_loss(T.reshape(z, (1, z.size)), np.reshape(t, (1, -1)), 1.0, 0.0)


def ce(z, classes, weight=1.0):
    """Mean CE of the class logit rows z [N, K] against classes [N]: the loss
    node on N one-prototype images with the mask weights at 0."""
    n = len(z.data)
    return matched_loss(Tensor(np.zeros((n, 1), z.dtype)), np.zeros((n, 1)), 0.0, 0.0, weight,
                        T.reshape(z, (n, 1, z.shape[1])), np.reshape(classes, (n, 1)))


class TestBceCe:
    def test_zero_logits_balanced_target_ln2(self):
        t = np.array([1.0, 0.0, 1.0, 0.0])
        loss = bce(Tensor(np.zeros(4)), t)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct_class_near_zero(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        assert ce(Tensor(logits), [1, 2]).item() < 1e-12

    def test_bce_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(3, 5))
        t = (rng.random((3, 5)) > 0.5).astype(np.float64)
        want = np.mean(-(t * np.log(1 / (1 + np.exp(-z))) + (1 - t) * np.log(1 - 1 / (1 + np.exp(-z)))))
        assert bce(Tensor(z), t).item() == pytest.approx(want, abs=1e-10)

    def test_ce_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(4, 5))
        idx = np.array([0, 3, 2, 4])
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        want = -np.mean(np.log(p[np.arange(4), idx]))
        assert ce(Tensor(z), idx).item() == pytest.approx(want, abs=1e-10)

    def test_losses_nonnegative(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(3, 4))
        t = (rng.random((3, 4)) > 0.5).astype(np.float64)
        assert bce(Tensor(z), t).item() >= 0.0
        assert ce(Tensor(z), [0, 1, 2]).item() >= 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ce_weight_scales_value_and_gradient_bit_for_bit(self, dtype):
        # the weight multiplies the mean once, and the gradient seed once in
        # the loss dtype
        rng = np.random.default_rng(9)
        z = (rng.normal(size=(6, 5)) * 3.0).astype(dtype)
        idx = np.array([0, 4, 2, 2, 1, 3])
        w = 2.0 / 3.0
        x = Tensor(z.copy(), requires_grad=True)
        with T.Tape():
            loss = ce(x, idx, w)
            T.backward(loss)
        assert loss.dtype == dtype
        assert np.array_equal(loss.data, ce(Tensor(z), idx).data * w)
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(6), idx] -= 1.0
        assert np.array_equal(x.grad, p * (float(np.ones((), dtype) * w) / 6))


class TestDecomposeGt:
    def test_segments_per_present_class(self):
        mask = np.array([[0, 0, 1], [2, 2, 1]])
        labels, targets = decompose_gt(mask, 4)
        assert labels.tolist() == [0, 1, 2]
        assert targets.shape == (3, 6)
        assert targets.sum() == 6  # partition of all pixels

    def test_single_class_mask_single_segment(self):
        labels, targets = decompose_gt(np.zeros((3, 3), dtype=int), 4)
        assert labels.tolist() == [0]
        assert targets[0].sum() == 9

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"outside \[0, 4\): \[0, 7\]$"):
            decompose_gt(np.array([[0, 7]]), 4)


class TestTotalLoss:
    def _fabricate(self, rng, h=4, w=4, n=6, k=3):
        mask = rng.integers(0, k, size=(h, w))
        m = Tensor(rng.normal(size=(h, w, n)))
        c = Tensor(rng.normal(size=(n, k + 1)))
        return m, c, mask

    def test_near_perfect_output_small_loss(self):
        h = w = 4
        mask = np.zeros((h, w), dtype=int)
        mask[:, 2:] = 1
        n, k = 4, 2
        m = np.full((h, w, n), -40.0)
        m[:, :2, 0] = 40.0   # prototype 0 reproduces class-0 segment
        m[:, 2:, 1] = 40.0   # prototype 1 reproduces class-1 segment
        c = np.full((n, k + 1), -40.0)
        c[0, 0] = 40.0
        c[1, 1] = 40.0
        c[2, 2] = 40.0       # the rest confidently predict "no object"
        c[3, 2] = 40.0
        loss = total_loss(Tensor(m), Tensor(c), mask, k)
        assert loss.item() < 0.1

    def test_zero_logit_output_matches_direct_oracle(self):
        rng = np.random.default_rng(9)
        mask = rng.integers(0, 3, size=(4, 4))
        n, k = 5, 3
        m = Tensor(np.zeros((4, 4, n)))
        c = Tensor(np.zeros((n, k + 1)))
        lw = LossWeights()
        labels, targets = decompose_gt(mask, k)
        g = len(labels)
        # with all-zero logits every prototype is interchangeable:
        # bce = ln2 per pixel; dice = 1 - (sum(t)+1)/(hw/2 + sum(t) + 1); ce = ln(k+1)
        want = 0.0
        for t in targets:
            want += lw.bce * math.log(2.0)
            want += lw.dice * (1 - (2 * 0.5 * t.sum() + 1) / (0.5 * 16 + t.sum() + 1))
        want += lw.cls * math.log(k + 1)
        assert total_loss(m, c, mask, k, lw).item() == pytest.approx(want, abs=1e-9)

    def test_prototype_permutation_invariance(self):
        rng = np.random.default_rng(10)
        m, c, mask = self._fabricate(rng)
        base = total_loss(m, c, mask, 3).item()
        perm = rng.permutation(6)
        permuted = total_loss(Tensor(m.data[:, :, perm]), Tensor(c.data[perm]), mask, 3).item()
        assert permuted == pytest.approx(base, abs=1e-8)

    def test_gradients_reach_both_heads(self):
        rng = np.random.default_rng(11)
        mask = rng.integers(0, 3, size=(4, 4))
        c0 = Tensor(rng.normal(size=(5, 4)))
        err_m = grad_check(lambda m: total_loss(m, c0, mask, 3), Tensor(rng.normal(size=(4, 4, 5))))
        assert err_m < 1e-4
        m0 = Tensor(rng.normal(size=(4, 4, 5)))
        err_c = grad_check(lambda c: total_loss(m0, c, mask, 3), Tensor(rng.normal(size=(5, 4))))
        assert err_c < 1e-4

    def test_matching_uses_weighted_costs(self):
        rng = np.random.default_rng(12)
        m, c, mask = self._fabricate(rng)
        labels, targets = decompose_gt(mask, 3)
        cost = matching_costs(m.data, c.data, targets, labels, LossWeights())
        match = hungarian_match(cost)
        assert (sum(cost[match[i], i] for i in range(len(labels)))
                == pytest.approx(least_assignment_total(cost), abs=1e-9))

    def test_batch_is_the_mean_of_per_image_losses(self):
        rng = np.random.default_rng(13)
        parts = [self._fabricate(rng) for _ in range(3)]
        # one image with a single segment, so G differs across the batch
        parts[1][2][:] = 2
        m = np.stack([m.data for m, _, _ in parts])
        c = np.stack([c.data for _, c, _ in parts])
        masks = np.stack([mask for _, _, mask in parts])
        mt, ct = Tensor(m, requires_grad=True), Tensor(c, requires_grad=True)
        with T.Tape():
            loss = total_loss(mt, ct, masks, 3)
            T.backward(loss)
        singles = []
        for b in range(3):
            mb, cb = Tensor(m[b], requires_grad=True), Tensor(c[b], requires_grad=True)
            with T.Tape():
                lb = total_loss(mb, cb, masks[b], 3)
                T.backward(lb)
            singles.append((lb.item(), mb.grad, cb.grad))
        assert loss.item() == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12)
        for b, (_, gm, gc) in enumerate(singles):
            assert np.abs(mt.grad[b] * 3 - gm).max() < 1e-12
            assert np.abs(ct.grad[b] * 3 - gc).max() < 1e-12

    def test_mask_plane_head_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="planes"):
            total_loss(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((4, 3))), np.zeros((2, 2), dtype=int), 2)


def inline_matching_costs(mask_logits, class_logits, targets, labels, weights):
    """The assignment cost with every term formed inside the per-segment loop."""
    n = class_logits.shape[0]
    z = mask_logits.reshape(-1, n).T.astype(np.float64)
    cz = class_logits.astype(np.float64)
    probs = np.exp(cz - cz.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    sig = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
    cost = np.empty((n, targets.shape[0]))
    for j in range(targets.shape[0]):
        t = targets[j][None, :]
        bce = np.mean(np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z))), axis=1)
        inter = (sig * t).sum(axis=1)
        dice = 1.0 - (2.0 * inter + 1.0) / (sig.sum(axis=1) + t.sum() + 1.0)
        cost[:, j] = weights.cls * (-probs[:, labels[j]]) + weights.bce * bce + weights.dice * dice
    return cost


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("g", [1, 4])
def test_matching_costs_equal_the_inline_formula_bit_for_bit(dtype, g):
    rng = np.random.default_rng(50 + g)
    weights = LossWeights()
    for _ in range(5):
        mask = rng.integers(0, g, size=(8, 16))
        mask.flat[:g] = np.arange(g)          # every class present
        labels, targets = decompose_gt(mask, g)
        m = (rng.normal(size=(8, 16, 6)) * 4.0).astype(dtype)
        c = rng.normal(size=(6, g + 1)).astype(dtype)
        assert np.array_equal(matching_costs(m, c, targets, labels, weights),
                              inline_matching_costs(m, c, targets, labels, weights))
