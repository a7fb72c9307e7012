"""Scalar losses: values against manual computation and gradient sanity."""

import numpy as np
import pytest

from repro.nn import losses as L
from repro.nn.tensor import Tensor


class TestClassificationLosses:
    def test_bce_with_logits_matches_manual(self, rng):
        logits = rng.standard_normal(20).astype(np.float32)
        targets = (rng.random(20) > 0.5).astype(np.float32)
        ours = L.binary_cross_entropy_with_logits(Tensor(logits), Tensor(targets)).item()
        probs = 1 / (1 + np.exp(-logits))
        manual = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs)).mean()
        assert abs(ours - manual) < 1e-4

    def test_bce_extreme_logits_are_finite(self):
        logits = Tensor([100.0, -100.0])
        targets = Tensor([1.0, 0.0])
        value = L.binary_cross_entropy_with_logits(logits, targets).item()
        assert np.isfinite(value) and value < 1e-3

    def test_bce_reductions(self, rng):
        logits = Tensor(rng.standard_normal(6).astype(np.float32))
        target = Tensor(np.ones(6, dtype=np.float32))
        total = L.binary_cross_entropy_with_logits(logits, target, reduction="sum").item()
        mean = L.binary_cross_entropy_with_logits(logits, target, reduction="mean").item()
        assert abs(total - 6 * mean) < 1e-4



class TestFocalLoss:
    def test_reduces_to_scaled_bce_when_gamma_zero(self, rng):
        logits = Tensor(rng.standard_normal(10).astype(np.float32))
        target = Tensor((rng.random(10) > 0.5).astype(np.float32))
        focal = L.focal_loss(logits, target, alpha=0.5, gamma=0.0, reduction="mean").item()
        bce = L.binary_cross_entropy_with_logits(logits, target).item()
        assert abs(focal - 0.5 * bce) < 1e-4

    def test_easy_examples_downweighted(self):
        easy = L.focal_loss(Tensor([6.0]), Tensor([1.0]), reduction="sum").item()
        hard = L.focal_loss(Tensor([-6.0]), Tensor([1.0]), reduction="sum").item()
        assert hard > 100 * easy

    def test_gradient_flows(self):
        logits = Tensor([0.3, -0.4], requires_grad=True)
        L.focal_loss(logits, Tensor([1.0, 0.0]), reduction="mean").backward()
        assert logits.grad is not None and np.all(np.isfinite(logits.grad))

    @pytest.mark.parametrize("reduction", ["sum", "mean", "none"])
    def test_reductions_available(self, reduction, rng):
        logits = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        target = Tensor(np.zeros((2, 3), dtype=np.float32))
        out = L.focal_loss(logits, target, reduction=reduction)
        if reduction == "none":
            assert out.shape == (2, 3)
        else:
            assert out.shape == ()
