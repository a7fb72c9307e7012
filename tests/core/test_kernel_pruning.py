"""Algorithm 2 (3x3 pattern pruning) and Algorithm 3 (1x1 transformation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel_pruning import (
    assign_patterns,
    assign_patterns_reference,
    prune_3x3_layer,
)
from repro.core.one_by_one import (
    pool_flat_weights,
    prune_pointwise_layer,
    prune_pointwise_weights,
)
from repro.core.patterns import build_pattern_library
from repro.nn.layers.conv import Conv2d


@pytest.fixture(scope="module")
def library3():
    return build_pattern_library(3)


@pytest.fixture(scope="module")
def library2():
    return build_pattern_library(2)


class TestAssignPatterns:
    def test_vectorised_equals_reference(self, rng, library3):
        weights = rng.standard_normal((6, 5, 3, 3)).astype(np.float32)
        fast = assign_patterns(weights, library3)
        slow = assign_patterns_reference(weights, library3)
        np.testing.assert_array_equal(fast.mask, slow.mask)
        np.testing.assert_array_equal(fast.pattern_indices, slow.pattern_indices)
        assert fast.pattern_usage == slow.pattern_usage

    def test_every_algorithm_produces_bool_masks(self, rng, library3):
        """Algorithms 2 and 3 build their masks as bool, so the reference vs
        vectorised comparison (``experiments/ablation.py``) compares bools."""
        weights = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        pointwise = rng.standard_normal((8, 7, 1, 1)).astype(np.float32)
        for mask in (assign_patterns(weights, library3).mask,
                     assign_patterns_reference(weights, library3).mask,
                     prune_pointwise_weights(pointwise, library3).mask):
            assert mask.dtype == np.bool_

    def test_mask_keeps_exactly_k_weights_per_kernel(self, rng, library3):
        weights = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        assignment = assign_patterns(weights, library3)
        per_kernel = assignment.mask.reshape(-1, 9).sum(axis=1)
        np.testing.assert_array_equal(per_kernel, np.full(16, 3))

    def test_selects_the_energy_maximising_pattern(self, library2):
        # A kernel whose two largest-magnitude weights sit at adjacent positions
        # (0,0)/(0,1) must select exactly that pattern.
        weights = np.zeros((1, 1, 3, 3), dtype=np.float32)
        weights[0, 0, 0, 0] = 5.0
        weights[0, 0, 0, 1] = 4.0
        weights[0, 0, 2, 2] = 0.1
        assignment = assign_patterns(weights, library2)
        kept = assignment.mask[0, 0]
        assert kept[0, 0] == 1 and kept[0, 1] == 1 and kept.sum() == 2

    def test_sparsity_property(self, rng, library3):
        weights = rng.standard_normal((8, 8, 3, 3)).astype(np.float32)
        assignment = assign_patterns(weights, library3)
        assert assignment.sparsity == pytest.approx(1 - 3 / 9)

    def test_wrong_shape_rejected(self, rng, library3):
        with pytest.raises(ValueError):
            assign_patterns(rng.standard_normal((4, 4, 5, 5)).astype(np.float32), library3)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_equivalence_property(self, out_channels, in_channels, seed):
        library = build_pattern_library(3, max_patterns=8, calibration_kernels=200)
        weights = np.random.default_rng(seed).standard_normal(
            (out_channels, in_channels, 3, 3)).astype(np.float32)
        fast = assign_patterns(weights, library)
        slow = assign_patterns_reference(weights, library)
        np.testing.assert_array_equal(fast.mask, slow.mask)


class TestPrune3x3Layer:
    def test_returns_assignment_for_3x3(self, rng, library3):
        layer = Conv2d(4, 8, 3, rng=rng)
        assignment = prune_3x3_layer(layer, library3)
        assert assignment.mask.shape == layer.weight.shape

    def test_rejects_non_3x3(self, rng, library3):
        with pytest.raises(ValueError):
            prune_3x3_layer(Conv2d(4, 8, 1, padding=0, rng=rng), library3)

    def test_allowed_patterns_restrict_search(self, rng, library3):
        layer = Conv2d(4, 8, 3, rng=rng)
        full = prune_3x3_layer(layer, library3)
        restricted = prune_3x3_layer(layer, library3, allowed_patterns={0: 1, 1: 1})
        assert set(np.unique(restricted.pattern_indices)) <= {0, 1}
        assert len(set(np.unique(full.pattern_indices))) >= len(
            set(np.unique(restricted.pattern_indices)))

    def test_reference_flag(self, rng, library3):
        layer = Conv2d(2, 2, 3, rng=rng)
        fast = prune_3x3_layer(layer, library3)
        slow = prune_3x3_layer(layer, library3, use_reference=True)
        np.testing.assert_array_equal(fast.mask, slow.mask)


class TestPoolFlatWeights:
    def test_exact_multiple_of_nine(self):
        flat = np.arange(18, dtype=np.float32)
        matrices, leftover = pool_flat_weights(flat)
        assert matrices.shape == (2, 3, 3)
        assert leftover == 0
        np.testing.assert_array_equal(matrices[0].reshape(-1), flat[:9])

    def test_leftover_counted(self):
        matrices, leftover = pool_flat_weights(np.arange(20, dtype=np.float32))
        assert matrices.shape == (2, 3, 3)
        assert leftover == 2

    def test_fewer_than_nine(self):
        matrices, leftover = pool_flat_weights(np.arange(5, dtype=np.float32))
        assert matrices.shape == (0, 3, 3)
        assert leftover == 5


class TestPointwisePruning:
    def test_mask_shape_and_density(self, rng, library3):
        weights = rng.standard_normal((16, 9, 1, 1)).astype(np.float32)
        assignment = prune_pointwise_weights(weights, library3)
        assert assignment.mask.shape == weights.shape
        # 144 weights = 16 complete groups of 9, each keeping 3 -> density 1/3.
        assert assignment.mask.sum() == 16 * 3
        assert assignment.num_leftover_weights == 0

    def test_leftover_weights_are_pruned(self, rng, library2):
        weights = rng.standard_normal((5, 2, 1, 1)).astype(np.float32)   # 10 weights
        assignment = prune_pointwise_weights(weights, library2)
        assert assignment.num_temporary_kernels == 1
        assert assignment.num_leftover_weights == 1
        # The leftover weight (flat position 9) must be masked out.
        assert assignment.mask.reshape(-1)[9] == 0.0

    def test_rejects_non_pointwise(self, rng, library3):
        with pytest.raises(ValueError):
            prune_pointwise_weights(rng.standard_normal((4, 4, 3, 3)).astype(np.float32), library3)

    def test_layer_interface(self, rng, library2):
        layer = Conv2d(9, 9, 1, padding=0, rng=rng)
        assignment = prune_pointwise_layer(layer, library2)
        assert assignment.sparsity == pytest.approx(1 - 2 / 9, abs=1e-6)

    def test_layer_interface_rejects_3x3(self, rng, library2):
        with pytest.raises(ValueError):
            prune_pointwise_layer(Conv2d(4, 4, 3, rng=rng), library2)

    def test_allowed_patterns_respected(self, rng, library3):
        weights = rng.standard_normal((9, 9, 1, 1)).astype(np.float32)
        restricted = prune_pointwise_weights(weights, library3, allowed_patterns={2: 5})
        assert set(restricted.pattern_usage) == {2}

    @given(st.integers(1, 30), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_kept_weight_count_property(self, out_channels, in_channels):
        library = build_pattern_library(3, max_patterns=6, calibration_kernels=200)
        weights = np.random.default_rng(out_channels * 31 + in_channels).standard_normal(
            (out_channels, in_channels, 1, 1)).astype(np.float32)
        assignment = prune_pointwise_weights(weights, library)
        total = out_channels * in_channels
        complete_groups = total // 9
        assert assignment.mask.sum() == complete_groups * 3
