"""Baseline pruning frameworks: PD, NMS, NS, PF, NP."""

import numpy as np
import pytest

from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.layers.conv import Conv2d
from repro.nn.tensor import Tensor
from repro.pruning import (
    FilterPruner,
    MagnitudePruner,
    NetworkSlimmingPruner,
    NeuralPruner,
    PatDNNPruner,
    connectivity_mask,
    find_conv_bn_pairs,
    prunable_conv_layers,
)


def _tiny():
    return TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))


def _input():
    return Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))


class TestSharedInfra:
    def test_prunable_conv_layers_and_skip(self):
        model = _tiny()
        all_layers = prunable_conv_layers(model)
        without_head = prunable_conv_layers(model, skip_names=("head",))
        assert len(without_head) == len(all_layers) - 1
        assert all(isinstance(l, Conv2d) for l in all_layers.values())

    def test_find_conv_bn_pairs(self):
        pairs = find_conv_bn_pairs(_tiny())
        assert len(pairs) > 0
        for conv_name, conv, bn_name, bn in pairs:
            assert bn.num_features == conv.out_channels


class TestMagnitudePruner:
    @pytest.mark.parametrize("scope", ["layer", "global"])
    def test_achieves_target_sparsity(self, scope):
        report = MagnitudePruner(sparsity=0.5, scope=scope).prune(_tiny(), model_name="tiny")
        assert report.masks.overall_sparsity() == pytest.approx(0.5, abs=0.05)

    def test_keeps_largest_weights(self, rng):
        model = _tiny()
        layer = model.stem.conv
        layer.weight.data[0, 0, 0, 0] = 100.0
        MagnitudePruner(sparsity=0.9).prune(model)
        assert layer.weight.data[0, 0, 0, 0] == 100.0

    def test_zero_sparsity_keeps_everything(self):
        report = MagnitudePruner(sparsity=0.0).prune(_tiny())
        assert report.overall_sparsity == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            MagnitudePruner(sparsity=1.0)
        with pytest.raises(ValueError):
            MagnitudePruner(scope="galaxy")


class TestFilterPruner:
    def test_prunes_whole_filters(self):
        model = _tiny()
        report = FilterPruner(ratio=0.5).prune(model)
        layer = model.csp1.cv1.conv
        filter_sums = np.abs(layer.weight.data).reshape(layer.out_channels, -1).sum(axis=1)
        assert (filter_sums == 0).sum() >= layer.out_channels // 2 - 1
        assert report.overall_sparsity > 0.3

    def test_min_filters_kept(self):
        report = FilterPruner(ratio=0.99, min_filters=2).prune(_tiny())
        for layer_report in report.layers:
            assert layer_report.kept_weights > 0


class TestNetworkSlimming:
    def test_channel_ratio_respected(self):
        report = NetworkSlimmingPruner(channel_ratio=0.5).prune(_tiny())
        assert 0.2 < report.overall_sparsity < 0.6

    def test_prunes_low_gamma_channels_first(self):
        model = _tiny()
        bn = model.stem.bn
        bn.weight.data[:] = 1.0
        bn.weight.data[0] = 1e-6            # channel 0 is clearly the least important
        NetworkSlimmingPruner(channel_ratio=0.25).prune(model)
        assert np.all(model.stem.conv.weight.data[0] == 0)

    def test_bn_scales_masked_too(self):
        model = _tiny()
        report = NetworkSlimmingPruner(channel_ratio=0.5).prune(model)
        bn_masks = [m for m in report.masks if m.layer_name.endswith("bn")]
        assert bn_masks and all(m.sparsity > 0 for m in bn_masks)


class TestNeuralPruner:
    def test_combines_filter_and_weight_pruning(self):
        report = NeuralPruner(filter_ratio=0.25, weight_sparsity=0.3).prune(_tiny())
        assert 0.3 < report.overall_sparsity < 0.7

    def test_zero_settings_are_noop(self):
        report = NeuralPruner(filter_ratio=0.0, weight_sparsity=0.0).prune(_tiny())
        assert report.overall_sparsity == 0.0


class TestPatDNN:
    def test_only_3x3_layers_pruned(self):
        report = PatDNNPruner().prune(_tiny())
        assert all(layer.kernel_size == (3, 3) for layer in report.layers)

    def test_connectivity_increases_sparsity(self):
        base = PatDNNPruner(connectivity_ratio=0.0).prune(_tiny())
        with_conn = PatDNNPruner(connectivity_ratio=0.4).prune(_tiny())
        assert with_conn.masks.overall_sparsity() > base.masks.overall_sparsity()

    def test_4ep_pattern_density_without_connectivity(self):
        report = PatDNNPruner(connectivity_ratio=0.0).prune(_tiny())
        assert report.masks.overall_sparsity() == pytest.approx(1 - 4 / 9, abs=0.02)

    def test_library_is_4_entry(self):
        assert PatDNNPruner().library.entries == 4


class TestConnectivityMask:
    def test_removes_requested_fraction_of_kernels(self, rng):
        weights = rng.standard_normal((8, 8, 3, 3)).astype(np.float32)
        mask = connectivity_mask(weights, ratio=0.25)
        removed = (mask.reshape(64, 9).sum(axis=1) == 0).sum()
        assert removed == 16

    def test_removes_smallest_norm_kernels(self, rng):
        weights = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        weights[2, 3] = 0.001
        mask = connectivity_mask(weights, ratio=1 / 16)
        assert np.all(mask[2, 3] == 0)

    def test_protect_last_kernel(self):
        weights = np.ones((2, 2, 3, 3), dtype=np.float32) * 0.001
        mask = connectivity_mask(weights, ratio=0.9, protect_last_kernel=True)
        per_filter = mask.reshape(2, 2, -1).sum(axis=(1, 2))
        assert np.all(per_filter > 0)
