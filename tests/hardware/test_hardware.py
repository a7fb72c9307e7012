"""Hardware models: platforms, cost profiles, latency, energy, compression."""

import numpy as np
import pytest

from repro.core.config import RTOSSConfig
from repro.core.rtoss import RTOSSPruner
from repro.hardware import (
    JETSON_TX2,
    RTX_2080TI,
    LayerCost,
    ModelCostProfile,
    SparsityProfile,
    compressed_layer_bytes,
    energy_reduction_percent,
    estimate_energy,
    estimate_latency,
    estimate_model_size,
    get_platform,
    profile_model,
    speedup_over,
    storage_compression_ratio,
    structure_for_method,
)
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.tensor import Tensor


@pytest.fixture(scope="module")
def tiny_profile():
    """TinyDetector profiled at the paper's 640x640 resolution.

    At 64x64 the per-inference overhead dominates and sparsity has (correctly) almost
    no effect on latency; the 640x640 operating point is compute-bound like the
    paper's workloads, which is what the latency/energy tests exercise.
    """
    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))
    return model, profile_model(model, 640, probe_size=64, model_name="tiny")


class TestPlatforms:
    def test_lookup_by_key_and_name(self):
        assert get_platform("jetson_tx2") is JETSON_TX2
        assert get_platform("RTX 2080Ti") is RTX_2080TI
        with pytest.raises(KeyError):
            get_platform("tpu_v5")

    def test_embedded_board_is_slower(self):
        assert JETSON_TX2.effective_macs_per_second < RTX_2080TI.effective_macs_per_second

    def test_skip_efficiency_ordering(self):
        for platform in (JETSON_TX2, RTX_2080TI):
            assert platform.skip_efficiency_for("structured") > \
                platform.skip_efficiency_for("pattern") > \
                platform.skip_efficiency_for("unstructured")

    def test_throughput_per_layer_type(self):
        assert JETSON_TX2.throughput_for("attention") < JETSON_TX2.throughput_for("conv")


class TestCostModel:
    def test_profile_contains_all_convs(self, tiny_profile):
        model, profile = tiny_profile
        conv_layers = [l for l in profile.layers if l.layer_type == "conv"]
        from repro.nn.layers.conv import Conv2d
        assert len(conv_layers) == sum(isinstance(m, Conv2d) for m in model.modules())

    def test_macs_positive_and_summary(self, tiny_profile):
        _, profile = tiny_profile
        assert profile.total_macs > 0
        summary = profile.summary()
        assert summary["num_compute_layers"] == profile.num_layers

    def test_conv_macs_formula(self):
        # A single 3x3 conv, 4->8 channels, 16x16 output: 16*16*8*4*9 MACs.
        cost = LayerCost("c", "conv", 16 * 16 * 8 * 4 * 9, 8 * 4 * 9, 8 * 4 * 9 * 4, 0.0, (3, 3))
        assert cost.macs == 73728 * 4 / 4 * 1  # sanity: value is what we constructed

    def test_resolution_scaling_quadratic_for_convs(self):
        model = TinyDetector(TinyDetectorConfig(image_size=64, base_channels=8))
        small = profile_model(model, 64, probe_size=64)
        large = profile_model(model, 128, probe_size=64)
        ratio = large.total_macs / small.total_macs
        assert ratio == pytest.approx(4.0, rel=0.1)

    def test_weight_bytes_do_not_scale_with_resolution(self):
        model = TinyDetector(TinyDetectorConfig(image_size=64, base_channels=8))
        small = profile_model(model, 64, probe_size=64)
        large = profile_model(model, 256, probe_size=64)
        assert small.total_weight_bytes == pytest.approx(large.total_weight_bytes)

    def test_probe_size_validation(self):
        model = TinyDetector(TinyDetectorConfig(image_size=64, base_channels=8))
        with pytest.raises(ValueError):
            profile_model(model, 64, probe_size=16)
        with pytest.raises(ValueError):
            profile_model(model, 32, probe_size=64)


class TestSparsityProfile:
    def test_structure_mapping(self):
        assert structure_for_method("pattern-3x3") == "pattern"
        assert structure_for_method("magnitude-layer") == "unstructured"
        assert structure_for_method("filter-l1") == "structured"
        assert structure_for_method("bn-channel") == "structured"
        assert structure_for_method("") == "dense"
        assert structure_for_method("mystery-method") == "unstructured"

    def test_from_report(self, tiny_profile):
        model, _ = tiny_profile
        fresh = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))
        report = RTOSSPruner(RTOSSConfig(entries=3)).prune(
            fresh, Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))
        profile = SparsityProfile.from_report(report)
        assert profile.framework == "R-TOSS-3EP"
        assert all(l.structure == "pattern" for l in profile.layers.values())
        mean_sparsity = sum(l.sparsity for l in profile.layers.values()) / len(profile.layers)
        assert 0.3 < mean_sparsity < 0.8


class TestLatency:
    def test_dense_latency_positive_and_platform_ordered(self, tiny_profile):
        _, profile = tiny_profile
        tx2 = estimate_latency(profile, JETSON_TX2)
        rtx = estimate_latency(profile, RTX_2080TI)
        assert tx2.total_seconds > rtx.total_seconds > 0

    def test_sparsity_reduces_latency(self, tiny_profile):
        _, profile = tiny_profile
        dense = estimate_latency(profile, JETSON_TX2)
        sparsity = SparsityProfile(framework="X")
        from repro.hardware.sparsity import LayerSparsity
        for layer in profile.layers:
            if layer.layer_type == "conv":
                sparsity.layers[layer.name] = LayerSparsity(layer.name, 0.7, "pattern")
        pruned = estimate_latency(profile, JETSON_TX2, sparsity)
        assert pruned.total_seconds < dense.total_seconds
        assert speedup_over(dense, pruned) > 1.2

    def test_structured_sparsity_speeds_up_more_than_unstructured(self, tiny_profile):
        _, profile = tiny_profile
        from repro.hardware.sparsity import LayerSparsity

        def estimate(structure):
            sp = SparsityProfile(framework=structure)
            for layer in profile.layers:
                if layer.layer_type == "conv":
                    sp.layers[layer.name] = LayerSparsity(layer.name, 0.5, structure)
            return estimate_latency(profile, JETSON_TX2, sp).total_seconds

        assert estimate("structured") < estimate("unstructured")

    def test_fps_property(self, tiny_profile):
        _, profile = tiny_profile
        latency = estimate_latency(profile, RTX_2080TI)
        assert latency.fps == pytest.approx(1.0 / latency.total_seconds)

    def test_measured_column(self, tiny_profile):
        from repro.hardware import attach_measured

        _, profile = tiny_profile
        latency = estimate_latency(profile, JETSON_TX2)
        assert latency.measured_seconds is None
        assert "measured_ms" not in latency.row()
        attach_measured(latency, 0.0125)
        row = latency.row()
        assert row["measured_ms"] == pytest.approx(12.5)
        assert row["modeled_ms"] == pytest.approx(latency.total_milliseconds, rel=1e-3)


class TestEnergy:
    def test_energy_components_positive(self, tiny_profile):
        _, profile = tiny_profile
        energy = estimate_energy(profile, JETSON_TX2)
        assert energy.static_joules > 0 and energy.compute_joules > 0
        assert energy.total_joules == pytest.approx(
            energy.static_joules + energy.compute_joules + energy.memory_joules)

    def test_sparsity_reduces_energy(self, tiny_profile):
        _, profile = tiny_profile
        from repro.hardware.sparsity import LayerSparsity
        sp = SparsityProfile(framework="X")
        for layer in profile.layers:
            if layer.layer_type == "conv":
                sp.layers[layer.name] = LayerSparsity(layer.name, 0.7, "pattern")
        dense = estimate_energy(profile, JETSON_TX2)
        pruned = estimate_energy(profile, JETSON_TX2, sp)
        # The TinyDetector is partly overhead-bound even at 640x640, so the reduction
        # is smaller than the 45-70 % the full-size detectors reach (see benchmarks).
        assert energy_reduction_percent(dense, pruned) > 10.0


class TestCompression:
    def test_dense_layer_bytes(self):
        layer = LayerCost("c", "conv", 0.0, 900, 3600.0, 0.0, (3, 3))
        assert compressed_layer_bytes(layer, 0.0, "dense") == 3600.0

    def test_pattern_encoding_cheaper_than_bitmap(self):
        layer = LayerCost("c", "conv", 0.0, 900, 3600.0, 0.0, (3, 3))
        pattern = compressed_layer_bytes(layer, 2 / 3, "pattern")
        unstructured = compressed_layer_bytes(layer, 2 / 3, "unstructured")
        assert pattern < unstructured < 3600.0

    def test_model_size_estimate(self, tiny_profile):
        model, profile = tiny_profile
        fresh = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))
        report = RTOSSPruner(RTOSSConfig(entries=2)).prune(
            fresh, Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))
        size = estimate_model_size(profile, SparsityProfile.from_report(report))
        assert size.compression_ratio > 2.0
        assert size.compressed_bytes < size.dense_bytes
        assert storage_compression_ratio(profile, report) == pytest.approx(
            size.compression_ratio)

    def test_dense_model_size_equals_weight_bytes(self, tiny_profile):
        _, profile = tiny_profile
        size = estimate_model_size(profile)
        assert size.compressed_bytes == pytest.approx(profile.total_weight_bytes)
