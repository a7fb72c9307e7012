"""Post-training quantization extension and the command-line interface."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.compression import (
    dequantize_tensor,
    quantize_model,
    quantize_tensor,
    quantized_model_bytes,
)
from repro.core.config import RTOSSConfig
from repro.core.rtoss import RTOSSPruner
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.tensor import Tensor


def _tiny():
    return TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))


class TestQuantizeTensor:
    def test_roundtrip_error_bounded_by_scale(self, rng):
        weights = rng.standard_normal((8, 4, 3, 3)).astype(np.float32)
        quantized = quantize_tensor(weights, bits=8)
        restored = dequantize_tensor(quantized)
        per_channel_scale = quantized.scales.reshape(-1, 1)
        error = np.abs(restored - weights).reshape(8, -1)
        assert np.all(error <= per_channel_scale / 2 + 1e-6)

    def test_zero_weights_stay_zero(self, rng):
        weights = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        weights[1] = 0.0
        restored = dequantize_tensor(quantize_tensor(weights))
        assert np.all(restored[1] == 0.0)

    def test_int4_coarser_than_int8(self, rng):
        weights = rng.standard_normal((4, 16)).astype(np.float32)
        err8 = np.abs(dequantize_tensor(quantize_tensor(weights, 8)) - weights).max()
        err4 = np.abs(dequantize_tensor(quantize_tensor(weights, 4)) - weights).max()
        assert err4 > err8

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantize_tensor(np.ones((2, 2)), bits=3)

    def test_storage_bytes(self, rng):
        weights = rng.standard_normal((4, 9)).astype(np.float32)
        quantized = quantize_tensor(weights, bits=8)
        assert quantized.storage_bytes() == pytest.approx(36 + 16)
        weights[0, :5] = 0.0
        sparse = quantize_tensor(weights, bits=8)
        assert sparse.storage_bytes(count_zeros=False) < sparse.storage_bytes()


class TestQuantizeModel:
    def test_compression_ratio_about_4x_for_int8(self):
        model = _tiny()
        report = quantize_model(model, bits=8, apply=False)
        assert report.compression_ratio == pytest.approx(4.0, rel=0.1)
        assert report.num_layers > 0

    def test_apply_writes_back_dequantised_weights(self):
        model = _tiny()
        before = model.head.weight.data.copy()
        report = quantize_model(model, bits=8, apply=True)
        after = model.head.weight.data
        assert not np.array_equal(before, after)
        assert np.abs(before - after).max() <= report.max_absolute_error + 1e-6

    def test_pruning_then_quantization_preserves_masks(self):
        model = _tiny()
        pruning = RTOSSPruner(RTOSSConfig(entries=2)).prune(
            model, Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))
        quantize_model(model, bits=8, apply=True)
        # Every weight the mask zeroed is still exactly zero after quantization.
        modules = dict(model.named_modules())
        for mask in pruning.masks:
            module = modules[mask.layer_name]
            weights = getattr(module, mask.parameter_name).data
            assert np.all(weights[mask.mask == 0] == 0.0)

    def test_combined_storage_smaller_than_pruned_only(self):
        model = _tiny()
        RTOSSPruner(RTOSSConfig(entries=2)).prune(
            model, Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))
        report = quantize_model(model, bits=8, apply=False)
        combined = quantized_model_bytes(model, report, count_zeros=False)
        float_bytes = model.num_parameters() * 4.0
        assert combined < float_bytes / 4.0

    def test_skip_names(self):
        model = _tiny()
        report = quantize_model(model, bits=8, apply=False, skip_names=("head",))
        assert all("head" not in name for name in report.layers)


class TestCLI:
    def test_models_command(self, capsys):
        assert cli_main(["models"]) == 0
        out = capsys.readouterr().out
        assert "yolov5s" in out and "tiny" in out

    def test_census_command(self, capsys):
        assert cli_main(["census", "--model", "tiny"]) == 0
        assert "Kernel census" in capsys.readouterr().out

    def test_prune_command_with_save(self, capsys, tmp_path):
        save_path = str(tmp_path / "pruned_tiny")
        code = cli_main(["prune", "--model", "tiny", "--framework", "rtoss-2ep",
                         "--save", save_path, "--per-layer"])
        assert code == 0
        out = capsys.readouterr().out
        assert "compression_ratio" in out
        assert (tmp_path / "pruned_tiny.npz").exists()

    def test_prune_command_baseline_framework(self, capsys):
        assert cli_main(["prune", "--model", "tiny", "--framework", "nms"]) == 0
        assert "NMS" in capsys.readouterr().out

    def test_unknown_framework_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            cli_main(["prune", "--framework", "does-not-exist"])

    def test_engine_command(self, capsys):
        code = cli_main(["engine", "--model", "tiny", "--framework", "rtoss-2ep",
                         "--image-size", "64", "--batch", "1", "--repeats", "1",
                         "--plans", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "measured on host CPU" in out
        assert "Compiled layer plans" in out
        # The per-op profile: a conv row carries its gather/gemm/epilogue split.
        profile = out[out.index("Engine profile — tiny (fused mode"):out.index("Compiled layer plans")]
        assert "phases_ms" in profile
        assert any(" | conv " in line and "gemm=" in line for line in profile.splitlines())
        assert "measured_ms" in out      # the latency-model "measured" column
        assert "OK" in out
