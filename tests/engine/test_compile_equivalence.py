"""Compiled sparse forward == dense masked forward, everywhere it must.

The engine's whole claim rests on exactness: dropping an im2col column is only
legal when every weight in it is zero, so the compiled output must match the
dense masked output to float precision.  These tests sweep all pattern-library
entry counts (2EP..5EP), stride/padding combinations, 1x1 layers pruned by
Algorithm 3, dense (unpruned) layers, fully-pruned layers and whole pruned
models.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernel_pruning import prune_3x3_layer
from repro.core.one_by_one import prune_pointwise_weights
from repro.core.patterns import build_pattern_library
from repro.core.rtoss import prune_with_rtoss
from repro.engine import (
    BatchRunner,
    compile_conv_plan,
    compile_model,
    max_abs_output_diff,
    native_available,
)
from repro.engine.runner import map_structure
from repro.models.registry import available_models, build_model
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.layers.conv import Conv2d, DepthwiseConv2d
from repro.nn.module import Sequential
from repro.nn.tensor import Tensor

TOL = 1e-5


def _dense_forward(layer: Conv2d, x: np.ndarray) -> np.ndarray:
    return layer(Tensor(x)).data


def _compiled_forward(layer: Conv2d, x: np.ndarray) -> np.ndarray:
    """The layer alone, through the one engine path (a one-conv fused program)."""
    compiled = compile_model(Sequential(layer))
    out = compiled.forward_raw(x)
    assert compiled.engine_mode == "fused", compiled.fuse_failure
    return out


@pytest.mark.parametrize("entries", [2, 3, 4, 5])
@pytest.mark.parametrize("stride,padding", [(1, 1), (1, 0), (2, 1), (2, 0), (1, 2)])
def test_pattern_pruned_3x3_equivalence(entries, stride, padding, rng):
    """All library entry counts x stride/padding combos match within 1e-5."""
    library = build_pattern_library(entries, max_patterns=12)
    layer = Conv2d(6, 8, kernel_size=3, stride=stride, padding=padding,
                   rng=np.random.default_rng(entries))
    assignment = prune_3x3_layer(layer, library)
    layer.weight.data *= assignment.mask
    layer.pruning_masks["weight"] = assignment.mask

    x = rng.standard_normal((3, 6, 17, 13)).astype(np.float32)
    np.testing.assert_allclose(_compiled_forward(layer, x), _dense_forward(layer, x),
                               atol=TOL, rtol=0)


@pytest.mark.parametrize("entries", [2, 3])
def test_pointwise_pruned_equivalence(entries, rng):
    """1x1 layers pruned by the Algorithm 3 transformation match within 1e-5."""
    library = build_pattern_library(entries, max_patterns=12)
    layer = Conv2d(10, 7, kernel_size=1, padding=0, rng=np.random.default_rng(7))
    assignment = prune_pointwise_weights(layer.weight.data, library)
    layer.weight.data *= assignment.mask
    layer.pruning_masks["weight"] = assignment.mask

    x = rng.standard_normal((2, 10, 9, 11)).astype(np.float32)
    np.testing.assert_allclose(_compiled_forward(layer, x), _dense_forward(layer, x),
                               atol=TOL, rtol=0)


def test_pointwise_strided_equivalence(rng):
    layer = Conv2d(5, 4, kernel_size=1, stride=2, padding=0, rng=np.random.default_rng(3))
    x = rng.standard_normal((2, 5, 11, 14)).astype(np.float32)
    np.testing.assert_allclose(_compiled_forward(layer, x), _dense_forward(layer, x),
                               atol=TOL, rtol=0)


def test_dense_unpruned_layer_equivalence(rng):
    """A dense layer compiles too (keeps every column) and stays exact."""
    layer = Conv2d(4, 6, kernel_size=3, rng=np.random.default_rng(11))
    plan = compile_conv_plan(layer, "dense")
    assert plan.dropped_columns == 0
    x = rng.standard_normal((2, 4, 12, 12)).astype(np.float32)
    np.testing.assert_allclose(_compiled_forward(layer, x), _dense_forward(layer, x),
                               atol=TOL, rtol=0)


def test_fully_pruned_layer_outputs_bias(rng):
    layer = Conv2d(3, 5, kernel_size=3, bias=True, rng=np.random.default_rng(5))
    layer.weight.data[...] = 0.0
    layer.bias.data[...] = np.arange(5, dtype=np.float32)
    plan = compile_conv_plan(layer, "empty")
    assert plan.kept_columns.size == 0
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    out = _compiled_forward(layer, x)
    np.testing.assert_allclose(out, _dense_forward(layer, x), atol=TOL, rtol=0)
    assert np.allclose(out[:, 4], 4.0)


def test_rectangular_kernel_equivalence(rng):
    """The generic gather path handles non-square kernels (e.g. 1x3)."""
    layer = Conv2d(4, 4, kernel_size=(1, 3), padding=(0, 1), rng=np.random.default_rng(2))
    x = rng.standard_normal((2, 4, 9, 9)).astype(np.float32)
    np.testing.assert_allclose(_compiled_forward(layer, x), _dense_forward(layer, x),
                               atol=TOL, rtol=0)


def test_grouped_conv_refuses_compilation():
    layer = DepthwiseConv2d(6, kernel_size=3)
    with pytest.raises(ValueError, match="grouped"):
        compile_conv_plan(layer, "dw")


@pytest.mark.parametrize("entries", [2, 3, 4, 5])
def test_whole_model_equivalence(entries, rng):
    """Compiled model output == dense masked model output for every EP variant."""
    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))
    report = prune_with_rtoss(
        model, entries=entries,
        example_input=Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)),
    )
    x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    model.eval()
    dense_out = model(Tensor(x)).data.copy()

    compiled = compile_model(model, report.masks)
    out = compiled(Tensor(x)).data
    np.testing.assert_allclose(out, dense_out, atol=TOL, rtol=0)
    assert compiled.num_compiled_layers > 0

    # The engine never rewires the model: its own forward stays the dense one.
    np.testing.assert_allclose(model(Tensor(x)).data, dense_out, atol=0, rtol=0)


def test_compiled_model_is_gradient_safe(rng):
    """Gradient safety is structural: compiling and running the engine leaves
    no layer with a shadowed forward, so the raw model is the taped path."""
    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))
    report = prune_with_rtoss(
        model, entries=3,
        example_input=Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)),
    )
    compiled = compile_model(model, report.masks)
    x = Tensor(rng.standard_normal((1, 3, 64, 64)).astype(np.float32))
    compiled.forward_raw(x.data)
    assert not [name for name, module in model.named_modules()
                if "forward" in module.__dict__]
    out = model(x)  # grad-enabled call on the compiled model
    assert out.requires_grad, "a compiled model must keep its taped path"
    out.sum().backward()
    grads = [p.grad for _, p in model.named_parameters() if p.grad is not None]
    assert grads, "backward through a compiled model must still reach parameters"


def test_column_dropping_is_mask_derived():
    """Masked taps that no kernel keeps are skipped by the gather entirely."""
    layer = Conv2d(2, 3, kernel_size=3, rng=np.random.default_rng(0))
    mask = np.ones_like(layer.weight.data)
    mask[:, 0, 0, 0] = 0.0   # tap (0,0) of channel 0 pruned in every kernel
    layer.weight.data *= mask
    layer.pruning_masks["weight"] = mask
    plan = compile_conv_plan(layer, "layer")
    assert plan.dropped_columns == 1
    assert 0 not in plan.kept_columns


# ---------------------------------------------------------------------- registry
#: Models the tracer cannot record; they keep their own dense no-grad forward.
UNTRACEABLE = {"detr", "detr_lite"}


@pytest.mark.parametrize("name", available_models())
def test_every_registry_model_runs_the_one_engine_path(name, rng):
    """Each registered model either fuses within 1e-5 (relative to the oracle's
    magnitude) of its dense no-grad forward, or is a known-untraceable model
    served bit-identically by that forward."""
    model = build_model(name)
    x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
    oracle = BatchRunner(model, batch_size=1).run(x)

    compiled = compile_model(model)
    diff = max_abs_output_diff(compiled.forward_raw(x), oracle)
    if name in UNTRACEABLE:
        assert compiled.engine_mode == "eager" and compiled.fuse_failure
        assert diff == 0.0
    else:
        peak = max_abs_output_diff(oracle, map_structure(np.zeros_like, oracle))
        assert compiled.engine_mode == "fused", compiled.fuse_failure
        assert diff <= TOL * max(1.0, peak)


def test_the_benchmark_seams_compile_fp32_and_refuse_int8(rng):
    """The frozen benchmark code still calls ``compile_model(..., int8=...)``
    and ``native_available()``: the first compiles the one fp32 program and
    refuses ``int8=True``, the second says there is no integer kernel."""
    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=32))
    x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
    compiled = compile_model(model, int8=False)
    compiled.forward_raw(x)
    assert compiled.engine_mode == "fused", compiled.fuse_failure
    with pytest.raises(ValueError, match="int8 execution was removed"):
        compile_model(model, int8=True)
    assert native_available() is False
