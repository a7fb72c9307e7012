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
from repro.engine.fuse import FusedConv
from repro.engine.native import DISABLE_ENV, sparse_kernel_available
from repro.engine.runner import map_structure
from repro.models.registry import available_models, build_model
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.layers.conv import Conv2d
from repro.nn.module import Sequential
from repro.nn.optim import Adam
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
    """A dense layer compiles too and stays exact."""
    layer = Conv2d(4, 6, kernel_size=3, rng=np.random.default_rng(11))
    assert compile_conv_plan(layer, "dense").density == 1.0
    x = rng.standard_normal((2, 4, 12, 12)).astype(np.float32)
    np.testing.assert_allclose(_compiled_forward(layer, x), _dense_forward(layer, x),
                               atol=TOL, rtol=0)


@pytest.mark.parametrize("kernel,stride,padding,hw", [
    (3, 1, 1, (8, 8)),
    (3, 2, 1, (9, 12)),
    (1, 2, 0, (11, 14)),
    ((3, 1), (2, 1), (1, 0), (7, 5)),
    (6, 2, 2, (64, 64)),
    (5, 1, 0, (4, 4)),
])
def test_plan_output_size_is_the_autograd_conv_output_size(kernel, stride, padding, hw):
    """The size a plan stages its buffers for is the size the dense conv
    returns, and both refuse the same empty output."""
    layer = Conv2d(2, 3, kernel_size=kernel, stride=stride, padding=padding,
                   rng=np.random.default_rng(0))
    plan = compile_conv_plan(layer, "geometry")
    x = Tensor(np.zeros((1, 2, *hw), dtype=np.float32))
    try:
        expected = layer(x).shape[2:]
    except ValueError:
        with pytest.raises(ValueError, match="output would be empty"):
            plan.output_hw(*hw)
        return
    assert plan.output_hw(*hw) == expected


def test_fully_pruned_layer_outputs_bias(rng):
    layer = Conv2d(3, 5, kernel_size=3, bias=True, rng=np.random.default_rng(5))
    layer.weight.data[...] = 0.0
    layer.bias.data[...] = np.arange(5, dtype=np.float32)
    assert compile_conv_plan(layer, "empty").density == 0.0
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
        # The first leaf to consume the reshaped backbone tokens is named.
        assert compiled.engine_mode == "eager"
        assert compiled.fuse_failure == (
            "encoder.0.norm1: consumes a tensor no recorded op produced")
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


# ------------------------------------------------- weights held in the form they run
def _full_width_fold(compiled, op):
    """``(masked, folded)``: ``op``'s layer as the full-width masked
    ``(O, I*kh*kw)`` matrix, and that matrix with the folded BN's scale applied
    to the whole of it in float64, rounded once to float32 — what a conv that
    kept its full-width matrix executed."""
    layer = dict(compiled.model.named_modules())[op.layer_name]
    masked = np.ascontiguousarray(
        (layer.weight.data * layer.keep_mask()).reshape(op.plan.shape), dtype=np.float32)
    if "+bn" not in op.mode:
        return masked, masked
    (bn,) = [node.module for node in compiled._fused_program.graph.ops
             if node.kind == "bn" and node.inputs == op.node.outputs]
    scale = bn.fold_params()[0]
    return masked, (masked.astype(np.float64) * scale[:, None]).astype(np.float32)


def _assert_convs_execute_the_full_width_fold(compiled):
    """What each conv's kernel reads is the full-width fold, bit for bit: the
    direct kernel's CSR values gathered from it (or its dense packing of it), and
    the gather + GEMM body's matrix — built on first use for a conv held as CSR,
    which is how a direct conv whose bind falls through runs, too."""
    convs = [op for op in compiled._fused_program.steps if isinstance(op, FusedConv)]
    assert convs
    for op in convs:
        masked, folded = _full_width_fold(compiled, op)
        if op.direct is not None and op.taps:
            assert np.array_equal(op.csr_val, op.direct.pack_dense(folded)), op.layer_name
        elif op.direct is not None:
            flat = op.plan.csr()[1]
            assert np.array_equal(flat, np.flatnonzero(masked != 0.0)), op.layer_name
            assert np.array_equal(op.csr_val, folded.reshape(-1)[flat]), op.layer_name
        assert np.array_equal(op._gemm_weight(), folded), op.layer_name


@pytest.mark.parametrize("entries", [None, 2, 3])
@pytest.mark.parametrize("name", ["tiny", "yolov5n"])
def test_fused_convs_execute_the_full_width_fold_bit_for_bit(name, entries, rng):
    """Dense, R-TOSS-2EP and 3EP (``yolov5n`` adds a 6x6 dense-direct stem), in
    whichever kernel mode this process runs — and again after an optimiser
    step and ``refresh()``, whose outputs are a fresh compile's, bit for bit."""
    model = build_model(name, num_classes=3)
    report = (prune_with_rtoss(model, entries=entries, example_input=(1, 3, 64, 64))
              if entries else None)
    compiled = compile_model(model, report.masks if report else None)
    x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    before = compiled.forward_raw(x)
    _assert_convs_execute_the_full_width_fold(compiled)

    parameters = [parameter for _, parameter in model.named_parameters()]
    for parameter in parameters:     # every weight moves, pruned ones too
        parameter.grad = rng.standard_normal(parameter.data.shape).astype(np.float32)
    Adam(parameters, lr=1e-2).step()
    compiled.refresh()
    after = compiled.forward_raw(x)
    _assert_convs_execute_the_full_width_fold(compiled)
    assert max_abs_output_diff(after, before) > 1e-3
    assert max_abs_output_diff(compile_model(model).forward_raw(x), after) == 0.0


@pytest.mark.skipif(not sparse_kernel_available(), reason="needs the native library")
def test_direct_convs_on_the_gather_gemm_body_match_the_portable_path(monkeypatch, rng):
    """A direct conv whose bind falls through runs gather + GEMM over the matrix
    it scatters from its CSR values on first use: with every conv's bind falling
    through, R-TOSS-2EP ``tiny`` gives the portable path's outputs, bit for bit."""
    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))
    report = prune_with_rtoss(model, entries=2, example_input=(1, 3, 64, 64))
    x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    monkeypatch.setenv(DISABLE_ENV, "1")
    portable = compile_model(model, report.masks).forward_raw(x)
    monkeypatch.delenv(DISABLE_ENV)

    compiled = compile_model(model, report.masks)
    monkeypatch.setattr(FusedConv, "natively", lambda self: False)
    out = compiled.forward_raw(x)
    convs = [op for op in compiled._fused_program.steps if isinstance(op, FusedConv)]
    assert all(op.direct is not None and op._matrix is not None for op in convs)
    assert max_abs_output_diff(out, portable) == 0.0
    _assert_convs_execute_the_full_width_fold(compiled)
