"""Storage-quantized weights on the one fp32 engine.

Storage quantization (:mod:`repro.compression.quantization`, the pipeline's
quantize step) writes the dequantized codes back into the model, and the
fused fp32 program serves those weights like any others.  These tests pin what
the combination has to keep:

* quantization never revives a pruned im2col column: a quantized model's
  plans keep a subset of the pruned model's columns (a column whose every
  weight rounds to code zero may drop too), for every R-TOSS entry count at
  every bit width, and its outputs match the dense taped forward of the
  quantized model within 1e-5;
* a zero code is an exact zero in the executed, BN-folded weights of a
  pattern-pruned conv, so the direct kernel's CSR never carries it, and every
  BN x activation epilogue still fuses;
* a quantized artifact reloads into bit-identical outputs at every bit width,
  and its storage shrinks by close to ``32 / bits``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import quantize_model
from repro.core.kernel_pruning import prune_3x3_layer
from repro.core.patterns import build_pattern_library
from repro.core.rtoss import prune_with_rtoss
from repro.engine import compile_model
from repro.engine.fuse import FusedConv
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.layers.activation import build_activation
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.module import Sequential
from repro.nn.tensor import Tensor

TOL = 1e-5


def _pruned_tiny(entries: int, image_size: int = 64):
    model = TinyDetector(TinyDetectorConfig(
        num_classes=3, image_size=image_size, base_channels=8))
    report = prune_with_rtoss(
        model, entries=entries,
        example_input=Tensor(np.zeros((1, 3, image_size, image_size), dtype=np.float32)),
    )
    return model, report


@pytest.mark.parametrize("bits", [4, 8, 16])
@pytest.mark.parametrize("entries", [2, 3, 4, 5])
def test_quantized_pruned_model_keeps_no_pruned_weight_and_matches_the_oracle(
        entries, bits, rng):
    model, report = _pruned_tiny(entries)
    quantize_model(model, bits=bits, apply=True)
    compiled = compile_model(model, report.masks)
    for mask in report.masks:
        matrix = compiled.plans[mask.layer_name].full_width()
        pruned = mask.mask.reshape(matrix.shape) == 0.0
        assert not matrix[pruned].any(), (
            f"{mask.layer_name}: quantization revived a pruned weight")

    x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    model.eval()
    dense = model(Tensor(x)).data.copy()
    out = compiled.forward_raw(x)
    assert compiled.engine_mode == "fused", compiled.fuse_failure
    np.testing.assert_allclose(out, dense, atol=TOL, rtol=0)


@pytest.mark.parametrize("with_bn", [True, False])
@pytest.mark.parametrize("act", ["relu", "leaky_relu", "silu", None])
def test_zero_codes_are_exact_zeros_in_the_folded_weights(with_bn, act, rng):
    conv = Conv2d(8, 16, kernel_size=3, rng=np.random.default_rng(3))
    assignment = prune_3x3_layer(conv, build_pattern_library(2, max_patterns=12))
    conv.weight.data *= assignment.mask
    conv.pruning_masks["weight"] = assignment.mask
    layers = [conv]
    if with_bn:
        bn = BatchNorm2d(16)
        bn.running_mean[...] = rng.standard_normal(16).astype(np.float32)
        bn.running_var[...] = (0.5 + rng.random(16)).astype(np.float32)
        bn.weight.data[...] = (0.5 + rng.random(16)).astype(np.float32)
        bn.bias.data[...] = rng.standard_normal(16).astype(np.float32)
        layers.append(bn)
    if act is not None:
        layers.append(build_activation(act))
    model = Sequential(*layers)
    model.eval()
    # 4 bits: a weight below half a code step of its channel's maximum codes to zero.
    (quantized,) = quantize_model(model, bits=4, apply=True).layers.values()

    x = rng.standard_normal((2, 8, 12, 14)).astype(np.float32)
    dense = model(Tensor(x)).data.copy()
    compiled = compile_model(model)
    out = compiled.forward_raw(x)
    assert compiled.engine_mode == "fused", compiled.fuse_failure
    np.testing.assert_allclose(out, dense, atol=TOL, rtol=0)

    (op,) = [step for step in compiled._fused_program.steps if isinstance(step, FusedConv)]
    suffix = ("+bn" if with_bn else "") + (f"+{act}" if act else "")
    assert op.mode.endswith(suffix), op.mode
    codes = quantized.values.reshape(16, -1)
    zero = codes == 0
    assert zero.any(), "test seed must code at least one kept weight to zero"
    assert not op.plan.full_width(op.weight)[zero].any(), (
        "a zero code became a nonzero folded weight")
    if op.direct is not None:
        assert op.csr_val.size == np.count_nonzero(codes)


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_quantized_artifact_reloads_bit_identical(bits, tmp_path, rng):
    from repro.pipeline import DeployableArtifact, Pipeline, RunSpec

    spec = RunSpec.from_dict({
        "name": f"quantized_{bits}", "seed": 5,
        "model": {"name": "tiny",
                  "kwargs": {"num_classes": 3, "image_size": 64, "base_channels": 8}},
        "framework": {"name": "rtoss-2ep", "trace_size": 64},
        "quantization": {"enabled": True, "bits": bits},
        "engine": {"enabled": True, "measure": False, "image_size": 64,
                   "batch": 2, "repeats": 1},
        "evaluation": {"enabled": False},
    })
    artifact = Pipeline.from_spec(spec).run()
    meta = artifact.quantization_meta
    assert meta["bits"] == bits and artifact.summary()["quantized_bits"] == bits
    # Codes plus per-channel scales: a little under the ideal 32 / bits.
    assert 0.75 * 32 / bits < meta["compression_ratio"] <= 32 / bits
    assert meta["deployed_bytes"] < meta["float_bytes"]

    x = rng.standard_normal((3, 3, 64, 64)).astype(np.float32)
    original = artifact.compiled.forward_raw(x)
    loaded = DeployableArtifact.load(artifact.save(str(tmp_path / "quantized.npz")))
    assert loaded.quantization_meta == meta
    reloaded = loaded.compiled.forward_raw(x)
    assert artifact.compiled.engine_mode == loaded.compiled.engine_mode == "fused"
    np.testing.assert_array_equal(reloaded, original)
