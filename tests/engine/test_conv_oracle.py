"""Generated convolutions x generated masks: every executor against the dense oracle.

The registry-wide equivalence test covers ten models under one pruner each; this
one covers the *mask and geometry space*.  Hypothesis draws a small convolution
(kernel 1-7 per axis, stride 1-3, padding 0-3, odd ``H != W`` down to a 1x1
output, 1-20 output channels so every tail of the dense kernel's channel
blocks occurs, bias / BatchNorm / every epilogue) and a keep-mask (R-TOSS 2EP /
3EP from the real pattern libraries — Algorithm 3 on a 1x1 —, PATDNN 4-entry +
connectivity, unstructured, one all-zero output row, an all-zero layer, dense,
dense with a few exact zeros) and asserts

    native engine  ==  portable engine (``REPRO_NO_NATIVE=1``)  ==  dense masked forward

within ``1e-5`` of the oracle's magnitude, and that each engine gives every
image the same bits in a batch of 1-5 as alone.  The native engine runs the
direct sparse kernel — halo / phase staging inside the library — wherever the
density rule picks it, the dense direct kernel for a denser layer whose kernel
is larger than 3x3, gather + GEMM with the native epilogue elsewhere; the
portable one is gather + GEMM with numpy passes.  Without the kernel only the
portable half runs.  ``--hypothesis-seed=N`` reproduces a failure.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel_pruning import assign_patterns
from repro.core.one_by_one import prune_pointwise_weights
from repro.core.patterns import build_pattern_library
from repro.engine import BatchRunner, compile_model, sparse_kernel_available
from repro.engine.native import DISABLE_ENV
from repro.nn.layers.activation import LeakyReLU, ReLU, SiLU
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.module import Sequential
from repro.pruning.connectivity import connectivity_mask

TOL = 1e-5
LIBRARIES = {entries: build_pattern_library(entries) for entries in (2, 3, 4)}
MASK_KINDS = ("rtoss-2ep", "rtoss-3ep", "patdnn", "unstructured", "zero-row", "zero-layer",
              "dense", "dense-with-zeros")
ACTS = {None: None, "relu": ReLU, "silu": SiLU,
        "leaky": lambda: LeakyReLU(0.1), "steep": lambda: LeakyReLU(1.7)}


def pattern_mask(weights: np.ndarray, entries: int, rng) -> np.ndarray:
    """Keep ``entries`` weights per kernel: the pruner's own pattern selection
    where it has one (3x3 kernels, Algorithm 3 on 1x1), random taps elsewhere."""
    out_channels, in_channels, kh, kw = weights.shape
    if (kh, kw) == (3, 3):
        return assign_patterns(weights, LIBRARIES[entries]).mask
    if (kh, kw) == (1, 1):
        return prune_pointwise_weights(weights, LIBRARIES[entries]).mask
    mask = np.zeros((out_channels * in_channels, kh * kw), dtype=np.float32)
    for row in mask:
        row[rng.choice(kh * kw, size=min(entries, kh * kw), replace=False)] = 1.0
    return mask.reshape(weights.shape)


def keep_mask(kind: str, weights: np.ndarray, rng) -> np.ndarray:
    if kind == "rtoss-2ep":
        return pattern_mask(weights, 2, rng)
    if kind == "rtoss-3ep":
        return pattern_mask(weights, 3, rng)
    if kind == "patdnn":
        return pattern_mask(weights, 4, rng) * connectivity_mask(weights, 0.3)
    if kind == "unstructured":
        return (rng.random(weights.shape) < rng.uniform(0.05, 0.9)).astype(np.float32)
    if kind.startswith("dense"):
        mask = np.ones(weights.size, dtype=np.float32)
        if kind == "dense-with-zeros":      # a few exact zeros, density still > 0.5
            zeros = min(int(rng.integers(1, 4)), (weights.size - 1) // 2)
            mask[rng.choice(weights.size, size=zeros, replace=False)] = 0.0
        return mask.reshape(weights.shape)
    mask = pattern_mask(weights, 2, rng)
    if kind == "zero-row":
        mask[rng.integers(weights.shape[0])] = 0.0
        return mask
    return np.zeros_like(mask)


@st.composite
def conv_cases(draw):
    kh, kw = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    padding = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    # Smallest input with a non-empty output, plus up to a dozen rows/columns.
    h = max(1, kh - 2 * padding[0]) + draw(st.integers(0, 12))
    w = max(1, kw - 2 * padding[1]) + draw(st.integers(0, 12))
    return {
        "kernel": (kh, kw), "stride": stride, "padding": padding, "hw": (h, w),
        "cin": draw(st.integers(1, 12)), "cout": draw(st.integers(1, 20)),
        "bias": draw(st.booleans()), "bn": draw(st.booleans()),
        "act": draw(st.sampled_from(sorted(ACTS, key=str))),
        "mask": draw(st.sampled_from(MASK_KINDS)),
        "batch": draw(st.integers(1, 5)),
        "seed": draw(st.integers(0, 2 ** 31 - 1)),
    }


def build(case):
    rng = np.random.default_rng(case["seed"])
    conv = Conv2d(case["cin"], case["cout"], kernel_size=case["kernel"], stride=case["stride"],
                  padding=case["padding"], bias=case["bias"], rng=rng)
    if case["bias"]:
        conv.bias.data[...] = rng.standard_normal(case["cout"]).astype(np.float32)
    keep = keep_mask(case["mask"], conv.weight.data, rng)
    conv.weight.data *= keep
    conv.pruning_masks["weight"] = keep
    layers = [conv]
    if case["bn"]:
        norm = BatchNorm2d(case["cout"])
        norm.running_mean[...] = rng.standard_normal(case["cout"]).astype(np.float32)
        norm.running_var[...] = (0.2 + rng.random(case["cout"])).astype(np.float32)
        norm.weight.data[...] = rng.standard_normal(case["cout"]).astype(np.float32)
        norm.bias.data[...] = rng.standard_normal(case["cout"]).astype(np.float32)
        layers.append(norm)
    if ACTS[case["act"]] is not None:
        layers.append(ACTS[case["act"]]())
    model = Sequential(*layers)
    model.eval()
    x = rng.standard_normal((case["batch"], case["cin"], *case["hw"])).astype(np.float32)
    return model, x


@contextmanager
def portable():
    """Pin the portable numpy path, as ``REPRO_NO_NATIVE=1`` does."""
    before = os.environ.get(DISABLE_ENV)
    os.environ[DISABLE_ENV] = "1"
    try:
        yield
    finally:
        if before is None:
            del os.environ[DISABLE_ENV]
        else:
            os.environ[DISABLE_ENV] = before


def expected_kernel(plan):
    """The static rule of ``FusedConv.choose_kernel`` (``DIRECT_MAX_DENSITY = 0.5``):
    the mode tag of the direct kernel that runs the layer (an all-zero layer is an
    empty CSR), None for gather + GEMM."""
    if plan.density <= 0.5:
        return "+direct"
    return "+dense-direct" if max(plan.kernel_size) > 3 else None


def check_engine(model, x, oracle, expect_kernel):
    compiled = compile_model(model)
    out = compiled.forward_raw(x)
    assert compiled.engine_mode == "fused", compiled.fuse_failure
    mode = compiled.summary()[0]["mode"]
    ran = [tag for tag in ("+direct", "+dense-direct") if tag in mode]
    assert ran == ([expect_kernel] if expect_kernel else []), mode
    assert out.shape == oracle.shape
    assert np.abs(out - oracle).max() <= TOL * max(1.0, np.abs(oracle).max()), mode
    # Batch bucketing pads 3 -> 4 and 5 -> 8: an image never sees its neighbours.
    for index in range(x.shape[0]):
        alone = compiled.forward_raw(x[index:index + 1])
        assert np.array_equal(alone[0], out[index]), (mode, index)
    return out


@settings(max_examples=300, deadline=None)
@given(conv_cases())
def test_every_executor_matches_the_dense_masked_forward(case):
    model, x = build(case)
    oracle = BatchRunner(model, batch_size=x.shape[0]).run(x)
    with portable():
        check_engine(model, x, oracle, expect_kernel=None)
    if sparse_kernel_available():
        check_engine(model, x, oracle, expected_kernel(compile_model(model).plans["0"]))
