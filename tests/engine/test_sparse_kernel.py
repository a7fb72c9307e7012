"""The native fp32 direct sparse-convolution kernel against the dense oracle.

``FusedConv`` runs ``sconv_f32`` (:mod:`repro.engine.native`) for pruned layers
when the kernel loaded; these tests pin what the rest of the stack relies on:
outputs within ``1e-5 * max(1, |oracle|)`` of the dense no-grad forward over
generated geometries, masks and epilogues; an image's result independent of
the batch it rode in (bit for bit); thread safety; and ``refresh()`` re-packing
the CSR operands.  Everything that needs the kernel skips without it; the
portable-path tests at the end pin ``REPRO_NO_NATIVE=1`` and run everywhere.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np
import pytest

from repro.core.rtoss import prune_with_rtoss
from repro.engine import (
    BatchRunner,
    compile_model,
    max_abs_output_diff,
    sparse_kernel_available,
)
from repro.engine.fuse import EPILOGUE_ACTS, FusedConv
from repro.engine.native import DISABLE_ENV
from repro.engine.runner import map_structure
from repro.models.registry import available_models, build_model
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.layers.activation import LeakyReLU, ReLU, SiLU
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.module import Sequential
from repro.nn.tensor import Tensor

TOL = 1e-5

needs_kernel = pytest.mark.skipif(
    not sparse_kernel_available(),
    reason="fp32 sparse kernel unavailable (no AVX-512F, no compiler, or REPRO_NO_NATIVE)")


def _mask(kind: str, shape, rng) -> np.ndarray:
    """Keep-mask of one layer: R-TOSS-like N-of-(kh*kw) patterns per kernel."""
    out_channels, in_channels, kh, kw = shape
    taps = kh * kw
    if kind == "dense":
        return np.ones(shape, dtype=np.float32)
    entries = 3 if kind == "3ep" else 2
    if taps == 1:
        # Algorithm 3 view of a 1x1 layer: 9 weights along the input axis form
        # one temporary kernel that keeps `entries` of them.
        keep = np.zeros((out_channels, in_channels), dtype=np.float32)
        for o in range(out_channels):
            for start in range(0, in_channels, 9):
                group = np.arange(start, min(start + 9, in_channels))
                keep[o, rng.choice(group, size=min(entries, group.size), replace=False)] = 1.0
        mask = keep.reshape(shape)
    else:
        mask = np.zeros((out_channels * in_channels, taps), dtype=np.float32)
        for row in mask:
            row[rng.choice(taps, size=entries, replace=False)] = 1.0
        mask = mask.reshape(shape)
    if kind == "connectivity":
        mask[:, rng.choice(in_channels, size=max(1, in_channels // 3), replace=False)] = 0.0
        mask[rng.integers(out_channels)] = 0.0        # one whole kernel row gone
    return mask


def _conv_block(rng, *, k=3, stride=1, padding=1, cin=7, cout=10, bias=True, bn=False,
                act=None, slope=0.1, mask="2ep"):
    conv = Conv2d(cin, cout, kernel_size=k, stride=stride, padding=padding, bias=bias,
                  rng=np.random.default_rng(int(rng.integers(1 << 30))))
    keep = _mask(mask, conv.weight.data.shape, rng)
    conv.weight.data *= keep
    conv.pruning_masks["weight"] = keep
    layers = [conv]
    if bn:
        norm = BatchNorm2d(cout)
        norm.running_mean[...] = rng.standard_normal(cout).astype(np.float32)
        norm.running_var[...] = (0.2 + rng.random(cout)).astype(np.float32)
        norm.weight.data[...] = rng.standard_normal(cout).astype(np.float32)
        norm.bias.data[...] = rng.standard_normal(cout).astype(np.float32)
        layers.append(norm)
    if act is not None:
        layers.append({"relu": ReLU, "silu": SiLU}[act]() if act != "leaky_relu"
                      else LeakyReLU(slope))
    model = Sequential(*layers)
    model.eval()
    return model


def _check(model, x, expect_direct=True):
    oracle = BatchRunner(model, batch_size=x.shape[0]).run(x)
    compiled = compile_model(model)
    out = compiled.forward_raw(x)
    assert compiled.engine_mode == "fused", compiled.fuse_failure
    modes = [row["mode"] for row in compiled.summary()]
    assert all(("+direct" in mode) == expect_direct for mode in modes), modes
    assert out.shape == oracle.shape
    assert np.abs(out - oracle).max() <= TOL * max(1.0, np.abs(oracle).max())
    return compiled, out


# ------------------------------------------------------------------- geometry
@needs_kernel
@pytest.mark.parametrize("k, stride, padding", [
    (k, s, p) for k, s, p in itertools.product((1, 3), (1, 2), (0, 1)) if not (k == 1 and p)])
@pytest.mark.parametrize("hw", [(1, 1), (3, 3), (4, 7), (9, 5), (17, 13), (23, 30)])
@pytest.mark.parametrize("batch", [1, 3, 8])
def test_geometry_sweep_matches_dense(k, stride, padding, hw, batch, rng):
    """k x stride x padding x odd H != W (down to 1x1) x batch, 2EP masks."""
    h, w = hw
    if h + 2 * padding < k or w + 2 * padding < k:
        pytest.skip("empty output")
    model = _conv_block(rng, k=k, stride=stride, padding=padding, act="relu")
    x = rng.standard_normal((batch, 7, h, w)).astype(np.float32)
    _check(model, x)


@needs_kernel
@pytest.mark.parametrize("hw", [(64, 64), (40, 90)])
def test_planes_longer_than_a_tile(hw, rng):
    """Several full 64-position tiles plus every remainder width (1-4 vectors)."""
    for width_trim in range(0, 5):
        model = _conv_block(rng, cin=5, cout=6, act="silu", bn=True)
        x = rng.standard_normal((2, 5, hw[0], hw[1] - 3 * width_trim)).astype(np.float32)
        _check(model, x)


@needs_kernel
def test_wide_rows_use_every_chain_split(rng):
    """Rows long enough that the 8/4/2-chain loops and their scalar tails all run."""
    for hw in [(2, 2), (4, 4), (5, 6), (7, 7)]:          # 1, 2, 3 and 4 vector tiles
        for cin in (3, 29, 64):
            model = _conv_block(rng, cin=cin, cout=9, mask="3ep")
            x = rng.standard_normal((1, cin, *hw)).astype(np.float32)
            _check(model, x)


# ------------------------------------------------------------ epilogue / masks
@needs_kernel
@pytest.mark.parametrize("act, slope", [(None, 0.0)] + [(tag, 0.1) for tag in EPILOGUE_ACTS]
                         + [("leaky_relu", 1.7), ("leaky_relu", 0.0)])
@pytest.mark.parametrize("bias, bn", [(True, False), (False, False), (True, True), (False, True)])
def test_every_epilogue_with_and_without_bias_and_bn(act, slope, bias, bn, rng):
    model = _conv_block(rng, bias=bias, bn=bn, act=act, slope=slope)
    x = 3.0 * rng.standard_normal((3, 7, 11, 9)).astype(np.float32)
    compiled, _ = _check(model, x)
    mode = compiled.summary()[0]["mode"]
    assert mode == ("sparse-im2col-gemm+direct" + ("+bn" if bn else "")
                    + (f"+{act}" if act else ""))


@needs_kernel
def test_silu_epilogue_survives_extreme_activations(rng):
    """exp() overflow on both sides: silu(-1e4) == -0.0, silu(1e4) == 1e4."""
    model = _conv_block(rng, k=1, padding=0, cin=9, cout=4, act="silu", bias=False)
    x = np.zeros((1, 9, 4, 4), dtype=np.float32)
    x[0, :, 0, 0], x[0, :, 1, 1] = 1e4, -1e4
    _, out = _check(model, x)
    assert np.isfinite(out).all()


@needs_kernel
@pytest.mark.parametrize("mask", ["2ep", "3ep", "connectivity"])
@pytest.mark.parametrize("k", [1, 3])
def test_mask_kinds_including_an_all_zero_row(mask, k, rng):
    model = _conv_block(rng, k=k, padding=k // 2, cin=18, cout=12, mask=mask, act="relu")
    conv = model[0]
    x = rng.standard_normal((2, 18, 10, 12)).astype(np.float32)
    compiled, out = _check(model, x)
    if mask == "connectivity":
        dead = np.flatnonzero(~conv.weight.data.reshape(12, -1).any(axis=1))
        assert dead.size, "the mask should zero a whole output row"
        bias = np.maximum(conv.bias.data[dead], 0.0)
        np.testing.assert_array_equal(out[:, dead], np.broadcast_to(
            bias.reshape(1, -1, 1, 1), out[:, dead].shape))


@needs_kernel
def test_dense_layers_keep_the_gemm_path(rng):
    """The static rule: density above DIRECT_MAX_DENSITY stays on BLAS."""
    model = _conv_block(rng, mask="dense", act="relu")
    x = rng.standard_normal((2, 7, 9, 9)).astype(np.float32)
    _check(model, x, expect_direct=False)


@needs_kernel
@pytest.mark.parametrize("act, slope", [(None, 0.0)] + [(tag, 0.1) for tag in EPILOGUE_ACTS]
                         + [("leaky_relu", 1.7)])
@pytest.mark.parametrize("bias, bn", [(True, False), (False, False), (True, True)])
def test_gemm_path_epilogue_is_one_native_pass(act, slope, bias, bn, rng):
    """Dense layers stay on gather + GEMM but get bias + activation from the
    same in-register pass as the direct kernel — not a numpy pass per step —
    so a dense and a pruned twin differ in the convolution only."""
    model = _conv_block(rng, mask="dense", bias=bias, bn=bn, act=act, slope=slope)
    x = 3.0 * rng.standard_normal((3, 7, 11, 9)).astype(np.float32)   # 99 positions: a tail
    compiled, _ = _check(model, x, expect_direct=False)
    op = next(op for op in compiled._fused_program.steps if isinstance(op, FusedConv))
    assert (op.native_epilogue is not None) == (bias or bn or act is not None)
    roles = {key[1] for key, _, _ in compiled._fused_program._arena()._slots
             if isinstance(key, tuple)}
    assert "act" not in roles, "the native epilogue needs no activation scratch"


@needs_kernel
def test_gemm_path_silu_epilogue_survives_extreme_activations(rng):
    model = _conv_block(rng, k=1, padding=0, cin=9, cout=4, act="silu", bias=False, mask="dense")
    x = np.zeros((1, 9, 4, 4), dtype=np.float32)
    x[0, :, 0, 0], x[0, :, 1, 1] = 1e4, -1e4
    _, out = _check(model, x, expect_direct=False)
    assert np.isfinite(out).all()


# ------------------------------------------------------------- batch / threads
@needs_kernel
def test_result_is_bit_identical_in_any_batch(rng):
    """Batch bucketing pads 3 -> 4 and 5 -> 8: an image's output must not
    depend on the batch it rode in (serving replies are compared at 1e-5, and
    the bench's reference is the batch-1 output)."""
    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))
    report = prune_with_rtoss(model, entries=2,
                              example_input=Tensor(np.zeros((1, 3, 64, 64), np.float32)))
    compiled = compile_model(model, report.masks)
    x = rng.standard_normal((8, 3, 64, 64)).astype(np.float32)
    alone = [compiled.forward_raw(x[i:i + 1]) for i in range(8)]
    assert any("+direct" in row["mode"] for row in compiled.summary())
    for size in (2, 3, 5, 8):
        batched = compiled.forward_raw(x[:size])
        for i in range(size):
            assert max_abs_output_diff(map_structure(lambda a: a[i:i + 1], batched),
                                       alone[i]) == 0.0


@needs_kernel
def test_two_threads_on_one_compiled_model(rng):
    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))
    report = prune_with_rtoss(model, entries=2,
                              example_input=Tensor(np.zeros((1, 3, 64, 64), np.float32)))
    compiled = compile_model(model, report.masks)
    batches = [rng.standard_normal((n, 3, s, s)).astype(np.float32)
               for n, s in [(1, 64), (2, 32), (4, 64), (3, 32)]]
    compiled.forward_raw(batches[0])            # settle eval() + trace
    expected = [compiled.forward_raw(batch) for batch in batches]

    failures = []
    start = threading.Barrier(2)

    def worker(offset):
        start.wait(timeout=30)
        for round_ in range(25):
            index = (round_ + offset) % len(batches)
            if max_abs_output_diff(compiled.forward_raw(batches[index]),
                                   expected[index]) != 0.0:
                failures.append((offset, round_))

    threads = [threading.Thread(target=worker, args=(offset,)) for offset in (0, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures


# --------------------------------------------------------------------- refresh
@needs_kernel
def test_refresh_repacks_the_csr_operands(rng):
    """Weight values change, one kept weight becomes exactly zero and the bias
    moves: refresh() must re-pack values *and* structure."""
    model = _conv_block(rng, cin=9, cout=8, bn=True, act="relu")
    conv = model[0]
    x = rng.standard_normal((2, 9, 8, 8)).astype(np.float32)
    compiled, _ = _check(model, x)
    plan = compiled.plans["0"]
    nnz_before = plan.csr()[1].size

    conv.weight.data *= 1.5
    first = np.argwhere(conv.weight.data != 0.0)[0]
    conv.weight.data[tuple(first)] = 0.0
    conv.bias.data += 0.25
    compiled.refresh()

    oracle = BatchRunner(model, batch_size=2).run(x)
    out = compiled.forward_raw(x)
    assert compiled.plans["0"].csr()[1].size == nnz_before - 1
    assert np.abs(out - oracle).max() <= TOL * max(1.0, np.abs(oracle).max())
    op = next(op for op in compiled._fused_program.steps if isinstance(op, FusedConv))
    assert op.direct is not None and op.csr_val.size == nnz_before - 1


# ------------------------------------------------------------------ both modes
#: Models the tracer cannot record; they keep their own dense no-grad forward.
UNTRACEABLE = {"detr", "detr_lite"}


@pytest.fixture(params=["native", "portable"])
def kernel_mode(request, monkeypatch):
    """Run a test on the direct kernel and pinned to the portable GEMM path."""
    if request.param == "portable":
        monkeypatch.setenv(DISABLE_ENV, "1")
    elif not sparse_kernel_available():
        pytest.skip("fp32 sparse kernel unavailable")
    return request.param


@pytest.mark.parametrize("name, entries", [
    *[pytest.param(name, 2, id=name) for name in available_models()],
    # The GEMM layers of the whole registry that drop the most im2col columns.
    pytest.param("yolox", 5, id="yolox-rtoss-5ep"),
])
def test_every_pruned_registry_model_matches_dense(name, entries, kernel_mode, rng):
    """R-TOSS-2EP on every registry model (and 5EP on yolox), both kernel
    modes: fused within 1e-5 of the oracle's magnitude (or a
    known-untraceable model, exact)."""
    model = build_model(name)
    report = prune_with_rtoss(model, entries=entries, example_input=(1, 3, 64, 64))
    x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
    model.eval()
    oracle = BatchRunner(model, batch_size=1).run(x)

    compiled = compile_model(model, report.masks)
    diff = max_abs_output_diff(compiled.forward_raw(x), oracle)
    if name in UNTRACEABLE:
        assert compiled.engine_mode == "eager" and diff == 0.0
        return
    assert compiled.engine_mode == "fused", compiled.fuse_failure
    peak = max_abs_output_diff(oracle, map_structure(np.zeros_like, oracle))
    assert diff <= TOL * max(1.0, peak)
    direct = ["+direct" in str(row["mode"]) for row in compiled.summary()]
    # 5EP keeps 5 of 9 taps: above DIRECT_MAX_DENSITY, so gather + GEMM runs it.
    assert any(direct) == (kernel_mode == "native" and entries == 2)


@needs_kernel
def test_artifact_crosses_kernel_modes(tmp_path, monkeypatch, rng):
    """The kernel choice is made at fuse time and never stored: an artifact
    saved on a host with the kernel loads and serves on one without, and back."""
    from repro.pipeline import DeployableArtifact, Pipeline, RunSpec

    spec = RunSpec.from_dict({
        "name": "kernel_modes", "seed": 0,
        "model": {"name": "tiny", "kwargs": {"num_classes": 3, "image_size": 64,
                                             "base_channels": 8}},
        "framework": {"name": "rtoss-2ep", "trace_size": 64},
        "evaluation": {"enabled": False},
    })
    x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)

    def direct_layers(artifact):
        return sum("+direct" in str(row["mode"]) for row in artifact.compiled.summary())

    built = Pipeline.from_spec(spec).run()
    native_out = built.compiled.forward_raw(x)
    assert direct_layers(built) > 0
    built.save(str(tmp_path / "native.npz"))

    monkeypatch.setenv(DISABLE_ENV, "1")
    portable = DeployableArtifact.load(str(tmp_path / "native.npz"))
    portable_out = portable.compiled.forward_raw(x)
    assert direct_layers(portable) == 0
    assert max_abs_output_diff(portable_out, native_out) <= TOL
    portable.save(str(tmp_path / "portable.npz"))

    monkeypatch.delenv(DISABLE_ENV)
    back = DeployableArtifact.load(str(tmp_path / "portable.npz"))
    assert max_abs_output_diff(back.compiled.forward_raw(x), native_out) == 0.0
    assert direct_layers(back) > 0


@needs_kernel
def test_args_block_that_disagrees_with_the_library_degrades_to_numpy(monkeypatch, rng):
    """The C ``*_args`` structs and ``native.ARGS`` are kept in step by hand;
    the loader holds each ``sizeof`` against its ctypes mirror, and a mirror
    that drifted costs the fp32 kernels — with one log line, never a crash or
    a call through a misread block."""
    import logging

    import repro.engine.native as native

    records = []
    handler = logging.Handler(level=logging.WARNING)
    handler.emit = records.append
    drifted = native._args_block("srcs out", "count spare")      # 8 bytes more than ewise_args
    monkeypatch.setitem(native.ARGS, "relu_call", drifted)
    native.log.addHandler(handler)
    native.reset_native_cache()
    try:
        assert native.load_sparse_kernel() is None and not sparse_kernel_available()
        assert len(records) == 1 and "relu_call" in records[0].getMessage()
        model = _conv_block(rng, act="relu")
        _check(model, rng.standard_normal((2, 7, 9, 9)).astype(np.float32), expect_direct=False)
    finally:
        native.log.removeHandler(handler)
        monkeypatch.undo()
        native.reset_native_cache()
    assert sparse_kernel_available()
