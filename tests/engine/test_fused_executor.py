"""Traced/fused executor: equivalence, fusion rules, arena reuse, re-fusion.

The fused executor may reorder float math (BN folding) and reuse buffers
(workspace arena), so these tests pin the two contracts everything above it
relies on: outputs equivalent to the dense forward within 1e-5, and no
result ever aliasing arena scratch space — even under concurrent serving.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext

import numpy as np
import pytest
from test_conv_oracle import portable          # pins the portable path, as REPRO_NO_NATIVE=1 does

from repro.core.rtoss import prune_with_rtoss
from repro.engine import BatchRunner, compile_model, layout_cache_stats
from repro.engine.arena import ALIGNMENT
from repro.engine.native import sparse_kernel_available
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn import functional as F
from repro.nn.layers.activation import build_activation
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.module import Module, Sequential
from repro.nn.tensor import Tensor

TOL = 1e-5


def _pruned_tiny(entries: int = 2, image_size: int = 64, base_channels: int = 8):
    model = TinyDetector(TinyDetectorConfig(
        num_classes=3, image_size=image_size, base_channels=base_channels))
    report = prune_with_rtoss(
        model, entries=entries,
        example_input=Tensor(np.zeros((1, 3, image_size, image_size), dtype=np.float32)),
    )
    return model, report


# ------------------------------------------------------------------ equivalence
def test_fused_matches_dense_on_pruned_tiny(rng):
    """Fused output == taped dense == no-grad dense, <= 1e-5."""
    model, report = _pruned_tiny()
    x = rng.standard_normal((3, 3, 64, 64)).astype(np.float32)

    model.eval()
    dense_grad = model(Tensor(x)).data.copy()          # taped autograd forward
    dense_no_tape = BatchRunner(model, batch_size=3).run(x)

    compiled = compile_model(model, report.masks, apply_masks=False)
    fused = compiled.forward_raw(x)
    assert compiled.fused_active, compiled.fuse_failure
    np.testing.assert_allclose(fused, dense_grad, atol=TOL, rtol=0)
    np.testing.assert_allclose(fused, dense_no_tape, atol=TOL, rtol=0)


def test_fused_is_deterministic_across_calls(rng):
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks, apply_masks=False)
    x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    first = compiled.forward_raw(x)
    second = compiled.forward_raw(x)
    np.testing.assert_allclose(first, second, atol=0, rtol=0)
    assert first is not second  # results are fresh arrays, never the arena


@pytest.mark.parametrize("with_bn", [True, False])
@pytest.mark.parametrize("act", ["relu", "leaky_relu", "silu", "sigmoid",
                                 "hardswish", "tanh", None])
def test_conv_bn_activation_combos(with_bn, act, rng):
    """Every BN x activation combination fuses (or falls back) equivalently."""
    layers = [Conv2d(4, 6, kernel_size=3, rng=np.random.default_rng(3))]
    # Prune a tap so the compiled gather is genuinely sparse.
    layers[0].weight.data[:, 1, 0, 0] = 0.0
    if with_bn:
        bn = BatchNorm2d(6)
        bn.running_mean[...] = rng.standard_normal(6).astype(np.float32)
        bn.running_var[...] = (0.5 + rng.random(6)).astype(np.float32)
        bn.weight.data[...] = (0.5 + rng.random(6)).astype(np.float32)
        bn.bias.data[...] = rng.standard_normal(6).astype(np.float32)
        layers.append(bn)
    if act is not None:
        layers.append(build_activation(act))
    model = Sequential(*layers)
    model.eval()

    x = rng.standard_normal((2, 4, 11, 13)).astype(np.float32)
    dense = model(Tensor(x)).data.copy()

    compiled = compile_model(model)
    fused = compiled.forward_raw(x)
    assert compiled.fused_active, compiled.fuse_failure
    np.testing.assert_allclose(fused, dense, atol=TOL, rtol=0)


@pytest.mark.parametrize("slope", [0.0, 0.1, 1.0, 1.5, -0.5])
def test_leaky_relu_slope_variants(slope, rng):
    """max/min kernel selection per slope; negative slopes replay the module."""
    from repro.nn.layers.activation import LeakyReLU

    model = Sequential(Conv2d(3, 4, kernel_size=3, rng=np.random.default_rng(5)),
                       LeakyReLU(slope))
    model.eval()
    x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
    dense = model(Tensor(x)).data.copy()
    compiled = compile_model(model)
    fused = compiled.forward_raw(x)
    assert compiled.fused_active, compiled.fuse_failure
    np.testing.assert_allclose(fused, dense, atol=TOL, rtol=0)
    modes = {row["mode"] for row in compiled.summary()}
    if slope >= 0:
        assert any(mode.endswith("+leaky_relu") for mode in modes), modes
    else:
        assert not any("+leaky_relu" in mode for mode in modes), modes


def test_glue_ops_slicing_concat_pool_upsample(rng):
    """Focus-style slicing, concat, maxpool and upsample all trace and replay."""
    from repro.nn.layers.pooling import MaxPool2d
    from repro.nn.layers.upsample import Upsample

    class Glue(Module):
        def __init__(self):
            super().__init__()
            self.conv = Conv2d(12, 8, kernel_size=1, padding=0,
                               rng=np.random.default_rng(0))
            self.pool = MaxPool2d(2, stride=2)
            self.up = Upsample(2)

        def forward(self, x):
            patches = [x[:, :, ::2, ::2], x[:, :, 1::2, ::2],
                       x[:, :, ::2, 1::2], x[:, :, 1::2, 1::2]]
            y = self.conv(F.concat(patches, axis=1))
            z = self.up(self.pool(y))
            return z + y * 0.5

    model = Glue()
    model.eval()
    x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
    dense = model(Tensor(x)).data.copy()

    compiled = compile_model(model)
    fused = compiled.forward_raw(x)
    assert compiled.fused_active, compiled.fuse_failure
    np.testing.assert_allclose(fused, dense, atol=TOL, rtol=0)


@pytest.mark.parametrize("kernel, stride, padding", [
    (2, 2, 0), (3, 2, 1), (5, 1, 2), (3, 1, 0), (3, 3, 1)])
def test_maxpool_is_bit_identical_to_dense(rng, kernel, stride, padding):
    """Pairwise maxima over shifted views == the dense window reduction, exactly
    (odd H != W, -inf halo, a NaN must still propagate)."""
    from repro.nn.layers.pooling import MaxPool2d

    model = Sequential(MaxPool2d(kernel, stride=stride, padding=padding))
    model.eval()
    x = rng.standard_normal((3, 4, 13, 9)).astype(np.float32)
    x[1, 2, 5, 4] = np.nan
    dense = model(Tensor(x)).data.copy()

    compiled = compile_model(model)
    fused = compiled.forward_raw(x)
    assert compiled.fused_active, compiled.fuse_failure
    np.testing.assert_array_equal(fused, dense)


def test_batchnorm_fold_params_matches_eval_forward(rng):
    bn = BatchNorm2d(7)
    bn.running_mean[...] = rng.standard_normal(7).astype(np.float32)
    bn.running_var[...] = (0.1 + rng.random(7)).astype(np.float32)
    bn.weight.data[...] = rng.standard_normal(7).astype(np.float32)
    bn.bias.data[...] = rng.standard_normal(7).astype(np.float32)
    bn.eval()
    x = rng.standard_normal((2, 7, 5, 5)).astype(np.float32)
    scale, shift = bn.fold_params()
    folded = x * scale.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1)
    np.testing.assert_allclose(folded, bn(Tensor(x)).data, atol=1e-6, rtol=0)


# ---------------------------------------------------------------- fusion rules
def test_fused_modes_report_bn_and_activation_folding():
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks, apply_masks=False)
    compiled.forward_raw(np.zeros((1, 3, 64, 64), dtype=np.float32))
    modes = {row["mode"] for row in compiled.summary()}
    assert any(mode.endswith("+bn+silu") for mode in modes), modes
    # The detector head has neither BN nor activation -> no epilogue suffix
    # (a "+direct" only says which kernel runs it).
    assert any("+" not in mode.replace("+direct", "") for mode in modes), modes


def test_pruned_detector_plans_skip_masked_taps():
    """Structure accounting at the engine benchmark's configuration (moved here
    from ``benchmarks/test_engine_speedup.py``, which is report-only): every
    conv layer of the pruned detector is compiled, each row reports the
    density the kernel choice reads, and the reported modes are the executed
    ones."""
    model, report = _pruned_tiny(image_size=96, base_channels=16)
    compiled = compile_model(model, report.masks, apply_masks=False)
    compiled.forward_raw(np.zeros((1, 3, 96, 96), dtype=np.float32))
    summary = compiled.summary()
    assert compiled.kept_columns() <= compiled.total_columns()
    convs = [name for name, module in model.named_modules() if isinstance(module, Conv2d)]
    assert list(compiled.plans) == convs and len(summary) == len(convs)
    assert [row["density"] for row in summary] == [
        round(plan.density, 4) for plan in compiled.plans.values()]
    assert all(row["density"] <= 0.5 for row in summary), (
        "pattern pruning should leave every layer under the direct kernel's density")
    modes = {row["mode"] for row in summary}
    assert any(mode.startswith("pointwise-gemm") for mode in modes)
    assert any(mode.startswith("sparse-im2col-gemm") for mode in modes)
    assert any(mode.endswith("+bn+silu") for mode in modes), modes


def test_bn_not_folded_when_conv_output_fans_out(rng):
    """A conv output that is also consumed elsewhere must stay materialized."""

    class FanOut(Module):
        def __init__(self):
            super().__init__()
            self.conv = Conv2d(3, 3, kernel_size=3, rng=np.random.default_rng(2))
            self.bn = BatchNorm2d(3)

        def forward(self, x):
            y = self.conv(x)
            return self.bn(y) + y      # y escapes the conv->bn chain

    model = FanOut()
    model.bn.running_mean[...] = rng.standard_normal(3).astype(np.float32)
    model.eval()
    x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
    dense = model(Tensor(x)).data.copy()
    compiled = compile_model(model)
    fused = compiled.forward_raw(x)
    assert compiled.fused_active
    np.testing.assert_allclose(fused, dense, atol=TOL, rtol=0)
    modes = {row["mode"] for row in compiled.summary()}
    assert not any("+bn" in mode for mode in modes), modes


def test_shared_leaf_module_traces_and_is_unwrapped(rng):
    """One activation instance registered under two names fuses and stays clean.

    ``named_modules()`` does not de-duplicate, so the tracer wraps a shared
    leaf twice; both wrappers must come off again in reverse order.
    """

    class SharedAct(Module):
        def __init__(self):
            super().__init__()
            self.c1 = Conv2d(3, 4, kernel_size=3, rng=np.random.default_rng(0))
            self.c2 = Conv2d(4, 4, kernel_size=1, rng=np.random.default_rng(1))
            self.a1 = self.a2 = build_activation("relu")

        def forward(self, x):
            return self.a2(self.c2(self.a1(self.c1(x))))

    model = SharedAct()
    model.eval()
    x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
    dense = model(Tensor(x)).data.copy()
    compiled = compile_model(model)
    fused = compiled.forward_raw(x)
    assert compiled.fused_active, compiled.fuse_failure
    np.testing.assert_allclose(fused, dense, atol=TOL, rtol=0)
    assert not any("forward" in module.__dict__ for _, module in model.named_modules())


def test_untraceable_model_keeps_dense_forward(rng):
    """Unrecordable glue (here: .sum()) disables fusion but never correctness."""

    class Weird(Module):
        def __init__(self):
            super().__init__()
            self.conv = Conv2d(3, 4, kernel_size=3, rng=np.random.default_rng(0))

        def forward(self, x):
            y = self.conv(x)
            return y * y.sum()         # .sum() is not a traced primitive

    model = Weird()
    model.eval()
    x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
    dense = model(Tensor(x)).data.copy()
    compiled = compile_model(model)
    out = compiled.forward_raw(x)
    assert not compiled.fused_active
    # The multiply consuming the unrecorded .sum() is the op that cannot lower.
    assert compiled.fuse_failure == "multiply: consumes a tensor no recorded op produced"
    np.testing.assert_allclose(out, dense, atol=TOL, rtol=0)
    # The failure is remembered: no re-trace storm on every call.
    compiled.forward_raw(x)
    assert compiled.fuse_failure is not None


def test_a_leaf_that_returns_no_tensor_keeps_dense_forward(rng):
    """The tracer records a leaf call that returns no tensor; the fuse pass,
    which has no step without an output, rejects it by name."""

    class Probe(Module):
        def forward(self, x):
            return None

    class Model(Module):
        def __init__(self):
            super().__init__()
            self.conv = Conv2d(3, 4, kernel_size=3, rng=np.random.default_rng(0))
            self.probe = Probe()

        def forward(self, x):
            y = self.conv(x)
            self.probe(y)
            return y

    model = Model()
    model.eval()
    x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
    dense = model(Tensor(x)).data.copy()
    compiled = compile_model(model)
    np.testing.assert_array_equal(compiled.forward_raw(x), dense)
    assert compiled.fuse_failure == "probe: op 'module' cannot be lowered to a fused step"


# ----------------------------------------------------------------------- arena
def test_arena_zero_allocations_after_warmup(rng):
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks, apply_masks=False)
    x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    compiled.forward_raw(x)                   # warmup: traces + allocates
    warm = compiled.arena_stats()
    assert warm["misses"] > 0 and warm["buffers"] == warm["misses"]
    for _ in range(3):
        compiled.forward_raw(x)
    steady = compiled.arena_stats()
    assert steady["misses"] == warm["misses"], "steady state must not allocate"
    # Every forward counts at least the lookup of its cut into segments, whatever
    # the steps behind it are bound to (a run of native steps looks nothing else up).
    assert steady["hits"] >= warm["hits"] + 3
    assert steady["bytes_allocated"] == warm["bytes_allocated"]


def test_arena_buffers_start_on_a_cache_line(rng):
    """Where in a cache line a buffer starts must not be left to malloc: it
    differs per process, and with it the speed of every forward (a run-to-run
    spread the repo benchmark refuses)."""
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks, apply_masks=False)
    compiled.forward_raw(rng.standard_normal((3, 3, 64, 64)).astype(np.float32))
    buffers = list(compiled._fused_program._arena()._slots.values())
    assert buffers and all(buf.ctypes.data % ALIGNMENT == 0 for buf in buffers)
    assert all(buf.flags.c_contiguous and buf.flags.writeable for buf in buffers)
    assert (compiled.arena_stats()["bytes_allocated"]
            == sum(buf.nbytes for buf in buffers))


def test_fused_layout_cache_single_shot_under_racing_threads(rng):
    """The fused flat-gather layouts build exactly once per (plan, shape)."""
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks, apply_masks=False)
    x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
    compiled.forward_raw(x)                   # trace + warm on this thread
    before = layout_cache_stats().misses
    barrier = threading.Barrier(6)
    errors = []

    def worker():
        try:
            barrier.wait()
            for _ in range(3):
                compiled.forward_raw(x)
        except BaseException as error:  # pragma: no cover
            errors.append(error)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    assert not errors
    assert layout_cache_stats().misses == before, (
        "a warm shape must never rebuild gather layouts")


def test_concurrent_submit_many_no_cross_request_aliasing(rng):
    """Concurrent serving through the fused executor: correct results that
    stay stable after later traffic (i.e. nothing aliases the arena)."""
    from repro.serving import BatchPolicy, InferenceService

    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks, apply_masks=False)
    inputs = [rng.standard_normal((6, 3, 64, 64)).astype(np.float32)
              for _ in range(4)]
    expected = [BatchRunner(compiled, batch_size=1).run(imgs) for imgs in inputs]

    results = [None] * len(inputs)
    errors = []
    with InferenceService(compiled, policy=BatchPolicy(max_batch_size=4)) as service:
        barrier = threading.Barrier(len(inputs))

        def client(index):
            try:
                barrier.wait()
                results[index] = service.submit_many(inputs[index])
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not errors
        for got, want in zip(results, expected):
            np.testing.assert_allclose(got, want, atol=TOL, rtol=0)
        snapshots = [np.array(r, copy=True) for r in results]
        # Push more traffic through the same arenas, then re-check: if any
        # result aliased arena scratch, it would have been overwritten.
        service.submit_many(inputs[0])
        service.submit_many(inputs[1])
        for result, snapshot in zip(results, snapshots):
            np.testing.assert_allclose(result, snapshot, atol=0, rtol=0)


def test_batch_axis_dropping_output_runs_whole_batch(rng):
    """A model output without a leading batch axis: nothing runs image by image."""

    class DropBatch(Module):
        def __init__(self):
            super().__init__()
            self.conv = Conv2d(3, 8, kernel_size=3, rng=np.random.default_rng(0))

        def forward(self, x):
            return self.conv(x)[0]        # (C, H, W): batch axis gone

    model = DropBatch()
    model.eval()
    for n in (3, 4, 5):
        x = rng.standard_normal((n, 3, 8, 8)).astype(np.float32)
        dense = model(Tensor(x)).data.copy()
        compiled = compile_model(model)
        fused = compiled.forward_raw(x)
        assert compiled.fused_active, compiled.fuse_failure
        assert not compiled._fused_program.per_image
        assert fused.shape == dense.shape
        np.testing.assert_allclose(fused, dense, atol=TOL, rtol=0)


def test_array_valued_batch_index_fuses_whole_batch(rng):
    """Fancy-indexing the batch axis replays fine but must keep every segment
    whole-batch (and must not crash the batch-axis analysis with an
    ambiguous-truth array)."""

    class Gathered(Module):
        def __init__(self):
            super().__init__()
            self.conv = Conv2d(3, 4, kernel_size=3, rng=np.random.default_rng(0))

        def forward(self, x):
            return self.conv(x)[np.array([0, 0, 1])]

    model = Gathered()
    model.eval()
    x = rng.standard_normal((3, 3, 8, 8)).astype(np.float32)
    dense = model(Tensor(x)).data.copy()
    compiled = compile_model(model)
    fused = compiled.forward_raw(x)
    assert compiled.fused_active, compiled.fuse_failure
    assert not compiled._fused_program.per_image
    np.testing.assert_allclose(fused, dense, atol=TOL, rtol=0)


def test_variable_micro_batches_match_dense_and_warm_once(rng):
    """Serving batchers form batches of 1..max; the fused program runs each as
    given, every result matches the dense path, and once a size has run a
    second sweep over the same sizes allocates nothing."""
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks, apply_masks=False)
    for n in range(1, 9):
        x = rng.standard_normal((n, 3, 64, 64)).astype(np.float32)
        fused = compiled.forward_raw(x)
        assert fused.shape[0] == n
        dense = BatchRunner(model, batch_size=n).run(x)
        np.testing.assert_allclose(fused, dense, atol=TOL, rtol=0)
    after_sweep = compiled.arena_stats()
    for n in range(1, 9):
        x = rng.standard_normal((n, 3, 64, 64)).astype(np.float32)
        compiled.forward_raw(x)
    assert compiled.arena_stats()["misses"] == after_sweep["misses"], (
        "a second sweep over the same batch sizes must be allocation-free")


def test_dead_thread_arenas_are_reclaimed(rng):
    """Per-thread scratch buffers die with their thread (weakly held)."""
    import gc

    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks, apply_masks=False)
    x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
    compiled.forward_raw(x)
    for _ in range(5):
        t = threading.Thread(target=compiled.forward_raw, args=(x,))
        t.start()
        t.join(30.0)
    gc.collect()
    stats = compiled.arena_stats()
    assert stats["arenas"] == 1, (
        f"expected only this thread's arena to survive, got {stats['arenas']}")


# ---------------------------------------------------------------- batch runner
def test_batch_runner_runs_a_short_tail_batch_as_is(rng):
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks, apply_masks=False)
    x = rng.standard_normal((7, 3, 64, 64)).astype(np.float32)
    runner = BatchRunner(compiled, batch_size=3)
    out = runner.run(x)                        # batches: 3, 3, 1
    assert out.shape[0] == 7
    assert runner.last_stats.batches == 3 and runner.last_stats.images == 7
    np.testing.assert_allclose(
        out, BatchRunner(compiled, batch_size=7).run(x), atol=0, rtol=0)
    # Each batch size warmed its arena set on the first run.
    warm = compiled.arena_stats()["misses"]
    runner.run(x)
    assert compiled.arena_stats()["misses"] == warm


class _Rows(Module):
    """A Python-bodied step that notes how many rows each forward hands it."""

    def __init__(self):
        super().__init__()
        self.rows = []

    def forward(self, x):
        self.rows.append(x.shape[0])
        return x * 1.0


class _Recorded(Module):
    def __init__(self, body):
        super().__init__()
        self.body, self.record = body, _Rows()

    def forward(self, x):
        return self.record(self.body(x))


@pytest.mark.parametrize("native", [True, False], ids=["native", "portable"])
def test_a_forward_runs_exactly_the_batch_it_is_given(native, rng):
    """Nothing pads a batch: the fused program's Python steps see exactly the
    rows it was given, and ``BatchRunner`` hands the model chunks of at most
    ``batch_size`` with a short last one — at both layers each image's output
    is its own forward's, within the oracle's tolerance."""
    if native and not sparse_kernel_available():
        pytest.skip("needs the native library")
    with nullcontext() if native else portable():
        model = _Recorded(TinyDetector(TinyDetectorConfig(
            num_classes=3, image_size=64, base_channels=8)))
        model.eval()
        compiled = compile_model(model)
        frames = rng.standard_normal((7, 3, 64, 64)).astype(np.float32)
        oracle = BatchRunner(model, batch_size=1).run(frames)
        compiled.forward_raw(frames[:1])
        assert compiled.fused_active, compiled.fuse_failure
        assert compiled._fused_program.per_image
        limit = TOL * max(1.0, np.abs(oracle).max())
        rows = model.record.rows
        for size in (0, 3, 5, 7):
            rows.clear()
            out = compiled.forward_raw(frames[:size])
            assert rows == [size] and out.shape[0] == size
            assert np.abs(out - oracle[:size]).max(initial=0.0) <= limit
        rows.clear()
        out = BatchRunner(compiled, batch_size=2).run(frames[:5])
        assert rows == [2, 2, 1]
        assert np.abs(out - oracle[:5]).max() <= limit


# ------------------------------------------------------------------- artifacts
def test_artifact_save_load_refusion_round_trip(tmp_path):
    """Save -> load re-fuses; outputs stay equivalent."""
    from repro.pipeline import DeployableArtifact, Pipeline, RunSpec

    spec = RunSpec.from_dict({
        "name": "fused-artifact",
        "model": {"name": "tiny", "kwargs": {"base_channels": 8, "image_size": 64}},
        "framework": {"name": "rtoss-2ep", "trace_size": 64},
        "engine": {"enabled": True},
        "evaluation": {"enabled": False},
    })
    artifact = Pipeline.from_spec(spec).run()
    assert artifact.compiled is not None

    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    original = artifact.forward_raw(x)
    assert artifact.compiled.fused_active

    path = artifact.save(str(tmp_path / "fused.npz"))
    restored = DeployableArtifact.load(path)
    assert restored.compiled is not None
    reloaded = restored.forward_raw(x)
    assert restored.compiled.fused_active, restored.compiled.fuse_failure
    np.testing.assert_allclose(reloaded, original, atol=TOL, rtol=0)


# -------------------------------------------------------------------- profiling
def test_a_profiled_block_counts_the_forward_that_traces(rng):
    """The profiler binds per forward, so a block opened before the first
    forward (which traces and fuses the program) still reports it."""
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks)
    x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
    assert not compiled.fused_active
    with compiled.profiled() as profiler:
        compiled.forward_raw(x)
        compiled.forward_raw(x)
    assert compiled.fused_active
    profile = profiler.report()
    assert profile["runs"] == 2
    assert any(row["kind"] == "conv" and row["calls"] == 2 for row in profile["ops"])


def test_a_profiled_block_spans_a_refresh(rng):
    """``refresh`` drops the fused program; the forward after it re-traces a
    new one, and the open block keeps counting on the new program."""
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks)
    x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
    compiled.forward_raw(x)
    with compiled.profiled() as profiler:
        compiled.forward_raw(x)
        compiled.refresh()
        compiled.forward_raw(x)
    assert profiler.report()["runs"] == 2


def test_nested_profiled_blocks_and_other_threads_keep_their_own_forwards(rng):
    """An inner block takes the forwards run inside it and hands the slot back
    to the outer one; a forward on another thread lands in neither."""
    model, report = _pruned_tiny()
    compiled = compile_model(model, report.masks)
    x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
    compiled.forward_raw(x)
    with compiled.profiled() as outer:
        compiled.forward_raw(x)
        with compiled.profiled() as inner:
            compiled.forward_raw(x)
            worker = threading.Thread(target=compiled.forward_raw, args=(x,))
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
        compiled.forward_raw(x)
    assert outer.report()["runs"] == 2
    assert inner.report()["runs"] == 1
    compiled.forward_raw(x)
    assert outer.report()["runs"] == 2
