"""Lifetime of the per-(arena, input shapes) bindings the fused executor keeps.

A binding (:meth:`repro.engine.arena.WorkspaceArena.binding`) is what one op
resolved once for one tuple of input shapes: its buffers and, natively, a
:class:`repro.engine.native.BoundCall` holding raw addresses — bound for one
image where rows are independent, so one per step serves every batch size.
The arena also keeps how a forward of one input shape is cut into segments
(:class:`repro.engine.fuse.Segment`: tables of raw addresses of those args
blocks).  These tests pin who owns all that and when it dies: one per thread
arena and shape, shared by interleaved batch sizes, immune to a caller's
input moving in memory, left alone by a ``refresh()`` that happens under a
running forward, dropped by ``arena.clear()`` and by the exit of its thread.
They run in both kernel modes; the assertions about ``BoundCall`` and
``Segment`` objects need the native library.
"""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.core.rtoss import prune_with_rtoss
from repro.engine import BatchRunner, compile_model, max_abs_output_diff, sparse_kernel_available
from repro.engine.fuse import Segment, _BoundOp, _FusedOp
from repro.engine.native import BoundCall
from repro.engine.trace import OpNode
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.layers.activation import Sigmoid
from repro.nn.module import Module
from repro.nn.tensor import Tensor

TOL = 1e-5


def _pruned_tiny(seed: int = 0):
    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))
    report = prune_with_rtoss(
        model, entries=2, example_input=Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))
    return model, compile_model(model, report.masks)


def _arena(compiled):
    return compiled._fused_program._arena()


def _bound_calls(arena):
    """Every native step bound in ``arena``."""
    return [bound for bound in arena._bindings.values() if isinstance(bound, BoundCall)]


def _segments(arena):
    """Every native segment of every cut ``arena`` keeps."""
    return [segment for (key, _), bound in arena._bindings.items() if key == "segments"
            for segment in bound[0] if isinstance(segment, Segment)]


def _watch(arena):
    """Weak references that die with the arena's bindings, their output
    buffers and its segment tables."""
    portable = [bound for bound in arena._bindings.values() if hasattr(bound, "__closure__")]
    return [weakref.ref(item) for item in
            portable + [call.out for call in _bound_calls(arena)] + _segments(arena)]


def test_two_threads_get_separate_bindings_and_identical_outputs(rng):
    _, compiled = _pruned_tiny()
    x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    expected = compiled.forward_raw(x)
    seen = {}

    def worker(name):
        outputs = [compiled.forward_raw(x) for _ in range(5)]
        arena = _arena(compiled)
        seen[name] = (outputs, arena, dict(arena._bindings))

    threads = [threading.Thread(target=worker, args=(name,)) for name in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    assert not any(thread.is_alive() for thread in threads) and len(seen) == 2
    (out_a, arena_a, bound_a), (out_b, arena_b, bound_b) = seen["a"], seen["b"]
    assert arena_a is not arena_b is not _arena(compiled)
    assert bound_a.keys() == bound_b.keys() == _arena(compiled)._bindings.keys()
    assert all(bound_a[key] is not bound_b[key] for key in bound_a)
    outs_a = {id(call.out) for call in _bound_calls(arena_a)}
    assert outs_a.isdisjoint(id(call.out) for call in _bound_calls(arena_b))
    for output in out_a + out_b:
        assert max_abs_output_diff(output, expected) == 0.0


class _Squashed(Module):
    """Pruned tiny with a stand-alone sigmoid behind it: a Python-bodied last
    step, so a cut exports whole-batch buffers sized by its batch."""

    def __init__(self, body):
        super().__init__()
        self.body, self.squash = body, Sigmoid()

    def forward(self, x):
        return self.squash(self.body(x))


def test_interleaved_batch_sizes_reuse_one_binding_per_native_step(rng):
    """One binding per native step, shared by every batch size: a step in a run
    of native steps is bound for one image.  Per batch size there is only the
    cut itself and what a Python-bodied step resolves whole-batch."""
    model = _Squashed(_pruned_tiny()[0])
    compiled = compile_model(model)
    frames = rng.standard_normal((8, 3, 64, 64)).astype(np.float32)
    alone = [compiled.forward_raw(frames[i:i + 1]) for i in range(8)]
    sizes = (1, 2, 4, 8, 3, 5, 7)
    for size in sizes:
        compiled.forward_raw(frames[:size])
    arena = _arena(compiled)
    warm = dict(arena._bindings)
    steps = compiled._fused_program.steps
    native = [op for op in steps if op.natively()]
    python = [op for op in steps if isinstance(op, _BoundOp) and not op.natively()]
    assert python
    assert len(_bound_calls(arena)) == len(native), "one binding per native step, not per size"
    assert len(warm) == len(native) + len(sizes) * (len(python) + 1), (
        "per batch size: Python steps + the cut")
    if native:
        assert all(segment.per_image for segment in _segments(arena))
        assert {call.out.shape[0] for call in _bound_calls(arena)} == {1}
    misses = compiled.arena_stats()["misses"]
    for size in (8, 1, 4, 3, 2, 5, 1, 8, 7):
        batched = compiled.forward_raw(frames[:size])
        for i in range(size):
            assert max_abs_output_diff(batched[i:i + 1], alone[i]) == 0.0
    assert arena._bindings.keys() == warm.keys()
    assert all(arena._bindings[key] is warm[key] for key in warm)
    assert compiled.arena_stats()["misses"] == misses


@pytest.mark.skipif(not sparse_kernel_available(), reason="needs the native library")
def test_one_native_segment_allocates_nothing_per_batch_size(rng):
    """Pruned tiny is one run of native steps: every buffer is one image's, so
    batches 1...8 allocate what batch 1 did, and the cut each size makes runs
    the same bound steps."""
    _, compiled = _pruned_tiny()
    frames = rng.standard_normal((8, 3, 64, 64)).astype(np.float32)
    alone = [compiled.forward_raw(frames[i:i + 1]) for i in range(8)]
    arena = _arena(compiled)
    after_one = arena.stats()
    bound = _bound_calls(arena)
    (segment,) = _segments(arena)
    assert len(segment.ops) == len(compiled._fused_program)
    assert segment.results and not segment.exports, "outputs leave by the copy table only"
    for size in (2, 3, 4, 5, 6, 7, 8, 0):
        batched = compiled.forward_raw(frames[:size])
        assert batched.shape[0] == size
        for i in range(size):
            assert max_abs_output_diff(batched[i:i + 1], alone[i]) == 0.0
    stats = arena.stats()
    assert (stats["buffers"], stats["bytes_allocated"], stats["misses"]) == (
        after_one["buffers"], after_one["bytes_allocated"], after_one["misses"])
    segments = _segments(arena)
    assert len(segments) == 9, "one cut, of one segment, per batch size"
    assert _bound_calls(arena) == bound
    for each in segments:
        assert [id(call) for _, call, _ in each._alive[2]] == [
            id(call) for _, call, _ in segment._alive[2]], "every cut runs the same bound steps"


def test_caller_input_that_moves_between_calls(rng):
    """The first step reads the caller's array: same shape, a new address (and
    for good measure a new layout) every call."""
    model, compiled = _pruned_tiny()
    x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
    expected = compiled.forward_raw(x)
    keep_alive = []
    for round_ in range(6):
        moved = x.copy()
        keep_alive.append(moved)                     # no address is ever reused
        assert moved.ctypes.data != x.ctypes.data
        assert max_abs_output_diff(compiled.forward_raw(moved), expected) == 0.0
    strided = np.zeros((1, 3, 64, 128), dtype=np.float32)[..., ::2]
    strided[...] = x
    assert max_abs_output_diff(compiled.forward_raw(strided), expected) == 0.0
    other = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
    oracle = BatchRunner(model, batch_size=1).run(other)
    assert np.abs(compiled.forward_raw(other) - oracle).max() <= TOL * max(1, np.abs(oracle).max())


class _Gate(_FusedOp):
    """A Python-bodied step that reads and writes nothing: once armed, it parks
    its forward between two native segments until the test lets it go."""

    __slots__ = ("armed", "reached", "release")

    def __init__(self):
        super().__init__(OpNode(index=10_000, kind="gate", name="gate", inputs=(),
                                outputs=(0,), params={}))
        self.armed, self.reached, self.release = (threading.Event() for _ in range(3))

    def execute(self, values, arena):
        if self.armed.is_set():
            self.reached.set()
            assert self.release.wait(60.0)


@pytest.mark.parametrize("change", ["weights", "mask"])
def test_refresh_under_a_running_forward(change, rng):
    """The old program finishes on its own arrays; the next forward sees the new model.

    The parked thread has run this shape before: its bindings own the layouts
    and CSR arrays ``refresh()`` is about to drop from the plans, and its
    segment tables hold their addresses.  A forward can only be parked where
    Python runs — here a gate step in the middle of the program, so the slots
    that cross it are whole-batch exports of the segment before.  (Binding a
    *new* shape while ``refresh()`` runs stays excluded by refresh's
    single-writer contract — that reads the plan being re-packed.)
    """
    model, compiled = _pruned_tiny()
    x = rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
    before = compiled.forward_raw(x)
    old_program = compiled._fused_program
    gate, warmed, go, result = _Gate(), threading.Event(), threading.Event(), {}
    # Cuts are made per arena: the worker's, made on its first forward, has the gate.
    old_program.steps.insert(len(old_program.steps) // 2, gate)

    def worker():
        old_program.run(x)
        warmed.set()
        assert go.wait(60.0)
        result["out"] = old_program.run(x)

    # The thread's first forward passes the open gate, its second parks half-way.
    thread = threading.Thread(target=worker)
    thread.start()
    assert warmed.wait(60.0)
    gate.armed.set()
    go.set()
    assert gate.reached.wait(60.0)

    convs = [m for _, m in model.named_modules() if hasattr(m, "pruning_masks")
             and getattr(m, "kernel_size", None) == (3, 3)]
    if change == "weights":
        for conv in convs:
            conv.weight.data *= 1.5
    else:
        for conv in convs:
            keep = np.roll(conv.pruning_masks["weight"], 1, axis=-1)
            conv.pruning_masks["weight"] = keep
            conv.weight.data[...] = (rng.standard_normal(keep.shape).astype(np.float32) * keep)
    compiled.refresh()
    gc.collect()                                     # whatever refresh dropped is gone
    after = compiled.forward_raw(x)                  # a new program, new bindings
    assert compiled._fused_program is not old_program

    gate.release.set()
    thread.join(60.0)
    assert not thread.is_alive()
    assert max_abs_output_diff(result["out"], before) == 0.0
    oracle = BatchRunner(model, batch_size=2).run(x)
    assert np.abs(after - oracle).max() <= TOL * max(1.0, np.abs(oracle).max())
    assert max_abs_output_diff(after, before) > 1e-3


def test_arena_clear_drops_bindings_and_the_next_forward_rebinds(rng):
    _, compiled = _pruned_tiny()
    x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
    expected = compiled.forward_raw(x)
    arena = _arena(compiled)
    watched = _watch(arena)
    assert watched
    arena.clear()
    gc.collect()
    assert not arena._bindings and len(arena) == 0
    assert all(ref() is None for ref in watched), "a cleared arena must not pin its bindings"
    assert max_abs_output_diff(compiled.forward_raw(x), expected) == 0.0
    assert arena._bindings and arena.stats()["misses"] == len(arena)


def test_a_thread_that_exits_frees_its_bindings(rng):
    _, compiled = _pruned_tiny()
    x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
    compiled.forward_raw(x)
    watched = []

    def worker():
        compiled.forward_raw(x)
        watched.extend(_watch(_arena(compiled)))

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(60.0)
    assert not thread.is_alive() and watched
    gc.collect()
    assert all(ref() is None for ref in watched)
    assert compiled.arena_stats()["arenas"] == 1


@pytest.mark.skipif(not sparse_kernel_available(), reason="needs the native library")
def test_a_binding_keeps_every_array_it_points_into_alive(rng):
    """``refresh_weights`` drops the plan's direct layouts; a binding made
    before must still own the offsets, masks and CSR arrays it reads."""
    model, compiled = _pruned_tiny()
    x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
    before = compiled.forward_raw(x)
    program = compiled._fused_program
    for name, plan in compiled.plans.items():
        plan.refresh_weights(dict(model.named_modules())[name])
    assert not any(key[0] == "direct" for plan in compiled.plans.values() for key in plan._layouts)
    gc.collect()
    junk = [np.full(4096, np.nan, dtype=np.float32) for _ in range(256)]   # reuse freed memory
    assert max_abs_output_diff(program.run(x), before) == 0.0
    del junk
