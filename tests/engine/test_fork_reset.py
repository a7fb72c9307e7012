"""Regression tests for the at-fork lock resets surfaced by reprolint.

``fork-lock-reset`` flagged modules whose module-level locks had no
``os.register_at_fork`` re-arm (a child forked while another thread held the
lock would deadlock on first use): ``repro.engine.native``,
``repro.engine.trace`` -- plus ``repro.experiments.comparison_suite`` fixed in
the same pass.  These tests simulate the forked-child state directly: acquire
the lock (the "parent thread mid-critical-section" a fork would freeze), run
the module's ``_reinit_after_fork``, and assert the replacement lock is
immediately usable and caches are in the documented post-fork state.
``repro.nn.functional`` keeps no state between calls, so it has nothing to
re-arm: a forked child just convolves like its parent.
"""

import os
import threading

import pytest

import repro.engine.native as native
import repro.engine.trace as trace
import repro.experiments.comparison_suite as comparison_suite
import repro.nn.functional as functional

AT_FORK_MODULES = [
    (native, "_load_lock"),
    (trace, "_TRACE_LOCK"),
    (comparison_suite, "_CACHE_LOCK"),
]


@pytest.mark.parametrize(
    "module, lock_name", AT_FORK_MODULES, ids=[m.__name__ for m, _ in AT_FORK_MODULES]
)
def test_reinit_replaces_a_held_lock(module, lock_name):
    old = getattr(module, lock_name)
    assert old.acquire(blocking=False), "test requires the lock to be free on entry"
    try:
        module._reinit_after_fork()
        new = getattr(module, lock_name)
        assert new is not old, "child must not inherit the (held) parent lock"
        assert new.acquire(blocking=False), "replacement lock must be immediately usable"
        new.release()
    finally:
        old.release()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_convolves_like_its_parent():
    """No gather-index cache and no lock to inherit: a forked child's conv2d
    forward and backward give the parent's bits."""
    import numpy as np

    from repro.nn.tensor import Tensor

    rng = np.random.default_rng(0)
    x, w = (rng.standard_normal(shape).astype(np.float32) for shape in [(2, 3, 9, 9), (4, 3, 3, 3)])
    upstream = rng.standard_normal((2, 4, 5, 5)).astype(np.float32)

    def run():
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = functional.conv2d(xt, wt, stride=2, padding=1)
        out.backward(upstream)
        return out.data, xt.grad, wt.grad

    expected = run()
    pid = os.fork()
    if pid == 0:                                         # child: report through the exit code
        code = 1
        try:
            code = 0 if all(np.array_equal(a, b) for a, b in zip(run(), expected)) else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_native_reinit_keeps_completed_load():
    # The dlopen'd library lives in the child's address space: a completed
    # load stays valid and must not be dropped by the reset.
    before = (native._loaded, native._sparse_kernel)
    native._reinit_after_fork()
    assert (native._loaded, native._sparse_kernel) == before


def test_comparison_suite_reinit_keeps_cached_results():
    key = ("fork-reset-sentinel", 0)
    with comparison_suite._CACHE_LOCK:
        comparison_suite._CACHE[key] = ["kept"]
    try:
        comparison_suite._reinit_after_fork()
        with comparison_suite._CACHE_LOCK:
            assert comparison_suite._CACHE[key] == ["kept"]
    finally:
        comparison_suite.clear_cache()


@pytest.mark.parametrize(
    "module, lock_name", AT_FORK_MODULES, ids=[m.__name__ for m, _ in AT_FORK_MODULES]
)
def test_replacement_is_a_real_lock(module, lock_name):
    module._reinit_after_fork()
    lock = getattr(module, lock_name)
    assert isinstance(lock, type(threading.Lock()))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_binds_afresh_and_inherited_bindings_stay_valid():
    """A binding holds addresses of this process's arena buffers, and a
    segment table the addresses of the bindings' args blocks.  ``fork`` copies
    the address space, so the forking thread's arena, bindings and segments
    stay valid in the child (copy-on-write, same addresses) — also for a batch
    size the parent never ran, whose new cut runs the inherited bindings; every other
    thread of the child starts with an empty arena and binds and cuts afresh.
    All must give the parent's answer, and the child must not have written
    into the parent's buffers."""
    import threading

    import numpy as np

    from repro.core.rtoss import prune_with_rtoss
    from repro.engine import compile_model, max_abs_output_diff
    from repro.engine.fuse import Segment
    from repro.models.tiny import TinyDetector, TinyDetectorConfig

    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64, base_channels=8))
    report = prune_with_rtoss(model, entries=2, example_input=(1, 3, 64, 64))
    compiled = compile_model(model, report.masks)
    rng = np.random.default_rng(0)
    x, other = (rng.standard_normal((2, 3, 64, 64)).astype(np.float32) for _ in range(2))
    expected = compiled.forward_raw(x)
    arena = compiled._fused_program._arena()
    bound_before = len(arena._bindings)

    def segments(of):
        return [segment for (key, _), bound in of._bindings.items() if key == "segments"
                for segment in bound[0] if isinstance(segment, Segment)]

    inherited_segments = segments(arena)

    pid = os.fork()
    if pid == 0:                                         # child: report through the exit code
        code = 1
        try:
            inherited = compiled.forward_raw(x)
            bound_in_child = len(arena._bindings)
            single = compiled.forward_raw(x[1:])         # a batch size new to the child
            fresh = {}
            thread = threading.Thread(
                target=lambda: fresh.update(out=compiled.forward_raw(x),
                                            arena=compiled._fused_program._arena()))
            thread.start()
            thread.join(60.0)
            compiled.forward_raw(other)                  # scribble over the child's buffers
            ok = (max_abs_output_diff(inherited, expected) == 0.0
                  and max_abs_output_diff(single, expected[1:]) == 0.0
                  and max_abs_output_diff(fresh["out"], expected) == 0.0
                  # the inherited cut is kept; the new batch size made its own
                  and segments(arena)[:len(inherited_segments)] == inherited_segments
                  and len(segments(arena)) == 2 * len(inherited_segments)
                  and len(segments(fresh["arena"])) == len(inherited_segments)
                  and not set(map(id, segments(fresh["arena"]))) & set(map(id, inherited_segments))
                  and fresh["arena"] is not arena
                  and len(fresh["arena"]._bindings) == bound_before
                  and bound_in_child == bound_before)
            code = 0 if ok else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert max_abs_output_diff(compiled.forward_raw(x), expected) == 0.0
