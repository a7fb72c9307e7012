"""Regression tests for the at-fork lock resets surfaced by reprolint.

``fork-lock-reset`` flagged modules whose module-level locks had no
``os.register_at_fork`` re-arm (a child forked while another thread held the
lock would deadlock on first use): ``repro.nn.functional``,
``repro.engine.native``, ``repro.engine.trace`` -- plus
``repro.experiments.comparison_suite`` fixed in the same pass.  These
tests simulate the forked-child state directly: acquire the lock (the
"parent thread mid-critical-section" a fork would freeze), run the module's
``_reinit_after_fork``, and assert the replacement lock is immediately
usable and caches are in the documented post-fork state.
"""

import threading

import pytest

import repro.engine.native as native
import repro.engine.trace as trace
import repro.experiments.comparison_suite as comparison_suite
import repro.nn.functional as functional

AT_FORK_MODULES = [
    (functional, "_IM2COL_CACHE_LOCK"),
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


def test_functional_reinit_clears_im2col_cache():
    functional._IM2COL_INDEX_CACHE[("sentinel",)] = object()
    functional._reinit_after_fork()
    assert ("sentinel",) not in functional._IM2COL_INDEX_CACHE


def test_native_reinit_keeps_completed_load():
    # The dlopen'd library lives in the child's address space: a completed
    # load stays valid and must not be dropped by the reset.
    before = (native._loaded, native._kernel)
    native._reinit_after_fork()
    assert (native._loaded, native._kernel) == before


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
