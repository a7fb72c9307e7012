"""Concurrency regression tests: the engine under multi-threaded inference.

The serving layer (:mod:`repro.serving`) drives one :class:`CompiledModel`
from several threads at once.  These tests pin down the contract that makes
that safe: thread-local autograd state, lock-guarded layout-cache fills and
bit-identical concurrent execution.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.rtoss import prune_with_rtoss
from repro.engine import (
    BatchRunner,
    compile_model,
    layout_cache_stats,
    reset_layout_cache_stats,
)
from repro.engine.fuse import FusedConv
from repro.models.tiny import TinyDetector, TinyDetectorConfig
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad


def _pruned_compiled(image_size: int = 64):
    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=image_size,
                                            base_channels=8))
    report = prune_with_rtoss(
        model, entries=2,
        example_input=Tensor(np.zeros((1, 3, image_size, image_size), dtype=np.float32)),
    )
    return compile_model(model, report.masks)


class TestThreadLocalAutograd:
    def test_no_grad_is_thread_local(self):
        """One thread's no_grad context must not disable (or re-enable) the
        tape of another thread mid-flight."""
        inside = threading.Event()
        release = threading.Event()
        seen = {}

        def worker():
            with no_grad():
                inside.set()
                assert release.wait(10.0)
                seen["worker_inside"] = is_grad_enabled()
            seen["worker_after"] = is_grad_enabled()

        thread = threading.Thread(target=worker)
        thread.start()
        assert inside.wait(10.0)
        # The worker sits inside no_grad; this thread must still record grads.
        assert is_grad_enabled()
        w = Tensor([2.0], requires_grad=True)
        assert (w * 3.0).requires_grad
        release.set()
        thread.join(10.0)
        assert seen == {"worker_inside": False, "worker_after": True}

    def test_fresh_thread_starts_grad_enabled(self):
        seen = {}
        thread = threading.Thread(target=lambda: seen.update(grad=is_grad_enabled()))
        thread.start()
        thread.join(10.0)
        assert seen["grad"] is True


class TestConcurrentCompiledInference:
    def test_concurrent_inference_matches_sequential(self, rng):
        """8 threads hammering one warmed CompiledModel reproduce the
        sequential outputs exactly."""
        compiled = compile_model(*_pruned_model_and_masks())
        inputs = [rng.standard_normal((2, 3, 64, 64)).astype(np.float32)
                  for _ in range(8)]
        expected = [compiled.forward_raw(x) for x in inputs]   # also warms

        results = [None] * len(inputs)
        errors = []
        barrier = threading.Barrier(len(inputs))

        def worker(index):
            try:
                barrier.wait()
                for _ in range(3):
                    results[index] = BatchRunner(compiled, batch_size=1).run(inputs[index])
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not errors
        for got, want in zip(results, expected):
            np.testing.assert_allclose(got, want, atol=0, rtol=0)

    def test_concurrent_layout_cache_fill_is_single_shot(self, rng):
        """Racing threads on a cold layout cache build each layout exactly once
        (per plan, per shape) — the per-plan lock closes the double-build race."""
        compiled = _pruned_compiled()
        try:
            x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
            reset_layout_cache_stats()
            barrier = threading.Barrier(6)
            errors = []

            def worker():
                try:
                    barrier.wait()
                    compiled.forward_raw(x)
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
            assert not errors
            stats = layout_cache_stats()
            # A conv builds a layout when it runs the native direct kernel
            # (offsets per nonzero) or gathers through np.take (an im2col plan
            # on the GEMM path that dropped more than a sliver of its columns;
            # otherwise it copies strided windows).  Each: exactly one miss.
            layout_ops = sum(
                1 for op in compiled._fused_program.steps
                if isinstance(op, FusedConv) and op.plan.kept_columns.size
                and (op.direct is not None
                     or (op.plan.mode == "sparse-im2col-gemm" and not op.dense_gather)))
            assert layout_ops > 0
            assert stats.misses == layout_ops, (
                f"expected one layout build per layout-using conv "
                f"({layout_ops}), got {stats.misses} misses")
            assert stats.hits > 0
        finally:
            reset_layout_cache_stats()

    def test_concurrent_mixed_shapes(self, rng):
        """Different input resolutions from different threads fill disjoint
        cache keys concurrently and stay correct."""
        compiled = _pruned_compiled(image_size=64)
        shapes = [(1, 3, 64, 64), (1, 3, 96, 96), (2, 3, 64, 64), (1, 3, 80, 80)]
        inputs = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        expected = [compiled.forward_raw(x) for x in inputs]
        results = [None] * len(inputs)
        errors = []
        barrier = threading.Barrier(len(inputs))

        def worker(index):
            try:
                barrier.wait()
                results[index] = compiled.forward_raw(inputs[index])
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not errors
        for got, want in zip(results, expected):
            np.testing.assert_allclose(got, want, atol=0, rtol=0)


def _pruned_model_and_masks():
    model = TinyDetector(TinyDetectorConfig(num_classes=3, image_size=64,
                                            base_channels=8))
    report = prune_with_rtoss(
        model, entries=2,
        example_input=Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)),
    )
    return model, report.masks
