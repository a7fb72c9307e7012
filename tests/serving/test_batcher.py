"""DynamicBatcher: coalescing, backpressure, flush-on-shutdown, error paths."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serving.batcher import (
    BatchPolicy,
    DynamicBatcher,
    QueueFullError,
    ServiceClosedError,
)
from repro.serving.metrics import ServingMetrics

IMAGE = np.ones((3, 8, 8), dtype=np.float32)


class RecordingRunner:
    """A run_batch stub recording every batch it executed."""

    def __init__(self, delay: float = 0.0, gate: threading.Event = None):
        self.batch_sizes = []
        self.delay = delay
        self.gate = gate
        self.started = threading.Event()   # set when the worker enters run_batch
        self.lock = threading.Lock()

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        self.started.set()
        if self.gate is not None:
            assert self.gate.wait(10.0), "test gate never opened"
        if self.delay:
            time.sleep(self.delay)
        with self.lock:
            self.batch_sizes.append(batch.shape[0])
        # Identify each image by its row sum so slicing is checkable.
        return batch.sum(axis=(1, 2, 3), keepdims=True).reshape(-1, 1)


class TestPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError, match="queue_capacity"):
            BatchPolicy(queue_capacity=0)


class TestCoalescing:
    def test_requests_coalesce_into_one_batch(self):
        runner = RecordingRunner(gate=threading.Event())
        batcher = DynamicBatcher(runner, BatchPolicy(max_batch_size=4))
        try:
            # The worker stalls on the gate with the first request, so the
            # remaining ones pile up behind it and coalesce into the next batch.
            futures = [batcher.submit(IMAGE * (i + 1)) for i in range(4)]
            runner.gate.set()
            results = [f.result(10.0) for f in futures]
            assert max(runner.batch_sizes) >= 2   # coalescing happened
            assert sum(runner.batch_sizes) == 4   # every request executed once
            # Each future got its own slice, in submission order.
            expected = [float((IMAGE * (i + 1)).sum()) for i in range(4)]
            got = [float(r[0, 0]) for r in results]
            np.testing.assert_allclose(got, expected, rtol=1e-6)
        finally:
            batcher.shutdown(10.0)

    def test_batch_never_exceeds_max_batch_size(self):
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)
        batcher = DynamicBatcher(runner, BatchPolicy(max_batch_size=3))
        try:
            futures = [batcher.submit(IMAGE) for _ in range(8)]
            gate.set()
            for f in futures:
                f.result(10.0)
            assert max(runner.batch_sizes) <= 3
            assert sum(runner.batch_sizes) == 8
        finally:
            batcher.shutdown(10.0)


class TestAdmission:
    def test_queue_full_rejects_nonblocking_submit(self):
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)
        metrics = ServingMetrics()
        batcher = DynamicBatcher(
            runner, BatchPolicy(max_batch_size=1, queue_capacity=2),
            metrics=metrics)
        try:
            # First submit is popped by the (gated) worker; then fill the queue.
            futures = [batcher.submit(IMAGE)]
            deadline = time.time() + 5.0
            with pytest.raises(QueueFullError):
                while time.time() < deadline:
                    futures.append(batcher.submit(IMAGE))
            assert metrics.rejected >= 1
            gate.set()
            for f in futures:
                f.result(10.0)
        finally:
            gate.set()
            batcher.shutdown(10.0)

    def test_blocking_submit_waits_for_space(self):
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)
        batcher = DynamicBatcher(
            runner, BatchPolicy(max_batch_size=2, queue_capacity=2))
        try:
            futures = [batcher.submit(IMAGE)]
            assert runner.started.wait(10.0)          # worker now stalled in run_batch
            futures += [batcher.submit(IMAGE) for _ in range(2)]   # queue at capacity

            def late_producer():
                futures.append(batcher.submit(IMAGE, block=True, timeout=10.0))

            producer = threading.Thread(target=late_producer)
            producer.start()
            time.sleep(0.05)
            assert producer.is_alive(), "blocking submit must wait while the queue is full"
            gate.set()                       # free the worker -> space appears
            producer.join(10.0)
            assert not producer.is_alive()
            for f in futures:
                f.result(10.0)
        finally:
            gate.set()
            batcher.shutdown(10.0)

    def test_blocking_submit_timeout_is_a_total_deadline(self):
        """The timeout bounds the whole wait, not each condition wakeup."""
        gate = threading.Event()
        runner = RecordingRunner(gate=gate)
        batcher = DynamicBatcher(
            runner, BatchPolicy(max_batch_size=1, queue_capacity=1))
        try:
            first = batcher.submit(IMAGE)
            assert runner.started.wait(10.0)        # worker stalled in run_batch
            second = batcher.submit(IMAGE)          # queue now at capacity
            started = time.perf_counter()
            with pytest.raises(TimeoutError):
                batcher.submit(IMAGE, block=True, timeout=0.2)
            assert time.perf_counter() - started < 5.0
            gate.set()
            first.result(10.0)
            second.result(10.0)
        finally:
            gate.set()
            batcher.shutdown(10.0)

    def test_image_shape_validation(self):
        runner = RecordingRunner()
        batcher = DynamicBatcher(runner, BatchPolicy())
        try:
            batcher.submit(IMAGE).result(10.0)
            with pytest.raises(ValueError, match="does not match"):
                batcher.submit(np.ones((3, 16, 16), dtype=np.float32))
            with pytest.raises(ValueError, match="one image"):
                batcher.submit(np.ones((2, 3, 8, 8), dtype=np.float32))
            with pytest.raises(ValueError, match="C, H, W"):
                batcher.submit(np.ones((8, 8), dtype=np.float32))
            # A leading batch axis of exactly 1 is squeezed, not rejected.
            batcher.submit(IMAGE[None]).result(10.0)
        finally:
            batcher.shutdown(10.0)


class TestShutdown:
    def test_flush_on_shutdown_drops_nothing(self):
        runner = RecordingRunner(delay=0.005)
        batcher = DynamicBatcher(runner, BatchPolicy(max_batch_size=4))
        futures = [batcher.submit(IMAGE * (i + 1)) for i in range(20)]
        batcher.shutdown(30.0)
        assert all(f.done() for f in futures), "shutdown must resolve every future"
        assert sum(runner.batch_sizes) == 20, "no admitted request may be dropped"
        expected = [float((IMAGE * (i + 1)).sum()) for i in range(20)]
        got = [float(f.result(0.0)[0, 0]) for f in futures]
        np.testing.assert_allclose(got, expected, rtol=1e-6)

    def test_submit_after_shutdown_raises(self):
        batcher = DynamicBatcher(RecordingRunner(), BatchPolicy())
        batcher.shutdown(10.0)
        with pytest.raises(ServiceClosedError):
            batcher.submit(IMAGE)

    def test_shutdown_idempotent(self):
        batcher = DynamicBatcher(RecordingRunner(), BatchPolicy())
        batcher.shutdown(10.0)
        batcher.shutdown(10.0)
        assert batcher.closed


class TestErrors:
    def test_failing_batch_fails_every_future_in_it(self):
        def explode(batch):
            raise RuntimeError("model exploded")

        batcher = DynamicBatcher(explode, BatchPolicy(max_batch_size=4))
        try:
            futures = [batcher.submit(IMAGE) for _ in range(3)]
            for f in futures:
                with pytest.raises(RuntimeError, match="model exploded"):
                    f.result(10.0)
                assert isinstance(f.exception(0.0), RuntimeError)
        finally:
            batcher.shutdown(10.0)

    def test_worker_survives_a_failing_batch(self):
        calls = {"n": 0}

        def flaky(batch):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first batch fails")
            return batch.sum(axis=(1, 2, 3), keepdims=True).reshape(-1, 1)

        batcher = DynamicBatcher(flaky, BatchPolicy(max_batch_size=1))
        try:
            with pytest.raises(RuntimeError):
                batcher.submit(IMAGE).result(10.0)
            assert batcher.submit(IMAGE).result(10.0) is not None
        finally:
            batcher.shutdown(10.0)

    def test_future_timeout(self):
        gate = threading.Event()
        batcher = DynamicBatcher(RecordingRunner(gate=gate), BatchPolicy())
        try:
            future = batcher.submit(IMAGE)
            with pytest.raises(TimeoutError):
                future.result(0.01)
            gate.set()
            future.result(10.0)
        finally:
            gate.set()
            batcher.shutdown(10.0)


class TestStatsReuse:
    def test_batcher_accounts_with_runner_stats(self):
        """The batcher reuses the engine's RunnerStats for its accounting."""
        from repro.engine.runner import RunnerStats

        runner = RecordingRunner()
        batcher = DynamicBatcher(runner, BatchPolicy(max_batch_size=2))
        try:
            for _ in range(4):
                batcher.submit(IMAGE).result(10.0)
            assert isinstance(batcher.stats, RunnerStats)
            assert batcher.stats.images == 4
            assert batcher.stats.batches >= 2
            assert batcher.stats.images_per_second > 0
        finally:
            batcher.shutdown(10.0)
