"""A burst is one unit in the batcher -- and every per-image promise still holds.

The property test drives :class:`DynamicBatcher` with random interleavings of
bursts (1-40 images) and single submits, mixed priority classes and deadlines,
against a deterministic ``run_batch``.  Nothing here reads a wall clock: the
batcher's ``time`` is a fake the test advances, the worker is held inside its
first batch while the script is admitted, and then released to drain.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.serving.batcher as batcher_module
from repro.serving.batcher import (
    BatchPolicy,
    DynamicBatcher,
    InferenceFuture,
    collect,
    submit_bursts,
)
from repro.serving.errors import (
    AdmissionRejectedError,
    DeadlineExceededError,
    QueueFullError,
)
from repro.serving.metrics import ServingMetrics

SHAPE = (1, 2, 2)
CLASSES = ("high", "normal", "low")
#: What ``run_batch`` charges the fake clock per executed micro-batch.
BATCH_SECONDS = 1e-3


def image(tag: int) -> np.ndarray:
    """An image that is recognisable in a batch: every pixel is its tag."""
    return np.full(SHAPE, float(tag), dtype=np.float32)


def forward(batch: np.ndarray) -> np.ndarray:
    """The model: deterministic, per image, batch-size independent."""
    return batch.reshape(batch.shape[0], -1)[:, :1] * 2.0 + 1.0


class FakeTime:
    """Stands in for the ``time`` module inside ``repro.serving.batcher``."""

    def __init__(self):
        self.now = 1000.0

    def perf_counter(self):
        return self.now

    def time(self):
        return self.now


class Harness:
    """A batcher whose worker is parked in a plug batch until ``release``."""

    def __init__(self, monkeypatch, max_batch_size, queue_capacity, postprocess=None):
        self.clock = FakeTime()
        monkeypatch.setattr(batcher_module, "time", self.clock)
        self.gate = threading.Event()
        self.plugged = threading.Event()
        self.batches = []              # the tags of every executed micro-batch
        self.depths = []               # queue depth the moment each batch was taken
        self.started = []              # the fake clock when each batch began
        self.capacity = queue_capacity
        self.batcher = DynamicBatcher(
            self.run, BatchPolicy(max_batch_size=max_batch_size,
                                  queue_capacity=queue_capacity),
            postprocess=postprocess)
        self.park()

    def park(self):
        """Hold the (idle) worker inside a fresh plug batch."""
        self.gate.clear()
        self.plugged.clear()
        self.plug = self.batcher.submit(image(-1))
        assert self.plugged.wait(10.0)

    def run(self, batch):
        # Read before the script may admit more: what the take left behind.
        self.depths.append(self.batcher._depth)
        self.started.append(self.clock.now)
        self.plugged.set()
        assert self.gate.wait(10.0), "the test never released the worker"
        self.batches.append([int(tag) for tag in batch[:, 0, 0, 0]])
        self.clock.now += BATCH_SECONDS
        return forward(batch)

    def release_and_drain(self):
        self.gate.set()
        self.batcher.shutdown(30.0)
        assert not self.batcher._worker.is_alive()


class Settles:
    """Run callback counting how often each request of a future settled."""

    def __init__(self, future: InferenceFuture):
        self.counts = [0] * future.count
        self.errors = [None] * future.count
        self.outputs = [None] * future.count
        future.add_run_callback(self)

    def __call__(self, future, start, stop, outputs, error):
        for index in range(start, stop):
            self.counts[index] += 1
            self.errors[index] = error
            if error is None:
                self.outputs[index] = outputs[index - start]


operations = st.lists(
    st.tuples(
        st.integers(1, 40),                              # images (1: a single submit)
        st.booleans(),                                   # a single goes through submit()
        st.sampled_from(CLASSES),
        st.sampled_from([None, None, 2.5, 6.0, 80.0]),   # deadline_ms
        st.sampled_from([0.0, 0.0, 0.4e-3, 1.5e-3]),     # clock advance before the op
        st.booleans(),                                   # stack (ndarray) or list
    ),
    min_size=1, max_size=12)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=operations, max_batch_size=st.integers(1, 9),
       queue_capacity=st.sampled_from([6, 25, 400]))
def test_bursts_and_singles_keep_every_per_image_promise(
        monkeypatch, ops, max_batch_size, queue_capacity):
    with monkeypatch.context() as patch:
        harness = Harness(patch, max_batch_size, queue_capacity)
        admitted = []          # (future, settles, tags, class, deadline, admitted at)
        next_tag = 0
        try:
            for count, as_single, cls, deadline_ms, advance, as_stack in ops:
                harness.clock.now += advance
                tags = list(range(next_tag, next_tag + count))
                next_tag += count
                images = [image(tag) for tag in tags]
                try:
                    if count == 1 and as_single:
                        future = harness.batcher.submit(
                            images[0], priority=cls, deadline_ms=deadline_ms)
                    else:
                        future = harness.batcher.submit_group(
                            np.stack(images) if as_stack else images,
                            priority=cls, deadline_ms=deadline_ms)
                except (QueueFullError, DeadlineExceededError):
                    continue             # nothing of it was admitted: no future
                assert future.count == count
                admitted.append((future, Settles(future), tags, cls,
                                 None if deadline_ms is None
                                 else harness.clock.now + deadline_ms / 1e3))
                # The bound counts images, whatever unit they came in.
                assert harness.batcher.queue_depth <= queue_capacity
        finally:
            harness.release_and_drain()

    # Shutdown drained everything, and every request settled exactly once.
    assert harness.plug.done()
    executed = [tag for batch in harness.batches for tag in batch if tag >= 0]
    assert len(executed) == len(set(executed))
    assert all(len(batch) <= max_batch_size for batch in harness.batches)
    assert all(depth <= queue_capacity for depth in harness.depths)
    # Work-conserving: a batch short of max_batch_size left nothing queued
    # behind it -- no request was held back to wait for company.
    for batch, depth in zip(harness.batches, harness.depths):
        assert len(batch) == max_batch_size or depth == 0, (batch, depth)
    ran = set(executed)
    for future, settles, tags, cls, deadline in admitted:
        assert future.done()
        assert settles.counts == [1] * future.count
        for index, tag in enumerate(tags):
            error = settles.errors[index]
            if error is None:
                # Its own image's forward, whatever batch it rode in.
                assert tag in ran
                np.testing.assert_array_equal(settles.outputs[index], forward(image(tag)[None])[0])
            else:
                # Refused, evicted or expired -- typed, and never executed.
                assert isinstance(error, (QueueFullError, AdmissionRejectedError,
                                          DeadlineExceededError))
                assert tag not in ran
        # result() is the request-order join of what ran, or the first error.
        first_error = next((e for e in settles.errors if e is not None), None)
        if first_error is None:
            np.testing.assert_array_equal(
                future.result(0.0), forward(np.stack([image(tag) for tag in tags])))
        else:
            assert future.exception(0.0) is first_error

    # FIFO within a class: admission order is execution order.
    for cls in CLASSES:
        order = [tag for future, _, tags, c, _ in admitted if c == cls for tag in tags
                 if tag in ran]
        assert order == [tag for tag in executed if tag in set(order)]
    # Classes: nothing of a lower class ran while a higher class was queued --
    # everything was admitted before the drain began, so execution is sorted.
    rank = {tag: CLASSES.index(cls) for _, _, tags, cls, _ in admitted for tag in tags}
    ranks = [rank[tag] for tag in executed]
    assert ranks == sorted(ranks)
    # Deadlines: what ran, ran before its deadline (the clock only moves in
    # run_batch); what expired was dropped while earlier siblings kept their results.
    clock_at_batch = {}
    clock = harness.clock.now - BATCH_SECONDS * len(harness.batches)
    for batch in harness.batches:
        for tag in batch:
            clock_at_batch[tag] = clock
        clock += BATCH_SECONDS
    for future, settles, tags, cls, deadline in admitted:
        for index, tag in enumerate(tags):
            if tag in ran and deadline is not None:
                assert clock_at_batch[tag] <= deadline
            if isinstance(settles.errors[index], DeadlineExceededError):
                assert deadline is not None


def test_a_lone_request_on_an_idle_batcher_runs_at_its_admission_instant(monkeypatch):
    """Nothing holds a request that has the worker to itself: it executes at
    the fake instant it was admitted, with no clock advance in between."""
    harness = Harness(monkeypatch, max_batch_size=8, queue_capacity=64)
    try:
        harness.gate.set()
        harness.plug.result(10.0)            # the worker is idle again
        harness.clock.now += 0.5
        admitted_at = harness.clock.now
        harness.batcher.submit(image(7)).result(10.0)
    finally:
        harness.release_and_drain()
    assert harness.batches[-1] == [7]
    assert harness.started[-1] == admitted_at


def test_the_queue_is_priced_per_image_after_batch_one_forwards(monkeypatch):
    """Batch-1 history prices a 64-deep queue at ~64 x t1, not 64 / 8 x t1: a
    burst whose deadline is below that is refused at admission, not queued."""
    harness = Harness(monkeypatch, max_batch_size=8, queue_capacity=256)
    try:
        harness.gate.set()
        for tag in range(4):                 # idle worker: every batch is one image
            harness.batcher.submit(image(tag)).result(10.0)
        assert set(map(len, harness.batches)) == {1}
        harness.park()
        harness.batcher.submit_group(np.stack([image(tag) for tag in range(64)]))
        estimate = harness.batcher.expected_wait_seconds()
        assert 64 * BATCH_SECONDS / 2 <= estimate <= 64 * BATCH_SECONDS * 2
        with pytest.raises(DeadlineExceededError, match="expected queue wait"):
            harness.batcher.submit_group([image(100), image(101)], deadline_ms=32.0)
    finally:
        harness.release_and_drain()


def test_expired_members_are_dropped_while_their_siblings_ran(monkeypatch):
    """One burst, one deadline: the micro-batches that ran in time keep their
    results; the rest of the burst is dropped, never executed."""
    harness = Harness(monkeypatch, max_batch_size=4, queue_capacity=64)
    try:
        tags = list(range(20))
        # The plug batch and three of the burst's fit in 4.5 ms of batches.
        future = harness.batcher.submit_group(
            np.stack([image(tag) for tag in tags]), deadline_ms=4.5)
        settles = Settles(future)
    finally:
        harness.release_and_drain()
    assert harness.batches == [[-1], [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]
    assert settles.counts == [1] * 20
    assert all(error is None for error in settles.errors[:16])
    assert all(isinstance(error, DeadlineExceededError) for error in settles.errors[16:])
    with pytest.raises(DeadlineExceededError):
        future.result(0.0)


def test_a_burst_of_one_stack_is_cut_into_zero_copy_slices(monkeypatch):
    harness = Harness(monkeypatch, max_batch_size=4, queue_capacity=64)
    seen = []
    real_run = harness.run
    harness.batcher._run_batch = lambda batch: (seen.append(batch), real_run(batch))[1]
    try:
        stack = np.stack([image(tag) for tag in range(10)])
        future = harness.batcher.submit_group(stack)
    finally:
        harness.release_and_drain()
    assert [len(batch) for batch in seen] == [4, 4, 2]
    for batch in seen:
        assert np.shares_memory(batch, stack) and not batch.flags.owndata
    np.testing.assert_array_equal(future.result(0.0), forward(stack))
    assert len(future._runs) == 3        # one settle per micro-batch, not per image


def test_blocking_burst_is_admitted_in_chunks_as_space_appears(monkeypatch):
    """queue_capacity keeps its per-image meaning for a burst larger than it."""
    harness = Harness(monkeypatch, max_batch_size=2, queue_capacity=4)
    results = {}

    def producer():
        results["future"] = harness.batcher.submit_group(
            [image(tag) for tag in range(11)], block=True, timeout=30.0)

    thread = threading.Thread(target=producer)
    thread.start()
    try:
        # The first chunk fills the queue; the producer is now waiting for space.
        deadline = threading.Event()
        for _ in range(2000):
            if harness.batcher.queue_depth == 4:
                break
            deadline.wait(0.005)
        assert harness.batcher.queue_depth == 4 and thread.is_alive()
        harness.gate.set()
        thread.join(30.0)
        assert not thread.is_alive()
        np.testing.assert_array_equal(
            results["future"].result(30.0),
            forward(np.stack([image(tag) for tag in range(11)])))
    finally:
        harness.release_and_drain()
    assert [tag for batch in harness.batches for tag in batch] == [-1] + list(range(11))
    assert max(harness.depths) <= 4


def test_nonblocking_burst_admits_what_fits_and_refuses_the_rest(monkeypatch):
    harness = Harness(monkeypatch, max_batch_size=4, queue_capacity=6)
    try:
        future = harness.batcher.submit_group([image(tag) for tag in range(10)])
        settles = Settles(future)
        assert harness.batcher.queue_depth == 6
        with pytest.raises(QueueFullError):      # nothing fits: raised, not returned
            harness.batcher.submit_group([image(tag) for tag in range(10, 13)])
        # A higher class evicts the newest of the lower class, image by image.
        high = harness.batcher.submit_group([image(20), image(21)], priority="high")
    finally:
        harness.release_and_drain()
    assert all(isinstance(error, QueueFullError) for error in settles.errors[6:])
    assert all(isinstance(error, AdmissionRejectedError) for error in settles.errors[4:6])
    assert settles.errors[:4] == [None] * 4 and settles.counts == [1] * 10
    assert harness.batches == [[-1], [20, 21, 0, 1], [2, 3]]
    np.testing.assert_array_equal(high.result(0.0), forward(np.stack([image(20), image(21)])))


def test_collect_joins_bursts_once_in_request_order(monkeypatch):
    harness = Harness(monkeypatch, max_batch_size=3, queue_capacity=64)
    try:
        first = harness.batcher.submit_group([image(tag) for tag in range(5)])
        second = harness.batcher.submit_group(np.stack([image(tag) for tag in range(5, 9)]))
    finally:
        harness.release_and_drain()
    np.testing.assert_array_equal(
        collect([first, second], 0.0), forward(np.stack([image(tag) for tag in range(9)])))


def test_submit_bursts_keeps_at_most_the_window_unanswered():
    """Frame k + window goes out only once frame k is answered."""
    sent = []                           # (future, its images), in submit order

    def submit(burst):
        unanswered = [pair for pair in sent if not pair[0].done()]
        assert len(unanswered) < 3, "a fourth frame went out with three unanswered"
        future = InferenceFuture(len(burst))
        sent.append((future, burst))
        if len(unanswered) == 2:        # the window is full now: answer the oldest
            oldest, pixels = unanswered[0]
            oldest._settle(0, oldest.count, forward(np.stack(pixels)), None)
        return future

    with pytest.raises(TimeoutError):   # the last two frames are never answered
        submit_bursts(submit, [image(tag) for tag in range(10)], 2, 3, timeout=0.0)
    assert [len(burst) for _, burst in sent] == [2] * 5
    assert [future.done() for future, _ in sent] == [True] * 3 + [False] * 2


def test_postprocessed_burst_resolves_to_per_image_results(monkeypatch):
    harness = Harness(monkeypatch, max_batch_size=4, queue_capacity=64,
                      postprocess=lambda raw: ("seen", float(raw[0, 0])))
    try:
        burst = harness.batcher.submit_group([image(tag) for tag in range(6)])
        single = harness.batcher.submit(image(9))
    finally:
        harness.release_and_drain()
    assert burst.result(0.0) == [("seen", 2.0 * tag + 1.0) for tag in range(6)]
    assert single.result(0.0) == ("seen", 19.0)


def test_a_failed_burst_counts_every_image_as_failed():
    """A micro-batch that raises fails each of its requests in the ledger --
    not one of them, with a successful latency sample for the others."""
    def broken(batch):
        raise RuntimeError("engine fault")

    metrics = ServingMetrics()
    batcher = DynamicBatcher(
        broken, BatchPolicy(max_batch_size=8, queue_capacity=64),
        metrics=metrics)
    try:
        future = batcher.submit_group([image(tag) for tag in range(8)])
        settles = Settles(future)
        with pytest.raises(RuntimeError, match="engine fault"):
            future.result(30.0)
    finally:
        batcher.shutdown(30.0)
    assert settles.counts == [1] * 8
    report = metrics.report()
    assert report["requests"]["failed"] == 8
    assert report["requests"]["completed"] == 8
    assert report["latency"]["count"] == 0


def test_concurrent_settles_and_registrations_deliver_every_run_exactly_once():
    """More settling threads than cores, registrations racing them, a short
    switch interval: a lost update would drop a run or call a callback twice."""
    import sys

    count, workers = 4000, 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            future = InferenceFuture(count)
            seen = [[0] * count for _ in range(3)]
            done_calls = []

            def watcher(slot):
                def on_run(settled, start, stop, outputs, error):
                    for index in range(start, stop):
                        seen[slot][index] += 1
                return on_run

            def settle(worker):
                for start in range(worker * 4, count, workers * 4):
                    future._settle(start, start + 4, np.full((4, 1), start), None)

            def register():
                for slot in range(3):
                    future.add_run_callback(watcher(slot))
                    future.add_done_callback(done_calls.append)

            threads = [threading.Thread(target=settle, args=(worker,))
                       for worker in range(workers)] + [threading.Thread(target=register)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
            assert future.done() and future._remaining == 0
            assert all(counts == [1] * count for counts in seen)
            assert done_calls == [future] * 3
            out = future.result(0.0)
            assert out.shape == (count, 1)
            assert (out[::4, 0] == np.arange(0, count, 4)).all()
    finally:
        sys.setswitchinterval(interval)
