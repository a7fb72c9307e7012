"""repro.serving.cluster: channel framing, routing policies, the live cluster."""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.engine import BatchRunner, max_abs_output_diff
from repro.pipeline.spec import ClusterSpec
from repro.serving import BatchPolicy
from repro.serving.cluster import (
    ArrayChannel,
    ClusterMetrics,
    LeastOutstandingPolicy,
    RoundRobinPolicy,
    Router,
    WorkerUnavailableError,
    available_routing_policies,
    build_routing_policy,
    flatten_arrays,
    unflatten_arrays,
)
from repro.serving.cluster.channel import ChannelClosedError


# --------------------------------------------------------------------- channel
class TestArrayChannel:
    def test_flatten_roundtrip_preserves_structure_and_dtypes(self):
        structure = {
            "heads": (np.arange(6, dtype=np.float32).reshape(2, 3),
                      np.ones((1, 4), dtype=np.float64)),
            "aux": [np.array([1, 2, 3], dtype=np.int64)],
        }
        treedef, arrays = flatten_arrays(structure)
        assert len(arrays) == 3
        rebuilt = unflatten_arrays(treedef, arrays)
        assert isinstance(rebuilt["heads"], tuple) and isinstance(rebuilt["aux"], list)
        np.testing.assert_array_equal(rebuilt["heads"][0], structure["heads"][0])
        assert rebuilt["heads"][1].dtype == np.float64
        assert rebuilt["aux"][0].dtype == np.int64

    def test_flatten_rejects_non_array_leaves(self):
        with pytest.raises(TypeError, match="ArrayChannel"):
            flatten_arrays({"bad": object()})
        with pytest.raises(TypeError, match="string-keyed"):
            flatten_arrays({1: np.zeros(2)})

    def test_send_recv_over_real_pipe(self):
        parent, child = multiprocessing.Pipe(duplex=True)
        sender, receiver = ArrayChannel(parent), ArrayChannel(child)
        payload = np.random.default_rng(0).standard_normal((2, 3, 4)).astype(np.float32)
        sender.send("infer", {"id": 7}, [payload])
        message = receiver.recv()
        assert message.kind == "infer"
        assert message.meta["id"] == 7
        np.testing.assert_array_equal(message.arrays[0], payload)

    def test_closed_peer_raises_channel_closed(self):
        parent, child = multiprocessing.Pipe(duplex=True)
        sender, receiver = ArrayChannel(parent), ArrayChannel(child)
        sender.close()
        with pytest.raises(ChannelClosedError):
            receiver.recv()
        with pytest.raises(ChannelClosedError):
            sender.send("ping")


# ------------------------------------------------------------------- policies
class FakeWorker:
    def __init__(self, accepting=True, outstanding=0):
        self.accepting = accepting
        self.outstanding_count = outstanding


class TestRoutingPolicies:
    def test_registry_names(self):
        assert available_routing_policies() == ("round-robin", "least-outstanding")
        for name in available_routing_policies():
            assert build_routing_policy(name).name == name
        with pytest.raises(KeyError, match="unknown routing policy"):
            build_routing_policy("nope")

    def test_round_robin_cycles_and_skips_dead(self):
        policy = RoundRobinPolicy()
        workers = [FakeWorker(), FakeWorker(accepting=False), FakeWorker()]
        picks = [policy.select(workers) for _ in range(4)]
        assert picks == [workers[0], workers[2], workers[0], workers[2]]

    def test_round_robin_all_dead_raises(self):
        with pytest.raises(WorkerUnavailableError):
            RoundRobinPolicy().select([FakeWorker(accepting=False)])

    def test_least_outstanding_picks_idle(self):
        policy = LeastOutstandingPolicy()
        workers = [FakeWorker(outstanding=5), FakeWorker(outstanding=1),
                   FakeWorker(outstanding=3)]
        assert policy.select(workers) is workers[1]


# -------------------------------------------------------------------- metrics
class TestClusterMetrics:
    def test_report_aggregates_workers(self):
        metrics = ClusterMetrics()
        for _ in range(3):
            metrics.record_submit("w0")
            metrics.record_completion("w0", 0.010)
        metrics.record_submit("w1")
        metrics.record_completion("w1", 0.030)
        metrics.record_completion("w1", 0.5, failed=True)
        metrics.record_restart("w1")
        metrics.record_redispatch("w1", 2)

        report = metrics.report()
        assert set(report["workers"]) == {"w0", "w1"}
        assert report["workers"]["w0"]["completed"] == 3
        assert report["workers"]["w1"]["failed"] == 1
        cluster = report["cluster"]
        assert cluster["completed"] == 4
        assert cluster["restarts"] == 1 and cluster["redispatched"] == 2
        assert cluster["latency"]["count"] == 4
        assert cluster["throughput_rps"] > 0
        row = metrics.flat_row()
        assert row["completed"] == 4 and row["restarts"] == 1

    def test_empty_metrics_report(self):
        metrics = ClusterMetrics()
        assert metrics.throughput() == 0.0
        assert metrics.report()["cluster"]["completed"] == 0

    def test_the_reported_p95_interpolates(self):
        # One percentile definition repo-wide (interpolated, numpy's default):
        # nearest-rank would say 4.0 ms here.
        metrics = ClusterMetrics()
        for latency_ms in (1.0, 2.0, 3.0, 4.0):
            metrics.record_submit("w0")
            metrics.record_completion("w0", latency_ms / 1e3)
        assert metrics.report()["cluster"]["latency"]["p95_ms"] == pytest.approx(3.85)

    def test_reset_zeroes_ledgers(self):
        metrics = ClusterMetrics()
        metrics.record_submit("w0")
        metrics.record_completion("w0", 0.01)
        metrics.record_restart("w0")
        metrics.reset()
        report = metrics.report()
        assert report["workers"] == {}
        assert report["cluster"]["completed"] == 0
        assert report["cluster"]["restarts"] == 0
        assert metrics.throughput() == 0.0

    def test_reset_forgets_the_latency_distribution(self):
        # The latencies live in the histograms alone: after a reset the p95
        # is that of the samples recorded since, not of a window kept aside.
        metrics = ClusterMetrics()
        metrics.record_completion("w0", 0.500)
        metrics.reset()
        assert metrics.report()["cluster"]["latency"]["count"] == 0
        for latency_ms in (1.0, 2.0, 3.0, 4.0):
            metrics.record_completion("w1", latency_ms / 1e3)
        latency = metrics.report()["cluster"]["latency"]
        assert latency["count"] == 4
        assert latency["p95_ms"] == pytest.approx(3.85)


# ------------------------------------------------------------------ live cluster
@pytest.fixture(scope="module")
def cluster_policy():
    return BatchPolicy(max_batch_size=4, queue_capacity=64)


def wait_for_restarts(router, count, timeout=30.0):
    """The supervisor sees a death on its next heartbeat tick, which can come
    after every request has already finished (a kill that lands once the
    worker drained its share): wait for it before reading the report."""
    deadline = time.monotonic() + timeout
    while router.metrics.restarts < count and time.monotonic() < deadline:
        time.sleep(0.01)


class TestRouterCluster:
    def test_cluster_matches_sequential_batch_runner(self, artifact_path, serve_artifact,
                                                     images, cluster_policy):
        """The acceptance criterion: sharded multi-process serving must
        reproduce sequential single-image BatchRunner outputs to 1e-5."""
        sequential = BatchRunner(serve_artifact.compiled, batch_size=1).run(images)
        with Router(artifact_path, workers=2, policy=cluster_policy) as router:
            served = router.submit_many(images, timeout=120.0)
            report = router.report()
        assert served.shape == sequential.shape
        assert max_abs_output_diff(served, sequential) < 1e-5
        # Round-robin over two workers: both actually served.
        completed = {w: s["completed"] for w, s in report["workers"].items()}
        assert sum(completed.values()) == images.shape[0]
        assert all(count > 0 for count in completed.values())
        # Child-service reports made it across the channel, each worker's
        # engine mode among them.
        assert set(report["worker_services"]) == set(report["workers"])
        assert all(set(child["engine_modes"].values()) == {"fused"}
                   for child in report["worker_services"].values())

    def test_killed_worker_restarts_with_zero_drops(self, artifact_path, images,
                                                    cluster_policy):
        with Router(artifact_path, workers=2, policy=cluster_policy,
                    cluster=ClusterSpec(heartbeat_interval=0.1)) as router:
            futures = [router.submit(images[i % images.shape[0]], block=True,
                                     timeout=60.0) for i in range(32)]
            router.workers[0].kill()
            results = [future.result(60.0) for future in futures]
            wait_for_restarts(router, 1)
            report = router.metrics.report()["cluster"]
        assert len(results) == 32 and all(r is not None for r in results)
        assert report["completed"] == 32
        assert report["failed"] == 0
        assert report["restarts"] >= 1

    def test_results_are_writable_arrays(self, artifact_path, images, cluster_policy):
        """Futures must resolve to writable arrays, same as in-process serving
        (frombuffer views over the received frame are read-only)."""
        with Router(artifact_path, workers=1, policy=cluster_policy) as router:
            out = router.submit(images[0], block=True, timeout=60.0).result(60.0)
        assert out.flags.writeable
        out *= 2.0   # must not raise

    def test_both_workers_killed_mid_load_still_recovers(self, artifact_path, images,
                                                         cluster_policy):
        """Supervision must survive a second death during recovery: re-dispatch
        runs off the monitor thread, so both slots get restarted and every
        request completes."""
        with Router(artifact_path, workers=2, policy=cluster_policy,
                    cluster=ClusterSpec(heartbeat_interval=0.1)) as router:
            futures = [router.submit(images[i % images.shape[0]], block=True,
                                     timeout=60.0) for i in range(24)]
            for worker in router.workers:
                worker.kill()
            results = [future.result(120.0) for future in futures]
            wait_for_restarts(router, 2)
            report = router.metrics.report()
        cluster = report["cluster"]
        assert len(results) == 24
        assert cluster["completed"] == 24 and cluster["failed"] == 0
        assert cluster["restarts"] >= 2
        # Re-dispatched requests are not re-counted as submissions.
        submitted = sum(stats["submitted"] for stats in report["workers"].values())
        assert submitted == 24

    def test_permanently_failing_worker_is_abandoned_not_hotlooped(self, tmp_path,
                                                                   cluster_policy):
        """A slot whose child dies during startup (missing artifact) must stop
        being respawned after max_restart_attempts, and submits must raise with
        the fatal error instead of blocking forever."""
        import time

        missing = str(tmp_path / "gone.npz")
        router = Router(missing, workers=1, policy=cluster_policy,
                        cluster=ClusterSpec(heartbeat_interval=0.05,
                                            max_restart_attempts=2))
        try:
            deadline = time.time() + 60.0
            (slot,) = router._table.slots
            while time.time() < deadline and not slot.abandoned:
                time.sleep(0.1)
            assert slot.abandoned
            assert router.last_fatal_error is not None
            image = np.zeros((3, 64, 64), dtype=np.float32)
            with pytest.raises(WorkerUnavailableError, match="failed permanently"):
                router.submit(image, block=True, timeout=10.0)
            # The respawn count is bounded: initial start + max_restart_attempts.
            assert slot.failures == 3
        finally:
            router.shutdown()

    def test_submit_after_shutdown_raises(self, artifact_path, images, cluster_policy):
        from repro.serving import ServiceClosedError

        router = Router(artifact_path, workers=1, policy=cluster_policy)
        try:
            router.submit(images[0], block=True, timeout=60.0).result(60.0)
        finally:
            router.shutdown()
        with pytest.raises(ServiceClosedError):
            router.submit(images[0])
        router.shutdown()   # idempotent

    def test_router_validates_worker_count(self, artifact_path):
        with pytest.raises(ValueError, match="at least one worker"):
            Router(artifact_path, workers=0)

    def test_shutdown_drains_in_flight_requests(self, artifact_path, images,
                                                cluster_policy):
        router = Router(artifact_path, workers=2, policy=cluster_policy)
        futures = [router.submit(images[i], block=True, timeout=60.0)
                   for i in range(images.shape[0])]
        router.shutdown()
        for future in futures:
            assert future.result(10.0) is not None


# ------------------------------------------------------------------------ bursts
class RecordingChannel:
    """Stands in for a worker's pipe: keeps what was sent, answers nothing."""

    def __init__(self):
        self.sent = []

    def send(self, kind, meta=None, arrays=()):
        self.sent.append((kind, dict(meta or {}), list(arrays)))

    def close(self):
        pass


def offline_worker(queue_capacity):
    """A WorkerProcess handle with no process behind it (parent-side logic only)."""
    from repro.serving.cluster.worker import WorkerProcess

    worker = WorkerProcess("worker-0", "unused.npz", heartbeat_interval=1.0,
                           policy=BatchPolicy(queue_capacity=queue_capacity),
                           metrics=ClusterMetrics(register=False))
    worker.channel = RecordingChannel()
    worker._accepting = True
    return worker


def burst_record(count):
    from repro.serving.batcher import InferenceFuture
    from repro.serving.cluster.worker import _PendingRequest

    images = np.arange(count, dtype=np.float32)[:, None, None, None] * np.ones((1, 1, 2, 2),
                                                                               np.float32)
    return _PendingRequest(InferenceFuture(count), 0, images), images


class TestWorkerBursts:
    def test_a_burst_is_one_frame_and_counts_its_images(self):
        worker = offline_worker(queue_capacity=64)
        record, images = burst_record(10)
        assert worker.dispatch(record) is None
        ((kind, meta, (sent,)),) = worker.channel.sent
        assert kind == "infer" and meta["id"] == 0
        assert sent is images                              # forwarded, not copied
        assert worker.outstanding_count == 10
        assert worker.metrics.report()["workers"]["worker-0"]["submitted"] == 10

    def test_the_queue_bound_splits_a_burst_and_hands_back_the_rest(self):
        from repro.serving.errors import QueueFullError

        worker = offline_worker(queue_capacity=6)
        record, images = burst_record(10)
        rest = worker.dispatch(record)
        assert rest.count == 4 and rest.offset == 6 and rest.future is record.future
        np.testing.assert_array_equal(rest.images, images[6:])
        assert np.shares_memory(rest.images, images)
        (_, meta, (sent,)) = worker.channel.sent[0]
        assert len(sent) == 6 and worker.outstanding_count == 6
        with pytest.raises(QueueFullError):
            worker.dispatch(rest)                          # no room at all: refused
        # Only what went out was counted as submitted.
        assert worker.metrics.report()["workers"]["worker-0"]["submitted"] == 6

    def test_reply_runs_settle_the_right_requests_and_free_their_slots(self):
        worker = offline_worker(queue_capacity=64)
        first, _ = burst_record(3)
        second, _ = burst_record(8)
        worker.dispatch(first)                             # ids 0..2
        worker.dispatch(second)                            # ids 3..10
        record = worker._pop(7, 4)                         # a run inside the second burst
        assert record is second and worker.outstanding_count == 7
        assert worker._pop(7, 4) is None                   # a duplicate answers nothing
        # What a dead worker leaves behind: one record per unanswered run.
        pending = worker.take_outstanding()
        assert [(p.future, p.offset, p.count) for p in pending] == [
            (first.future, 0, 3), (second.future, 0, 4)]
        assert worker.outstanding_count == 0
        assert all(p.fresh is False for p in pending)      # re-dispatch is not re-counted

    def test_failing_a_record_fails_only_its_own_requests(self):
        record, _ = burst_record(6)
        head, tail = record.part(0, 2), record.part(2, 6)
        tail.fail(RuntimeError("lost"))
        assert not record.future.done()
        head.future._settle(0, 2, np.zeros((2, 1)), None)
        assert isinstance(record.future.exception(0.0), RuntimeError)
        assert sorted(run[:2] for run in record.future._runs) == [(0, 2), (2, 6)]


class TestRouterBursts:
    def test_submit_group_goes_to_one_worker_and_matches_sequential(
            self, artifact_path, serve_artifact, images, cluster_policy):
        sequential = BatchRunner(serve_artifact.compiled, batch_size=1).run(images)
        with Router(artifact_path, workers=2, policy=cluster_policy) as router:
            future = router.submit_group(images, block=True, timeout=60.0)
            assert max_abs_output_diff(future.result(60.0), sequential) < 1e-5
            report = router.report()
        completed = sorted(w["completed"] for w in report["workers"].values())
        assert completed == [images.shape[0]]              # one routing decision
        # One reply frame per micro-batch of 4, not per image.
        assert sorted(run[:2] for run in future._runs) == [(0, 4), (4, 8), (8, 12)]

    def test_a_burst_beyond_one_workers_bound_spills_to_the_next(
            self, artifact_path, serve_artifact, images):
        sequential = BatchRunner(serve_artifact.compiled, batch_size=1).run(images)
        policy = BatchPolicy(max_batch_size=4, queue_capacity=8)
        with Router(artifact_path, workers=2, policy=policy) as router:
            assert all(worker.wait_ready(60.0) for worker in router.workers)
            future = router.submit_group(images)           # 12 images, 8 per worker
            assert max_abs_output_diff(future.result(60.0), sequential) < 1e-5
            report = router.report()
        completed = sorted(w["completed"] for w in report["workers"].values())
        assert completed == [4, 8]

    def test_submit_many_keeps_two_frames_per_worker_unanswered(self, monkeypatch):
        """The bulk window follows the fleet: a router over six workers has
        twelve frames out before it waits, not a constant sized for two."""
        import threading
        from types import SimpleNamespace

        import repro.serving.cluster.router as router_module
        from repro.serving.batcher import InferenceFuture

        monkeypatch.setattr(router_module, "burst_images", lambda nbytes: 2)
        router = Router.__new__(Router)          # no processes: dispatch is stubbed
        router._lock = threading.Lock()
        router._table = SimpleNamespace(workers=(object(),) * 6)
        sent = []

        def never_answered(burst, **_):
            sent.append(len(burst))
            return InferenceFuture(len(burst))

        router.submit_group = never_answered
        with pytest.raises(TimeoutError):
            router.submit_many(np.zeros((64, 3, 4, 4), dtype=np.float32), timeout=0.0)
        assert sent == [2] * 12
