"""repro.serving.cluster: channel framing, routing policies, the live cluster."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.engine import BatchRunner, max_abs_output_diff
from repro.pipeline.spec import ClusterSpec
from repro.serving import BatchPolicy
from repro.serving.cluster import (
    ArrayChannel,
    ClusterMetrics,
    LeastOutstandingPolicy,
    ModelAffinityPolicy,
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
        sender.send("infer", {"id": 7, "model": None}, [payload])
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
        assert available_routing_policies() == (
            "round-robin", "least-outstanding", "model-affinity")
        for name in available_routing_policies():
            assert build_routing_policy(name).name == name
        with pytest.raises(KeyError, match="unknown routing policy"):
            build_routing_policy("nope")

    def test_round_robin_cycles_and_skips_dead(self):
        policy = RoundRobinPolicy()
        workers = [FakeWorker(), FakeWorker(accepting=False), FakeWorker()]
        picks = [policy.select(workers, "default") for _ in range(4)]
        assert picks == [workers[0], workers[2], workers[0], workers[2]]

    def test_round_robin_all_dead_raises(self):
        with pytest.raises(WorkerUnavailableError):
            RoundRobinPolicy().select([FakeWorker(accepting=False)], "default")

    def test_least_outstanding_picks_idle(self):
        policy = LeastOutstandingPolicy()
        workers = [FakeWorker(outstanding=5), FakeWorker(outstanding=1),
                   FakeWorker(outstanding=3)]
        assert policy.select(workers, "default") is workers[1]

    def test_model_affinity_is_sticky_and_spreads(self):
        policy = ModelAffinityPolicy()
        workers = [FakeWorker() for _ in range(4)]
        # Sticky: the same key always lands on the same worker.
        first = policy.select(workers, "model-a")
        assert all(policy.select(workers, "model-a") is first for _ in range(8))
        # Spreading: many distinct keys hit more than one slot.
        slots = {id(policy.select(workers, f"model-{i}")) for i in range(32)}
        assert len(slots) > 1

    def test_model_affinity_falls_back_when_home_is_dead(self):
        policy = ModelAffinityPolicy()
        workers = [FakeWorker() for _ in range(4)]
        home = policy._slot("model-a", 4)
        workers[home].accepting = False
        fallback = policy.select(workers, "model-a")
        assert fallback is workers[(home + 1) % 4]


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

    def test_windowed_p95_is_the_percentile_every_report_uses(self):
        # One percentile definition repo-wide (interpolated, numpy's default):
        # the autoscaler's control signal must agree with the reported p95 of
        # the same samples — nearest-rank would say 4.0 ms here.
        metrics = ClusterMetrics()
        for latency_ms in (1.0, 2.0, 3.0, 4.0):
            metrics.record_submit("w0")
            metrics.record_completion("w0", latency_ms / 1e3)
        assert metrics.recent_p95_ms() == pytest.approx(3.85)
        assert metrics.report()["cluster"]["latency"]["p95_ms"] == pytest.approx(3.85)
        assert ClusterMetrics().recent_p95_ms() == 0.0

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


# ------------------------------------------------------------------ live cluster
@pytest.fixture(scope="module")
def cluster_policy():
    return BatchPolicy(max_batch_size=4, max_wait_ms=5.0, queue_capacity=64)


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
        # Child-service reports made it across the channel.
        assert set(report["worker_services"]) == set(report["workers"])

    def test_killed_worker_restarts_with_zero_drops(self, artifact_path, images,
                                                    cluster_policy):
        with Router(artifact_path, workers=2, policy=cluster_policy,
                    cluster=ClusterSpec(heartbeat_interval=0.1)) as router:
            futures = [router.submit(images[i % images.shape[0]], block=True,
                                     timeout=60.0) for i in range(32)]
            router.workers[0].kill()
            results = [future.result(60.0) for future in futures]
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

    def test_pool_capacity_reaches_worker_services(self, artifact_path, images,
                                                   cluster_policy):
        """ServeSpec.pool_capacity must bound each child's ModelPool."""
        with Router(artifact_path, workers=1, policy=cluster_policy,
                    pool_capacity=1) as router:
            router.submit(images[0], block=True, timeout=60.0).result(60.0)
            stats = router.workers[0].request_stats(10.0)
        assert stats is not None
        assert stats["pool"]["capacity"] == 1

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
            while time.time() < deadline and len(router._abandoned) < 1:
                time.sleep(0.1)
            assert router._abandoned == {0}
            assert router.last_fatal_error is not None
            image = np.zeros((3, 64, 64), dtype=np.float32)
            with pytest.raises(WorkerUnavailableError, match="failed permanently"):
                router.submit(image, block=True, timeout=10.0)
            # The respawn count is bounded: initial start + max_restart_attempts.
            assert router._failures[0] == 3
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
