"""Elastic cluster: autoscaler decisions, rolling hot-swap, graceful shedding.

Three layers under test:

* the **autoscaler control loop** — driven against a stub router (no
  processes), asserting the up/down/hold decisions, the cooldown clocks and
  the [min, max] bounds;
* the **zero-downtime swap** — a live two-worker cluster upgraded to a new
  artifact while a background load keeps submitting: zero dropped requests,
  the fleet ends coherently on the new version, and a worker crash after the
  rollout converges the slot on the *new* artifact (the upgrade-mid-load and
  crash-during-swap drills from the resilience issue);
* the **degradation path** — shed ``low``-priority admissions while a slot is
  down, typed as ``admission_rejected``.
"""

from __future__ import annotations

import threading
import time
import types

import numpy as np
import pytest

from repro.pipeline.spec import AutoscalerSpec, ClusterSpec
from repro.serving import BatchPolicy
from repro.serving.cluster import ArtifactSwapError, Router
from repro.serving.elastic import Autoscaler
from repro.serving.errors import AdmissionRejectedError


# ----------------------------------------------------------------- autoscaler
class StubWorker:
    def __init__(self, outstanding=0):
        self.outstanding_count = outstanding
        self.accepting = True


class StubRouter:
    """Just enough Router surface for the Autoscaler: workers + metrics."""

    def __init__(self, workers=1, outstanding=0, p95_ms=0.0):
        self._workers = [StubWorker(outstanding) for _ in range(workers)]
        self.outstanding = outstanding
        self.p95_ms = p95_ms
        self.closed = False
        self.metrics = types.SimpleNamespace(
            recent_p95_ms=lambda window_s=5.0: self.p95_ms)

    @property
    def workers(self):
        return tuple(self._workers)

    def add_worker(self):
        self._workers.append(StubWorker(self.outstanding))
        return len(self._workers) - 1

    def remove_worker(self, timeout=30.0):
        self._workers.pop()
        return len(self._workers)


def make_scaler(router, **kwargs):
    defaults = dict(min_workers=1, max_workers=4, cooldown_up_s=0.0,
                    cooldown_down_s=0.0)
    defaults.update(kwargs)
    return Autoscaler(router, AutoscalerSpec(**defaults))


class TestAutoscalerDecisions:
    def test_queue_pressure_scales_up(self):
        router = StubRouter(workers=1, outstanding=10)
        scaler = make_scaler(router, scale_up_queue_depth=4.0)
        assert scaler.evaluate_once() == "up"
        assert len(router.workers) == 2
        assert scaler.last_decision["decision"] == "up"
        assert scaler.last_decision["queue_depth"] == 10.0

    def test_slo_breach_scales_up_even_with_empty_queues(self):
        router = StubRouter(workers=1, outstanding=0, p95_ms=500.0)
        scaler = make_scaler(router, slo_p95_ms=100.0)
        assert scaler.evaluate_once() == "up"

    def test_idle_fleet_scales_down_to_min(self):
        router = StubRouter(workers=3, outstanding=0)
        scaler = make_scaler(router, min_workers=2,
                             scale_down_queue_depth=1.0)
        assert scaler.evaluate_once() == "down"
        assert len(router.workers) == 2
        # At min_workers the controller holds even when idle.
        assert scaler.evaluate_once() == "hold"
        assert len(router.workers) == 2

    def test_max_workers_bounds_growth(self):
        router = StubRouter(workers=2, outstanding=50)
        scaler = make_scaler(router, max_workers=2)
        assert scaler.evaluate_once() == "hold"
        assert len(router.workers) == 2

    def test_up_cooldown_prevents_flapping(self):
        router = StubRouter(workers=1, outstanding=50)
        scaler = make_scaler(router, max_workers=8, cooldown_up_s=60.0)
        assert scaler.evaluate_once() == "up"
        # Still under pressure, but inside the cooldown: hold, don't thrash.
        assert scaler.evaluate_once() == "hold"
        assert len(router.workers) == 2

    def test_scale_down_respects_recent_scale_up(self):
        # A spike just grew the fleet; the queue drained instantly.  The
        # down path must also wait out the *up* clock, or it would retire
        # the worker the spike still needs.
        router = StubRouter(workers=1, outstanding=50)
        scaler = make_scaler(router, cooldown_down_s=60.0)
        assert scaler.evaluate_once() == "up"
        router.outstanding = 0
        for worker in router._workers:
            worker.outstanding_count = 0
        assert scaler.evaluate_once() == "hold"
        assert len(router.workers) == 2

    def test_slo_breach_blocks_scale_down(self):
        router = StubRouter(workers=3, outstanding=0, p95_ms=500.0)
        scaler = make_scaler(router, slo_p95_ms=100.0, max_workers=3)
        assert scaler.evaluate_once() == "hold"
        assert len(router.workers) == 3

    def test_the_spec_node_is_the_configuration(self):
        # No copy: the controller reads the node it was handed, and a bare
        # Autoscaler(router) runs on the spec's own defaults.
        spec = AutoscalerSpec(enabled=True, min_workers=2, max_workers=6,
                              slo_p95_ms=80.0, cooldown_up_s=1.5)
        assert Autoscaler(StubRouter(workers=2), spec).spec is spec
        assert Autoscaler(StubRouter()).spec == AutoscalerSpec()

    def test_supervisor_thread_lifecycle(self):
        router = StubRouter(workers=1, outstanding=10)
        scaler = make_scaler(router, interval_s=0.02)
        with scaler.start():
            deadline = time.time() + 10.0
            while time.time() < deadline and len(router.workers) < 2:
                time.sleep(0.01)
        assert len(router.workers) >= 2
        with pytest.raises(RuntimeError, match="called twice"):
            scaler.start()


# ------------------------------------------------------------- live elasticity
@pytest.fixture(scope="module")
def cluster_policy():
    return BatchPolicy(max_batch_size=4, queue_capacity=64)


@pytest.fixture(scope="module")
def artifact_path_v2(serve_artifact, tmp_path_factory):
    """The same model saved under a second path: the "new version" to swap to
    (version identity is the artifact path, which is all the rollout needs)."""
    path = tmp_path_factory.mktemp("serving-v2") / "tiny_serve_test_v2.npz"
    return serve_artifact.save(str(path))


class LoadThread:
    """Background closed-loop submitter recording every outcome."""

    def __init__(self, router, images):
        self.router = router
        self.images = images
        self.completed = 0
        self.errors = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        i = 0
        while not self._stop.is_set():
            image = self.images[i % self.images.shape[0]]
            i += 1
            try:
                self.router.submit(image, block=True,
                                   timeout=60.0).result(60.0)
                self.completed += 1
            except Exception as error:  # noqa: BLE001 - recorded, asserted on
                self.errors.append(error)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(30.0)


class TestElasticRouter:
    def test_add_and_remove_worker_live(self, artifact_path, images,
                                        cluster_policy):
        with Router(artifact_path, workers=1, policy=cluster_policy) as router:
            slot = router.add_worker()
            assert slot == 1 and len(router.workers) == 2
            router.submit(images[0], block=True, timeout=60.0).result(60.0)
            assert router.remove_worker() == 1
            assert len(router.workers) == 1
            # The survivor still serves.
            out = router.submit(images[1], block=True,
                                timeout=60.0).result(60.0)
            assert out is not None

    def test_remove_refuses_last_worker(self, artifact_path, cluster_policy):
        with Router(artifact_path, workers=1, policy=cluster_policy) as router:
            with pytest.raises(ValueError, match="below one worker"):
                router.remove_worker()

    def test_swap_under_load_zero_drops_and_coherent_version(
            self, artifact_path, artifact_path_v2, images, cluster_policy):
        """The upgrade-mid-load drill: rolling swap with live traffic must
        drop nothing and leave every slot on the new artifact."""
        with Router(artifact_path, workers=2, policy=cluster_policy,
                    cluster=ClusterSpec(heartbeat_interval=0.1)) as router:
            with LoadThread(router, images) as load:
                time.sleep(0.3)                        # traffic flowing
                router.swap_artifact(artifact_path_v2)
                time.sleep(0.3)                        # traffic still flowing
            report = router.report()
        assert load.errors == []
        assert load.completed > 0
        assert report["artifact"] == artifact_path_v2
        assert set(report["worker_artifacts"].values()) == {artifact_path_v2}
        assert report["cluster"]["swaps"] == 1
        assert report["cluster"]["failed"] == 0

    def test_crash_after_swap_converges_on_new_version(
            self, artifact_path, artifact_path_v2, images, cluster_policy):
        """A worker dying right after the rollout must be respawned on the
        *new* artifact — the monitor reads the already-updated path."""
        with Router(artifact_path, workers=2, policy=cluster_policy,
                    cluster=ClusterSpec(heartbeat_interval=0.1)) as router:
            router.swap_artifact(artifact_path_v2)
            router.workers[0].kill()
            deadline = time.time() + 60.0
            while time.time() < deadline:
                if router.metrics.restarts >= 1 and all(
                        worker.accepting for worker in router.workers):
                    break
                time.sleep(0.05)
            report = router.report()
            out = router.submit(images[0], block=True,
                                timeout=60.0).result(60.0)
        assert out is not None
        assert set(report["worker_artifacts"].values()) == {artifact_path_v2}

    def test_crash_during_swap_rolls_back_coherently(
            self, artifact_path, artifact_path_v2, images, cluster_policy):
        """Kill the new-version worker mid-rollout (before it reports ready):
        the swap aborts with ArtifactSwapError, nothing is dropped, and the
        fleet is coherently back on the old version."""
        with Router(artifact_path, workers=2, policy=cluster_policy,
                    cluster=ClusterSpec(heartbeat_interval=0.1)) as router:
            real_spawn = router._spawn

            def sabotage(slot):
                worker = real_spawn(slot)
                if worker.artifact_path == artifact_path_v2:
                    worker.kill()          # dies before wait_ready can pass
                return worker

            router._spawn = sabotage
            with LoadThread(router, images) as load:
                time.sleep(0.2)
                with pytest.raises(ArtifactSwapError):
                    router.swap_artifact(artifact_path_v2,
                                         timeout_per_worker=15.0)
                router._spawn = real_spawn     # let supervision heal normally
                time.sleep(0.2)
            # Rollback restored the old version everywhere and kept serving.
            report = router.report()
            out = router.submit(images[0], block=True,
                                timeout=60.0).result(60.0)
        assert out is not None
        assert load.errors == []
        assert report["artifact"] == artifact_path
        assert set(report["worker_artifacts"].values()) == {artifact_path}
        assert report["cluster"]["swaps"] == 0

    def test_swap_to_missing_artifact_aborts_before_touching_fleet(
            self, artifact_path, images, cluster_policy):
        with Router(artifact_path, workers=2, policy=cluster_policy) as router:
            before = [id(worker) for worker in router.workers]
            with pytest.raises(ArtifactSwapError):
                router.swap_artifact(artifact_path + ".does-not-exist.npz",
                                     timeout_per_worker=15.0)
            # Canary abort: the incumbent fleet was never drained.
            assert [id(worker) for worker in router.workers] == before
            assert router.report()["artifact"] == artifact_path
            out = router.submit(images[0], block=True,
                                timeout=60.0).result(60.0)
        assert out is not None


class TestGracefulDegradation:
    def test_low_priority_shed_while_degraded(self, artifact_path, images,
                                              cluster_policy):
        with Router(artifact_path, workers=2, policy=cluster_policy) as router:
            with router._lock:            # slot 1 waiting out backoff
                router._table.slots[1].respawn_at = float("inf")
            assert router.degraded
            with pytest.raises(AdmissionRejectedError, match="degraded"):
                router.submit(images[0], priority="low")
            # Normal and high traffic still admitted while degraded.
            out = router.submit(images[0], block=True, priority="normal",
                                timeout=60.0).result(60.0)
            assert out is not None
            with router._lock:
                router._table.slots[1].respawn_at = None
            assert not router.degraded
            # Healthy again: low class admitted as usual.
            out = router.submit(images[0], block=True, priority="low",
                                timeout=60.0).result(60.0)
            assert out is not None
            shed = router.metrics.report()["cluster"]["shed"]
        assert shed == {"low": 1}

    def test_shedding_can_be_disabled(self, artifact_path, images,
                                      cluster_policy):
        with Router(artifact_path, workers=1, policy=cluster_policy,
                    cluster=ClusterSpec(shed_low_priority=False)) as router:
            with router._lock:
                router._table.slots[0].respawn_at = float("inf")
            # Even degraded, low traffic queues instead of shedding...
            future = router.submit(images[0], priority="low")
            with router._lock:
                router._table.slots[0].respawn_at = None
                router._worker_available.notify_all()
            # ...and completes once the fleet heals.
            assert future.result(60.0) is not None


class TestForkHygiene:
    def test_a_forked_child_draws_a_different_backoff_jitter(self):
        """The jitter is keyed by the pid, so a child forked off a router's
        process never replays its parent's backoff schedule — with no at-fork
        hook and no generator state to reset."""
        import json
        import os

        from repro.serving.cluster.router import _backoff_jitter

        deaths = [(slot, 1000.0 + slot) for slot in range(8)]
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:                                   # the child: draw, report, leave
            try:
                os.write(write_end, json.dumps([_backoff_jitter(*d) for d in deaths]).encode())
            finally:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end) as pipe:
            child = json.load(pipe)
        os.waitpid(pid, 0)
        parent = [_backoff_jitter(*d) for d in deaths]
        assert parent == [_backoff_jitter(*d) for d in deaths]     # a function, not a stream
        assert all(0.0 <= draw < 1.0 for draw in parent + child)
        assert child != parent and len(set(parent)) == len(parent)
