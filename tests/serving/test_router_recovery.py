"""Regression tests for Router._recover failure bookkeeping (reprolint find).

``lock-discipline`` flagged ``Router._recover`` writing ``last_fatal_error``
and ``_failures`` outside ``self._lock`` while ``_dispatch`` reads both under
it -- a torn view could reach a failing client.  These tests drive
``_recover`` on a stub worker with an instrumented lock and assert (a) every
guarded write happens while the router lock is held and (b) the
quick-death/abandon/uptime-reset state machine still behaves.
"""

import threading
import time
import types

import pytest

from repro.pipeline.spec import ClusterSpec
from repro.serving.cluster.metrics import ClusterMetrics
from repro.serving.cluster.router import Router, WorkerUnavailableError


class TrackingLock:
    """Lock-alike recording whether it is held (Condition-compatible)."""

    def __init__(self):
        self._inner = threading.Lock()
        self.held = False

    def acquire(self, *args, **kwargs):
        acquired = self._inner.acquire(*args, **kwargs)
        if acquired:
            self.held = True
        return acquired

    def release(self):
        self.held = False
        self._inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()


class GuardedDict(dict):
    """Records any mutation performed while the paired lock is not held."""

    def __init__(self, lock):
        super().__init__()
        self.lock = lock
        self.unlocked_writes = []

    def __setitem__(self, key, value):
        if not self.lock.held:
            self.unlocked_writes.append(key)
        super().__setitem__(key, value)


class StubFuture:
    def __init__(self):
        self.error = None

    def _fail(self, exc):
        self.error = exc


class StubWorker:
    def __init__(self, worker_id="worker-0", fatal_error=None, uptime=0.0, pending=0):
        self.worker_id = worker_id
        self.fatal_error = fatal_error
        self.started_at = time.perf_counter() - uptime
        self.process = None
        self.channel = None
        self.dead = False
        self._pending = [types.SimpleNamespace(future=StubFuture()) for _ in range(pending)]

    def _mark_dead(self):
        self.dead = True

    def take_outstanding(self):
        return list(self._pending)


def make_router(worker, max_restart_attempts=2, restart=True):
    router = Router.__new__(Router)
    router.restart = restart
    router.cluster = ClusterSpec(max_restart_attempts=max_restart_attempts,
                                 min_worker_uptime=1.0)
    router.metrics = ClusterMetrics()
    router.last_fatal_error = None
    lock = TrackingLock()
    router._lock = lock
    router._worker_available = threading.Condition(lock)
    router._closed = False
    router._failures = GuardedDict(lock)
    router._abandoned = set()
    router._workers = [worker]
    router._spawned = []

    def spawn(slot):
        replacement = StubWorker(worker_id=f"respawn-{slot}")
        router._spawned.append(replacement)
        return replacement

    router._spawn = spawn
    return router


def test_quick_death_bookkeeping_happens_under_the_lock():
    worker = StubWorker(fatal_error="artifact failed to load", uptime=0.0)
    router = make_router(worker)

    router._recover(0, worker)

    assert router._failures.unlocked_writes == []
    assert dict(router._failures) == {0: 1}
    assert router.last_fatal_error == "artifact failed to load"
    assert worker.dead
    assert len(router._spawned) == 1
    assert router._workers[0] is router._spawned[0]
    assert router._abandoned == set()


def test_repeated_quick_deaths_abandon_the_slot_and_fail_pending():
    worker = StubWorker(fatal_error="boom", uptime=0.0, pending=2)
    router = make_router(worker, max_restart_attempts=2)
    router._failures.update({0: 2})  # two prior quick deaths

    router._recover(0, worker)

    assert router._failures.unlocked_writes == []
    assert dict(router._failures) == {0: 3}
    assert router._abandoned == {0}
    assert router._spawned == []  # no respawn for an abandoned slot
    for request in worker.take_outstanding():
        assert isinstance(request.future.error, WorkerUnavailableError)
        assert "permanently" in str(request.future.error)
        assert "boom" in str(request.future.error)


def test_long_uptime_resets_the_failure_counter():
    worker = StubWorker(uptime=120.0)
    router = make_router(worker)
    router._failures.update({0: 4})  # ancient history: the worker then ran fine

    router._recover(0, worker)

    assert dict(router._failures) == {0: 1}
    assert router._abandoned == set()
    assert len(router._spawned) == 1


def test_recovery_during_shutdown_fails_pending_and_stops_replacement():
    worker = StubWorker(uptime=120.0, pending=1)
    router = make_router(worker)
    router._closed = True
    stopped = []
    real_spawn = router._spawn

    def spawn(slot):
        replacement = real_spawn(slot)
        replacement.stop = lambda timeout=None: stopped.append(replacement)
        return replacement

    router._spawn = spawn

    router._recover(0, worker)

    assert stopped == router._spawned  # replacement torn down, not leaked
    (request,) = worker.take_outstanding()
    assert isinstance(request.future.error, WorkerUnavailableError)
    assert "shut down" in str(request.future.error)


@pytest.mark.parametrize("uptime", [0.0, 120.0])
def test_restart_disabled_abandons_without_respawn(uptime):
    worker = StubWorker(uptime=uptime, pending=1)
    router = make_router(worker, restart=False)

    router._recover(0, worker)

    assert router._spawned == []
    assert router._abandoned == {0}
    (request,) = worker.take_outstanding()
    assert isinstance(request.future.error, WorkerUnavailableError)
