"""The cluster front door: route requests across worker processes.

:class:`Router` owns ``workers`` :class:`~repro.serving.cluster.worker.WorkerProcess`
slots, all serving the same artifact, and exposes the exact submit surface of a
single-process :class:`~repro.serving.service.InferenceService` — ``submit()``
and ``submit_group()`` returning an
:class:`~repro.serving.batcher.InferenceFuture`, blocking ``submit_many()``
with request-order output concatenation, graceful ``shutdown()`` and the
context-manager protocol — so load generators, the CLI and the benchmarks can
target a cluster and a single service interchangeably.  A burst is routed as
one unit: one routing decision, one pipe frame to one worker, and one reply
frame back per micro-batch that worker executed.

Routing policies are pluggable (``routing=`` name or a policy object):

* ``round-robin`` — cycle over live workers; even load, no state inspection,
* ``least-outstanding`` — pick the live worker with the fewest in-flight
  requests; adapts to stragglers.

Failure handling: one supervisor thread health-checks every slot (process
liveness + heartbeat freshness).  A dead worker is restarted in place and every
request that was in flight on it is **re-dispatched** to a live worker under the
same future — the client keeps waiting on the handle it already has and no
admitted request is ever dropped.  The fleet keeps the size it was built with
for the router's whole life.  *What* to do about a death or a swap step is decided by the clock-free slot table in
:mod:`repro.serving.cluster.fleet`; this module is the shell that owns the lock,
the clock and ``fork`` and performs what the table returns.
"""

from __future__ import annotations

import os
import random
import threading
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.tracing import TraceContext, mint_traces
from repro.pipeline.spec import ROUTING_POLICY_NAMES, ChaosSpec, ClusterSpec
from repro.serving.api import DEFAULT_PRIORITY, priority_index
from repro.serving.batcher import (
    BatchPolicy,
    Images,
    InferenceFuture,
    ServiceClosedError,
    as_images,
    one_image,
    submit_bursts,
)
from repro.serving.errors import (
    AdmissionRejectedError,
    DeadlineExceededError,
    ServingError,
)
from repro.serving.cluster import fleet
from repro.serving.cluster.channel import burst_images
from repro.serving.cluster.metrics import ClusterMetrics
from repro.serving.cluster.worker import (
    WorkerProcess,
    WorkerUnavailableError,
    _PendingRequest,
)
from repro.utils.logging import get_logger

logger = get_logger("serving.cluster.router")


class ArtifactSwapError(ServingError):
    """A rolling :meth:`Router.swap_artifact` failed and was rolled back."""


def _backoff_jitter(slot: int, now: float) -> float:
    """The restart backoff's jitter in [0, 1) for a death in ``slot`` at ``now`` — keyed by
    the pid too, so a forked child never replays its parent's draws (no at-fork hook)."""
    return random.Random(f"{os.getpid()}/{slot}/{now}").random()


# ------------------------------------------------------------------ routing policies
class RoundRobinPolicy:
    """Cycle over live workers in slot order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next = 0

    def select(self, workers: Sequence[Any]) -> Any:
        with self._lock:
            for offset in range(len(workers)):
                worker = workers[(self._next + offset) % len(workers)]
                if worker.accepting:
                    self._next = (self._next + offset + 1) % len(workers)
                    return worker
        raise WorkerUnavailableError("no live workers to route to")


class LeastOutstandingPolicy:
    """Pick the live worker with the fewest in-flight requests."""

    name = "least-outstanding"

    def select(self, workers: Sequence[Any]) -> Any:
        live = [worker for worker in workers if worker.accepting]
        if not live:
            raise WorkerUnavailableError("no live workers to route to")
        return min(live, key=lambda worker: worker.outstanding_count)


# Write-once policy table (checked against the spec below, never mutated).
# reprolint: disable=mutable-global
ROUTING_POLICIES: Dict[str, Callable[[], Any]] = {
    "round-robin": RoundRobinPolicy,
    "least-outstanding": LeastOutstandingPolicy,
}

assert set(ROUTING_POLICIES) == set(ROUTING_POLICY_NAMES), (
    "routing registry out of sync with repro.pipeline.spec.ROUTING_POLICY_NAMES"
)


def available_routing_policies() -> Tuple[str, ...]:
    """Registered routing-policy names (the ``ServeSpec.routing`` choices)."""
    return tuple(ROUTING_POLICIES)


def build_routing_policy(name: str) -> Any:
    try:
        return ROUTING_POLICIES[name]()
    except KeyError:
        raise KeyError(
            f"unknown routing policy {name!r}; available: {sorted(ROUTING_POLICIES)}"
        ) from None


# ------------------------------------------------------------------------- router
class Router:
    """Multi-process serving cluster over one deployable artifact.

    Parameters
    ----------
    artifact_path:
        ``DeployableArtifact`` ``.npz`` every worker loads in its own process.
    workers:
        Number of worker subprocesses (>= 1).
    policy:
        Per-worker :class:`BatchPolicy` (micro-batching + admission bound).
    routing:
        Policy name from :func:`available_routing_policies` or a policy object
        with a ``select(workers)`` method.
    cluster:
        The :class:`~repro.pipeline.spec.ClusterSpec` supervision contract
        (heartbeats, restart backoff, shedding; each field is documented
        there), taken whole the way ``GatewayServer`` takes its node.  A slot
        abandoned after ``max_restart_attempts`` quick deaths fails its pending
        requests with the child's fatal error, and once every slot is abandoned
        submits raise instead of blocking forever.
    chaos:
        Optional :class:`~repro.pipeline.spec.ChaosSpec` the workers inject.
    """

    # reprolint lock-discipline contract: the slot table (every worker handle,
    # each slot's supervision state, `closed`, the last fatal error) and the
    # artifact path respawns load are read and changed only under `_lock`
    # (`_worker_available` is a Condition over the same lock).  `_swap_lock`
    # keeps two `swap_artifact` calls from rolling the fleet at once; it is
    # always taken *before* `_lock`, never inside it.
    _guarded_by_ = {
        "_table": ("_lock", "_worker_available"),
        "artifact_path": ("_lock", "_worker_available"),
    }

    def __init__(
        self,
        artifact_path: str,
        workers: int = 2,
        policy: Optional[BatchPolicy] = None,
        routing: Union[str, Any] = "round-robin",
        cluster: Optional[ClusterSpec] = None,
        chaos: Optional[ChaosSpec] = None,
        metrics: Optional[ClusterMetrics] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"Router needs at least one worker, got {workers}")
        self.artifact_path = artifact_path
        self.policy = policy or BatchPolicy()
        self.routing = build_routing_policy(routing) if isinstance(routing, str) else routing
        self.metrics = metrics or ClusterMetrics()
        self.cluster = cluster or ClusterSpec()

        #: Active fault-injection schedule (None: chaos off).  The window end
        #: is computed *once* here in wall-clock time so every worker child —
        #: including ones (re)spawned mid-drill — goes quiet together.
        self.chaos = chaos if (chaos is not None and chaos.enabled
                               and chaos.any_faults()) else None
        self.chaos_until_wall = (
            time.time() + self.chaos.warmup_s + self.chaos.duration_s
            if self.chaos is not None else 0.0)

        self._lock = threading.Lock()
        self._worker_available = threading.Condition(self._lock)
        self._swap_lock = threading.Lock()
        self._table = fleet.SlotTable(self.cluster)
        for slot in range(workers):
            self._table.install(slot, self._spawn(slot))
        self._stop = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-cluster-supervisor", daemon=True)
        self._supervisor.start()

    # ------------------------------------------------------------------ lifecycle
    def _spawn(self, slot: int) -> WorkerProcess:
        with self._lock:
            incarnation = self._table.claim(slot)
            artifact_path = self.artifact_path
        chaos_wire = None
        if self.chaos is not None:
            chaos_wire = {
                "spec": self.chaos.to_dict(),
                "scope": f"worker-{slot}#{incarnation}",
                "until_wall": self.chaos_until_wall,
            }
        worker = WorkerProcess(
            worker_id=f"worker-{slot}",
            artifact_path=artifact_path,
            policy=self.policy,
            metrics=self.metrics,
            heartbeat_interval=self.cluster.heartbeat_interval,
            chaos_wire=chaos_wire,
        )
        worker.start()
        return worker

    def _install(self, slot: int, worker: WorkerProcess, expect: WorkerProcess) -> None:
        """Put a started ``worker`` into ``slot`` in place of ``expect`` — or retire
        it when the table refuses."""
        with self._lock:
            installed = self._table.install(slot, worker, expect)
            self._worker_available.notify_all()
        if not installed:
            worker.stop(5.0)

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Stop admissions, drain every worker, stop the supervisor (idempotent).

        ``timeout`` bounds each worker's drain (``None``: 30 s) — a hung
        worker is terminated after it, never waited for without end.
        """
        timeout = 30.0 if timeout is None else timeout
        with self._lock:
            workers = self._table.close()
            self._worker_available.notify_all()
        self._stop.set()
        self._supervisor.join(timeout=5.0)
        for worker in workers:
            worker.stop(timeout)
            # A drained worker owes nothing; one that was down will not be
            # recovered now, so what it held is failed, not left hanging.
            self._fail(worker.take_outstanding(),
                       WorkerUnavailableError("cluster shut down with the request unanswered"))

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._table.closed

    @property
    def workers(self) -> Tuple[WorkerProcess, ...]:
        """Current worker handles, slot order (restarts replace in place)."""
        with self._lock:
            return self._table.workers

    @property
    def degraded(self) -> bool:
        """True while any slot is abandoned or waiting for its respawn.

        This is the graceful-degradation signal: the fleet is serving below
        capacity, so (``shed_low_priority``) admission sheds the ``low``
        class instead of queueing work it cannot absorb in time.
        """
        with self._lock:
            return self._table.degraded

    @property
    def last_fatal_error(self) -> Optional[str]:
        """Last "fatal" startup error reported by any worker (diagnostics)."""
        with self._lock:
            return self._table.last_fatal_error

    # ------------------------------------------------------------------ submission
    def submit(
        self,
        image: np.ndarray,
        block: bool = False,
        timeout: Optional[float] = None,
        trace: Optional[TraceContext] = None,
        priority: str = DEFAULT_PRIORITY,
        deadline_ms: Optional[float] = None,
    ) -> InferenceFuture:
        """Route one ``(C, H, W)`` image to a worker; returns its future.

        Mirrors :meth:`InferenceService.submit`: non-blocking submits raise
        :class:`~repro.serving.errors.QueueFullError` under overload; blocking
        submits wait for queue space (and survive a worker restart mid-wait).
        A group of one through :meth:`submit_group`, which documents the rest.
        """
        return self.submit_group(
            one_image(image), block=block, timeout=timeout,
            traces=None if trace is None else (trace,),
            priority=priority, deadline_ms=deadline_ms)

    def submit_group(
        self,
        images: Images,
        block: bool = False,
        timeout: Optional[float] = None,
        traces: Optional[Sequence[TraceContext]] = None,
        priority: str = DEFAULT_PRIORITY,
        deadline_ms: Optional[float] = None,
    ) -> InferenceFuture:
        """Route a burst — an ``(N, C, H, W)`` stack or N images — as one unit.

        Mirrors :meth:`InferenceService.submit_group`: one future over the N
        requests, one routing decision, one pipe frame to the chosen worker.
        The worker's queue bound counts images; what does not fit it is
        placed again (on whichever worker the policy picks next), refused
        with :class:`~repro.serving.errors.QueueFullError` when no worker has
        room, and only a burst of which nothing was placed raises here.

        ``priority`` and ``deadline_ms`` cross the pipe in the frame header —
        the budget is pinned to an absolute deadline *here*, once, so routing
        delay, worker queueing and even a restart re-dispatch all spend the
        same clock (the worker sees only the remaining milliseconds).

        When tracing is armed each request is minted a
        :class:`~repro.obs.tracing.TraceContext` whose id crosses the pipe to
        the chosen worker (the gateway passes its own ``traces`` in instead);
        the completed trace (router-dispatch plus the worker's
        queue/batch/engine spans) lands in this process's
        :func:`~repro.obs.tracing.get_trace_buffer`.
        """
        priority_index(priority)       # validate the class name up front
        images, _ = as_images(images)
        if priority == "low" and self.cluster.shed_low_priority:
            if self.degraded:
                # Reduced capacity: shed the lowest class loudly (a typed
                # admission rejection) instead of failing closed or letting
                # it starve the classes with SLOs.
                self.metrics.record_shed(priority, len(images))
                raise AdmissionRejectedError(
                    "cluster is degraded (a worker slot is down); "
                    "shedding low-priority request")
        request_deadline: Optional[float] = None
        if deadline_ms is not None:
            if deadline_ms <= 0:
                raise DeadlineExceededError(
                    f"deadline_ms={deadline_ms} already expired at admission")
            request_deadline = time.perf_counter() + deadline_ms / 1e3
        future = InferenceFuture(len(images))
        future.traces = traces if traces is not None else mint_traces(len(images))
        self._dispatch(
            _PendingRequest(future, 0, images, future.traces, priority, request_deadline),
            block, timeout)
        return future

    def _dispatch(self, request: _PendingRequest, block: bool,
                  timeout: Optional[float]) -> None:
        """Routing loop shared by client submits and re-dispatch.

        Places ``request`` frame by frame until nothing of it is left.  An
        error before anything was placed is raised; after that it fails the
        requests that were not placed, and the others go on.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        dispatch_started = time.time() if request.traces else 0.0
        whole = request
        try:
            while request is not None:
                request = self._place(request, block, deadline, dispatch_started)
        except (ServingError, TimeoutError) as error:
            if request is whole:
                raise
            self._fail([request], error)

    def _place(self, request: _PendingRequest, block: bool,
               deadline: Optional[float], dispatch_started: float
               ) -> Optional[_PendingRequest]:
        """One frame of ``request`` onto a live worker; returns what is left of it."""
        while True:
            with self._lock:
                if self._table.closed:
                    raise ServiceClosedError("Router has been shut down")
                workers = self._table.workers
            try:
                worker = self.routing.select(workers)
            except WorkerUnavailableError:
                remaining = None if deadline is None else deadline - time.perf_counter()
                with self._worker_available:
                    if self._table.failed_permanently:
                        raise WorkerUnavailableError(
                            "every worker slot failed permanently"
                            f"{self._fatal_detail()}") from None
                    if not block:
                        raise
                    if remaining is not None and remaining <= 0:
                        raise TimeoutError("timed out waiting for a live worker")
                    if self._table.closed:
                        raise ServiceClosedError("Router has been shut down")
                    # Every slot is mid-restart: wait for the supervisor to bring
                    # one back instead of failing a blocking caller.
                    self._worker_available.wait(0.5 if remaining is None else min(remaining, 0.5))
                continue
            try:
                remaining = None if deadline is None else deadline - time.perf_counter()
                rest = worker.dispatch(request, block=block, timeout=remaining)
            except WorkerUnavailableError:
                continue  # the worker died between select and dispatch; re-route
            if request.traces:
                # Covers routing-policy selection plus any blocking wait for
                # queue space; redispatch legs record a second span under the
                # same trace_id.
                placed = request.count - (rest.count if rest is not None else 0)
                for trace in request.traces[:placed]:
                    trace.record("router-dispatch", dispatch_started,
                                 worker=worker.worker_id)
            return rest

    def submit_many(
        self,
        images: Union[np.ndarray, Sequence[np.ndarray]],
        timeout: Optional[float] = None,
    ) -> Any:
        """Submit a stack of images with backpressure and wait for all results.

        The stack goes out in bursts of
        :func:`~repro.serving.cluster.channel.burst_images` images (fewer when
        that would leave a worker without a share of a short stack) — each a
        blocking :meth:`submit_group`, i.e. one pipe frame
        (:func:`~repro.serving.batcher.submit_bursts`), two per worker
        unanswered at a time: one running, one queued behind it — and is
        waited for once.  Outputs come back concatenated along the batch axis
        in request order — independent of which worker served which burst —
        so a cluster run is directly comparable to a sequential
        :class:`~repro.engine.runner.BatchRunner` over the same images.
        """
        images, _ = as_images(images)
        workers = len(self.workers)
        share = -(-len(images) // workers)
        return submit_bursts(
            partial(self.submit_group, block=True, timeout=timeout),
            images, min(burst_images(images[0].nbytes), share), 2 * workers, timeout)

    # ------------------------------------------------------------------ supervision
    def _supervise(self) -> None:
        """The one supervisor thread: a step per heartbeat interval, sooner for a due respawn."""
        while True:
            with self._lock:
                wake_in = self._table.wake_in(time.perf_counter())
            if self._stop.wait(wake_in):
                return
            self._supervise_once()

    def _supervise_once(self) -> None:
        """Recover every watched slot whose worker is unhealthy, then fill every slot
        whose respawn is due (a first death's is due at once: same step)."""
        with self._lock:
            watched = self._table.watched()
        for slot, worker in watched:
            if not worker.healthy(self.cluster.heartbeat_timeout):
                self._recover(slot, worker)
        with self._lock:
            due = self._table.due(time.perf_counter())
        for slot, dead in due:
            self._install(slot, self._spawn(slot), dead)

    def _recover(self, slot: int, worker: WorkerProcess) -> None:
        """Kill what is left of ``worker``, ask the table what becomes of its slot,
        and re-dispatch or fail what it still owed accordingly."""
        with self._lock:
            # Scaled away or replaced (swap) since the step's snapshot?  A
            # concurrent shutdown is NOT an early exit: what this worker owed
            # still needs failing, which the CLOSED verdict below does.
            if not self._table.holds(slot, worker):
                return
        now = time.perf_counter()
        pending = worker.reap()
        with self._lock:
            verdict = self._table.died(slot, worker, now - worker.started_at,
                                       worker.fatal_error, now, _backoff_jitter(slot, now))
            backoff = self._table.slots[slot].respawn_at - now if verdict == fleet.RESPAWN else 0.0
            detail = self._fatal_detail()
            self._worker_available.notify_all()
        (logger.error if verdict == fleet.ABANDON else logger.warning)(
            "worker %s (slot %d, pid %s) was unhealthy: %s%s%s", worker.worker_id, slot,
            worker.process.pid, verdict, f" in {backoff:.2f}s" if backoff > 0 else "", detail)
        if verdict == fleet.RESPAWN:
            self.metrics.record_restart(worker.worker_id)
        elif verdict == fleet.ABANDON:
            self._fail(pending, WorkerUnavailableError(
                f"worker slot {slot} failed permanently{detail}"))
        elif verdict == fleet.CLOSED:
            self._fail(pending, WorkerUnavailableError(
                "cluster shut down during worker recovery"))
        if pending and verdict in (fleet.RESPAWN, fleet.GONE):
            # Re-dispatch OFF the supervisor thread: a blocking dispatch here
            # would stall supervision, so a second worker dying mid-recovery
            # could never be restarted and its requests would hang.
            threading.Thread(
                target=self._redispatch, args=(pending, worker.worker_id),
                name=f"repro-cluster-redispatch-{worker.worker_id}", daemon=True).start()

    def _fatal_detail(self) -> str:  # reprolint: holds=_lock
        error = self._table.last_fatal_error
        return f": {error}" if error else ""

    def _fail(self, pending: Sequence[_PendingRequest], error: BaseException) -> None:
        """Fail exactly the requests these records cover — the rest of their
        futures may sit on a healthy worker — and count them as failed."""
        now = time.perf_counter()
        for request in pending:
            if request.fresh:    # the never-placed rest of a burst: admitted all the same
                self.metrics.record_submit(request.worker_id, request.count)
            self.metrics.record_completion(
                request.worker_id, now - request.submitted_at, True, request.count)
            request.fail(error)

    # ------------------------------------------------------------------ artifact swap
    def swap_artifact(self, path: str, timeout_per_worker: float = 60.0) -> None:
        """Zero-downtime rolling upgrade of every worker to a new artifact.

        Slot by slot: spawn a replacement on ``path``, wait until its child
        reports the artifact loaded and the service live, install it, then
        *drain* the old worker (every admitted request completes on the old
        version).  At no point is a slot empty, no request is dropped, and no
        batch ever mixes versions (batches form inside one worker process,
        which only ever holds one artifact).

        If the very first replacement cannot come up — the canary — the swap
        aborts with :class:`ArtifactSwapError` and the fleet is untouched.
        If a later replacement fails, every slot already on the new artifact
        is rolled back to the old one so the fleet ends on one coherent
        version either way.  A worker that *crashes after install* is the supervisor's job:
        it respawns on ``self.artifact_path``, which already names the new
        version, so recovery converges on the rollout's target.
        """
        with self._swap_lock:
            with self._lock:
                if self._table.closed:
                    raise ServiceClosedError("Router has been shut down")
                old_path = self.artifact_path
                # Point respawns at the new version *before* rolling: a slot
                # the supervisor recovers mid-rollout comes back already
                # upgraded (and the roll step detects that and keeps it).
                self.artifact_path = path
                slots = len(self._table.slots)
            try:
                for slot in range(slots):
                    self._roll_slot(slot, path, timeout_per_worker)
            except ArtifactSwapError:
                with self._lock:
                    self.artifact_path = old_path
                    stale = self._table.not_on(old_path)
                for slot in reversed(stale):
                    # Roll back what the swap upgraded — and what the supervisor
                    # respawned on the new path meanwhile.  old_path loaded
                    # moments ago, so failure here means the old artifact
                    # vanished mid-swap — nothing left to roll back to.
                    self._roll_slot(slot, old_path, timeout_per_worker)
                raise
            self.metrics.record_swap()
            logger.info("artifact swap complete: %d slots now serve %s",
                        slots, path)

    def _roll_slot(self, slot: int, path: str, timeout: float) -> None:
        """Upgrade one slot to ``path`` (spawn → ready-gate → install → drain)."""
        replacement = self._spawn(slot)
        if not replacement.wait_ready(timeout):
            detail = replacement.fatal_error or "worker did not become ready"
            replacement.stop(5.0)
            raise ArtifactSwapError(
                f"replacement for slot {slot} failed to start on {path!r}: {detail}")
        with self._lock:
            retiring = self._table.roll(slot, replacement, path)
            self._worker_available.notify_all()
        self._retire(retiring, 5.0 if retiring is replacement else timeout)

    def _retire(self, worker: WorkerProcess, timeout: float) -> None:
        """Drain a worker that left the table: ``stop()`` sends "shutdown", the child
        executes everything it admitted before exiting and the receiver resolves those
        futures.  What is unresolved after that — it died mid-drain — is re-dispatched."""
        worker.stop(timeout)
        leftover = worker.take_outstanding()
        if leftover:
            self._redispatch(leftover, worker.worker_id)

    def _redispatch(self, pending: List[_PendingRequest], worker_id: str) -> None:
        """Place what ``worker_id`` left unanswered on the live workers."""
        count = sum(request.count for request in pending)
        self.metrics.record_redispatch(worker_id, count)
        logger.warning("re-dispatching %d in-flight requests from %s", count, worker_id)
        for request in pending:
            # Re-dispatch under the *original* future: clients keep waiting on
            # the handle they already hold, and the request is never dropped.
            try:
                self._dispatch(request, block=True, timeout=120.0)
            except Exception as error:
                self._fail([request], error)

    # ------------------------------------------------------------------ reporting
    def report(self, worker_stats_timeout: float = 2.0) -> Dict[str, Any]:
        """Cluster metrics + per-worker child-service reports + configuration."""
        report = self.metrics.report()
        report["routing"] = getattr(self.routing, "name", type(self.routing).__name__)
        report["policy"] = {
            "max_batch_size": self.policy.max_batch_size,
            "queue_capacity": self.policy.queue_capacity,
        }
        report["artifact"] = self.artifact_path
        report["degraded"] = self.degraded
        report["worker_artifacts"] = {
            worker.worker_id: worker.artifact_path for worker in self.workers
        }
        services: Dict[str, Any] = {}
        for worker in self.workers:
            stats = worker.request_stats(worker_stats_timeout)
            if stats is not None:
                services[worker.worker_id] = stats
        report["worker_services"] = services
        return report

    def stats(self) -> Dict[str, Any]:
        """:class:`~repro.serving.api.InferenceTarget` alias of :meth:`report`."""
        return self.report()
