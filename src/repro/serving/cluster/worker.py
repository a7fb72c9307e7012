"""One cluster worker: an :class:`InferenceService` hosted in a subprocess.

The serving layer of PR 3 is thread-based, so every micro-batch still executes
under one GIL — the compiled sparse kernels never use more than one core.
:class:`WorkerProcess` moves the whole service (ModelPool + DynamicBatcher)
into a ``multiprocessing`` subprocess and talks to it through an
:class:`~repro.serving.cluster.channel.ArrayChannel`:

* the parent keeps a lightweight handle: ``submit()`` records the request in an
  *outstanding* table (future + original image, so a dead worker's in-flight
  requests can be re-dispatched) and sends one ``infer`` frame,
* a receiver thread resolves futures as ``result``/``error`` frames come back
  and tracks heartbeats,
* the child loads the artifact **from disk in its own process** (per-process
  engine warm-up: each worker owns its plan/layout caches — nothing compiled is
  shared across the fork/spawn boundary), starts heartbeating immediately (so
  slow artifact loads don't look like death), then serves its pipe.

Backpressure mirrors :class:`~repro.serving.batcher.DynamicBatcher`: the
parent bounds outstanding requests per worker at the policy's
``queue_capacity``; non-blocking submits beyond it raise
:class:`~repro.serving.batcher.QueueFullError`, blocking submits wait.

Worker death is never resolved as a request failure here — the requests stay
in the outstanding table for the :class:`~repro.serving.cluster.router.Router`
to re-dispatch (its zero-dropped-requests guarantee).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.serving.batcher import (
    BatchPolicy,
    InferenceFuture,
    QueueFullError,
    WorkerUnavailableError,
)
from repro.obs.tracing import TraceContext
from repro.serving.cluster.channel import (
    ArrayChannel,
    ChannelClosedError,
    flatten_arrays,
    unflatten_arrays,
)
from repro.serving.errors import (
    DeadlineExceededError,
    RemoteInferenceError,
    WIRE_ERRORS,
    error_code,
    error_from_wire,
)
from repro.utils.logging import get_logger

logger = get_logger("serving.cluster.worker")

#: Environment override for the multiprocessing start method ("fork"/"spawn").
START_METHOD_ENV = "REPRO_CLUSTER_START_METHOD"

# RemoteInferenceError used to be defined here; it now lives in
# repro.serving.errors (imported above) so its wire code is part of the
# unified hierarchy — the import doubles as the deprecation alias.


def _mp_context(start_method: Optional[str]):
    method = start_method or os.environ.get(START_METHOD_ENV) or None
    return multiprocessing.get_context(method)


# --------------------------------------------------------------------- child side
def _worker_main(
    connection,
    worker_id: str,
    artifact_path: str,
    policy_kwargs: Dict[str, Any],
    warmup: bool,
    heartbeat_interval: float,
    pool_capacity: int = 2,
    chaos_wire: Optional[Dict[str, Any]] = None,
) -> None:
    """Entry point of the worker subprocess: serve the pipe until shutdown."""
    # Imported lazily so a "spawn" child only pays for what it uses.
    from repro.serving.pool import ModelPool
    from repro.serving.service import InferenceService

    injector = None
    if chaos_wire is not None:
        from repro.serving.chaos import FaultInjector

        injector = FaultInjector.from_wire(chaos_wire)
    channel = ArrayChannel(connection, injector=injector)
    stop_heartbeat = threading.Event()
    state = {"outstanding": 0}

    def heartbeat_loop() -> None:
        # Beats from the very start, before the artifact is loaded, so a slow
        # load/compile never trips the router's health check.
        while True:
            meta = {
                "worker_id": worker_id,
                "pid": os.getpid(),
                "outstanding": state["outstanding"],
            }
            if injector is None or not injector.heartbeat_dropped():
                try:
                    channel.send("heartbeat", meta)
                except ChannelClosedError:
                    return
            if stop_heartbeat.wait(heartbeat_interval):
                return

    heartbeat = threading.Thread(
        target=heartbeat_loop, name=f"repro-worker-{worker_id}-heartbeat", daemon=True
    )
    heartbeat.start()

    try:
        service = InferenceService(
            artifact_path,
            policy=BatchPolicy(**policy_kwargs),
            pool=ModelPool(capacity=pool_capacity, warmup=warmup),
            warmup=warmup,
            name=worker_id,
        )
    except BaseException as error:
        detail = f"{type(error).__name__}: {error}"
        try:
            channel.send("fatal", {"worker_id": worker_id, "error": detail})
        except ChannelClosedError:
            pass
        stop_heartbeat.set()
        return

    # The artifact loaded and the service is accepting: tell the parent (the
    # rolling-swap path waits for this before retiring the old worker) and
    # only now arm the chaos lifecycle — a crash schedule must not be able to
    # masquerade as an artifact that cannot load (quick-death abandonment).
    try:
        channel.send("ready", {"worker_id": worker_id, "pid": os.getpid()})
    except ChannelClosedError:
        pass
    if injector is not None:
        injector.start_lifecycle()

    pending: Deque[Tuple[int, InferenceFuture]] = deque()
    pending_cv = threading.Condition()
    draining = threading.Event()

    def responder_loop() -> None:
        # Results resolve in submission order (one FIFO batcher per model), so a
        # single waiter draining `pending` in order never head-of-line blocks a
        # ready result for long.
        while True:
            with pending_cv:
                while not pending and not draining.is_set():
                    pending_cv.wait()
                if not pending:
                    return
                request_id, future = pending.popleft()
                state["outstanding"] = len(pending)
            # The batcher recorded this request's spans (queue-wait through
            # postprocess) on the rehydrated TraceContext riding the future;
            # ship them home in the header so the parent can absorb them into
            # the original trace.
            trace = getattr(future, "trace", None)
            try:
                result = future.result()
            except BaseException as error:
                meta = {"id": request_id, "error": str(error),
                        "type": type(error).__name__, "code": error_code(error)}
                if trace is not None:
                    meta["spans"] = trace.spans_to_wire()
                try:
                    channel.send("error", meta)
                except ChannelClosedError:
                    return
            else:
                treedef, arrays = flatten_arrays(result)
                meta = {"id": request_id, "tree": treedef}
                if trace is not None:
                    meta["spans"] = trace.spans_to_wire()
                try:
                    channel.send("result", meta, arrays)
                except ChannelClosedError:
                    return

    responder = threading.Thread(
        target=responder_loop, name=f"repro-worker-{worker_id}-responder", daemon=True
    )
    responder.start()

    try:
        while True:
            try:
                message = channel.recv()
            except ChannelClosedError:
                break
            if message.kind == "infer":
                request_id = int(message.meta["id"])
                # Rehydrate the parent's trace identity; buffered=False keeps
                # worker-side spans off the child ring — they travel back in
                # the result header instead.
                trace = TraceContext.from_wire(message.meta.get("trace"), buffered=False)
                try:
                    # block=True: the child's bounded queue pushes back through
                    # the pipe instead of buffering unboundedly.  Priority and
                    # the (recomputed-at-send) remaining deadline feed the
                    # child batcher's SLO scheduler.
                    future = service.submit(
                        message.arrays[0], model=message.meta.get("model"),
                        block=True, trace=trace,
                        priority=message.meta.get("priority", "normal"),
                        deadline_ms=message.meta.get("deadline_ms"),
                    )
                except BaseException as error:
                    try:
                        channel.send(
                            "error",
                            {"id": request_id, "error": str(error),
                             "type": type(error).__name__,
                             "code": error_code(error)},
                        )
                    except ChannelClosedError:
                        break
                    continue
                with pending_cv:
                    pending.append((request_id, future))
                    state["outstanding"] = len(pending)
                    pending_cv.notify()
            elif message.kind == "stats":
                try:
                    channel.send("stats", {"worker_id": worker_id, "report": service.report()})
                except ChannelClosedError:
                    break
            elif message.kind == "shutdown":
                break
    finally:
        # Drain: every admitted request is executed and its result shipped back.
        service.shutdown()
        draining.set()
        with pending_cv:
            pending_cv.notify_all()
        responder.join(timeout=30.0)
        stop_heartbeat.set()
        try:
            channel.send("bye", {"worker_id": worker_id})
        except ChannelClosedError:
            pass
        channel.close()


# -------------------------------------------------------------------- parent side
class _PendingRequest:
    """Parent-side record of one in-flight request (kept until resolution)."""

    __slots__ = ("future", "image", "model", "submitted_at", "trace",
                 "priority", "deadline")

    def __init__(self, future: InferenceFuture, image: np.ndarray, model: Optional[str],
                 trace: Optional[TraceContext] = None,
                 priority: str = "normal",
                 deadline: Optional[float] = None) -> None:
        self.future = future
        self.image = image
        self.model = model
        self.submitted_at = time.perf_counter()
        #: Router-side TraceContext; survives worker death (the record is
        #: re-dispatched with the same trace, so one trace_id covers both legs).
        self.trace = trace
        #: Priority class + absolute perf_counter deadline: a re-dispatched
        #: request keeps its class and its *original* budget (the remaining
        #: milliseconds are recomputed at each send).
        self.priority = priority
        self.deadline = deadline


class WorkerProcess:
    """Parent-side handle to one inference worker subprocess.

    Parameters
    ----------
    worker_id:
        Stable display name of the worker slot (e.g. ``"worker-0"``).
    artifact_path:
        ``DeployableArtifact`` ``.npz`` the child loads, recompiles and warms in
        its own process.
    heartbeat_interval:
        Seconds between the child's heartbeat frames
        (``ClusterSpec.heartbeat_interval``).
    policy:
        The child service's :class:`BatchPolicy`; its ``queue_capacity`` also
        bounds this handle's outstanding requests (admission control).
    pool_capacity:
        Residency bound of the child service's :class:`ModelPool`
        (``ServeSpec.pool_capacity``).
    metrics:
        Optional shared :class:`~repro.serving.cluster.metrics.ClusterMetrics`.
    start_method:
        ``multiprocessing`` start method (default: the platform default, i.e.
        ``fork`` on Linux; override with ``REPRO_CLUSTER_START_METHOD``).
    """

    # reprolint lock-discipline contract: the in-flight request table and the
    # admission flag are shared between submitters, the receiver thread, and
    # the Router's recovery path (`_space` is a Condition over `_lock`).
    # Heartbeat/stats fields are single-writer (receiver thread) by contract
    # and stay unguarded.
    _guarded_by_ = {
        "_outstanding": ("_lock", "_space"),
        "_accepting": ("_lock", "_space"),
    }

    _ids = itertools.count()

    def __init__(
        self,
        worker_id: str,
        artifact_path: str,
        heartbeat_interval: float,
        policy: Optional[BatchPolicy] = None,
        metrics: Optional[Any] = None,
        warmup: bool = True,
        start_method: Optional[str] = None,
        pool_capacity: int = 2,
        chaos_wire: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.worker_id = worker_id
        self.artifact_path = artifact_path
        self.policy = policy or BatchPolicy()
        self.metrics = metrics
        self.warmup = warmup
        self.heartbeat_interval = heartbeat_interval
        self.start_method = start_method
        self.pool_capacity = pool_capacity
        #: Wire form of the child's FaultInjector (None: no fault injection).
        self.chaos_wire = chaos_wire

        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.channel: Optional[ArrayChannel] = None
        self.started_at: Optional[float] = None
        self.last_heartbeat: Optional[float] = None
        self.fatal_error: Optional[str] = None

        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._outstanding: Dict[int, _PendingRequest] = {}
        self._next_id = itertools.count()
        self._accepting = False
        self._receiver: Optional[threading.Thread] = None
        self._stats_event = threading.Event()
        self._stats: Optional[Dict[str, Any]] = None
        # Set once the child reports its service is live ("ready" frame) or
        # can never be ("fatal" / channel gone); wait_ready() distinguishes.
        self._ready_event = threading.Event()

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> "WorkerProcess":
        """Spawn the subprocess and its receiver thread (idempotent-unsafe: once)."""
        context = _mp_context(self.start_method)
        parent_end, child_end = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main,
            args=(
                child_end,
                self.worker_id,
                self.artifact_path,
                {
                    "max_batch_size": self.policy.max_batch_size,
                    "max_wait_ms": self.policy.max_wait_ms,
                    "queue_capacity": self.policy.queue_capacity,
                },
                self.warmup,
                self.heartbeat_interval,
                self.pool_capacity,
                self.chaos_wire,
            ),
            name=f"repro-cluster-{self.worker_id}",
            daemon=True,
        )
        self.process.start()
        child_end.close()
        self.channel = ArrayChannel(parent_end)
        self.started_at = time.perf_counter()
        with self._lock:
            self._accepting = True
        self._receiver = threading.Thread(
            target=self._receiver_loop, name=f"repro-cluster-{self.worker_id}-recv", daemon=True
        )
        self._receiver.start()
        logger.info("started worker %s (pid %s)", self.worker_id, self.process.pid)
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: drain the child, then join (escalates to terminate)."""
        with self._lock:
            self._accepting = False
            self._space.notify_all()
        if self.channel is not None:
            try:
                self.channel.send("shutdown")
            except ChannelClosedError:
                pass
        if self.process is not None:
            self.process.join(timeout)
            if self.process.is_alive():  # pragma: no cover - defensive
                logger.warning(
                    "worker %s did not drain in %.1fs; terminating", self.worker_id, timeout
                )
                self.process.terminate()
                self.process.join(5.0)
        if self.channel is not None:
            self.channel.close()

    def kill(self) -> None:
        """Hard-kill the subprocess (failure-injection hook for tests/benchmarks)."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()

    # ------------------------------------------------------------------ health
    @property
    def accepting(self) -> bool:
        """True while this handle routes new submits to its process.

        The flag alone (routing reads it per request): a process that died
        clears it through the receiver's EOF or a failed send, and
        :meth:`healthy` probes the process itself once per monitor tick.
        """
        return self._accepting

    def healthy(self, heartbeat_timeout: float) -> bool:
        """Process alive and heartbeats fresh (loads count as the first beat)."""
        if not self.accepting or self.process is None or not self.process.is_alive():
            return False
        last = self.last_heartbeat if self.last_heartbeat is not None else self.started_at
        return last is not None and (time.perf_counter() - last) < heartbeat_timeout

    def wait_ready(self, timeout: float = 60.0) -> bool:
        """Block until the child's service is live; False on failure/timeout.

        The rolling-swap path gates on this before retiring an old-version
        worker: a replacement that cannot load its artifact must never cost
        the fleet the healthy worker it was meant to replace.
        """
        if not self._ready_event.wait(timeout):
            return False
        return self.fatal_error is None and self.accepting

    @property
    def outstanding_count(self) -> int:
        with self._lock:
            return len(self._outstanding)

    # ------------------------------------------------------------------ submission
    def submit(
        self,
        image: np.ndarray,
        model: Optional[str] = None,
        block: bool = False,
        timeout: Optional[float] = None,
        future: Optional[InferenceFuture] = None,
        submitted_at: Optional[float] = None,
        trace: Optional[TraceContext] = None,
        priority: str = "normal",
        request_deadline: Optional[float] = None,
    ) -> InferenceFuture:
        """Ship one ``(C, H, W)`` image to the worker; returns its future.

        ``future`` and ``submitted_at`` let the router re-dispatch a dead
        worker's request while keeping the handle the client already waits on
        and the original admission timestamp (so recorded latency stays
        admission-to-resolution, including the first, failed leg).  ``trace``
        crosses the pipe as a ``trace_id`` header field; the worker's spans
        come back in the result frame and are absorbed into it.

        ``request_deadline`` is the *absolute* ``perf_counter`` deadline (set
        once at router admission); the remaining budget is recomputed here at
        send time so queueing on the parent side eats into it, and a budget
        that ran out before the frame was even sent fails fast.
        """
        image = np.ascontiguousarray(image, dtype=np.float32)
        remaining_ms: Optional[float] = None
        if request_deadline is not None:
            remaining_ms = (request_deadline - time.perf_counter()) * 1e3
            if remaining_ms <= 0:
                raise DeadlineExceededError(
                    f"deadline expired before dispatch to worker {self.worker_id}")
        pending = _PendingRequest(future or InferenceFuture(), image, model,
                                  trace=trace, priority=priority,
                                  deadline=request_deadline)
        if trace is not None:
            pending.future.trace = trace
        if submitted_at is not None:
            pending.submitted_at = submitted_at
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._lock:
            if not self._accepting:
                raise WorkerUnavailableError(f"worker {self.worker_id} is not accepting requests")
            while len(self._outstanding) >= self.policy.queue_capacity:
                if not block:
                    raise QueueFullError(
                        f"worker {self.worker_id} has {len(self._outstanding)} requests in flight"
                    )
                remaining = None if deadline is None else deadline - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(f"timed out waiting for space on worker {self.worker_id}")
                if not self._space.wait(remaining):
                    raise TimeoutError(f"timed out waiting for space on worker {self.worker_id}")
                if not self._accepting:
                    raise WorkerUnavailableError(f"worker {self.worker_id} died while waiting")
            request_id = next(self._next_id)
            self._outstanding[request_id] = pending
        # Re-dispatched requests (future is not None) were already counted at
        # their original admission; counting again would desync submitted from
        # completed + failed.
        if self.metrics is not None and future is None:
            self.metrics.record_submit(self.worker_id)
        meta: Dict[str, Any] = {"id": request_id, "model": model,
                                "priority": priority}
        if request_deadline is not None:
            # Recompute the remaining budget as late as possible: parent-side
            # blocking above may have consumed part of it.
            meta["deadline_ms"] = max(
                (request_deadline - time.perf_counter()) * 1e3, 0.001)
        if trace is not None:
            meta["trace"] = trace.to_wire()
        try:
            self.channel.send("infer", meta, [image])
        except ChannelClosedError:
            # The request stays in the outstanding table: the router's monitor
            # will observe the death and re-dispatch it (never dropped here).
            self._mark_dead()
        return pending.future

    def take_outstanding(self) -> List[_PendingRequest]:
        """Drain the outstanding table (router-side re-dispatch after death)."""
        with self._lock:
            pending = list(self._outstanding.values())
            self._outstanding.clear()
            self._space.notify_all()
        return pending

    # ------------------------------------------------------------------ stats
    def request_stats(self, timeout: float = 2.0) -> Optional[Dict[str, Any]]:
        """The child service's ``report()`` dict, or None if the worker is gone."""
        if not self.accepting or self.channel is None:
            return None
        self._stats_event.clear()
        try:
            self.channel.send("stats")
        except ChannelClosedError:
            self._mark_dead()
            return None
        if not self._stats_event.wait(timeout):
            return None
        return self._stats

    # ------------------------------------------------------------------ receiver
    def _mark_dead(self) -> None:
        with self._lock:
            self._accepting = False
            self._space.notify_all()
        # Wake ready-waiters too: a worker that died before "ready" will
        # never send it (wait_ready() re-checks accepting/fatal_error).
        self._ready_event.set()

    def _receiver_loop(self) -> None:
        while True:
            try:
                message = self.channel.recv()
            except ChannelClosedError:
                self._mark_dead()
                return
            if message.kind == "result":
                pending = self._pop(int(message.meta["id"]))
                if pending is None:
                    continue
                # The arrays are read-only views of the received frame; the
                # caller gets writable copies that own their memory.
                result = unflatten_arrays(
                    message.meta["tree"], [array.copy() for array in message.arrays])
                latency = time.perf_counter() - pending.submitted_at
                pending.future._resolve(result)
                if self.metrics is not None:
                    self.metrics.record_completion(self.worker_id, latency)
                self._seal_trace(pending, message.meta)
            elif message.kind == "error":
                pending = self._pop(int(message.meta["id"]))
                if pending is None:
                    continue
                # A frame stamped with a known wire code rehydrates as the
                # typed exception (a deadline expiry inside the worker is a
                # DeadlineExceededError here too); anything else — a genuine
                # model failure — stays a RemoteInferenceError.
                code = message.meta.get("code")
                detail = (
                    f"worker {self.worker_id}: {message.meta.get('type', 'Error')}: "
                    f"{message.meta.get('error', '')}"
                )
                if code in WIRE_ERRORS and code != "serving_error":
                    error: BaseException = error_from_wire(code, detail)
                else:
                    error = RemoteInferenceError(detail)
                pending.future._fail(error)
                if self.metrics is not None:
                    self.metrics.record_completion(
                        self.worker_id, time.perf_counter() - pending.submitted_at, failed=True
                    )
                self._seal_trace(pending, message.meta)
            elif message.kind == "heartbeat":
                self.last_heartbeat = time.perf_counter()
            elif message.kind == "ready":
                self._ready_event.set()
            elif message.kind == "stats":
                self._stats = message.meta.get("report")
                self._stats_event.set()
            elif message.kind == "fatal":
                self.fatal_error = message.meta.get("error")
                logger.error("worker %s failed to start: %s", self.worker_id, self.fatal_error)
                self._mark_dead()
            elif message.kind == "bye":
                self._mark_dead()

    @staticmethod
    def _seal_trace(pending: _PendingRequest, meta: Dict[str, Any]) -> None:
        """Absorb the worker's shipped-back spans and seal the router trace."""
        trace = pending.trace
        if trace is None:
            return
        spans = meta.get("spans")
        if spans:
            trace.absorb_wire_spans(spans)
        trace.finish()

    def _pop(self, request_id: int) -> Optional[_PendingRequest]:
        with self._lock:
            pending = self._outstanding.pop(request_id, None)
            if pending is not None:
                self._space.notify()
        return pending
