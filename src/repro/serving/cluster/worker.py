"""One cluster worker: an :class:`InferenceService` hosted in a subprocess.

The in-process serving layer is thread-based, so every micro-batch still
executes under one GIL — the compiled sparse kernels never use more than one
core.  :class:`WorkerProcess` moves the whole service (the warmed model + its
DynamicBatcher) into a ``multiprocessing`` subprocess and talks to it through an
:class:`~repro.serving.cluster.channel.ArrayChannel`:

* the parent keeps a lightweight handle: ``dispatch()`` records a burst of
  requests in an *outstanding* table (future + original images, so a dead
  worker's in-flight requests can be re-dispatched) and sends it as one
  ``infer`` frame — a single request is a burst of one,
* a receiver thread settles futures as ``result``/``error`` frames come back —
  one frame per micro-batch the child executed, answering a run of
  consecutive ids — and tracks heartbeats,
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

import multiprocessing
import os
import threading
import time
from collections import deque
from functools import partial
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.serving.batcher import (
    BatchPolicy,
    Images,
    InferenceFuture,
    QueueFullError,
    WorkerUnavailableError,
)
from repro.obs.tracing import TraceContext
from repro.serving.cluster.channel import (
    ArrayChannel,
    ChannelClosedError,
    Message,
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

#: Deployment override for the multiprocessing start method ("fork"/"spawn";
#: default: the platform's, i.e. ``fork`` on Linux).
START_METHOD_ENV = "REPRO_CLUSTER_START_METHOD"


def _mp_context():
    return multiprocessing.get_context(os.environ.get(START_METHOD_ENV) or None)


# --------------------------------------------------------------------- child side
def _reply_frame(first_id: int, count: int, outputs: Any, error: Optional[BaseException],
                 traces: Optional[Sequence[TraceContext]]) -> Tuple[str, Dict[str, Any], Any]:
    """The ``(kind, meta, arrays)`` answering requests ``[first_id, first_id + count)``.

    The batcher recorded each request's spans (queue-wait through postprocess)
    on the rehydrated TraceContext riding the future; they ship home in the
    header, one list per request, so the parent can absorb them into the
    original traces.
    """
    meta: Dict[str, Any] = {"id": first_id}
    if count != 1:
        meta["count"] = count
    if traces:
        meta["spans"] = [trace.spans_to_wire() for trace in traces]
    if error is not None:
        meta.update(error=str(error), type=type(error).__name__, code=error_code(error))
        return "error", meta, ()
    meta["tree"], arrays = flatten_arrays(outputs)
    return "result", meta, arrays


def _worker_main(
    connection,
    worker_id: str,
    artifact_path: str,
    policy_kwargs: Dict[str, Any],
    heartbeat_interval: float,
) -> None:
    """Entry point of the worker subprocess: serve the pipe until shutdown."""
    # Imported lazily so a "spawn" child only pays for what it uses.
    from repro.serving.service import InferenceService

    channel = ArrayChannel(connection)
    stop_heartbeat = threading.Event()
    # Requests admitted (written by the main loop) and answered (by the
    # responder): single writers, so the heartbeat reads them without a lock.
    state = {"admitted": 0, "answered": 0}

    def heartbeat_loop() -> None:
        # Beats from the very start, before the artifact is loaded, so a slow
        # load/compile never trips the router's health check.
        while True:
            meta = {
                "worker_id": worker_id,
                "pid": os.getpid(),
                "outstanding": state["admitted"] - state["answered"],
            }
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
    # rolling-swap path waits for this before retiring the old worker).
    try:
        channel.send("ready", {"worker_id": worker_id, "pid": os.getpid()})
    except ChannelClosedError:
        pass

    #: Settled runs waiting for the responder, as `_reply_frame` arguments.
    settled: Deque[Tuple[Any, ...]] = deque()
    settled_cv = threading.Condition()
    draining = threading.Event()

    def answer(first_id: int, future: InferenceFuture, start: int, stop: int,
               outputs: Any, error: Optional[BaseException]) -> None:
        # Run callback, on the batcher thread: one entry per executed run.
        traces = future.traces
        with settled_cv:
            settled.append((first_id + start, stop - start, outputs, error,
                            traces[start:stop] if traces else None))
            settled_cv.notify()

    def responder_loop() -> None:
        # One wake-up answers everything that settled meanwhile, with one
        # write: a reply frame per run, i.e. per micro-batch, not per image.
        while True:
            with settled_cv:
                while not settled and not draining.is_set():
                    settled_cv.wait()
                if not settled:
                    return
                runs = list(settled)
                settled.clear()
            state["answered"] += sum(run[1] for run in runs)
            try:
                channel.send_all([_reply_frame(*run) for run in runs])
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
                meta = message.meta
                request_id = int(meta["id"])
                (images,) = message.arrays        # (N, C, H, W): requests id .. id + N - 1
                # Rehydrate the parent's trace identities; buffered=False keeps
                # worker-side spans off the child ring — they travel back in
                # the result header instead.
                traces = None
                if meta.get("trace"):
                    traces = [TraceContext.from_wire(wire, buffered=False)
                              for wire in meta["trace"]]
                try:
                    # block=True: the child's bounded queue pushes back through
                    # the pipe instead of buffering unboundedly.  Priority and
                    # the (recomputed-at-send) remaining deadline feed the
                    # child batcher's SLO scheduler.
                    future = service.submit_group(
                        images, block=True, traces=traces,
                        priority=meta.get("priority", "normal"),
                        deadline_ms=meta.get("deadline_ms"),
                    )
                except BaseException as error:
                    try:
                        channel.send(*_reply_frame(request_id, len(images), None, error, None))
                    except ChannelClosedError:
                        break
                    continue
                state["admitted"] += len(images)
                future.add_run_callback(partial(answer, request_id))
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
        with settled_cv:
            settled_cv.notify_all()
        responder.join(timeout=30.0)
        stop_heartbeat.set()
        try:
            channel.send("bye", {"worker_id": worker_id})
        except ChannelClosedError:
            pass
        channel.close()


# -------------------------------------------------------------------- parent side
class _PendingRequest:
    """Parent-side record of one burst in flight (kept until it is answered).

    Covers requests ``[offset, offset + count)`` of ``future`` — the whole
    burst as admitted, or the part of one that is sent, or re-sent, by itself:
    what did not fit a worker's queue bound, what a dead worker left
    unanswered.
    """

    __slots__ = ("future", "offset", "images", "count", "submitted_at", "traces",
                 "priority", "deadline", "base_id", "fresh", "worker_id")

    def __init__(self, future: InferenceFuture, offset: int, images: Images,
                 traces: Optional[Sequence[TraceContext]] = None,
                 priority: str = "normal",
                 deadline: Optional[float] = None) -> None:
        self.future = future
        self.offset = offset
        self.images = images
        self.count = len(images)
        self.submitted_at = time.perf_counter()
        #: Router-side TraceContexts, one per request; they survive worker
        #: death (the record is re-dispatched with the same traces, so one
        #: trace_id covers both legs).
        self.traces = traces
        #: Priority class + absolute perf_counter deadline: a re-dispatched
        #: request keeps its class and its *original* budget (the remaining
        #: milliseconds are recomputed at each send).
        self.priority = priority
        self.deadline = deadline
        #: Wire id of the first request, set when the frame is registered.
        self.base_id = 0
        #: Not yet counted as submitted (a re-dispatch was, at its admission).
        self.fresh = True
        #: The worker that handed this record back (no room / unanswered), for the ledger.
        self.worker_id: Optional[str] = None

    def part(self, start: int, stop: int) -> "_PendingRequest":
        """The record of requests ``[start, stop)`` of this one, to send by itself."""
        part = _PendingRequest(
            self.future, self.offset + start, self.images[start:stop],
            self.traces[start:stop] if self.traces else None, self.priority, self.deadline)
        # Recorded latency stays admission-to-resolution across every leg.
        part.submitted_at = self.submitted_at
        part.fresh = self.fresh
        part.worker_id = self.worker_id
        return part

    def fail(self, error: BaseException) -> None:
        """Fail exactly the requests this record covers."""
        self.future._settle(self.offset, self.offset + self.count, None, error)


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
    metrics:
        Optional shared :class:`~repro.serving.cluster.metrics.ClusterMetrics`.
    """

    # reprolint lock-discipline contract: the in-flight request table and the
    # admission flag are shared between submitters, the receiver thread, and
    # the Router's recovery path (`_space` is a Condition over `_lock`).
    # Heartbeat/stats fields are single-writer (receiver thread) by contract
    # and stay unguarded.
    _guarded_by_ = {
        "_outstanding": ("_lock", "_space"),
        "_next_id": ("_lock", "_space"),
        "_accepting": ("_lock", "_space"),
    }

    def __init__(
        self,
        worker_id: str,
        artifact_path: str,
        heartbeat_interval: float,
        policy: Optional[BatchPolicy] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.worker_id = worker_id
        self.artifact_path = artifact_path
        self.policy = policy or BatchPolicy()
        self.metrics = metrics
        self.heartbeat_interval = heartbeat_interval

        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.channel: Optional[ArrayChannel] = None
        self.started_at: Optional[float] = None
        self.last_heartbeat: Optional[float] = None
        self.fatal_error: Optional[str] = None

        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        #: Wire id -> the record of the frame it went out in; one entry per
        #: *request*, so the table's length is the worker's load in images.
        self._outstanding: Dict[int, _PendingRequest] = {}
        self._next_id = 0
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
        self.process, self.channel = self._launch()
        self.started_at = time.perf_counter()
        with self._lock:
            self._accepting = True
        self._receiver = threading.Thread(
            target=self._receiver_loop, name=f"repro-cluster-{self.worker_id}-recv", daemon=True
        )
        self._receiver.start()
        logger.info("started worker %s (pid %s)", self.worker_id, self.process.pid)
        return self

    def _launch(self) -> Tuple[Any, Any]:
        """Fork the child → ``(process, parent end of its channel)``: the one place this
        handle meets ``multiprocessing`` (a simulation returns in-memory stand-ins)."""
        context = _mp_context()
        parent_end, child_end = context.Pipe(duplex=True)
        process = context.Process(
            target=_worker_main,
            args=(
                child_end,
                self.worker_id,
                self.artifact_path,
                {
                    "max_batch_size": self.policy.max_batch_size,
                    "queue_capacity": self.policy.queue_capacity,
                },
                self.heartbeat_interval,
            ),
            name=f"repro-cluster-{self.worker_id}",
            daemon=True,
        )
        process.start()
        child_end.close()
        return process, ArrayChannel(parent_end)

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
        if self._receiver is not None:
            # Every frame the child sent before exiting is handled before the pipe closes.
            self._receiver.join(5.0)
        if self.channel is not None:
            self.channel.close()

    def kill(self) -> None:
        """Hard-kill the subprocess (failure-injection hook for tests/benchmarks)."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()

    def reap(self) -> List[_PendingRequest]:
        """Recovery's one action on a dead or hung worker; returns what it still owed.

        SIGKILL at once: the child handles no SIGTERM, so a polite signal would drain
        nothing — and stays *pending* on a SIGSTOPped (hung) worker for the whole join.
        """
        self._mark_dead()
        self.kill()
        self.process.join(5.0)
        self.channel.close()
        return self.take_outstanding()

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
    def dispatch(self, request: _PendingRequest, block: bool = False,
                 timeout: Optional[float] = None) -> Optional[_PendingRequest]:
        """Ship ``request`` to the worker as one ``infer`` frame; returns what is left.

        The queue bound counts images: when the worker has room for only part
        of the burst, that part goes out and the record of the rest is
        returned for the router to place (``None``: all of it went).  With no
        room at all a non-blocking dispatch raises
        :class:`~repro.serving.errors.QueueFullError` and a blocking one waits.

        The record carries what a re-dispatch must keep: the future the client
        already waits on, the original admission timestamp (so recorded
        latency stays admission-to-resolution, including a first, failed leg)
        and the traces, which cross the pipe as ``trace_id`` header fields;
        the worker's spans come back in the result frames and are absorbed.

        ``request.deadline`` is the *absolute* ``perf_counter`` deadline (set
        once at router admission); the remaining budget is recomputed here at
        send time so queueing on the parent side eats into it, and a budget
        that ran out before the frame was even sent fails fast.
        """
        if request.deadline is not None and request.deadline <= time.perf_counter():
            raise DeadlineExceededError(
                f"deadline expired before dispatch to worker {self.worker_id}")
        give_up = None if timeout is None else time.perf_counter() + timeout
        rest: Optional[_PendingRequest] = None
        with self._lock:
            if not self._accepting:
                raise WorkerUnavailableError(f"worker {self.worker_id} is not accepting requests")
            while len(self._outstanding) >= self.policy.queue_capacity:
                if not block:
                    raise QueueFullError(
                        f"worker {self.worker_id} has {len(self._outstanding)} requests in flight"
                    )
                remaining = None if give_up is None else give_up - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(f"timed out waiting for space on worker {self.worker_id}")
                if not self._space.wait(remaining):
                    raise TimeoutError(f"timed out waiting for space on worker {self.worker_id}")
                if not self._accepting:
                    raise WorkerUnavailableError(f"worker {self.worker_id} died while waiting")
            room = self.policy.queue_capacity - len(self._outstanding)
            if room < request.count:
                request, rest = request.part(0, room), request.part(room, request.count)
                rest.worker_id = self.worker_id
            first_id = request.base_id = self._next_id
            self._next_id += request.count
            self._outstanding.update(
                dict.fromkeys(range(first_id, first_id + request.count), request))
        # Re-dispatched requests were already counted at their original
        # admission; counting again would desync submitted from
        # completed + failed.
        if self.metrics is not None and request.fresh:
            self.metrics.record_submit(self.worker_id, request.count)
        request.fresh = False
        meta: Dict[str, Any] = {"id": first_id, "priority": request.priority}
        if request.deadline is not None:
            # Recompute the remaining budget as late as possible: parent-side
            # blocking above may have consumed part of it.
            meta["deadline_ms"] = max(
                (request.deadline - time.perf_counter()) * 1e3, 0.001)
        if request.traces:
            meta["trace"] = [trace.to_wire() for trace in request.traces]
        try:
            self.channel.send("infer", meta, [request.images])
        except ChannelClosedError:
            # The requests stay in the outstanding table: the router's monitor
            # will observe the death and re-dispatch them (never dropped here).
            self._mark_dead()
        return rest

    def take_outstanding(self) -> List[_PendingRequest]:
        """Drain the outstanding table (router-side re-dispatch after death).

        One record per run of consecutive unanswered requests of one frame —
        usually the tail of a burst the worker was in the middle of.
        """
        with self._lock:
            table, self._outstanding = self._outstanding, {}
            self._space.notify_all()
        ids = sorted(table)
        pending: List[_PendingRequest] = []
        index = 0
        while index < len(ids):
            request = table[ids[index]]
            stop = index + 1
            while (stop < len(ids) and ids[stop] == ids[stop - 1] + 1
                   and table[ids[stop]] is request):
                stop += 1
            pending.append(request.part(ids[index] - request.base_id,
                                        ids[stop - 1] + 1 - request.base_id))
            pending[-1].worker_id = self.worker_id
            index = stop
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
            self._handle(message)

    def _handle(self, message: Message) -> None:
        """What one frame from the child does to this handle."""
        if message.kind == "result" or message.kind == "error":
            # One frame answers requests [id, id + count): a run the child
            # executed (or dropped) as one micro-batch.
            meta = message.meta
            first_id, count = int(meta["id"]), int(meta.get("count", 1))
            request = self._pop(first_id, count)
            if request is None:
                return
            failed = message.kind == "error"
            outputs, error = None, None
            if failed:
                error = self._reply_error(meta)
            else:
                outputs = self._reply_outputs(message)
            first = first_id - request.base_id
            latency = time.perf_counter() - request.submitted_at
            # Counted before settling: a caller woken by the future reads it counted.
            if self.metrics is not None:
                self.metrics.record_completion(self.worker_id, latency, failed, count)
            request.future._settle(request.offset + first, request.offset + first + count,
                                   outputs, error)
            # Absorb the worker's shipped-back spans and seal the traces.
            if request.traces:
                spans = meta.get("spans") or ()
                for index, trace in enumerate(request.traces[first:first + count]):
                    if index < len(spans):
                        trace.absorb_wire_spans(spans[index])
                    trace.finish()
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
    def _reply_outputs(message: Message) -> Any:
        """A result frame's outputs: the arrays are read-only views of the
        received frame; the caller gets writable copies that own their memory."""
        return unflatten_arrays(
            message.meta["tree"], [array.copy() for array in message.arrays])

    def _reply_error(self, meta: Dict[str, Any]) -> BaseException:
        """An error frame as its exception.

        A frame stamped with a known wire code rehydrates as the typed
        exception (a deadline expiry inside the worker is a
        DeadlineExceededError here too); anything else — a genuine model
        failure — stays a RemoteInferenceError.
        """
        code = meta.get("code")
        detail = f"worker {self.worker_id}: {meta.get('type', 'Error')}: {meta.get('error', '')}"
        if code in WIRE_ERRORS and code != "serving_error":
            return error_from_wire(code, detail)
        return RemoteInferenceError(detail)

    def _pop(self, first_id: int, count: int) -> Optional[_PendingRequest]:
        """Take requests ``[first_id, first_id + count)`` off the table; their record."""
        with self._lock:
            request = self._outstanding.get(first_id)
            if request is not None:
                for request_id in range(first_id, first_id + count):
                    self._outstanding.pop(request_id, None)
                self._space.notify(count)
        return request
