"""Dynamic micro-batching: coalesce requests into model batches.

The R-TOSS engine's compiled GEMMs amortize their gather/launch overhead over
the batch axis, so serving one image at a time throws most of the measured
kernel speedup away.  :class:`DynamicBatcher` recovers it at the service
boundary: producers :meth:`~DynamicBatcher.submit` single images — or
:meth:`~DynamicBatcher.submit_group` a burst of them as one unit — and get an
:class:`InferenceFuture` back; a dedicated worker thread coalesces queued
requests into micro-batches under a :class:`BatchPolicy`, executes each batch,
and resolves each run of requests that came in together with its slice of the
batched output.

The worker is work-conserving: once it is free it takes whatever live requests
are queued, up to ``max_batch_size``, and runs them at once — it never holds a
request for company that may not come.  Under load batches still fill, from
what piles up while the previous forward runs, and a burst is cut into full
batches either way.

A burst is one unit
-------------------
A group of N images is admitted under one lock acquisition and one wake-up,
waits in the queue as one entry (a *segment*), and is cut into micro-batches
on the way out.  A micro-batch that is a contiguous run of one ``(N, C, H, W)``
stack is a zero-copy slice of it — no ``np.stack`` — and every executed run
is resolved with one call: one lock, one callback, one output slice.  A
single :meth:`~DynamicBatcher.submit` is the N = 1 case of the same code.
Everything below keeps its per-image meaning: a segment counts its images
against ``queue_capacity``, and a burst that does not fit is admitted in the
chunks that do.

Backpressure is explicit: the queue is bounded by ``queue_capacity`` and a
non-blocking submit is refused with :class:`QueueFullError` instead of
buffering unboundedly (admission control); ``block=True`` turns the same bound
into producer backpressure.  Shutdown drains: every request admitted before
:meth:`~DynamicBatcher.shutdown` is executed and resolved — nothing is dropped
(except requests whose deadline expires, see below).

SLO-aware scheduling (the gateway PR)
-------------------------------------
Requests carry a **priority class** and an optional **deadline** (a burst
shares one of each):

* the queue is a priority heap ordered by ``(class rank, admission order)``
  — between GEMMs the worker refills the next micro-batch from the highest
  class first (continuous batching), so a ``high`` request admitted while a
  batch executes jumps ahead of queued ``low`` work,
* a request whose ``deadline_ms`` already passed — or would pass during the
  queue's *expected wait* (queue depth ÷ measured images per second) — is rejected
  at admission with :class:`DeadlineExceededError` instead of being queued,
* a request that expires while queued is **dropped** (it fails with
  :class:`DeadlineExceededError`) rather than executed; the batcher re-checks
  immediately before execution, so an expired request never reaches a GEMM —
  the part of a burst that already ran keeps its results,
* when the queue is full, an arriving request may **preempt** the newest
  queued request of a strictly lower class (the victim fails with
  :class:`AdmissionRejectedError`) — under overload the low class absorbs
  the rejections while the high class keeps its SLO.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.runner import (
    RunnerStats,
    _concat_outputs,
    _copy_if_aliased,
    _split_outputs,
    map_structure,
)
from repro.obs.tracing import TraceContext
from repro.serving.api import priority_index
from repro.serving.errors import (
    AdmissionRejectedError,
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
    WorkerUnavailableError,
)
from repro.serving.metrics import ServingMetrics
from repro.utils.logging import get_logger

__all__ = [
    "BatchPolicy",
    "DynamicBatcher",
    "Images",
    "InferenceFuture",
    "QueueFullError",
    "ServiceClosedError",
    "WorkerUnavailableError",
    "as_images",
    "collect",
    "one_image",
    "submit_bursts",
]

logger = get_logger("serving.batcher")

# QueueFullError / ServiceClosedError / WorkerUnavailableError were defined
# here before repro.serving.errors unified the hierarchy; the imports above
# double as deprecation aliases so historical import paths keep working.

#: The images of a group: one ``(N, C, H, W)`` stack, or N separate
#: ``(C, H, W)`` arrays.  Both slice by request index; neither is joined or
#: copied on the way to the micro-batch that runs it.
Images = Union[np.ndarray, List[np.ndarray]]


@dataclass
class BatchPolicy:
    """Knobs of the micro-batching policy.

    max_batch_size:
        The most requests one batch takes off the queue.
    queue_capacity:
        Bound of the admission queue; beyond it, non-blocking submits are
        rejected with :class:`QueueFullError` (or preempt a lower class).
    """

    max_batch_size: int = 8
    queue_capacity: int = 256

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"BatchPolicy.max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.queue_capacity < 1:
            raise ValueError(f"BatchPolicy.queue_capacity must be >= 1, got {self.queue_capacity}")


def as_images(images: Any) -> Tuple[Images, Tuple[int, ...]]:
    """Normalise what a group submit was given; returns ``(images, image shape)``.

    An ndarray must be an ``(N, C, H, W)`` stack and stays one (float32,
    C-contiguous — a view when it already is); anything else is read as a
    sequence of ``(C, H, W)`` images of one shape.  Raises ``ValueError`` for
    an empty group.
    """
    if isinstance(images, np.ndarray):
        if images.ndim != 4:
            raise ValueError(f"expected an (N, C, H, W) stack, got shape {images.shape}")
        images = np.ascontiguousarray(images, dtype=np.float32)
        shape = images.shape[1:]
    else:
        images = [np.asarray(image, dtype=np.float32) for image in images]
        shapes = {image.shape for image in images}
        if len(shapes) > 1:
            raise ValueError(f"the images of one group must share a shape, got {sorted(shapes)}")
        shape = next(iter(shapes), ())
        if images and len(shape) != 3:
            raise ValueError(f"expected (C, H, W) images, got shape {shape}")
    if not len(images):
        raise ValueError("submit_many received no images")
    return images, tuple(shape)


class InferenceFuture:
    """Handle to ``count`` in-flight requests admitted as one unit.

    One request (``count == 1``, what ``submit`` returns) or a burst of them
    with consecutive indices (what ``submit_group`` returns).  Resolvers
    settle it in **runs** — ``[start, stop)`` index ranges that executed (or
    failed) together — and :meth:`result` puts the runs back in request order.
    With ``itemized`` set, a run's outputs are a list of per-request values
    (postprocessed results) instead of one array structure batched over it.
    """

    __slots__ = ("count", "traces", "resolved_at", "_itemized", "_lock",
                 "_remaining", "_runs", "_event", "_callbacks")

    def __init__(self, count: int = 1, itemized: bool = False) -> None:
        self.count = count
        #: One :class:`repro.obs.TraceContext` per request when tracing is
        #: armed (set at admission), else ``None`` — how callers correlate a
        #: result with its spans in the trace buffer.
        self.traces: Optional[Sequence[TraceContext]] = None
        #: ``time.perf_counter()`` when the last request resolved (for
        #: client-side latency math).
        self.resolved_at: Optional[float] = None
        self._itemized = itemized
        self._lock = threading.Lock()
        self._remaining = count
        #: Settled runs ``(start, stop, outputs, error)``, in resolution order.
        self._runs: List[Tuple[int, int, Any, Optional[BaseException]]] = []
        #: Made by the first waiter that finds the future unresolved.
        self._event: Optional[threading.Event] = None
        #: ``(callback, per_run)`` registered before resolution; replaced, never
        #: mutated, so a resolver iterates the tuple it read under the lock.
        self._callbacks: Tuple[Tuple[Callable[..., None], bool], ...] = ()

    def done(self) -> bool:
        return not self._remaining

    def _wait(self, timeout: Optional[float]) -> None:
        with self._lock:
            if not self._remaining:
                return
            if self._event is None:
                self._event = threading.Event()
            event = self._event
        if not event.wait(timeout):
            raise TimeoutError("inference request did not complete in time")

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """Block until resolved; the error of the earliest failed request, if any."""
        self._wait(timeout)
        failed = [run for run in self._runs if run[3] is not None]
        return min(failed, key=lambda run: run[0])[3] if failed else None

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until resolved; re-raises the batch's exception on failure.

        One request resolves to its own output (batch axis of length 1); a
        burst to its outputs concatenated along the batch axis in request
        order (the per-request values as a list, when ``itemized``).
        """
        value = collect((self,), timeout)
        return value[0] if self._itemized and self.count == 1 else value

    def add_done_callback(self, callback: Callable[["InferenceFuture"], None]) -> None:
        """Call ``callback(self)`` when resolved (immediately if it already is).

        Callbacks run on the resolving thread (the batcher worker, a cluster
        receiver, or a gateway reader) and must be cheap and non-blocking —
        the async gateway uses this to hop results back onto its event loop
        without parking a thread per outstanding request.
        """
        with self._lock:
            if self._remaining:
                self._callbacks += ((callback, False),)
                return
        callback(self)

    def add_run_callback(self, callback: Callable[..., None]) -> None:
        """Call ``callback(self, start, stop, outputs, error)`` for every run.

        Runs settled before the registration are delivered at once, on this
        thread; later ones on their resolving thread, as they happen — so a
        hop can answer each micro-batch of a burst without waiting for the
        rest.  Each run is delivered exactly once.
        """
        with self._lock:
            settled = list(self._runs)
            if self._remaining:
                self._callbacks += ((callback, True),)
        for run in settled:
            callback(self, *run)

    # ------------------------------------------------------------------ internal
    def _resolve(self, result: Any) -> None:
        """Settle every request at once with the outputs batched over them."""
        self._settle(0, self.count, result, None)

    def _fail(self, error: BaseException) -> None:
        """Fail every request that has not settled yet."""
        with self._lock:
            gaps, position = [], 0
            for start, stop in sorted(run[:2] for run in self._runs) + [(self.count,) * 2]:
                if start > position:
                    gaps.append((position, start, None, error))
                position = max(position, stop)
            if not gaps:
                return
            woken = self._record_locked(gaps)
        self._notify(gaps, *woken)

    def _settle(self, start: int, stop: int, outputs: Any,
                error: Optional[BaseException]) -> None:
        """Record the run ``[start, stop)`` and tell whoever waits for it."""
        runs = [(start, stop, outputs, error)]
        with self._lock:
            if stop - start > self._remaining:
                return               # already failed as a whole: first word wins
            woken = self._record_locked(runs)
        self._notify(runs, *woken)

    def _record_locked(self, runs):  # reprolint: holds=_lock
        self._runs.extend(runs)
        self._remaining -= sum(run[1] - run[0] for run in runs)
        callbacks, done = self._callbacks, not self._remaining
        if done:
            self._callbacks = ()
            self.resolved_at = time.perf_counter()
        return callbacks, done, self._event

    def _notify(self, runs, callbacks, done, event) -> None:
        """Outside the lock: wake the waiter, then run the callbacks."""
        if done and event is not None:
            event.set()
        for callback, per_run in callbacks:
            try:
                if per_run:
                    for run in runs:
                        callback(self, *run)
                elif done:
                    callback(self)
            except Exception:  # pragma: no cover - callbacks must not kill resolvers
                logger.exception("InferenceFuture callback raised")


def collect(futures: Iterable[InferenceFuture], timeout: Optional[float] = None) -> Any:
    """Wait for every future (``timeout`` each) and join their outputs once.

    The outputs of all runs of all futures, in request order, through one
    concatenation along the batch axis; the earliest failed request's error is
    raised instead.  ``InferenceFuture.result`` is this over one future, and
    every ``submit_many`` is a group submit followed by this.
    """
    runs: List[Tuple[int, int, Any, Optional[BaseException]]] = []
    itemized = False
    for future in futures:
        future._wait(timeout)
        runs.extend(sorted(future._runs, key=lambda run: run[0]))
        itemized = future._itemized
    for run in runs:
        if run[3] is not None:
            raise run[3]
    if itemized:
        return [item for run in runs for item in run[2]]
    return runs[0][2] if len(runs) == 1 else _concat_outputs([run[2] for run in runs])


def submit_bursts(submit_group: Callable[[Images], InferenceFuture], images: Images,
                  burst: int, window: int, timeout: Optional[float] = None) -> Any:
    """The ``submit_many`` of a target behind a wire: bursts out, one wait, one join.

    ``images`` (as :func:`as_images` returns them) go to ``submit_group`` in
    frames of ``burst`` images, at most ``window`` of them unanswered at a
    time — the caller sizes it to keep every hop it feeds busy, while what is
    in flight (and has to be kept for a re-dispatch) stays a few frames, not
    the whole stack.  Returns :func:`collect` over the bursts.
    """
    futures: List[InferenceFuture] = []
    for start in range(0, len(images), burst):
        if len(futures) >= window:
            futures[-window]._wait(timeout)
        futures.append(submit_group(images[start:start + burst]))
    return collect(futures, timeout)


class _Segment:
    """A run ``[start, stop)`` of one group's requests, waiting in the queue.

    A group admitted at once is one segment; one admitted in chunks (blocking
    for space) is one per chunk.  The worker takes micro-batches off the front
    by moving ``start``; preemption takes victims off the back by moving
    ``stop``.
    """

    __slots__ = ("future", "images", "start", "stop", "priority", "cls", "deadline",
                 "enqueued_at", "enqueued_wall", "popped_wall")

    def __init__(self, future: InferenceFuture, images: Images, start: int, stop: int,
                 priority: int, cls: str, deadline: Optional[float]) -> None:
        self.future = future
        #: All images of the group; the segment's own are ``images[start:stop]``.
        self.images = images
        self.start = start
        self.stop = stop
        #: Scheduling rank (0 = best class) and its class name (for metrics).
        self.priority = priority
        self.cls = cls
        #: Absolute ``perf_counter`` deadline, or None for no latency budget.
        self.deadline = deadline
        self.enqueued_at = time.perf_counter()
        # Wall-clock (epoch) twins of the perf_counter timestamps, recorded
        # only for traced requests: spans must be comparable across processes.
        self.enqueued_wall = time.time() if future.traces is not None else 0.0
        self.popped_wall = 0.0

    def expired(self) -> bool:
        return self.deadline is not None and time.perf_counter() > self.deadline


#: One part of a micro-batch: requests ``[start, stop)`` of ``segment.future``.
_Run = Tuple[_Segment, int, int]


def _traces(future: InferenceFuture, start: int, stop: int) -> Sequence[TraceContext]:
    """The traces of requests ``[start, stop)``; none when tracing is off."""
    return future.traces[start:stop] if future.traces is not None else ()


def _slice_runs(outputs: Any, lengths: List[int]) -> List[Any]:
    """One batched output split into one part per run (views along the batch axis)."""
    total = sum(lengths)

    def check(array: np.ndarray) -> np.ndarray:
        if array.shape[0] != total:
            raise ValueError(
                f"cannot split batch axis of length {array.shape[0]} into {total} requests")
        return array

    map_structure(check, outputs, strict=True)
    if len(lengths) == 1:
        return [outputs]
    parts, start = [], 0
    for length in lengths:
        stop = start + length
        parts.append(map_structure(lambda array, a=start, b=stop: array[a:b], outputs))
        start = stop
    return parts


def one_image(image: Any) -> np.ndarray:
    """What ``submit`` was given, as the ``(1, C, H, W)`` stack of a group of one."""
    image = np.ascontiguousarray(image, dtype=np.float32)
    if image.ndim == 3:
        return image[None]
    if image.ndim != 4:
        raise ValueError(f"expected a (C, H, W) image, got shape {image.shape}")
    if image.shape[0] != 1:
        raise ValueError(
            f"submit() takes one image, got a batch of {image.shape[0]}; "
            "use submit_group / InferenceService.submit_many for batches")
    return image


class DynamicBatcher:
    """Thread-safe priority request queue + micro-batch executor.

    Parameters
    ----------
    run_batch:
        Callable taking one stacked NCHW float32 batch and returning the model
        output (array, or nested tuple/list/dict of arrays — anything
        :func:`repro.engine.runner._split_outputs` can slice).
    policy:
        The :class:`BatchPolicy`; defaults are sensible for a small CPU model.
    metrics:
        Optional shared :class:`ServingMetrics` to record batches/completions.
    postprocess:
        Optional callable applied to each request's sliced output *outside* the
        queue lock (e.g. detection decoding + NMS); its return value becomes
        the request's result.
    engine:
        Optional :class:`~repro.engine.compiler.CompiledModel` behind
        ``run_batch``.  Only consulted for *traced* batches: the batcher
        profiles the forward through it so the worker-execute span carries
        the per-op engine breakdown.
    """

    # reprolint lock-discipline contract: queue state mutates only under the
    # batcher lock (both Conditions wrap the same lock).
    _guarded_by_ = {
        "_queue": ("_lock", "_work_available", "_space_available"),
        "_depth": ("_lock", "_work_available", "_space_available"),
        "_closed": ("_lock", "_work_available", "_space_available"),
        "_image_shape": ("_lock", "_work_available", "_space_available"),
    }

    def __init__(
        self,
        run_batch: Callable[[np.ndarray], Any],
        policy: Optional[BatchPolicy] = None,
        metrics: Optional[ServingMetrics] = None,
        postprocess: Optional[Callable[[Any], Any]] = None,
        name: str = "batcher",
        engine: Optional[Any] = None,
    ) -> None:
        self._run_batch = run_batch
        self.policy = policy or BatchPolicy()
        self.metrics = metrics
        self._postprocess = postprocess
        self._engine = engine
        self.name = name
        self.stats = RunnerStats()

        # Priority heap of (rank, seq, segment): rank orders by class, seq
        # keeps FIFO order within a class (and makes the tuple comparison
        # never reach the segment object).
        self._queue: List[Tuple[int, int, _Segment]] = []
        #: Requests waiting in the queue: the segments' lengths, summed.
        self._depth = 0
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._space_available = threading.Condition(self._lock)
        self._closed = False
        self._image_shape: Optional[Tuple[int, ...]] = None
        #: Where the worker gathers a batch that is not one slice of a stack
        #: (worker thread only): made once, so a batch of single requests
        #: costs a copy of its images, not a fresh half-megabyte array.
        self._staging: Optional[np.ndarray] = None
        self._worker = threading.Thread(
            target=self._worker_loop, name=f"repro-serving-{name}", daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------ admission
    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._depth

    def expected_wait_seconds(self) -> float:
        """Estimated queueing delay of a request admitted right now.

        Queue depth ÷ the images per second executed so far: the engine's
        cost is linear in the batch size, so a per-image rate prices the
        queue right whatever mix of batch sizes ran.  The admission-time
        deadline feasibility check uses it.  Returns 0.0 until the first batch
        completes (no estimate beats a wrong estimate).
        """
        with self._lock:
            return self._expected_wait_locked()

    def _expected_wait_locked(self) -> float:  # reprolint: holds=_lock
        rate = self.stats.images_per_second
        return self._depth / rate if rate > 0.0 else 0.0

    def submit(self, image: np.ndarray, block: bool = False,
               timeout: Optional[float] = None,
               trace: Optional[TraceContext] = None,
               priority: str = "normal",
               deadline_ms: Optional[float] = None) -> InferenceFuture:
        """Admit one image; returns its :class:`InferenceFuture`.

        ``image`` is a single ``(C, H, W)`` image (a ``(1, C, H, W)`` array is
        squeezed): a group of one, through :meth:`submit_group` — which see
        for ``block``, ``priority`` and ``deadline_ms``.

        ``trace`` (when tracing is armed) rides the request: the batcher closes
        its queue-wait / batch-assembly / worker-execute / postprocess spans.
        """
        return self.submit_group(
            one_image(image), block=block, timeout=timeout,
            traces=None if trace is None else (trace,),
            priority=priority, deadline_ms=deadline_ms)

    def submit_group(self, images: Images, block: bool = False,
                     timeout: Optional[float] = None,
                     traces: Optional[Sequence[TraceContext]] = None,
                     priority: str = "normal",
                     deadline_ms: Optional[float] = None) -> InferenceFuture:
        """Admit a burst of images as one unit; returns the future over all of them.

        ``images`` is an ``(N, C, H, W)`` stack or a sequence of ``(C, H, W)``
        images; request ``i`` of the future is image ``i``.  The whole burst
        goes in under one lock acquisition and one wake-up of the worker when
        it fits.  When it does not, the queue bound keeps its per-image
        meaning: a non-blocking submit admits the images that fit (after
        preempting lower-class victims) and the rest fail with
        :class:`QueueFullError`; ``block=True`` admits the rest in chunks as
        space appears (backpressure), failing what is left with
        :class:`TimeoutError` after ``timeout`` seconds.  A burst of which
        *nothing* was admitted raises the error instead of returning a future.

        ``priority`` is a class name from
        :data:`repro.serving.api.PRIORITY_CLASSES`; ``deadline_ms`` is the
        burst's remaining latency budget — infeasible budgets are rejected
        here with :class:`DeadlineExceededError` and queued requests that
        outlive theirs are dropped, never executed.  ``traces`` holds one
        :class:`~repro.obs.tracing.TraceContext` per image, or is ``None``.
        """
        rank = priority_index(priority)
        images, shape = as_images(images)
        count = len(images)

        deadline: Optional[float] = None
        if deadline_ms is not None:
            if deadline_ms <= 0:
                if self.metrics is not None:
                    self.metrics.record_rejection("deadline", priority, count)
                raise DeadlineExceededError(
                    f"deadline_ms={deadline_ms} already expired at admission")
            deadline = time.perf_counter() + deadline_ms / 1e3

        future = InferenceFuture(count, itemized=self._postprocess is not None)
        future.traces = traces
        give_up = None if timeout is None else time.perf_counter() + timeout
        admitted = 0
        refusal: Optional[BaseException] = None
        with self._lock:
            if self._closed:
                raise ServiceClosedError(f"{self.name} has been shut down")
            if self._image_shape is None:
                self._image_shape = shape
            elif shape != self._image_shape:
                raise ValueError(
                    f"image shape {shape} does not match the shape this "
                    f"batcher serves {self._image_shape} (one batcher serves one "
                    "input signature)")
            if deadline is not None:
                expected = self._expected_wait_locked()
                if expected > deadline_ms / 1e3:
                    if self.metrics is not None:
                        self.metrics.record_rejection("deadline", priority, count)
                    raise DeadlineExceededError(
                        f"expected queue wait {expected * 1e3:.1f}ms exceeds the "
                        f"request deadline {deadline_ms:.1f}ms")
            while admitted < count:
                room = self.policy.queue_capacity - self._depth
                if room <= 0:
                    # A lower-class victim may make room.
                    room = self._preempt_locked(rank, count - admitted)
                if room <= 0:
                    refusal = self._wait_for_space_locked(block, give_up)
                    if refusal is not None:
                        break
                    continue
                take = min(room, count - admitted)
                segment = _Segment(future, images, admitted, admitted + take,
                                   rank, priority, deadline)
                heapq.heappush(self._queue, (rank, next(self._seq), segment))
                self._depth += take
                admitted += take
                self._work_available.notify()
            depth = self._depth
        if self.metrics is not None:
            if admitted:
                self.metrics.record_admission(depth, admitted)
            if isinstance(refusal, QueueFullError):
                self.metrics.record_rejection("queue_full", priority, count - admitted)
        if refusal is not None:
            if not admitted:
                raise refusal
            future._settle(admitted, count, None, refusal)
        return future

    def _wait_for_space_locked(  # reprolint: holds=_lock
            self, block: bool, give_up: Optional[float]) -> Optional[BaseException]:
        """One wait for queue space; the error that ends the admission, or None."""
        if not block:
            return QueueFullError(
                f"{self.name} queue is full "
                f"({self.policy.queue_capacity} requests waiting)")
        # Wait on the *remaining* time so repeated wakeups (space taken by
        # another producer) cannot extend the total block past ``timeout``.
        remaining = None if give_up is None else give_up - time.perf_counter()
        if ((remaining is not None and remaining <= 0)
                or not self._space_available.wait(remaining)):
            return TimeoutError(f"timed out waiting for space in the {self.name} queue")
        if self._closed:
            return ServiceClosedError(f"{self.name} has been shut down")
        return None

    def _preempt_locked(self, rank: int, wanted: int) -> int:  # reprolint: holds=_lock
        """Evict up to ``wanted`` of the newest queued requests of a class below ``rank``.

        Returns how many slots that freed; each victim fails with
        :class:`AdmissionRejectedError`.  SLO-aware overload behaviour: the low
        class absorbs the rejections, the high class keeps flowing.
        """
        freed = 0
        while freed < wanted:
            # The newest entry of the lowest class below ``rank``.
            victim_entry = max((entry for entry in self._queue if entry[0] > rank),
                               key=lambda entry: entry[:2], default=None)
            if victim_entry is None:
                break
            victim = victim_entry[2]
            take = min(wanted - freed, victim.stop - victim.start)
            victim.stop -= take
            if victim.start == victim.stop:
                self._queue.remove(victim_entry)
                heapq.heapify(self._queue)
            self._depth -= take
            freed += take
            if self.metrics is not None:
                self.metrics.record_rejection("preempted", victim.cls, take)
            victim.future._settle(victim.stop, victim.stop + take, None, AdmissionRejectedError(
                f"{self.name}: preempted from a full queue by a higher-priority "
                f"admission (class {victim.cls!r})"))
            for trace in _traces(victim.future, victim.stop, victim.stop + take):
                trace.record("preempted", victim.enqueued_wall, cls=victim.cls)
                trace.finish()
        return freed

    # ------------------------------------------------------------------ worker
    def _drop_expired(self, run: _Run, now_wall: float) -> None:
        """Fail an expired run (never executed) and close its traces."""
        segment, start, stop = run
        if self.metrics is not None:
            self.metrics.record_expiry(segment.cls, stop - start)
        waited_ms = (time.perf_counter() - segment.enqueued_at) * 1e3
        for trace in _traces(segment.future, start, stop):
            trace.record("deadline-expired", segment.enqueued_wall or now_wall, now_wall,
                         cls=segment.cls)
            trace.finish()
        segment.future._settle(start, stop, None, DeadlineExceededError(
            f"{self.name}: deadline expired after {waited_ms:.1f}ms in queue "
            f"(class {segment.cls!r}); request dropped, not executed"))

    def _take_locked(self, room: int, batch: List[_Run],  # reprolint: holds=_lock
                     expired: List[_Run]) -> int:
        """Move up to ``room`` requests off the best segment into ``batch``.

        An expired segment goes to ``expired`` whole instead.  Returns how
        many requests joined the batch.
        """
        segment = self._queue[0][2]
        start = segment.start
        if segment.expired():
            take, sink = segment.stop - start, expired
        else:
            take, sink = min(room, segment.stop - start), batch
        sink.append((segment, start, start + take))
        segment.start += take
        self._depth -= take
        if segment.start == segment.stop:
            heapq.heappop(self._queue)
        if segment.future.traces is not None:
            segment.popped_wall = time.time()
        return take if sink is batch else 0

    def _collect_batch(self) -> List[_Run]:
        """Block until work exists, then take what is queued as one micro-batch.

        Work-conserving: the batch is every live request queued right now, up
        to ``max_batch_size`` — nothing waits for a batch that is not coming.
        Requests pop in priority order (class rank, then admission order) and
        expired requests are dropped on the way out, so the batch that reaches
        :meth:`_execute` holds only live work, refilled from the best class
        first between GEMMs (continuous batching).  A segment longer than the
        room left in the batch stays queued with its front moved up.

        Returns an empty list exactly once: when the batcher is closed and the
        queue is fully drained, signalling the worker to exit.
        """
        room = self.policy.max_batch_size
        while True:
            expired: List[_Run] = []
            batch: List[_Run] = []
            size = 0
            with self._lock:
                while not self._queue and not self._closed:
                    self._work_available.wait()
                if not self._queue:
                    return []
                while self._queue and size < room:
                    size += self._take_locked(room - size, batch, expired)
                self._space_available.notify(
                    size + sum(stop - start for _, start, stop in expired))
            # Futures resolve outside the queue lock (done-callbacks run here).
            if expired:
                now_wall = time.time()
                for run in expired:
                    self._drop_expired(run, now_wall)
            if not batch:
                continue     # everything popped had expired; block for work again
            assembled = time.time()
            for segment, start, stop in batch:
                for trace in _traces(segment.future, start, stop):
                    trace.record("queue-wait", segment.enqueued_wall, segment.popped_wall)
                    trace.record("batch-assembly", segment.popped_wall, assembled)
            return batch

    def _execute(self, batch: List[_Run]) -> None:
        # Last line of deadline defence: a request that expired between batch
        # assembly and this point is dropped here — an expired request is
        # *never* part of an executed GEMM.
        if any(run[0].expired() for run in batch):
            live: List[_Run] = []
            now_wall = time.time()
            for run in batch:
                if run[0].expired():
                    self._drop_expired(run, now_wall)
                else:
                    live.append(run)
            batch = live
        if not batch:
            return
        lengths = [stop - start for _, start, stop in batch]
        size = sum(lengths)
        started = time.perf_counter()
        traced = any(run[0].future.traces is not None for run in batch)
        exec_started_wall = time.time() if traced else 0.0
        profiler = None
        try:
            stacked = self._stack(batch, size)
            engine = self._engine if traced else None
            if engine is not None:
                # Per-op engine attribution for the worker-execute span; the
                # profiler is thread-local to this batch, so concurrent
                # batchers on the same engine never share a sink.
                with engine.profiled() as profiler:
                    outputs = self._run_batch(stacked)
            else:
                outputs = self._run_batch(stacked)
            if stacked.base is self._staging:
                outputs = _copy_if_aliased(outputs, stacked)
            parts = _slice_runs(outputs, lengths)
        except BaseException as error:  # resolve every waiter, never hang them
            logger.warning("batch of %d failed: %s", size, error)
            failed_wall = time.time()
            for segment, start, stop in batch:
                for trace in _traces(segment.future, start, stop):
                    trace.record("worker-execute", exec_started_wall, failed_wall,
                                 batch=size, error=str(error))
                    trace.finish()
                if self.metrics is not None:
                    self.metrics.record_completion(
                        time.perf_counter() - segment.enqueued_at, stop - start,
                        failed=stop - start)
                segment.future._settle(start, stop, None, error)
            return
        elapsed = time.perf_counter() - started
        exec_done_wall = time.time() if traced else 0.0
        self.stats.record(size, elapsed)
        span_args: dict = {}
        if traced:
            span_args["batch"] = size
            if profiler is not None:
                span_args["ops_ms"] = profiler.top_ops()
        completions = []
        for (segment, start, stop), part in zip(batch, parts):
            future = segment.future
            for trace in _traces(future, start, stop):
                trace.record("worker-execute", exec_started_wall, exec_done_wall,
                             **span_args)
            failed = 0
            if self._postprocess is None:
                # Spans close before the run settles: whoever the settling
                # wakes (a responder shipping them home) sees them all.
                for trace in _traces(future, start, stop):
                    trace.record("postprocess", exec_done_wall)
                    trace.finish()
                future._settle(start, stop, part, None)
            else:
                failed = self._postprocess_run(future, start, stop, part)
            completions.append(
                (time.perf_counter() - segment.enqueued_at, stop - start, failed))
        if self.metrics is not None:
            self.metrics.record_batch(size, elapsed, completions)

    def _stack(self, runs: List[_Run], size: int) -> np.ndarray:
        """The images of ``runs`` as one NCHW batch.

        A contiguous run of one stack is a slice of it (zero-copy); anything
        else is gathered into the staging buffer.
        """
        if len(runs) == 1:
            segment, start, stop = runs[0]
            if isinstance(segment.images, np.ndarray):
                return segment.images[start:stop]
        images: List[np.ndarray] = []
        for segment, start, stop in runs:
            images.extend(segment.images[start:stop])
        if self._staging is None:       # one batcher serves one image shape
            self._staging = np.empty(
                (self.policy.max_batch_size, *images[0].shape), dtype=np.float32)
        return np.stack(images, out=self._staging[:size])

    def _postprocess_run(self, future: InferenceFuture, start: int, stop: int,
                         part: Any) -> int:
        """Postprocess and settle each request of a run by itself; returns failures."""
        failed = 0
        for index, raw in zip(range(start, stop), _split_outputs(part, stop - start)):
            trace = future.traces[index] if future.traces is not None else None
            post_started_wall = time.time() if trace is not None else 0.0
            try:
                outcome: Tuple[Any, Optional[BaseException]] = ([self._postprocess(raw)], None)
            except BaseException as error:
                failed += 1
                outcome = (None, error)
            if trace is not None:
                trace.record("postprocess", post_started_wall)
                trace.finish()
            future._settle(index, index + 1, *outcome)
        return failed

    def _worker_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if not batch:
                return
            self._execute(batch)

    # ------------------------------------------------------------------ lifecycle
    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Stop admissions, drain the queue, join the worker (idempotent).

        Every already-admitted request is executed and its future resolved
        before the worker exits — flush-on-shutdown never drops requests
        (expired-deadline requests are still dropped, per contract).
        """
        with self._lock:
            self._closed = True
            self._work_available.notify_all()
            self._space_available.notify_all()
        self._worker.join(timeout)
        if self._worker.is_alive():  # pragma: no cover - defensive
            logger.warning("%s worker did not drain within %.1fs", self.name, timeout or 0.0)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed
