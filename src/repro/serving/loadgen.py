"""Synthetic load generation for benchmarking the serving layer.

Two standard load models:

* :func:`closed_loop` — ``concurrency`` client threads, each holding at most
  one outstanding request (submit, wait, repeat) until ``requests`` total have
  completed.  Throughput-oriented: this is how the serving benchmark and the
  ``repro serve`` CLI measure sustained requests/second.
* :func:`open_loop` — a single dispatcher issues requests at ``rate_hz`` with
  Poisson (exponential inter-arrival) spacing, *without* waiting for replies.
  Arrival rate is independent of service rate, so this is the load model that
  actually exercises queue growth, coalescing under pressure and admission
  rejection.  Every request is timed from when it was **due**, so a stalled
  dispatcher cannot hide the wait it imposes on the arrivals behind it, and
  how late the dispatcher ran is reported next to the latencies
  (``lag_ms_p99`` / ``late_share``).

Both open loops here (:func:`open_loop` and each class stream of
:func:`mixed_priority_load`) run on the one due-time dispatcher,
:func:`_dispatch`, and read how each request ended through the one
classifier, :func:`_outcome`.

All three load models target any
:class:`~repro.serving.api.InferenceTarget` — the in-process
:class:`~repro.serving.service.InferenceService`, the multi-process
:class:`~repro.serving.cluster.router.Router`, or the wire-level
:class:`~repro.serving.gateway.GatewayClient` — and return client-observed
latency percentiles (admission to future-resolution, the end-to-end number a
user would see) plus counts of completed/rejected requests.

:func:`mixed_priority_load` is the SLO harness: several priority classes with
their own arrival rates and deadlines run concurrently against one target,
and the per-class :class:`ClassReport` separates *rejected* (admission
control said no), *expired* (deadline passed after admission — dropped, never
executed) and *failed* (something actually broke), so "the high class keeps
its SLO while the low class absorbs the rejections" is a measurable claim.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.api import DEFAULT_PRIORITY, InferenceTarget
from repro.serving.batcher import InferenceFuture
from repro.serving.errors import ADMISSION_ERROR_CODES, DeadlineExceededError, error_code
from repro.utils.profiling import LatencyStats

#: An open-loop request sent later than this after it was due counts as late.
LATE_SECONDS = 1e-3


@dataclass
class LoadReport:
    """Client-side outcome of one load-generation run."""

    mode: str
    requests: int
    completed: int
    rejected: int
    failed: int
    duration_seconds: float
    latency: LatencyStats = field(default_factory=LatencyStats, repr=False)
    #: Open loop only: how long after it was due each request was sent.
    lag: LatencyStats = field(default_factory=LatencyStats, repr=False)

    @property
    def throughput_rps(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.completed / self.duration_seconds

    @property
    def lag_ms_p99(self) -> float:
        """99th percentile of the generator's lag behind its schedule, in ms."""
        return self.lag.quantile_seconds(99) * 1e3

    @property
    def late_share(self) -> float:
        """Share of the requests sent more than :data:`LATE_SECONDS` after due."""
        if not self.lag.count:
            return 0.0
        return sum(1 for lag in self.lag.samples if lag > LATE_SECONDS) / len(self.lag.samples)

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "requests": self.requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "failed": self.failed,
            "duration_s": round(self.duration_seconds, 3),
            "throughput_rps": round(self.throughput_rps, 2),
            "latency": self.latency.summary(),
            "lag_ms_p99": round(self.lag_ms_p99, 3),
            "late_share": round(self.late_share, 4),
        }

    def flat_row(self) -> Dict[str, object]:
        """One table row for :func:`repro.evaluation.tables.format_table`."""
        summary = self.latency.summary()
        row = {
            "mode": self.mode,
            "requests": self.requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "throughput_rps": round(self.throughput_rps, 2),
            "p50_ms": summary["p50_ms"],
            "p95_ms": summary["p95_ms"],
            "p99_ms": summary["p99_ms"],
        }
        if self.lag.count:
            row["lag_p99_ms"] = round(self.lag_ms_p99, 3)
            row["late_share"] = round(self.late_share, 4)
        return row


def _image_cycle(images: np.ndarray):
    """Index-cycling accessor over a stack of request images."""
    if images.ndim != 4 or images.shape[0] == 0:
        raise ValueError(f"expected a non-empty (N, C, H, W) image stack, "
                         f"got shape {images.shape}")
    count = images.shape[0]
    return lambda index: images[index % count]


def poisson_gaps(rate_hz: float, count: int, seed: int = 0) -> np.ndarray:
    """Exponential inter-arrival gaps (seconds) of a Poisson process at ``rate_hz``.

    This is exactly the schedule :func:`open_loop` dispatches on, exposed so
    its statistics are testable: with ``count`` draws the sample mean converges
    on ``1 / rate_hz`` and (exponential distribution) the standard deviation
    converges on the mean.
    """
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be > 0, got {rate_hz}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return rng.exponential(scale=1.0 / rate_hz, size=count)


def _outcome(error: Optional[BaseException]) -> str:
    """How a request ended, for every load generator: ``completed``,
    ``expired`` (its deadline passed), ``rejected`` (any other admission
    control: a full queue, no live worker, a gateway limit — the target saying
    no as designed) or ``failed`` (something actually broke)."""
    if error is None:
        return "completed"
    code = error_code(error)
    if code == DeadlineExceededError.code:
        return "expired"
    return "rejected" if code in ADMISSION_ERROR_CODES else "failed"


Sent = List[Tuple[InferenceFuture, float]]       # (future, when it was due)


def _dispatch(
    submit: Callable[[int], InferenceFuture],
    gaps: Sequence[float],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[Sent, List[BaseException], LatencyStats]:
    """The one open-loop dispatcher: ``submit(index)`` once per gap, each when
    it is **due**, never waiting for a reply.

    ``due`` advances by the gaps, never by when a submit returned: the
    dispatcher is one thread, so a stalled ``submit`` makes the arrivals behind
    it late instead of quietly lowering the offered rate.  Returns ``(future,
    due)`` per accepted submit, the error of each refused one, and the
    generator's ``lag`` (how late each request was sent).
    """
    sent: Sent = []
    refused: List[BaseException] = []
    lag = LatencyStats()
    due = clock()
    for index, gap in enumerate(gaps):
        now = clock()
        if due > now:
            sleep(due - now)
            now = clock()
        lag.add(max(0.0, now - due))
        try:
            sent.append((submit(index), due))
        except Exception as error:
            refused.append(error)
        due += float(gap)
    return sent, refused, lag


def _settle(sent: Sent, refused: Sequence[BaseException], timeout: float,
            ) -> Tuple[Dict[str, int], List[Tuple[float, float]], List[BaseException]]:
    """Wait out a dispatched run (``timeout`` for all of it): the count per
    :func:`_outcome`, ``(resolved_at, latency_s)`` of every completed request
    and the error of every failed one.

    Latency runs from the instant the request was **due**: timing a delayed
    arrival from its (late) submit would report a stalled system as a fast
    one.  ``resolved_at`` is stamped by the resolving thread, so waiting on
    future N does not inflate future N+1.
    """
    counts: Dict[str, int] = collections.Counter()
    completed: List[Tuple[float, float]] = []
    failures: List[BaseException] = []
    for error in refused:
        # Refused at the door is a rejection whatever the reason (an
        # infeasible deadline included): the request was never admitted.
        outcome = _outcome(error)
        counts["rejected" if outcome == "expired" else outcome] += 1
        if outcome == "failed":
            failures.append(error)
    give_up = time.perf_counter() + timeout
    for future, due in sent:
        try:
            error = future.exception(max(0.0, give_up - time.perf_counter()))
        except TimeoutError as unresolved:
            error = unresolved
        outcome = _outcome(error)
        counts[outcome] += 1
        if outcome == "completed":
            completed.append((future.resolved_at, future.resolved_at - due))
        elif outcome == "failed":
            failures.append(error)
    return counts, completed, failures


def closed_loop(
    service: InferenceTarget,
    images: np.ndarray,
    requests: int,
    concurrency: int = 8,
    timeout: float = 120.0,
) -> LoadReport:
    """Drive ``requests`` total requests from ``concurrency`` closed-loop clients.

    Each client thread submits with backpressure (``block=True``) and waits for
    its result before issuing the next request, cycling over ``images``.
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    next_image = _image_cycle(images)

    lock = threading.Lock()
    issued = 0
    latency = LatencyStats()
    counts: Dict[str, int] = collections.Counter()

    def client() -> None:
        nonlocal issued
        while True:
            with lock:
                index = issued
                if index >= requests:
                    return
                issued += 1
            started = time.perf_counter()
            try:
                service.submit(next_image(index), block=True,
                               timeout=timeout).result(timeout)
                error = None
            except Exception as raised:
                error = raised
            with lock:
                counts[_outcome(error)] += 1
                if error is None:
                    latency.add(time.perf_counter() - started)

    threads = [threading.Thread(target=client, name=f"loadgen-closed-{i}", daemon=True)
               for i in range(min(concurrency, requests))]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - started

    return LoadReport(
        mode="closed-loop",
        requests=requests,
        completed=latency.count,
        rejected=counts["rejected"] + counts["expired"],
        failed=counts["failed"],
        duration_seconds=duration,
        latency=latency,
    )


def open_loop(
    service: InferenceTarget,
    images: np.ndarray,
    requests: int,
    rate_hz: float,
    seed: int = 0,
    timeout: float = 120.0,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> LoadReport:
    """Issue ``requests`` requests at ``rate_hz`` with Poisson arrivals.

    Submission is non-blocking: when the service's bounded queue is full the
    request is counted as *rejected* and the generator moves on — exactly the
    admission-control behaviour a real overloaded service exhibits.

    Latency runs from the instant a request was **due** on the schedule to its
    resolution, and the report's ``lag`` says how late the dispatcher ran, so
    a figure inflated by the generator itself is told apart from one inflated
    by the target.  ``clock`` / ``sleep`` exist for the tests that pin this.
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be > 0, got {rate_hz}")
    next_image = _image_cycle(images)

    started = clock()
    sent, refused, lag = _dispatch(
        lambda index: service.submit(next_image(index), block=False),
        poisson_gaps(rate_hz, requests, seed=seed), clock, sleep)
    # A deferred rejection (queue eviction, deadline expiry, a gateway error
    # frame) is still admission control, not a failure.
    counts, completed, _ = _settle(sent, refused, timeout)
    latency = LatencyStats()
    latency.extend(seconds for _, seconds in completed)
    duration = clock() - started

    return LoadReport(
        mode="open-loop",
        requests=requests,
        completed=latency.count,
        rejected=counts["rejected"] + counts["expired"],
        failed=counts["failed"],
        duration_seconds=duration,
        latency=latency,
        lag=lag,
    )


@dataclass
class ClassLoad:
    """One priority class's share of a :func:`mixed_priority_load` run."""

    priority: str = DEFAULT_PRIORITY
    requests: int = 32
    rate_hz: float = 50.0
    #: Per-request latency budget submitted as ``deadline_ms`` (None = no SLO).
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz must be > 0, got {self.rate_hz}")


@dataclass
class ClassReport:
    """Per-class outcome of a mixed-priority run.

    ``rejected`` and ``expired`` are both admission control doing its job
    (expired = the deadline passed *after* admission and the request was
    dropped unexecuted); only ``failed`` means something broke.
    """

    priority: str
    issued: int
    completed: int
    rejected: int
    expired: int
    failed: int
    latency: LatencyStats = field(default_factory=LatencyStats, repr=False)

    @property
    def hit_rate(self) -> float:
        """Fraction of issued requests that completed within their budget."""
        if self.issued == 0:
            return 0.0
        return self.completed / self.issued

    def as_dict(self) -> Dict[str, object]:
        return {
            "priority": self.priority,
            "issued": self.issued,
            "completed": self.completed,
            "rejected": self.rejected,
            "expired": self.expired,
            "failed": self.failed,
            "hit_rate": round(self.hit_rate, 4),
            "latency": self.latency.summary(),
        }


def mixed_priority_load(
    service: InferenceTarget,
    images: np.ndarray,
    loads: Sequence[ClassLoad],
    seed: int = 0,
    timeout: float = 120.0,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> Dict[str, ClassReport]:
    """Drive several priority classes at once; one open-loop stream per class.

    Each class dispatches its own Poisson arrival process (its ``rate_hz``)
    from its own thread, submitting non-blocking with its ``priority`` and
    ``deadline_ms``; all streams overlap in time, so the target schedules a
    genuinely mixed queue.  Returns ``{priority: ClassReport}``; latency runs
    from when each request was due (``clock`` / ``sleep``: :func:`open_loop`'s
    test seams).

    This is the harness behind the gateway acceptance claim: under overload
    the high class should hold ~its full hit rate while the low class's
    rejections/expiries absorb the pressure.
    """
    if not loads:
        raise ValueError("mixed_priority_load needs at least one ClassLoad")
    seen: set = set()
    for load in loads:
        if load.priority in seen:
            raise ValueError(f"duplicate ClassLoad for priority {load.priority!r}")
        seen.add(load.priority)
    next_image = _image_cycle(images)

    reports: Dict[str, ClassReport] = {}
    lock = threading.Lock()

    def stream(load: ClassLoad, stream_seed: int) -> None:
        sent, refused, _ = _dispatch(
            lambda index: service.submit(
                next_image(index), block=False,
                priority=load.priority, deadline_ms=load.deadline_ms),
            poisson_gaps(load.rate_hz, load.requests, seed=stream_seed), clock, sleep)
        counts, completed, _ = _settle(sent, refused, timeout)
        latency = LatencyStats()
        latency.extend(seconds for _, seconds in completed)
        report = ClassReport(
            priority=load.priority,
            issued=load.requests,
            completed=latency.count,
            rejected=counts["rejected"],
            expired=counts["expired"],
            failed=counts["failed"],
            latency=latency,
        )
        with lock:
            reports[load.priority] = report

    threads = [
        threading.Thread(target=stream, args=(load, seed + offset),
                         name=f"loadgen-{load.priority}", daemon=True)
        for offset, load in enumerate(loads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {load.priority: reports[load.priority] for load in loads}
