"""Thread-safe serving metrics: latency percentiles, throughput, batch shapes.

One :class:`ServingMetrics` instance is shared by an
:class:`~repro.serving.service.InferenceService` and its
:class:`~repro.serving.batcher.DynamicBatcher`: the batcher records executed
micro-batches and per-request completion latency, the service records
admissions and rejections.  :meth:`ServingMetrics.report` exports everything as
one nested plain dict, which is what the ``repro serve`` CLI prints and the
repo benchmark reads.

**The obs-registry instruments are the store.**  Each class here owns its
:class:`~repro.obs.registry.Counter` / ``Gauge`` / ``Histogram`` objects
through an :class:`~repro.obs.registry.Instruments` holder: ``record_*``
writes them, ``report()`` and the properties are read-only views over them,
and the same objects export themselves into ``registry.snapshot()`` under the
owner's ``service=`` / ``gateway=`` label — no number is kept, or rendered,
twice.  The registration is weak, so a dead service's series simply drop out
of the next snapshot.

Every aggregate is memory-bounded (distributions ride the bounded reservoir
behind ``Histogram``, batch sizes are one counter series per size), and all of
one owner's instruments sit behind the holder's one lock — a record is a few
increments, so contention is negligible next to a model forward pass.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import Instruments, Sample, get_registry


class ServingMetrics:
    """Aggregated statistics of one serving session.

    Latency is measured per request from admission (enqueue) to completion
    (future resolved), i.e. it includes queueing delay — the number a client
    actually observes, not just model time.
    """

    def __init__(self, name: str = "service", register: bool = True) -> None:
        self.name = name
        own = self._instruments = Instruments(service=name)
        self._lock = own.lock
        requests = own.counter("repro_serving_requests_total", labelnames=("outcome",))
        self._admitted = requests.labels("admitted")
        self._rejected = requests.labels("rejected")
        self._completed = requests.labels("completed")
        self._failed = requests.labels("failed")
        #: reasons: queue_full / deadline / preempted / admission (gateway
        #: rate limit or in-flight bound).
        self._rejected_by = own.counter(
            "repro_serving_rejects_total", labelnames=("reason", "class"))
        #: requests dropped after admission (deadline expiry), per class.
        self._expired = own.counter("repro_serving_deadline_expiries_total", labelnames=("class",))
        #: executed micro-batches per size: the exact batch-size histogram.
        self._batches = own.counter("repro_serving_batches_total", labelnames=("size",))
        self._batch_seconds = own.histogram("repro_serving_batch_seconds")
        self._latency = own.histogram("repro_serving_latency_seconds")
        self._queue_depth = own.gauge("repro_serving_queue_depth")
        self._queue_max = own.gauge("repro_serving_queue_depth_max")
        #: sum of the depth each admitted request saw (mean = sum / admitted).
        self._queue_sum = own.counter("repro_serving_admission_depth_total")
        self._throughput = own.gauge("repro_serving_throughput_rps")
        # Timestamps, not metrics: plain fields under the same lock.
        self._first_admission: Optional[float] = None
        self._last_completion: Optional[float] = None
        if register:
            get_registry().register_collector(f"serving.{name}", self.samples)

    # ------------------------------------------------------------------ recording
    def record_admission(self, queue_depth: int, count: int = 1) -> None:
        """``count`` requests accepted into the queue together.

        ``queue_depth`` is the depth after the last of them; the mean depth
        counts each at the depth it saw (``queue_depth - count + 1`` up to
        ``queue_depth``), as ``count`` single admissions would have.  A
        blocking burst larger than the queue drains while it is admitted:
        those the final depth cannot account for saw at least themselves.
        """
        now = time.perf_counter()
        depth = int(queue_depth)
        seen = min(count, depth)
        with self._lock:
            self._admitted.inc(count)
            self._queue_sum.inc(seen * depth - seen * (seen - 1) // 2 + count - seen)
            self._queue_depth.set(depth)
            if depth > self._queue_max.value():
                self._queue_max.set(depth)
            if self._first_admission is None:
                self._first_admission = now

    def record_rejection(self, reason: str = "queue_full",
                         priority: str = "normal", count: int = 1) -> None:
        """``count`` requests turned away at admission, keyed by reason and class."""
        with self._lock:
            self._rejected.inc(count)
            self._rejected_by.labels(reason, priority).inc(count)

    def record_expiry(self, priority: str = "normal", count: int = 1) -> None:
        """``count`` queued requests dropped because their deadline expired (never run)."""
        self._expired.labels(priority).inc(count)

    def record_batch(self, size: int, seconds: float,
                     completions: Sequence[Tuple[float, int, int]] = ()) -> None:
        """One executed micro-batch of ``size`` requests taking ``seconds``.

        ``completions`` are the runs it resolved, as :meth:`record_completion`
        arguments — the whole batch is accounted under one lock acquisition.
        """
        with self._lock:
            self._batch_seconds.observe(seconds)
            self._batches.labels(str(size)).inc()
            for completion in completions:
                self.record_completion(*completion)

    def record_completion(self, latency_seconds: float, count: int = 1,
                          failed: int = 0) -> None:
        """``count`` requests finished together after ``latency_seconds``, ``failed`` of them badly."""
        failed = int(failed)
        with self._lock:
            self._completed.inc(count)
            if failed:
                self._failed.inc(failed)
            self._latency.observe(latency_seconds, count - failed)
            self._last_completion = time.perf_counter()

    def reset(self) -> None:
        """Zero every instrument (e.g. after a verification pass, before load)."""
        with self._lock:
            self._instruments.clear()
            self._first_admission = self._last_completion = None

    # ------------------------------------------------------------------ reporting
    @property
    def completed(self) -> int:
        return int(self._completed.value())

    @property
    def rejected(self) -> int:
        return int(self._rejected.value())

    def throughput(self) -> float:
        """Completed requests per second of wall-clock serving time."""
        with self._lock:
            return _rate(self._completed.value(), self._first_admission, self._last_completion)

    def samples(self) -> List[Sample]:
        """The registered collector: the instruments, the derived rate refreshed first."""
        with self._lock:
            self._throughput.set(self.throughput())
            return self._instruments.samples()

    def report(self) -> Dict[str, object]:
        """Everything as one nested plain dict (JSON-ready)."""
        with self._lock:
            admitted = int(self._admitted.value())
            sizes = {int(size): n for (size,), n in _counts(self._batches).items()}
            batches = sum(sizes.values())
            return {
                "requests": {
                    "admitted": admitted,
                    "completed": int(self._completed.value()),
                    "failed": int(self._failed.value()),
                    "rejected": int(self._rejected.value()),
                    "rejected_by": {
                        f"{reason}/{cls}": n
                        for (reason, cls), n in _counts(self._rejected_by).items()
                    },
                    "expired": _by_class(self._expired),
                },
                "throughput_rps": round(self.throughput(), 2),
                "latency": self._latency.stats().summary(),
                "batches": {
                    "count": batches,
                    "mean_size": round(
                        sum(size * n for size, n in sizes.items()) / batches, 2)
                    if batches else 0.0,
                    "max_size": max(sizes, default=0),
                    "p50_batch_ms": round(
                        self._batch_seconds.stats().quantile_seconds(50) * 1e3, 3),
                    "size_histogram": {str(size): sizes[size] for size in sorted(sizes)},
                },
                "queue": {
                    "mean_depth": round(self._queue_sum.value() / admitted, 2)
                    if admitted else 0.0,
                    "max_depth": int(self._queue_max.value()),
                },
            }

    def flat_row(self) -> Dict[str, object]:
        """One flat table row (for :func:`repro.evaluation.tables.format_table`)."""
        report = self.report()
        latency = report["latency"]
        return {
            "completed": report["requests"]["completed"],
            "rejected": report["requests"]["rejected"],
            "throughput_rps": report["throughput_rps"],
            "p50_ms": latency["p50_ms"],
            "p95_ms": latency["p95_ms"],
            "p99_ms": latency["p99_ms"],
            "mean_batch": report["batches"]["mean_size"],
            "max_queue": report["queue"]["max_depth"],
        }


def _rate(completed: float, first: Optional[float], last: Optional[float]) -> float:
    """``completed`` per second between two timestamps (0.0 until both exist)."""
    if first is None or last is None or not completed:
        return 0.0
    elapsed = last - first
    return completed / elapsed if elapsed > 0 else 0.0


def _counts(counter) -> Dict[Tuple[str, ...], int]:
    """``{label values: count}`` of the series that counted anything, in label
    order: a reset zeroes series in place, a report lists what happened since."""
    return {key: int(n) for key, n in counter.series().items() if n}


def _by_class(counter, outcome: Optional[str] = None) -> Dict[str, int]:
    """``{class: count}`` view of a counter labelled ``([outcome,] class)``."""
    return {
        key[-1]: n for key, n in _counts(counter).items()
        if outcome is None or key[0] == outcome
    }


class GatewayMetrics:
    """Per-class accounting of the network gateway's front door.

    Counts what the *gateway* decided (accepted / rejected at admission /
    expired while queued / completed / failed) per priority class, plus the
    live connection gauge and per-class end-to-end latency as observed at the
    socket (parse to response write).  The downstream batcher keeps its own
    :class:`ServingMetrics`; the two reports together separate "the scheduler
    dropped it" from "the gateway never let it in".
    """

    def __init__(self, name: str = "gateway", register: bool = True) -> None:
        self.name = name
        own = self._instruments = Instruments(gateway=name)
        self._lock = own.lock
        self._connections = own.gauge("repro_gateway_connections")
        self._connections_total = own.counter("repro_gateway_connections_total")
        #: outcome: accepted / completed / failed.
        self._requests = own.counter(
            "repro_gateway_requests_total", labelnames=("outcome", "class"))
        self._rejected = own.counter("repro_gateway_rejects_total", labelnames=("reason", "class"))
        self._expired = own.counter("repro_gateway_deadline_expiries_total", labelnames=("class",))
        #: gateway-side latency distribution per priority class.
        self._latency = own.histogram("repro_gateway_latency_seconds", labelnames=("class",))
        if register:
            get_registry().register_collector(f"gateway.{name}", own.samples)

    # ------------------------------------------------------------------ recording
    def connection_opened(self) -> None:
        with self._lock:
            self._connections.inc()
            self._connections_total.inc()

    def connection_closed(self) -> None:
        self._connections.dec()

    def record_accept(self, priority: str, count: int = 1) -> None:
        """``count`` requests passed gateway admission and entered the scheduler."""
        self._requests.labels("accepted", priority).inc(count)

    def record_reject(self, reason: str, priority: str, count: int = 1) -> None:
        """``count`` requests answered with an error frame at gateway admission."""
        self._rejected.labels(reason, priority).inc(count)

    def record_expiry(self, priority: str, count: int = 1) -> None:
        """``count`` accepted requests dropped downstream on deadline expiry."""
        self._expired.labels(priority).inc(count)

    def record_completion(self, priority: str, latency_seconds: float,
                          failed: bool = False, count: int = 1) -> None:
        """``count`` accepted requests answered together (result or non-expiry error frame)."""
        if failed:
            self._requests.labels("failed", priority).inc(count)
            return
        with self._lock:
            self._requests.labels("completed", priority).inc(count)
            self._latency.labels(priority).observe(latency_seconds, count)

    def reset(self) -> None:
        """Zero the request instruments (the connection gauges are left alone)."""
        with self._lock:
            for instrument in (self._requests, self._rejected, self._expired, self._latency):
                instrument.clear()

    # ------------------------------------------------------------------ reporting
    def report(self) -> Dict[str, object]:
        """Everything as one nested plain dict (JSON-ready)."""
        with self._lock:
            return {
                "connections": {
                    "open": int(self._connections.value()),
                    "total": int(self._connections_total.value()),
                },
                "requests": {
                    "accepted": _by_class(self._requests, "accepted"),
                    "rejected": {
                        f"{reason}/{cls}": n
                        for (reason, cls), n in _counts(self._rejected).items()
                    },
                    "expired": _by_class(self._expired),
                    "completed": _by_class(self._requests, "completed"),
                    "failed": _by_class(self._requests, "failed"),
                },
                "latency": {
                    cls: stats.summary()
                    for (cls,), stats in self._latency.series().items() if stats.count
                },
            }
