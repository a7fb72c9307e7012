"""Thread-safe serving metrics: latency percentiles, throughput, batch shapes.

One :class:`ServingMetrics` instance is shared by an
:class:`~repro.serving.service.InferenceService` and its
:class:`~repro.serving.batcher.DynamicBatcher`: the batcher records executed
micro-batches and per-request completion latency, the service records
admissions and rejections.  :meth:`ServingMetrics.report` exports everything as
one nested plain dict, which is what the ``repro serve`` CLI prints and the
serving benchmark writes to ``BENCH_serving.json``.

Every aggregate is memory-bounded: latency and batch-duration distributions
ride the bounded reservoir in :class:`repro.utils.profiling.LatencyStats`,
batch sizes fold into an exact histogram (at most ``max_batch_size`` distinct
keys) and queue depths into running sum/max — a service under sustained load
holds O(reservoir) state, not O(requests).

Each instance also registers itself as a **collector** on the process obs
registry (:mod:`repro.obs.registry`), publishing request counters, queue depth
and the latency summary under its ``service`` label; the reference is weak, so
a dead service's series simply drop out of the next ``registry.snapshot()``.

All counters sit behind one lock — recording is a few increments, so
contention is negligible next to a model forward pass.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import Sample, get_registry, summary_samples
from repro.utils.profiling import LatencyStats


class ServingMetrics:
    """Aggregated statistics of one serving session.

    Latency is measured per request from admission (enqueue) to completion
    (future resolved), i.e. it includes queueing delay — the number a client
    actually observes, not just model time.
    """

    _guarded_by_ = {
        "_latency": "_lock",
        "_batch_stats": "_lock",
        "_batch_hist": "_lock",
        "_admitted": "_lock",
        "_rejected": "_lock",
        "_rejected_by": "_lock",
        "_expired": "_lock",
        "_completed": "_lock",
        "_failed": "_lock",
    }

    def __init__(self, name: str = "service", register: bool = True) -> None:
        self._lock = threading.Lock()
        self.name = name
        self._latency = LatencyStats()
        self._batch_stats = LatencyStats()
        self._batch_hist: Dict[int, int] = {}
        self._batch_size_sum = 0
        self._batch_size_max = 0
        self._queue_sum = 0
        self._queue_max = 0
        self._queue_last = 0
        self._admitted = 0
        self._rejected = 0
        #: (reason, priority class) -> count; reasons: queue_full / deadline /
        #: preempted / admission (gateway rate limit or in-flight bound).
        self._rejected_by: Dict[Tuple[str, str], int] = {}
        #: priority class -> requests dropped after admission (deadline expiry).
        self._expired: Dict[str, int] = {}
        self._completed = 0
        self._failed = 0
        self._first_admission: Optional[float] = None
        self._last_completion: Optional[float] = None
        if register:
            get_registry().register_collector(
                f"serving.{name}", self.collect_metrics)

    # ------------------------------------------------------------------ recording
    def record_admission(self, queue_depth: int, count: int = 1) -> None:
        """``count`` requests accepted into the queue together.

        ``queue_depth`` is the depth after the last of them; the mean depth
        counts each at the depth it saw (``queue_depth - count + 1`` up to
        ``queue_depth``), as ``count`` single admissions would have.
        """
        now = time.perf_counter()
        with self._lock:
            self._admitted += count
            depth = int(queue_depth)
            self._queue_sum += count * depth - count * (count - 1) // 2
            self._queue_last = depth
            if depth > self._queue_max:
                self._queue_max = depth
            if self._first_admission is None:
                self._first_admission = now

    def record_rejection(self, reason: str = "queue_full",
                         priority: str = "normal", count: int = 1) -> None:
        """``count`` requests turned away at admission, keyed by reason and class."""
        key = (reason, priority)
        with self._lock:
            self._rejected += count
            self._rejected_by[key] = self._rejected_by.get(key, 0) + count

    def record_expiry(self, priority: str = "normal", count: int = 1) -> None:
        """``count`` queued requests dropped because their deadline expired (never run)."""
        with self._lock:
            self._expired[priority] = self._expired.get(priority, 0) + count

    def record_batch(self, size: int, seconds: float,
                     completions: Sequence[Tuple[float, int, int]] = ()) -> None:
        """One executed micro-batch of ``size`` requests taking ``seconds``.

        ``completions`` are the runs it resolved, as :meth:`record_completion`
        arguments — the whole batch is accounted under one lock acquisition.
        """
        size = int(size)
        with self._lock:
            self._batch_stats.add(float(seconds))
            self._batch_hist[size] = self._batch_hist.get(size, 0) + 1
            self._batch_size_sum += size
            if size > self._batch_size_max:
                self._batch_size_max = size
            for completion in completions:
                self._complete_locked(*completion)

    def record_completion(self, latency_seconds: float, count: int = 1,
                          failed: int = 0) -> None:
        """``count`` requests finished together after ``latency_seconds``, ``failed`` of them badly."""
        with self._lock:
            self._complete_locked(latency_seconds, count, failed)

    def _complete_locked(self, latency_seconds: float, count: int,  # reprolint: holds=_lock
                         failed: int) -> None:
        failed = int(failed)
        self._completed += count
        self._failed += failed
        for _ in range(count - failed):
            self._latency.add(latency_seconds)
        self._last_completion = time.perf_counter()

    def reset(self) -> None:
        """Zero every ledger (e.g. after a verification pass, before load)."""
        with self._lock:
            self._latency = LatencyStats()
            self._batch_stats = LatencyStats()
            self._batch_hist = {}
            self._batch_size_sum = 0
            self._batch_size_max = 0
            self._queue_sum = 0
            self._queue_max = 0
            self._queue_last = 0
            self._admitted = 0
            self._rejected = 0
            self._rejected_by = {}
            self._expired = {}
            self._completed = 0
            self._failed = 0
            self._first_admission = None
            self._last_completion = None

    # ------------------------------------------------------------------ reporting
    @property
    def completed(self) -> int:
        with self._lock:
            return self._completed

    @property
    def rejected(self) -> int:
        with self._lock:
            return self._rejected

    def throughput(self) -> float:
        """Completed requests per second of wall-clock serving time."""
        with self._lock:
            if (self._first_admission is None or self._last_completion is None
                    or self._completed == 0):
                return 0.0
            elapsed = self._last_completion - self._first_admission
            return self._completed / elapsed if elapsed > 0 else 0.0

    def report(self) -> Dict[str, object]:
        """Everything as one nested plain dict (JSON-ready)."""
        throughput = self.throughput()
        with self._lock:
            batches = self._batch_stats.count
            return {
                "requests": {
                    "admitted": self._admitted,
                    "completed": self._completed,
                    "failed": self._failed,
                    "rejected": self._rejected,
                    "rejected_by": {
                        f"{reason}/{cls}": count
                        for (reason, cls), count in sorted(self._rejected_by.items())
                    },
                    "expired": dict(sorted(self._expired.items())),
                },
                "throughput_rps": round(throughput, 2),
                "latency": self._latency.summary(),
                "batches": {
                    "count": batches,
                    "mean_size": round(self._batch_size_sum / batches, 2)
                    if batches else 0.0,
                    "max_size": self._batch_size_max,
                    "p50_batch_ms": round(
                        self._batch_stats.quantile_seconds(50) * 1e3, 3),
                    "size_histogram": {
                        str(k): v for k, v in sorted(self._batch_hist.items())},
                },
                "queue": {
                    "mean_depth": round(self._queue_sum / self._admitted, 2)
                    if self._admitted else 0.0,
                    "max_depth": self._queue_max,
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

    def collect_metrics(self) -> List[Sample]:
        """Obs-registry collector: this session's series under its label."""
        labels = {"service": self.name}
        with self._lock:
            admitted = self._admitted
            rejected = self._rejected
            completed = self._completed
            failed = self._failed
            queue_last = self._queue_last
            queue_max = self._queue_max
            batches = self._batch_stats.count
            rejected_by = dict(self._rejected_by)
            expired = dict(self._expired)
            latency = LatencyStats()
            latency.merge(self._latency)   # consistent copy outside the lock
        samples = [
            Sample("repro_serving_requests_total", dict(labels, outcome="admitted"),
                   float(admitted), "counter"),
            Sample("repro_serving_requests_total", dict(labels, outcome="rejected"),
                   float(rejected), "counter"),
            Sample("repro_serving_requests_total", dict(labels, outcome="completed"),
                   float(completed), "counter"),
            Sample("repro_serving_requests_total", dict(labels, outcome="failed"),
                   float(failed), "counter"),
            Sample("repro_serving_batches_total", labels, float(batches), "counter"),
            Sample("repro_serving_queue_depth", labels, float(queue_last), "gauge"),
            Sample("repro_serving_queue_depth_max", labels, float(queue_max), "gauge"),
            Sample("repro_serving_throughput_rps", labels, self.throughput(), "gauge"),
        ]
        for (reason, cls), count in sorted(rejected_by.items()):
            samples.append(Sample(
                "repro_serving_rejects_total",
                dict(labels, reason=reason, **{"class": cls}),
                float(count), "counter"))
        for cls, count in sorted(expired.items()):
            samples.append(Sample(
                "repro_serving_deadline_expiries_total",
                dict(labels, **{"class": cls}), float(count), "counter"))
        samples.extend(
            summary_samples("repro_serving_latency_seconds", labels, latency))
        return samples


class GatewayMetrics:
    """Per-class accounting of the network gateway's front door.

    Counts what the *gateway* decided (accepted / rejected at admission /
    expired while queued / completed / failed) per priority class, plus the
    live connection gauge and per-class end-to-end latency as observed at the
    socket (parse to response write).  The downstream batcher keeps its own
    :class:`ServingMetrics`; the two reports together separate "the scheduler
    dropped it" from "the gateway never let it in".
    """

    _guarded_by_ = {
        "_accepted": "_lock",
        "_rejected": "_lock",
        "_expired": "_lock",
        "_completed": "_lock",
        "_failed": "_lock",
        "_latency": "_lock",
        "_connections": "_lock",
    }

    def __init__(self, name: str = "gateway", register: bool = True) -> None:
        self._lock = threading.Lock()
        self.name = name
        self._accepted: Dict[str, int] = {}
        #: (reason, priority class) -> count.
        self._rejected: Dict[Tuple[str, str], int] = {}
        self._expired: Dict[str, int] = {}
        self._completed: Dict[str, int] = {}
        self._failed: Dict[str, int] = {}
        #: priority class -> gateway-side latency distribution.
        self._latency: Dict[str, LatencyStats] = {}
        self._connections = 0
        self._connections_total = 0
        if register:
            get_registry().register_collector(
                f"gateway.{name}", self.collect_metrics)

    # ------------------------------------------------------------------ recording
    def connection_opened(self) -> None:
        with self._lock:
            self._connections += 1
            self._connections_total += 1

    def connection_closed(self) -> None:
        with self._lock:
            self._connections -= 1

    def record_accept(self, priority: str, count: int = 1) -> None:
        """``count`` requests passed gateway admission and entered the scheduler."""
        with self._lock:
            self._accepted[priority] = self._accepted.get(priority, 0) + count

    def record_reject(self, reason: str, priority: str, count: int = 1) -> None:
        """``count`` requests answered with an error frame at gateway admission."""
        key = (reason, priority)
        with self._lock:
            self._rejected[key] = self._rejected.get(key, 0) + count

    def record_expiry(self, priority: str, count: int = 1) -> None:
        """``count`` accepted requests dropped downstream on deadline expiry."""
        with self._lock:
            self._expired[priority] = self._expired.get(priority, 0) + count

    def record_completion(self, priority: str, latency_seconds: float,
                          failed: bool = False, count: int = 1) -> None:
        """``count`` accepted requests answered together (result or non-expiry error frame)."""
        with self._lock:
            if failed:
                self._failed[priority] = self._failed.get(priority, 0) + count
                return
            self._completed[priority] = self._completed.get(priority, 0) + count
            stats = self._latency.get(priority)
            if stats is None:
                stats = self._latency[priority] = LatencyStats()
            for _ in range(count):
                stats.add(latency_seconds)

    def reset(self) -> None:
        """Zero the request ledgers (connection gauges are left alone)."""
        with self._lock:
            self._accepted = {}
            self._rejected = {}
            self._expired = {}
            self._completed = {}
            self._failed = {}
            self._latency = {}

    # ------------------------------------------------------------------ reporting
    def report(self) -> Dict[str, object]:
        """Everything as one nested plain dict (JSON-ready)."""
        with self._lock:
            return {
                "connections": {
                    "open": self._connections,
                    "total": self._connections_total,
                },
                "requests": {
                    "accepted": dict(sorted(self._accepted.items())),
                    "rejected": {
                        f"{reason}/{cls}": count
                        for (reason, cls), count in sorted(self._rejected.items())
                    },
                    "expired": dict(sorted(self._expired.items())),
                    "completed": dict(sorted(self._completed.items())),
                    "failed": dict(sorted(self._failed.items())),
                },
                "latency": {
                    cls: stats.summary()
                    for cls, stats in sorted(self._latency.items())
                },
            }

    def collect_metrics(self) -> List[Sample]:
        """Obs-registry collector: the gateway's series under its label."""
        labels = {"gateway": self.name}
        with self._lock:
            accepted = dict(self._accepted)
            rejected = dict(self._rejected)
            expired = dict(self._expired)
            completed = dict(self._completed)
            failed = dict(self._failed)
            connections = self._connections
            latency = {
                cls: stats for cls, stats in self._latency.items()}
            merged: Dict[str, LatencyStats] = {}
            for cls, stats in latency.items():
                copy = LatencyStats()
                copy.merge(stats)
                merged[cls] = copy
        samples = [Sample("repro_gateway_connections", labels,
                          float(connections), "gauge")]
        for cls, count in sorted(accepted.items()):
            samples.append(Sample(
                "repro_gateway_requests_total",
                dict(labels, outcome="accepted", **{"class": cls}),
                float(count), "counter"))
        for (reason, cls), count in sorted(rejected.items()):
            samples.append(Sample(
                "repro_gateway_rejects_total",
                dict(labels, reason=reason, **{"class": cls}),
                float(count), "counter"))
        for cls, count in sorted(expired.items()):
            samples.append(Sample(
                "repro_gateway_deadline_expiries_total",
                dict(labels, **{"class": cls}), float(count), "counter"))
        for cls, count in sorted(completed.items()):
            samples.append(Sample(
                "repro_gateway_requests_total",
                dict(labels, outcome="completed", **{"class": cls}),
                float(count), "counter"))
        for cls, count in sorted(failed.items()):
            samples.append(Sample(
                "repro_gateway_requests_total",
                dict(labels, outcome="failed", **{"class": cls}),
                float(count), "counter"))
        for cls, stats in sorted(merged.items()):
            samples.extend(summary_samples(
                "repro_gateway_latency_seconds",
                dict(labels, **{"class": cls}), stats))
        return samples
