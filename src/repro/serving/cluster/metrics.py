"""Cluster-wide serving metrics: per-worker and aggregate latency/throughput.

:class:`ClusterMetrics` is the router-side account of everything that crossed
the process boundary.  Latency is recorded per request from router admission
to future resolution — it includes channel transport, the worker's queueing
delay and the model forward, i.e. the number a cluster client actually
observes.  Per-worker sections make routing-policy skew visible (a
round-robin cluster should complete roughly equal counts per worker), and
the failure counters
(``restarts``, ``redispatched``) quantify the supervision machinery.

As in :mod:`repro.serving.metrics`, the obs-registry instruments are the
store: ``record_*`` writes ``worker=``-labelled series, ``report()`` and the
properties are views over them, and the same objects export themselves under
the ``cluster=`` label.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional

from repro.obs.registry import Instruments, Sample, get_registry
from repro.serving.metrics import _counts, _rate

#: Distinguishes concurrent clusters in the obs registry's label sets.
_CLUSTER_SERIAL = itertools.count(1)

#: The per-worker counts of ``report()["workers"][name]``, in report order.
_COLUMNS = ("submitted", "completed", "failed", "redispatched", "restarts")


class ClusterMetrics:
    """Thread-safe aggregate of one cluster's serving activity.

    Its instruments are registered weakly on the process obs registry, so
    ``registry.snapshot()`` carries per-worker request counters,
    restart/redispatch totals and the latency summaries alongside the serving
    and engine series.
    """

    def __init__(self, name: Optional[str] = None, register: bool = True) -> None:
        self.name = name or f"cluster-{next(_CLUSTER_SERIAL)}"
        own = self._instruments = Instruments(cluster=self.name)
        self._lock = own.lock
        #: outcome: submitted / completed / failed.
        self._requests = own.counter(
            "repro_cluster_requests_total", labelnames=("worker", "outcome"))
        self._restarts = own.counter("repro_cluster_restarts_total", labelnames=("worker",))
        self._redispatched = own.counter("repro_cluster_redispatched_total", labelnames=("worker",))
        self._shed = own.counter("repro_cluster_shed_total", labelnames=("priority",))
        self._swaps = own.counter("repro_cluster_swaps_total")
        #: every completion lands in the fleet-wide distribution and in its
        #: worker's: quantile summaries cannot be added up afterwards.
        self._latency = own.histogram("repro_cluster_latency_seconds")
        self._worker_latency = own.histogram(
            "repro_cluster_worker_latency_seconds", labelnames=("worker",))
        self._throughput = own.gauge("repro_cluster_throughput_rps")
        # Timestamps, not metrics: plain fields under the same lock.
        self._first_submit: Optional[float] = None
        self._last_completion: Optional[float] = None
        if register:
            get_registry().register_collector(f"cluster.{self.name}", self.samples)

    def reset(self) -> None:
        """Zero every instrument (e.g. between a verification phase and a load run)."""
        with self._lock:
            self._instruments.clear()
            self._first_submit = self._last_completion = None

    # ------------------------------------------------------------------ recording
    def record_submit(self, worker: str, count: int = 1) -> None:
        """``count`` requests dispatched to ``worker`` (one frame)."""
        now = time.perf_counter()
        with self._lock:
            self._requests.labels(worker, "submitted").inc(count)
            if self._first_submit is None:
                self._first_submit = now

    def record_completion(self, worker: str, latency_seconds: float, failed: bool = False,
                          count: int = 1) -> None:
        """``count`` requests answered by ``worker`` together (one reply frame)."""
        now = time.perf_counter()
        with self._lock:
            if failed:
                self._requests.labels(worker, "failed").inc(count)
            else:
                self._requests.labels(worker, "completed").inc(count)
                self._latency.observe(latency_seconds, count)
                self._worker_latency.labels(worker).observe(latency_seconds, count)
            self._last_completion = now

    def record_restart(self, worker: str) -> None:
        """One worker slot was restarted after a death/health-check failure."""
        self._restarts.labels(worker).inc()

    def record_redispatch(self, worker: str, count: int = 1) -> None:
        """``count`` in-flight requests were re-sent after ``worker`` died."""
        self._redispatched.labels(worker).inc(count)

    def record_shed(self, priority: str, count: int = 1) -> None:
        """``count`` requests shed at admission while the cluster was degraded."""
        self._shed.labels(priority).inc(count)

    def record_swap(self) -> None:
        """One rolling artifact swap completed across the fleet."""
        self._swaps.inc()

    # ------------------------------------------------------------------ reporting
    def _per_worker(self) -> Dict[str, Dict[str, object]]:  # reprolint: holds=_lock
        """``{worker: {column: count}}`` for every worker any series names."""
        cells = _counts(self._requests)
        cells.update(((w, "redispatched"), n) for (w,), n in _counts(self._redispatched).items())
        cells.update(((w, "restarts"), n) for (w,), n in _counts(self._restarts).items())
        return {
            worker: {column: cells.get((worker, column), 0) for column in _COLUMNS}
            for worker in sorted({worker for worker, _ in cells})
        }

    @property
    def completed(self) -> int:
        requests = _counts(self._requests).items()
        return sum(n for (_, outcome), n in requests if outcome == "completed")

    @property
    def restarts(self) -> int:
        return sum(_counts(self._restarts).values())

    @property
    def redispatched(self) -> int:
        return sum(_counts(self._redispatched).values())

    def throughput(self) -> float:
        """Completed requests per second of wall-clock cluster time."""
        with self._lock:
            return _rate(self.completed, self._first_submit, self._last_completion)

    def samples(self) -> List[Sample]:
        """The registered collector: the instruments, the derived rate refreshed first."""
        with self._lock:
            self._throughput.set(self.throughput())
            return self._instruments.samples()

    def report(self) -> Dict[str, object]:
        """Nested plain dict: one section per worker plus the cluster aggregate."""
        with self._lock:
            workers = self._per_worker()
            totals = {c: sum(row[c] for row in workers.values()) for c in _COLUMNS}
            cluster = {
                "worker_count": len(workers),
                "completed": totals["completed"],
                "failed": totals["failed"],
                "restarts": totals["restarts"],
                "redispatched": totals["redispatched"],
                "shed": {priority: n for (priority,), n in _counts(self._shed).items()},
                "swaps": int(self._swaps.value()),
                "throughput_rps": round(self.throughput(), 2),
                "latency": self._latency.stats().summary(),
            }
            for name, row in workers.items():
                row["latency"] = self._worker_latency.stats(worker=name).summary()
            return {"workers": workers, "cluster": cluster}

    def flat_row(self) -> Dict[str, object]:
        """One table row for :func:`repro.evaluation.tables.format_table`."""
        report = self.report()
        cluster = report["cluster"]
        latency = cluster["latency"]
        return {
            "workers": cluster["worker_count"],
            "completed": cluster["completed"],
            "failed": cluster["failed"],
            "restarts": cluster["restarts"],
            "redispatched": cluster["redispatched"],
            "throughput_rps": cluster["throughput_rps"],
            "p50_ms": latency["p50_ms"],
            "p95_ms": latency["p95_ms"],
            "p99_ms": latency["p99_ms"],
        }
