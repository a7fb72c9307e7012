"""Cluster-wide serving metrics: per-worker and aggregate latency/throughput.

:class:`ClusterMetrics` is the router-side ledger of everything that crossed
the process boundary.  Latency is recorded per request from router admission
to future resolution — it includes channel transport, the worker's queueing
delay and the model forward, i.e. the number a cluster client actually
observes.  Per-worker sections make routing-policy skew visible (a
round-robin cluster should complete roughly equal counts per worker; a
model-affinity cluster deliberately should not), and the failure counters
(``restarts``, ``redispatched``) quantify the supervision machinery.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.registry import Sample, get_registry, summary_samples
from repro.utils.profiling import LatencyStats, percentile

#: Distinguishes concurrent clusters in the obs registry's label sets.
_CLUSTER_SERIAL = itertools.count(1)


class _WorkerLedger:
    """Per-worker counters (guarded by the owning :class:`ClusterMetrics` lock)."""

    __slots__ = ("submitted", "completed", "failed", "redispatched", "restarts", "latency")

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.redispatched = 0
        self.restarts = 0
        self.latency = LatencyStats()


class ClusterMetrics:
    """Thread-safe aggregate of one cluster's serving activity.

    Registers itself as a weak collector on the process obs registry
    (:mod:`repro.obs.registry`) so ``registry.snapshot()`` folds per-worker
    request counters, restart/redispatch totals and the cluster latency
    summary into the unified view alongside serving and engine series.
    """

    _guarded_by_ = {
        "_workers": "_lock",
        "_first_submit": "_lock",
        "_last_completion": "_lock",
        "_recent": "_lock",
        "_shed": "_lock",
        "_swaps": "_lock",
    }

    #: Bound on the timestamped recent-latency window (autoscaler signal).
    RECENT_CAPACITY = 4096

    def __init__(self, name: Optional[str] = None, register: bool = True) -> None:
        self._lock = threading.Lock()
        self.name = name or f"cluster-{next(_CLUSTER_SERIAL)}"
        self._workers: Dict[str, _WorkerLedger] = {}
        self._first_submit: Optional[float] = None
        self._last_completion: Optional[float] = None
        #: (perf_counter, latency_s) of recent completions — the windowed-p95
        #: source the autoscaler and chaos drill read (bounded deque).
        self._recent: Deque[Tuple[float, float]] = deque(maxlen=self.RECENT_CAPACITY)
        self._shed: Dict[str, int] = {}          # priority -> shed count
        self._swaps = 0
        if register:
            get_registry().register_collector(
                f"cluster.{self.name}", self.collect_metrics)

    def _ledger(self, worker: str) -> _WorkerLedger:  # reprolint: holds=_lock
        ledger = self._workers.get(worker)
        if ledger is None:
            ledger = self._workers[worker] = _WorkerLedger()
        return ledger

    def reset(self) -> None:
        """Zero every ledger (e.g. between a verification phase and a load run)."""
        with self._lock:
            self._workers.clear()
            self._first_submit = None
            self._last_completion = None
            self._recent.clear()
            self._shed.clear()
            self._swaps = 0

    # ------------------------------------------------------------------ recording
    def record_submit(self, worker: str, count: int = 1) -> None:
        """``count`` requests dispatched to ``worker`` (one frame)."""
        now = time.perf_counter()
        with self._lock:
            self._ledger(worker).submitted += count
            if self._first_submit is None:
                self._first_submit = now

    def record_completion(self, worker: str, latency_seconds: float, failed: bool = False,
                          count: int = 1) -> None:
        """``count`` requests answered by ``worker`` together (one reply frame)."""
        now = time.perf_counter()
        with self._lock:
            ledger = self._ledger(worker)
            if failed:
                ledger.failed += count
            else:
                ledger.completed += count
                for _ in range(count):
                    ledger.latency.add(latency_seconds)
                    self._recent.append((now, latency_seconds))
            self._last_completion = now

    def record_restart(self, worker: str) -> None:
        """One worker slot was restarted after a death/health-check failure."""
        with self._lock:
            self._ledger(worker).restarts += 1

    def record_redispatch(self, worker: str, count: int = 1) -> None:
        """``count`` in-flight requests were re-sent after ``worker`` died."""
        with self._lock:
            self._ledger(worker).redispatched += count

    def record_shed(self, priority: str, count: int = 1) -> None:
        """``count`` requests shed at admission while the cluster was degraded."""
        with self._lock:
            self._shed[priority] = self._shed.get(priority, 0) + count

    def record_swap(self) -> None:
        """One rolling artifact swap completed across the fleet."""
        with self._lock:
            self._swaps += 1

    # ------------------------------------------------------------------ reporting
    @property
    def completed(self) -> int:
        with self._lock:
            return sum(ledger.completed for ledger in self._workers.values())

    @property
    def restarts(self) -> int:
        with self._lock:
            return sum(ledger.restarts for ledger in self._workers.values())

    @property
    def redispatched(self) -> int:
        with self._lock:
            return sum(ledger.redispatched for ledger in self._workers.values())

    def recent_p95_ms(self, window_s: float = 5.0) -> float:
        """p95 latency (ms) over completions in the trailing ``window_s``.

        The merged :class:`LatencyStats` is an all-time aggregate — useless
        as a control signal once a load spike is minutes old.  This is the
        *windowed* view the autoscaler compares against its SLO (0.0 when
        the window is empty).
        """
        cutoff = time.perf_counter() - window_s
        with self._lock:
            recent = [latency for ts, latency in self._recent if ts >= cutoff]
        return percentile(recent, 95.0) * 1e3

    def throughput(self) -> float:
        """Completed requests per second of wall-clock cluster time."""
        with self._lock:
            total = sum(ledger.completed for ledger in self._workers.values())
            if self._first_submit is None or self._last_completion is None or total == 0:
                return 0.0
            elapsed = self._last_completion - self._first_submit
            return total / elapsed if elapsed > 0 else 0.0

    def report(self) -> Dict[str, object]:
        """Nested plain dict: one section per worker plus the cluster aggregate."""
        throughput = self.throughput()
        with self._lock:
            merged = LatencyStats()
            workers: Dict[str, object] = {}
            for name in sorted(self._workers):
                ledger = self._workers[name]
                # merge (not extend): folds exact count/sum/max aggregates, so
                # the cluster summary stays exact even once per-worker
                # reservoirs have started down-sampling.
                merged.merge(ledger.latency)
                workers[name] = {
                    "submitted": ledger.submitted,
                    "completed": ledger.completed,
                    "failed": ledger.failed,
                    "redispatched": ledger.redispatched,
                    "restarts": ledger.restarts,
                    "latency": ledger.latency.summary(),
                }
            return {
                "workers": workers,
                "cluster": {
                    "worker_count": len(workers),
                    "completed": sum(l.completed for l in self._workers.values()),
                    "failed": sum(l.failed for l in self._workers.values()),
                    "restarts": sum(l.restarts for l in self._workers.values()),
                    "redispatched": sum(l.redispatched for l in self._workers.values()),
                    "shed": dict(self._shed),
                    "swaps": self._swaps,
                    "throughput_rps": round(throughput, 2),
                    "latency": merged.summary(),
                },
            }

    def collect_metrics(self) -> List[Sample]:
        """Obs-registry collector: per-worker counters + cluster latency."""
        labels = {"cluster": self.name}
        merged = LatencyStats()
        samples: List[Sample] = []
        with self._lock:
            for name in sorted(self._workers):
                ledger = self._workers[name]
                merged.merge(ledger.latency)
                worker_labels = dict(labels, worker=name)
                samples.extend([
                    Sample("repro_cluster_requests_total",
                           dict(worker_labels, outcome="submitted"),
                           float(ledger.submitted), "counter"),
                    Sample("repro_cluster_requests_total",
                           dict(worker_labels, outcome="completed"),
                           float(ledger.completed), "counter"),
                    Sample("repro_cluster_requests_total",
                           dict(worker_labels, outcome="failed"),
                           float(ledger.failed), "counter"),
                    Sample("repro_cluster_restarts_total", worker_labels,
                           float(ledger.restarts), "counter"),
                    Sample("repro_cluster_redispatched_total", worker_labels,
                           float(ledger.redispatched), "counter"),
                ])
            for priority in sorted(self._shed):
                samples.append(Sample("repro_cluster_shed_total",
                                      dict(labels, priority=priority),
                                      float(self._shed[priority]), "counter"))
            samples.append(Sample("repro_cluster_swaps_total", labels,
                                  float(self._swaps), "counter"))
        samples.append(Sample("repro_cluster_throughput_rps", labels,
                              self.throughput(), "gauge"))
        samples.extend(
            summary_samples("repro_cluster_latency_seconds", labels, merged))
        return samples

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
