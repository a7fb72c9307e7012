"""Elastic fleet sizing: grow and shrink a Router's workers from load.

R-TOSS serves at the edge, where offered load is bursty (a junction camera at
rush hour vs. 3 a.m.) but the worker fleet is provisioned once.
:class:`Autoscaler` closes that loop: a supervisor thread samples two signals
off the running :class:`~repro.serving.cluster.router.Router` —

* **queue depth**: mean in-flight requests per worker (the leading indicator;
  queues grow before latency does), and
* **windowed p95 latency** vs. the configured SLO
  (:meth:`~repro.serving.cluster.metrics.ClusterMetrics.recent_p95_ms` — the
  *trailing-window* percentile, not the all-time aggregate, so an old spike
  cannot pin the fleet large forever)

— and calls :meth:`Router.add_worker` / :meth:`Router.remove_worker` inside
``[min_workers, max_workers]``.  Every bound, threshold and cooldown is the
:class:`~repro.pipeline.spec.AutoscalerSpec` node the controller is handed, and
the rule that reads them is :func:`repro.serving.cluster.fleet.scale_decision`
— a function of the signals, the clock and the last two actions; this class
samples, acts and exports.  Scale-up and scale-down each have their own
cooldown (asymmetric on purpose: growing is cheap and urgent, shrinking is
optional and should lag) so the controller never flaps.

Every decision is exported through :mod:`repro.obs`:
``repro_autoscaler_decisions_total{direction=up|down}`` counts actions,
``repro_autoscaler_workers`` gauges the current fleet size, and
``repro_autoscaler_queue_depth`` the last observed per-worker depth.

Use (:func:`repro.serving.build_target` does this for an enabled spec)::

    from repro.serving.elastic import Autoscaler

    with Autoscaler(router, serve_spec.cluster.autoscaler).start():
        ...
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from repro.obs.registry import get_registry
from repro.pipeline.spec import AutoscalerSpec
from repro.serving.cluster.fleet import scale_decision
from repro.utils.logging import get_logger

__all__ = ["Autoscaler"]

logger = get_logger("serving.elastic")


class Autoscaler:
    """Supervisor loop sizing a Router's fleet from queue depth and p95.

    Threading: all mutable decision state (cooldown clocks, last decision) is
    touched only by the supervisor thread — or by direct
    :meth:`evaluate_once` calls in tests, never both at once — so it needs
    no lock (single-writer by contract, like the worker heartbeat fields).
    """

    def __init__(self, router: Any, spec: Optional[AutoscalerSpec] = None) -> None:
        self.router = router
        self.spec = spec or AutoscalerSpec()

        self._last_up = float("-inf")
        self._last_down = float("-inf")
        self.last_decision: Dict[str, Any] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

        registry = get_registry()
        self._decisions = registry.counter(
            "repro_autoscaler_decisions_total",
            "Autoscaler scale actions by direction", ("direction",))
        self._worker_gauge = registry.gauge(
            "repro_autoscaler_workers", "Current worker fleet size")
        self._depth_gauge = registry.gauge(
            "repro_autoscaler_queue_depth",
            "Last observed mean in-flight requests per worker")

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> "Autoscaler":
        if self._thread is not None:
            raise RuntimeError("Autoscaler.start() called twice")
        self._thread = threading.Thread(
            target=self._loop, name="repro-autoscaler", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "Autoscaler":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self.spec.interval_s):
            if self.router.closed:
                return
            try:
                self.evaluate_once()
            except Exception as error:  # pragma: no cover - defensive
                # A scale action racing shutdown must not kill supervision.
                logger.warning("autoscaler evaluation failed: %s", error)

    # ------------------------------------------------------------------ decisions
    def observe(self) -> Dict[str, float]:
        """The control signals: fleet size, mean queue depth, windowed p95."""
        workers = self.router.workers
        count = len(workers)
        depth = (
            sum(worker.outstanding_count for worker in workers) / count
            if count else 0.0)
        p95_ms = self.router.metrics.recent_p95_ms()
        return {"workers": float(count), "queue_depth": depth, "p95_ms": p95_ms}

    def evaluate_once(self) -> str:
        """One control step: observe, let the rule decide, act; returns "up" / "down" / "hold"."""
        signals = self.observe()
        count = int(signals["workers"])
        depth = signals["queue_depth"]
        p95_ms = signals["p95_ms"]
        now = time.monotonic()
        decision = scale_decision(self.spec, count, depth, p95_ms, now,
                                  self._last_up, self._last_down)
        if decision == "up":
            self.router.add_worker()
            self._last_up = now
        elif decision == "down":
            self.router.remove_worker()
            self._last_down = now
        if decision != "hold":
            self._decisions.inc(direction=decision)
            logger.info(
                "autoscaler: %s (depth=%.2f p95=%.1fms workers=%d -> %d)",
                decision, depth, p95_ms, count,
                count + (1 if decision == "up" else -1))
        self._worker_gauge.set(float(len(self.router.workers)))
        self._depth_gauge.set(depth)
        self.last_decision = dict(signals, decision=decision)
        return decision
