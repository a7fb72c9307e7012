"""Seeded fault injection for the serving cluster (the chaos harness).

Robustness claims ("zero dropped requests across a worker crash", "the fleet
recovers to its pre-fault p95") are only as good as the faults they were
tested against.  This module makes fault schedules a *first-class, seeded
input*: a :class:`~repro.pipeline.spec.ChaosSpec` describes which faults to
inject and how often, and a :class:`FaultInjector` — installed into the
worker child process, its :class:`~repro.serving.cluster.channel.ArrayChannel`
and the :class:`~repro.serving.gateway.GatewayServer` — replays exactly the
same schedule on every run with the same seed.

Fault streams (all independent, all derived from one seed):

* **crash** — the worker child calls ``os._exit`` mid-serve (Poisson schedule
  at ``crash_rate`` events/s).  Exercises death detection, restart backoff
  and in-flight re-dispatch.
* **hang** — the child SIGSTOPs itself: the process stays *alive* but
  heartbeats stop, exercising the heartbeat-timeout path (a hung process is
  the failure mode liveness checks exist for).
* **heartbeat loss** — individual heartbeat frames are dropped (Bernoulli per
  beat), exercising timeout margins without killing anything.
* **torn frame** — a channel frame is truncated mid-write; the peer sees a
  malformed frame (:class:`~repro.serving.cluster.channel.ChannelClosedError`)
  exactly as if the sender died at that byte.
* **slow frame / gateway latency** — artificial delay before channel sends /
  gateway response writes.

Determinism across processes and threads: every stream owns its own
``random.Random`` seeded by ``(seed, scope, stream name)`` where ``scope``
is ``worker_id#incarnation`` — string seeding is stable across processes
(unlike ``hash()``), separate streams keep one thread's draws from perturbing
another's, and the incarnation counter keeps a restarted worker from
replaying its predecessor's schedule.

The fault *window* is wall-clock bounded: the router computes one absolute
end time (``time.time()`` based, comparable across processes) at
construction, and every injector goes quiet after it — so a drill can
measure recovery back to baseline.  Each injector additionally honours a
per-incarnation ``warmup_s`` quiet period so a crash-looping schedule cannot
keep a fresh worker from ever becoming useful.

:func:`run_chaos_drill` is the harness the ``repro chaos`` CLI, ``make
chaos-smoke`` and the live drill in ``tests/serving/test_chaos.py`` share: open-loop
load across warmup → fault window → recovery, asserting zero dropped
requests and reporting ``recovery_p95_seconds``.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.pipeline.spec import ChaosSpec
from repro.serving.loadgen import _dispatch, _image_cycle, _settle, poisson_gaps
from repro.utils.logging import get_logger
from repro.utils.profiling import percentile

__all__ = ["FaultInjector", "ChaosDrillReport", "run_chaos_drill"]

logger = get_logger("serving.chaos")


class FaultInjector:
    """One process's view of the seeded fault schedule.

    Pure-computation hooks (:meth:`heartbeat_dropped`, :meth:`frame_delay_s`,
    :meth:`maybe_tear`, :meth:`response_delay_s`) are called from the hot
    paths they fault; the lifecycle thread (:meth:`start_lifecycle`) runs the
    crash/hang Poisson schedules inside a worker child.

    Thread safety: each named stream is consumed by exactly one thread by
    construction (heartbeat loop, channel sender, lifecycle thread), so
    stream state needs no lock; the stream *table* is created eagerly so no
    two threads ever race its population.
    """

    def __init__(self, spec: ChaosSpec, scope: str = "cluster",
                 until_wall: Optional[float] = None) -> None:
        self.spec = spec
        self.scope = scope
        started = time.time()
        #: Faults fire only inside [active_after, until_wall): a quiet warmup
        #: after every (re)start, and a global wall-clock end so the fleet
        #: gets to recover.
        self.active_after = started + spec.warmup_s
        self.until_wall = (
            float(until_wall) if until_wall is not None
            else started + spec.warmup_s + spec.duration_s)
        self._stop = threading.Event()
        # Eager per-purpose streams: string seeding is deterministic across
        # processes, and one stream per consumer thread keeps draw order
        # deterministic regardless of thread interleaving.
        self._streams: Dict[str, random.Random] = {
            name: random.Random(f"{spec.seed}:{scope}:{name}")
            for name in ("crash", "hang", "heartbeat", "torn", "slow")
        }

    # ------------------------------------------------------------------ window
    def active(self) -> bool:
        """True while faults may fire (past warmup, before the window end)."""
        if not self.spec.enabled:
            return False
        now = time.time()
        return self.active_after <= now < self.until_wall

    # ------------------------------------------------------------------ wire form
    def to_wire(self) -> Dict[str, Any]:
        """Picklable form shipped to a worker child (JSON-safe plain dict)."""
        return {"spec": self.spec.to_dict(), "scope": self.scope,
                "until_wall": self.until_wall}

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "FaultInjector":
        return cls(ChaosSpec.from_dict(wire["spec"]), scope=wire["scope"],
                   until_wall=wire["until_wall"])

    # ------------------------------------------------------------------ hooks
    def heartbeat_dropped(self) -> bool:
        """Bernoulli per beat: True means silently skip this heartbeat frame."""
        rate = self.spec.heartbeat_drop_rate
        if rate <= 0 or not self.active():
            return False
        return self._streams["heartbeat"].random() < rate

    def frame_delay_s(self) -> float:
        """Seconds to sleep before sending the next channel frame (0 = none)."""
        rate = self.spec.slow_frame_rate
        if rate <= 0 or self.spec.slow_frame_ms <= 0 or not self.active():
            return 0.0
        if self._streams["slow"].random() < rate:
            return self.spec.slow_frame_ms / 1e3
        return 0.0

    def maybe_tear(self, frame: bytes) -> bytes:
        """Truncate ``frame`` mid-write (Bernoulli per frame).

        The peer's decoder sees a malformed frame and raises
        ``ChannelClosedError`` — byte-for-byte the signature of a sender
        dying mid-write, which is the failure being simulated.
        """
        rate = self.spec.torn_frame_rate
        if rate <= 0 or len(frame) < 8 or not self.active():
            return frame
        stream = self._streams["torn"]
        if stream.random() >= rate:
            return frame
        cut = stream.randrange(1, len(frame))
        logger.warning("chaos[%s]: tearing a %d-byte frame at byte %d",
                       self.scope, len(frame), cut)
        return frame[:cut]

    def response_delay_s(self) -> float:
        """Artificial latency before a gateway response write (seconds)."""
        if self.spec.gateway_latency_ms <= 0 or not self.active():
            return 0.0
        return self.spec.gateway_latency_ms / 1e3

    # ------------------------------------------------------------------ lifecycle
    def start_lifecycle(self) -> Optional[threading.Thread]:
        """Run the crash/hang schedules in a daemon thread (worker child only)."""
        if not self.spec.enabled:
            return None
        if self.spec.crash_rate <= 0 and self.spec.hang_rate <= 0:
            return None
        thread = threading.Thread(
            target=self._lifecycle_loop,
            name=f"repro-chaos-{self.scope}", daemon=True)
        thread.start()
        return thread

    def stop(self) -> None:
        self._stop.set()

    @staticmethod
    def _next_event(stream: random.Random, rate: float,
                    after: float) -> Optional[float]:
        """Next Poisson event time (absolute wall clock), or None if disabled."""
        if rate <= 0:
            return None
        return after + stream.expovariate(rate)

    def _lifecycle_loop(self) -> None:
        crash = self._next_event(
            self._streams["crash"], self.spec.crash_rate, self.active_after)
        hang = self._next_event(
            self._streams["hang"], self.spec.hang_rate, self.active_after)
        while not self._stop.is_set():
            upcoming = min((t for t in (crash, hang) if t is not None),
                           default=None)
            if upcoming is None or upcoming >= self.until_wall:
                return
            now = time.time()
            if now < upcoming:
                # Short waits keep the schedule honest against clock drift
                # while staying responsive to stop().
                if self._stop.wait(min(upcoming - now, 0.05)):
                    return
                continue
            if crash is not None and upcoming == crash:
                logger.warning("chaos[%s]: injecting crash (os._exit)", self.scope)
                os._exit(23)
            if hang is not None and upcoming == hang:
                logger.warning("chaos[%s]: injecting hang (SIGSTOP)", self.scope)
                # The process freezes here until SIGKILL/SIGCONT; heartbeats
                # stop but the pid stays alive — exactly a hung worker.
                os.kill(os.getpid(), signal.SIGSTOP)
                hang = self._next_event(
                    self._streams["hang"], self.spec.hang_rate, time.time())


# ---------------------------------------------------------------------- drill
class ChaosDrillReport:
    """Outcome of one :func:`run_chaos_drill`: drops, recovery, latencies."""

    def __init__(self, *, submitted: int, completed: int, rejected: int,
                 dropped: int, drop_errors: List[str],
                 pre_fault_p95_ms: float, post_fault_p95_ms: float,
                 recovery_p95_seconds: Optional[float],
                 restarts: int, redispatched: int,
                 duration_s: float) -> None:
        self.submitted = submitted
        self.completed = completed
        #: Admission-control rejections (queue full / shed / deadline): the
        #: system saying "no" loudly, by design — not drops.
        self.rejected = rejected
        #: Requests that failed with a non-admission error: actual drops.
        self.dropped = dropped
        self.drop_errors = drop_errors
        self.pre_fault_p95_ms = pre_fault_p95_ms
        self.post_fault_p95_ms = post_fault_p95_ms
        #: Seconds after the fault window closed until a trailing-window p95
        #: returned to <= 1.5x the pre-fault p95 (None: never recovered).
        self.recovery_p95_seconds = recovery_p95_seconds
        self.restarts = restarts
        self.redispatched = redispatched
        self.duration_s = duration_s

    def as_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "dropped": self.dropped,
            "drop_errors": self.drop_errors[:8],
            "pre_fault_p95_ms": round(self.pre_fault_p95_ms, 3),
            "post_fault_p95_ms": round(self.post_fault_p95_ms, 3),
            "recovery_p95_seconds": (
                None if self.recovery_p95_seconds is None
                else round(self.recovery_p95_seconds, 3)),
            "restarts": self.restarts,
            "redispatched": self.redispatched,
            "duration_s": round(self.duration_s, 3),
        }


def _recovery_seconds(samples: List[Tuple[float, float]], fault_end: float,
                      target_ms: float, window_s: float = 1.0) -> Optional[float]:
    """First post-fault window whose p95 is back under ``target_ms``.

    ``samples`` are ``(completion time, latency ms)``; windows of
    ``window_s`` are scanned from the fault-window end, and the recovery time
    is the end of the first window that meets the target (0.0 when the very
    first window already does).
    """
    after = [(t, ms) for t, ms in samples if t >= fault_end]
    if not after:
        return None
    horizon = max(t for t, _ in after)
    start = fault_end
    while start < horizon + window_s:
        window = [ms for t, ms in after if start <= t < start + window_s]
        if window and percentile(window, 95.0) <= target_ms:
            return max(0.0, start + window_s - fault_end)
        start += window_s
    return None


def run_chaos_drill(
    router: Any,
    images: np.ndarray,
    *,
    chaos: ChaosSpec,
    rate_rps: float = 100.0,
    recovery_s: float = 5.0,
    recovery_factor: float = 1.5,
    priority: str = "normal",
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> ChaosDrillReport:
    """Open-loop load over warmup → fault window → recovery, on one ``router``.

    The router must already carry the same ``chaos`` spec (its workers inject
    the faults); this function only generates load and measures.  Timeline::

        [warmup_s: pre-fault baseline][duration_s: faults][recovery_s: measure]

    The load is :func:`~repro.serving.loadgen.open_loop`'s Poisson schedule on
    the same dispatcher: a request goes out when it is *due* and is timed from
    then, so a submit stalled on a dying worker is charged to the arrivals it
    delayed instead of thinning the offered rate (``clock`` / ``sleep``: test
    seams).  Every submit is non-blocking; admission rejections count as
    ``rejected`` (the system degrading *gracefully*), any other failure counts
    as ``dropped`` — the zero-drops assertion callers gate on.
    """
    next_image = _image_cycle(images)
    total_s = chaos.warmup_s + chaos.duration_s + recovery_s
    gaps = poisson_gaps(rate_rps, max(1, int(total_s * rate_rps * 2)), seed=seed)
    # One request is due at the start, one more per gap that ends inside the drill.
    gaps = gaps[:1 + int(np.searchsorted(np.cumsum(gaps), total_s))]

    def submit(index: int):
        if progress is not None and index and index % 200 == 0:
            progress(f"chaos drill: {index} submitted")
        return router.submit(next_image(index), block=False, priority=priority)

    started = clock()
    fault_start = started + chaos.warmup_s
    fault_end = fault_start + chaos.duration_s
    sent, refused, _ = _dispatch(submit, gaps, clock, sleep)
    # In-flight requests get 30 s to resolve (worst case: a redispatch after
    # the last injected fault); one still unresolved then counts as dropped.
    counts, completed, failures = _settle(sent, refused, 30.0)

    samples = [(resolved_at, seconds * 1e3) for resolved_at, seconds in completed]
    pre_p95 = percentile([ms for t, ms in samples if t < fault_start], 95.0)
    post_p95 = percentile([ms for t, ms in samples if t >= fault_end], 95.0)
    recovery = None
    if pre_p95 > 0:
        recovery = _recovery_seconds(samples, fault_end, pre_p95 * recovery_factor)
    report = router.metrics.report()["cluster"]
    return ChaosDrillReport(
        submitted=len(gaps), completed=counts["completed"],
        rejected=counts["rejected"] + counts["expired"], dropped=counts["failed"],
        drop_errors=[f"{type(error).__name__}: {error}" for error in failures[:32]],
        pre_fault_p95_ms=pre_p95, post_fault_p95_ms=post_p95,
        recovery_p95_seconds=recovery,
        restarts=int(report["restarts"]),
        redispatched=int(report["redispatched"]),
        duration_s=clock() - started)
