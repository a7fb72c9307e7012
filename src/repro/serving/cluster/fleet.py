"""The fleet's slot table: every supervision decision, and nothing that acts on one.

What a :class:`~repro.serving.cluster.router.Router` worker slot is doing —
serving, waiting for a respawn, given up on — is one :class:`Slot` record in
one :class:`SlotTable`, and every rule about it is a method here: quick-death
counting and abandonment, the jittered exponential restart backoff, which slots
are due a respawn, whether the fleet is degraded or lost, and what a swap step
may do.  The table holds as many slots as the router was built with, for its
whole life.

The module is *pure*: no ``threading``, ``time``, ``os``, ``multiprocessing``
or ``random`` — ``now`` and the backoff ``jitter`` are arguments — and a worker
handle is an opaque value (only the swap steps read its ``artifact_path`` /
``accepting``).  The router is the shell: it owns the lock every call here is
made under, the clock and ``fork``, and *performs* what the table returns.
``tests/serving/test_fleet.py`` guards the imports and the rules one by one;
``test_fleet_simulation.py`` drives table and shell over generated schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.pipeline.spec import ClusterSpec

#: :meth:`SlotTable.died` verdicts: does the slot come back, and what becomes
#: of the requests its dead worker still owed.
RESPAWN = "respawn"   # due a new worker at the slot's ``respawn_at``; re-dispatch
ABANDON = "abandon"   # too many quick deaths: no respawn; fail them
CLOSED = "closed"     # the fleet shut down meanwhile: no respawn; fail them
GONE = "gone"         # occupant replaced meanwhile (a rolling swap); re-dispatch


@dataclass
class Slot:
    """One worker slot: its occupant and what supervision knows about it."""

    #: The installed handle; stays the *dead* handle until a respawn replaces it.
    worker: Any
    #: Consecutive quick deaths (sooner than ``min_worker_uptime`` after start).
    failures: int = 0
    #: Waiting for a respawn due at this time (the caller's clock); None: not waiting.
    respawn_at: Optional[float] = None
    #: Given up on after ``max_restart_attempts`` quick deaths.
    abandoned: bool = False


class SlotTable:
    """The slot records in slot order, plus the fleet-wide closed / fatal-error state."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        self.slots: List[Slot] = []
        #: The occupants in slot order — replaced, never mutated, so the
        #: routing path reads it without copying.
        self.workers: Tuple[Any, ...] = ()
        self.closed = False
        #: Last "fatal" startup error any dead worker reported (diagnostics).
        self.last_fatal_error: Optional[str] = None
        # Spawns per slot index, counted from before the slot is first
        # installed: each incarnation gets its own chaos schedule.
        self._spawned: Dict[int, int] = {}

    # ------------------------------------------------------------------ views
    @property
    def degraded(self) -> bool:
        """Any slot abandoned or waiting for its respawn: serving below capacity."""
        return any(slot.abandoned or slot.respawn_at is not None for slot in self.slots)

    @property
    def failed_permanently(self) -> bool:
        """Every slot was abandoned: nothing will ever serve again."""
        return all(slot.abandoned for slot in self.slots)

    def holds(self, slot: int, worker: Any) -> bool:
        return self.slots[slot].worker is worker

    def watched(self) -> List[Tuple[int, Any]]:
        """``(slot, worker)`` the supervisor health-checks: not abandoned, not waiting."""
        return [(index, slot.worker) for index, slot in enumerate(self.slots)
                if not (self.closed or slot.abandoned) and slot.respawn_at is None]

    def due(self, now: float) -> List[Tuple[int, Any]]:
        """``(slot, dead worker)`` whose respawn time has come."""
        return [(index, slot.worker) for index, slot in enumerate(self.slots)
                if not self.closed and slot.respawn_at is not None and slot.respawn_at <= now]

    def wake_in(self, now: float) -> float:
        """Seconds the supervisor may sleep: a heartbeat interval, or until the nearest respawn."""
        waits = [slot.respawn_at - now for slot in self.slots if slot.respawn_at is not None]
        return max(0.0, min(waits + [self.spec.heartbeat_interval]))

    def not_on(self, path: str) -> List[int]:
        """Slots whose occupant serves another artifact than ``path`` (a failed swap's rollback)."""
        return [index for index, worker in enumerate(self.workers)
                if worker.artifact_path != path]

    # ------------------------------------------------------------------ transitions
    def claim(self, slot: int) -> int:
        """Count one more spawn for ``slot``; returns its incarnation number (from 1)."""
        self._spawned[slot] = self._spawned.get(slot, 0) + 1
        return self._spawned[slot]

    def install(self, slot: int, worker: Any, expect: Any = None, ready: bool = False) -> bool:
        """The one place a worker enters a slot.

        ``expect`` is the occupant the caller decided to replace (None: a new
        slot at the end, while the router fills its fleet).  False — the
        fleet closed or the slot's occupant changed meanwhile — means
        ``worker`` is *not* in and the caller retires it.  ``ready``: it
        proved it can serve, which clears the slot's quick-death count.
        """
        if self.closed or slot > len(self.slots):
            return False
        if slot == len(self.slots):
            if expect is not None:
                return False
            self.slots.append(Slot(worker))
        elif self.slots[slot].worker is not expect:
            return False
        record = self.slots[slot]
        record.worker, record.respawn_at, record.abandoned = worker, None, False
        if ready:
            record.failures = 0
        self.workers = tuple(each.worker for each in self.slots)
        return True

    def died(self, slot: int, worker: Any, uptime: float, fatal: Optional[str],
             now: float, jitter: float) -> str:
        """``worker``, found dead or hung in ``slot`` ``uptime`` s after its start → the verdict.

        A death sooner than ``min_worker_uptime`` after start counts against
        the slot, a later one resets the count to 1.  Past
        ``max_restart_attempts`` the slot is abandoned; otherwise it is due a
        respawn — at once after a first death, and after a repeat in
        ``restart_backoff_s * 2^(failures-2)`` seconds times ``0.5 + jitter``
        (``jitter`` in [0, 1)), capped at ``restart_backoff_max_s``, so a
        crash-looping artifact cannot hot-spin fork + load.
        """
        if fatal:
            self.last_fatal_error = fatal
        if self.closed:
            return CLOSED
        if not self.holds(slot, worker):
            return GONE
        record = self.slots[slot]
        record.failures = record.failures + 1 if uptime < self.spec.min_worker_uptime else 1
        if record.failures > self.spec.max_restart_attempts:
            record.abandoned = True
            return ABANDON
        record.respawn_at = now
        if record.failures > 1:
            backoff = self.spec.restart_backoff_s * 2.0 ** (record.failures - 2) * (0.5 + jitter)
            record.respawn_at += min(self.spec.restart_backoff_max_s, backoff)
        return RESPAWN

    def roll(self, slot: int, replacement: Any, path: str) -> Any:
        """Rolling-swap step: ``replacement`` (ready, on ``path``) → the worker to retire.

        That is the old occupant, to drain — or ``replacement`` itself when
        it is not needed: the fleet closed, or the supervisor already brought
        the slot back on ``path`` (a crash during the swap) — keep that worker.
        """
        current = self.slots[slot].worker
        upgraded = current.artifact_path == path and current.accepting
        if not upgraded and self.install(slot, replacement, expect=current, ready=True):
            return current
        return replacement

    def close(self) -> Tuple[Any, ...]:
        """Close the fleet; returns the workers to drain (nothing the second time)."""
        workers = () if self.closed else self.workers
        self.closed = True
        return workers

