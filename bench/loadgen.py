"""Open-loop load generator owned by the benchmark.

Independent users (and a camera) do not wait for the previous reply, so the
schedule of due times is fixed up front from the seed and one dispatcher
thread sends each request when it is due.  A request is timed **from when it
was due**, not from when it was sent: if the dispatcher is held up (a slow
``submit``, a stalled target), the requests that fell due meanwhile are
charged the wait, and how late the generator ran is reported next to the
latencies.  ``repro.serving.loadgen.open_loop`` stamps at the actual submit
and therefore hides exactly that, which is why it is not used here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from bench.stats import percentile

#: A request sent later than this after its due time counts as late.
LATE_MS = 1.0


def poisson_schedule(rate: float, seconds: float, rng) -> List[float]:
    """Due offsets (seconds from start) of Poisson arrivals at ``rate`` per second."""
    count = max(1, int(round(rate * seconds)))
    gaps = rng.exponential(1.0 / rate, size=count)
    offsets, now = [], 0.0
    for gap in gaps:
        now += float(gap)
        offsets.append(now)
    return offsets


@dataclass
class Outcome:
    """What happened to one scheduled request (times are absolute clock reads)."""

    index: int
    due: float
    sent: float = math.nan
    submit_s: float = math.nan
    resolved: float = math.nan
    #: ok | refused | failed | wrong | unresolved | unsent
    status: str = "unsent"


class OpenLoopRun:
    """The outcomes of one schedule, with the numbers a rung is judged by."""

    def __init__(self, outcomes: List[Outcome], start: float, seconds: float,
                 drain_s: float) -> None:
        self.outcomes = outcomes
        self.start = start
        self.seconds = seconds
        self.drain_s = drain_s

    def latencies_ms(self) -> List[float]:
        """Due-to-resolved milliseconds of the requests that succeeded."""
        return [(o.resolved - o.due) * 1e3 for o in self.outcomes if o.status == "ok"]

    def lags_ms(self) -> List[float]:
        """How late after its due time each sent request was submitted."""
        return [(o.sent - o.due) * 1e3 for o in self.outcomes if o.status != "unsent"]

    def submit_us(self) -> List[float]:
        """Cost of each ``submit`` call on the dispatcher thread, microseconds."""
        return [o.submit_s * 1e6 for o in self.outcomes if o.status != "unsent"]

    def count(self, *statuses: str) -> int:
        return sum(1 for o in self.outcomes if o.status in statuses)

    def summary(self, limit_ms: float) -> Dict[str, Any]:
        """Counts, the share of requests *scheduled* that met the limit, and lag."""
        latencies = self.latencies_ms()
        lags = self.lags_ms()
        scheduled = len(self.outcomes)
        end = self.start + self.seconds
        resolved = [o.resolved for o in self.outcomes if not math.isnan(o.resolved)]
        drained = (self.count("unsent", "unresolved") == 0
                   and (not resolved or max(resolved) <= end + self.drain_s))
        return {
            "scheduled": scheduled,
            "sent": scheduled - self.count("unsent"),
            "succeeded": self.count("ok"),
            "refused": self.count("refused"),
            "failed": self.count("failed", "wrong", "unresolved", "unsent"),
            "in_limit_share": sum(1 for ms in latencies if ms <= limit_ms) / scheduled,
            "drained": drained,
            "lag_ms_p99": percentile(lags, 99.0) if lags else math.inf,
            "late_share": (sum(1 for ms in lags if ms > LATE_MS) / len(lags)
                           if lags else 1.0),
        }


def rung_passes(summary: Dict[str, Any], share: float, lag_limit_ms: float) -> bool:
    """A rung holds the limit: enough in time, backlog drained, generator on time."""
    return (summary["in_limit_share"] >= share and summary["drained"]
            and summary["lag_ms_p99"] <= lag_limit_ms)


def highest_passing(rates: Sequence[float], passed: Sequence[bool]) -> float:
    """Highest rate such that it and every lower rate passed (0.0 if none did)."""
    best = 0.0
    for rate, ok in sorted(zip(rates, passed)):
        if not ok:
            break
        best = float(rate)
    return best


def replay_fixed_rate(service_ms: Sequence[float], rate: float) -> List[float]:
    """Latencies (ms from due time) of one caller fed frames at a fixed rate.

    Exact single-server arithmetic over *measured* per-frame service times:
    frame ``i`` is due at ``i / rate``, starts when it is due and the previous
    frame is done, and takes ``service_ms[i]``.  A synchronous detector loop
    behind a camera is this queue; replaying the host-normalised service times
    keeps the host's speed of the moment out of the verdict.
    """
    period = 1e3 / rate
    free = 0.0
    latencies = []
    for index, service in enumerate(service_ms):
        due = index * period
        free = max(due, free) + service
        latencies.append(free - due)
    return latencies


def run_open_loop(
    submit: Callable[[int], Any],
    offsets: Sequence[float],
    seconds: float,
    *,
    check: Optional[Callable[[int, Any], bool]] = None,
    refused: Tuple[type, ...] = (),
    drain_s: float = 1.0,
    settle_s: float = 10.0,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> OpenLoopRun:
    """Send request ``i`` at ``start + offsets[i]`` and collect every outcome.

    ``submit(i)`` returns a handle with ``result(timeout)`` and ``resolved_at``
    (the :class:`repro.serving.InferenceFuture` surface); raising one of
    ``refused`` is an admission refusal.  Requests still unsent ``drain_s``
    after the schedule's end are abandoned (an overloaded synchronous target
    would otherwise run on for minutes) and count as missed; replies are
    awaited until ``settle_s`` after the end.  ``check(i, value)`` runs after
    the timed part and turns a wrong reply into a failed operation.
    """
    start = clock()
    end = start + seconds
    outcomes = [Outcome(index, start + offset) for index, offset in enumerate(offsets)]
    handles: List[Any] = [None] * len(outcomes)
    for outcome in outcomes:
        now = clock()
        if now < outcome.due:
            sleep(outcome.due - now)
            now = clock()
        if now > end + drain_s:
            break
        outcome.sent = now
        try:
            handles[outcome.index] = submit(outcome.index)
            outcome.status = "unresolved"
        except refused:
            outcome.status = "refused"
        outcome.submit_s = clock() - now

    for outcome in outcomes:
        handle = handles[outcome.index]
        if handle is None:
            continue
        try:
            value = handle.result(timeout=max(0.0, end + settle_s - clock()))
        except TimeoutError:
            continue
        except refused:         # refused after the send (a wire target answers late)
            outcome.status = "refused"
            outcome.resolved = handle.resolved_at
            continue
        except Exception:       # the reply is an error: a failed operation
            outcome.status = "failed"
            outcome.resolved = handle.resolved_at
            continue
        outcome.resolved = handle.resolved_at
        outcome.status = "ok" if check is None or check(outcome.index, value) else "wrong"
    return OpenLoopRun(outcomes, start, seconds, drain_s)
