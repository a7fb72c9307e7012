"""The repo's percentile machinery.

:func:`percentile` and :class:`LatencyStats` are what the obs-registry
:class:`~repro.obs.registry.Histogram` (and through it every serving metrics
class) and the load generators use to report p50/p95/p99 latency instead of a
bare mean.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Optional


def percentile(values: Iterable[float], q: float) -> float:
    """Linearly interpolated percentile of ``values`` (numpy's default method).

    ``q`` is in percent (0..100).  An empty input returns ``0.0`` so callers
    reporting on a quiet service never divide by or index into nothing.

    Example
    -------
    >>> percentile([1.0, 2.0, 3.0, 4.0], 50)
    2.5
    >>> percentile([1.0, 2.0, 3.0, 4.0, 100.0], 50)
    3.0
    >>> percentile([5.0], 99)
    5.0
    >>> percentile([], 95)
    0.0
    """
    return _ranked(sorted(float(v) for v in values), q)


def _ranked(ordered: List[float], q: float) -> float:
    """:func:`percentile` of values that are already sorted."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * (q / 100.0)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return ordered[int(rank)]
    fraction = rank - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


class LatencyStats:
    """Latency sample collector with percentile reporting, bounded in memory.

    Samples are recorded in **seconds**; :meth:`summary` reports milliseconds,
    the unit every table in the repo prints latency in.  Tail latency (p95/p99)
    is what a serving latency budget is written against, and a mean cannot see
    it — but a serving process also cannot keep every sample forever.  Up to
    ``capacity`` samples are retained verbatim; past that, new samples enter a
    uniform reservoir (Vitter's Algorithm R) so percentiles stay an unbiased
    estimate over the *whole* stream while memory stays O(capacity).
    ``count``, ``mean_seconds`` and the max are always exact, tracked as
    running aggregates independent of the reservoir.

    Not thread-safe on its own — concurrent writers must hold their own lock
    (see :class:`repro.obs.registry.Histogram`, which does).

    Example
    -------
    >>> stats = LatencyStats()
    >>> for ms in [1.0, 2.0, 3.0, 4.0, 100.0]:
    ...     stats.add(ms / 1000.0)
    >>> stats.count
    5
    >>> stats.summary()["p50_ms"]
    3.0
    >>> stats.summary()["max_ms"]
    100.0
    >>> LatencyStats().summary()["count"]
    0
    >>> bounded = LatencyStats(capacity=64)
    >>> bounded.extend(s / 1000.0 for s in range(10_000))
    >>> bounded.count, len(bounded.samples)
    (10000, 64)
    >>> bounded.summary()["max_ms"]
    9999.0
    """

    DEFAULT_CAPACITY = 4096

    __slots__ = ("samples", "capacity", "_count", "_total", "_max", "_rng")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"LatencyStats capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.samples: List[float] = []
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._rng: Optional[random.Random] = None    # built when down-sampling starts

    def add(self, seconds: float, count: int = 1) -> None:
        """Record ``count`` samples of one value (a run that settled together).

        Equivalent to ``count`` single adds: below capacity the run lands in
        one ``extend``; past it every sample still takes its own reservoir
        draw, so the retained set stays a uniform sample of the stream.
        """
        if count < 1:
            return
        value = float(seconds)
        samples, capacity, seen = self.samples, self.capacity, self._count
        self._count = total = seen + count
        self._total += value * count
        if value > self._max:
            self._max = value
        room = capacity - len(samples)
        if room > 0:
            samples.extend([value] * min(count, room))
            seen += room
        if seen < total and self._rng is None:
            # Seeded so repeated runs (and doctests) see the same reservoir.
            self._rng = random.Random(0x5EED)
        while seen < total:
            seen += 1
            # int(random() * n), not randrange(n): a tenth of the cost, and
            # the bias is below 2**-53 * n.
            slot = int(self._rng.random() * seen)
            if slot < capacity:
                samples[slot] = value

    def extend(self, seconds: Iterable[float]) -> None:
        for s in seconds:
            self.add(s)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean_seconds(self) -> float:
        if self._count == 0:
            return 0.0
        return self._total / self._count

    @property
    def total_seconds(self) -> float:
        return self._total

    @property
    def max_seconds(self) -> float:
        return self._max

    def quantile_seconds(self, q: float) -> float:
        return percentile(self.samples, q)

    def quantiles_seconds(self, qs: Iterable[float]) -> List[float]:
        """:meth:`quantile_seconds` at each of ``qs``, the reservoir sorted once."""
        ordered = sorted(self.samples)
        return [_ranked(ordered, q) for q in qs]

    def summary(self, digits: int = 3) -> Dict[str, float]:
        """Flat milliseconds report: count, mean, p50/p95/p99, max."""
        if self._count == 0:
            return {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p95_ms": 0.0,
                    "p99_ms": 0.0, "max_ms": 0.0}
        to_ms = lambda seconds: round(seconds * 1e3, digits)
        p50, p95, p99 = self.quantiles_seconds((50, 95, 99))
        return {
            "count": self._count,
            "mean_ms": to_ms(self.mean_seconds),
            "p50_ms": to_ms(p50),
            "p95_ms": to_ms(p95),
            "p99_ms": to_ms(p99),
            "max_ms": to_ms(self._max),
        }
