"""Bench-side spans: recorded around calls into each layer, kept in memory.

The spans are taken from the benchmark's own files (spans inside ``src/`` are
a later change).  A span has a name, a start, an end, the span that caused it
and, when it belongs to a request, that request's id; a layer's *self time* is
its span minus the part its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class SpanRecorder:
    """An in-memory span list, written out once when the workload ends."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.spans: List[Dict[str, Any]] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, request: Optional[int] = None) -> int:
        """Record a finished span; returns its id (usable as a ``parent``)."""
        self.spans.append({"id": len(self.spans), "name": name, "start": start,
                           "end": end, "parent": parent, "request": request})
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             request: Optional[int] = None) -> Iterator[int]:
        """Time the enclosed block; yields the span id for children to name."""
        span_id = self.add(name, self._clock(), float("nan"), parent, request)
        try:
            yield span_id
        finally:
            self.spans[span_id]["end"] = self._clock()

    def duration(self, name: str) -> float:
        """Total seconds of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name not covered by the spans' own children."""
        children: Dict[int, List[Dict[str, Any]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        totals: Dict[str, float] = {}
        for span in self.spans:
            covered = _covered(span["start"], span["end"], children.get(span["id"], ()))
            totals[span["name"]] = (totals.get(span["name"], 0.0)
                                    + (span["end"] - span["start"]) - covered)
        return totals

    def write(self, path: str, **header: Any) -> None:
        """Dump header, per-name self times and every span as one JSON file."""
        with open(path, "w") as handle:
            json.dump({**header, "self_time_s": self.self_times(),
                       "spans": self.spans}, handle)


def _covered(start: float, end: float, children) -> float:
    """Length of the union of the children's intervals, clipped to the parent."""
    intervals = sorted((max(start, c["start"]), min(end, c["end"])) for c in children)
    covered = 0.0
    cursor = start
    for low, high in intervals:
        low = max(low, cursor)
        if high > low:
            covered += high - low
            cursor = high
    return covered
