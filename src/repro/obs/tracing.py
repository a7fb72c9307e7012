"""Request tracing: trace ids, spans, cross-process propagation, Chrome export.

A :class:`TraceContext` is minted per request at ``InferenceService.submit``
(when tracing is armed) and rides the request object through every hand-off:
the ``DynamicBatcher`` queue, the Router's dispatch loop, and — as a
``trace_id`` field in the ``ArrayChannel`` JSON header — the pipe into a
cluster worker.  Each layer closes spans for the phase it owns (queue-wait,
batch-assembly, router-dispatch, worker-execute, postprocess, per-op engine
work); the worker ships its spans back in the result header and the parent
absorbs them into the original context, so one request yields one contiguous
timeline even across a worker kill + re-dispatch.

Timestamps are ``time.time()`` epoch seconds: unlike ``perf_counter``, they
are directly comparable between the router and its forked workers, which is
what lets the Chrome ``chrome://tracing`` export interleave both processes on
one clock.  Completed traces land in a bounded ring (:class:`TraceBuffer`).

Tracing is **off** by default and costs one ``is None`` check per layer when
off; arm it with :func:`set_tracing`, the ``REPRO_TRACE=1`` environment
variable, or ``repro serve --obs``.

Fork safety: the armed flag, ambient stack and ring buffer are module state;
forked cluster workers re-arm them fresh (``os.register_at_fork``), keeping
the parent's completed traces out of child exports.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import deque
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "TraceBuffer",
    "TraceContext",
    "current_trace_id",
    "activate",
    "get_trace_buffer",
    "mint_trace",
    "mint_traces",
    "set_tracing",
    "span",
    "tracing_enabled",
]


class Span:
    """One timed phase of a request on one thread of one process."""

    __slots__ = ("name", "start", "end", "pid", "tid", "parent", "args")

    def __init__(
        self,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        pid: Optional[int] = None,
        tid: Optional[int] = None,
        parent: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.start = time.time() if start is None else start
        self.end = end
        self.pid = os.getpid() if pid is None else pid
        self.tid = threading.get_ident() if tid is None else tid
        self.parent = parent
        self.args = args or {}

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_wire(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "pid": self.pid,
            "tid": self.tid,
            "parent": self.parent,
            "args": self.args,
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, Any]) -> "Span":
        return cls(
            name=payload["name"],
            start=payload["start"],
            end=payload.get("end"),
            pid=payload.get("pid"),
            tid=payload.get("tid"),
            parent=payload.get("parent"),
            args=payload.get("args") or {},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name}, {self.duration * 1e3:.3f}ms)"


class TraceContext:
    """All spans of one request, shared across the threads that touch it."""

    _guarded_by_ = {"spans": "_lock", "_finished": "_lock"}

    __slots__ = ("trace_id", "spans", "created_at", "buffered", "_lock", "_finished")

    def __init__(self, trace_id: Optional[str] = None, buffered: bool = True) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.spans: List[Span] = []
        self.created_at = time.time()
        #: ``False`` inside cluster workers: their spans return over the pipe
        #: and are absorbed by the parent instead of the local ring buffer.
        self.buffered = buffered
        self._lock = threading.Lock()
        self._finished = False

    # -- span recording ------------------------------------------------------

    def begin(self, name: str, **args: Any) -> Span:
        """Open a span; close it with :meth:`end`."""
        return Span(name, args=args or None)

    def end(self, span: Span) -> Span:
        """Close ``span`` and record it."""
        if span.end is None:
            span.end = time.time()
        with self._lock:
            self.spans.append(span)
        return span

    def record(self, name: str, start: float, end: Optional[float] = None, **args: Any) -> Span:
        """Record an already-measured phase (start/end in epoch seconds)."""
        span = Span(name, start=start, end=end if end is not None else time.time(), args=args or None)
        with self._lock:
            self.spans.append(span)
        return span

    def span(self, name: str, **args: Any) -> "_SpanScope":
        """``with trace.span("phase"):`` — timed scope recorded on exit."""
        return _SpanScope(self, name, args)

    # -- wire format (ArrayChannel JSON header) ------------------------------

    def to_wire(self) -> Dict[str, Any]:
        """Minimal propagation header: identity only, spans stay local."""
        return {"trace_id": self.trace_id}

    @classmethod
    def from_wire(
        cls, payload: Optional[Dict[str, Any]], buffered: bool = False
    ) -> Optional["TraceContext"]:
        """Rehydrate in the receiving process; ``None`` header → no tracing."""
        if not payload or "trace_id" not in payload:
            return None
        return cls(trace_id=str(payload["trace_id"]), buffered=buffered)

    def spans_to_wire(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [span.to_wire() for span in self.spans]

    def absorb_wire_spans(self, payloads: Iterable[Dict[str, Any]]) -> None:
        """Merge spans shipped back from another process (the worker side)."""
        spans = [Span.from_wire(p) for p in payloads]
        with self._lock:
            self.spans.extend(spans)

    # -- completion ----------------------------------------------------------

    def finish(self) -> None:
        """Seal the trace and hand it to the process ring buffer (once)."""
        with self._lock:
            if self._finished:
                return
            self._finished = True
            buffered = self.buffered
        if buffered:
            get_trace_buffer().push(self)

    @property
    def finished(self) -> bool:
        with self._lock:
            return self._finished

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.trace_id}, spans={len(self.spans)})"


class _SpanScope:
    """Context manager produced by :meth:`TraceContext.span`."""

    __slots__ = ("_trace", "_span")

    def __init__(self, trace: TraceContext, name: str, args: Dict[str, Any]) -> None:
        self._trace = trace
        self._span = Span(name, args=args or None, parent=_ambient_span_name())

    def __enter__(self) -> Span:
        self._span.start = time.time()
        _ambient_push(self._span)
        return self._span

    def __exit__(self, *exc: Any) -> None:
        _ambient_pop(self._span)
        self._trace.end(self._span)


class TraceBuffer:
    """Bounded ring of completed traces + the Chrome trace-event exporter."""

    _guarded_by_ = {"_traces": "_lock"}

    def __init__(self, capacity: int = 256) -> None:
        self._lock = threading.Lock()
        self._traces: deque = deque(maxlen=capacity)

    def push(self, trace: TraceContext) -> None:
        with self._lock:
            self._traces.append(trace)

    def traces(self) -> List[TraceContext]:
        with self._lock:
            return list(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def to_chrome(self) -> Dict[str, Any]:
        """``chrome://tracing`` / Perfetto trace-event JSON (``ph: "X"``)."""
        events: List[Dict[str, Any]] = []
        names_seen: Dict[int, str] = {}
        for trace in self.traces():
            for span in trace.spans_to_wire():
                end = span["end"]
                if end is None:
                    continue
                args = {"trace_id": trace.trace_id}
                if span["parent"]:
                    args["parent"] = span["parent"]
                args.update(span["args"])
                events.append(
                    {
                        "name": span["name"],
                        "ph": "X",
                        "ts": span["start"] * 1e6,
                        "dur": (end - span["start"]) * 1e6,
                        "pid": span["pid"],
                        "tid": span["tid"],
                        "cat": "repro",
                        "args": args,
                    }
                )
                names_seen.setdefault(span["pid"], "worker" if span["pid"] != os.getpid() else "router")
        for pid, label in sorted(names_seen.items()):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"repro {label} (pid {pid})"},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_chrome_json(self) -> str:
        return json.dumps(self.to_chrome(), sort_keys=True)


# -- ambient (thread-local) span stack ---------------------------------------
#
# The per-request TraceContext travels on the request object because one
# request crosses threads; the thread-local stack below only serves the
# user-facing nesting API (module-level ``span()``) and trace_id injection
# into structured logs.

_AMBIENT = threading.local()


def _ambient_stack() -> List[Span]:
    stack = getattr(_AMBIENT, "stack", None)
    if stack is None:
        stack = _AMBIENT.stack = []
    return stack


def _ambient_push(span: Span) -> None:
    _ambient_stack().append(span)


def _ambient_pop(span: Span) -> None:
    stack = _ambient_stack()
    if stack and stack[-1] is span:
        stack.pop()


def _ambient_span_name() -> Optional[str]:
    stack = _ambient_stack()
    return stack[-1].name if stack else None


def activate(trace: Optional[TraceContext]) -> "_ActivationScope":
    """``with activate(trace):`` — make ``trace`` the thread's ambient trace.

    Ambient state feeds :func:`current_trace_id` (log injection) and the
    module-level :func:`span` helper inside the scope.
    """
    return _ActivationScope(trace)


class _ActivationScope:
    __slots__ = ("_trace", "_previous")

    def __init__(self, trace: Optional[TraceContext]) -> None:
        self._trace = trace
        self._previous: Optional[TraceContext] = None

    def __enter__(self) -> Optional[TraceContext]:
        self._previous = getattr(_AMBIENT, "trace", None)
        _AMBIENT.trace = self._trace
        return self._trace

    def __exit__(self, *exc: Any) -> None:
        _AMBIENT.trace = self._previous


def current_trace() -> Optional[TraceContext]:
    """The thread's ambient trace context, if a request scope is active."""
    return getattr(_AMBIENT, "trace", None)


def current_trace_id() -> Optional[str]:
    """The ambient trace id — what the JSON log formatter stamps on records."""
    trace = current_trace()
    return trace.trace_id if trace is not None else None


def span(name: str, **args: Any) -> Any:
    """``with span("phase"):`` against the ambient trace (no-op when absent)."""
    trace = current_trace()
    if trace is None:
        return _NullScope()
    return trace.span(name, **args)


class _NullScope:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


# -- module state: armed flag + process ring buffer ---------------------------

_STATE_LOCK = threading.Lock()
_ENABLED = os.environ.get("REPRO_TRACE", "").lower() not in ("", "0", "false", "no")
_BUFFER = TraceBuffer()


def tracing_enabled() -> bool:
    """Cheap armed check — the only cost tracing adds when off."""
    return _ENABLED


def set_tracing(enabled: bool) -> bool:
    """Arm/disarm tracing process-wide; returns the previous state."""
    global _ENABLED
    with _STATE_LOCK:
        previous = _ENABLED
        _ENABLED = bool(enabled)
    return previous


def get_trace_buffer() -> TraceBuffer:
    """The process ring of completed traces (what the exporters read)."""
    return _BUFFER


def mint_trace() -> Optional[TraceContext]:
    """New per-request context when tracing is armed, else ``None``."""
    if not _ENABLED:
        return None
    return TraceContext()


def mint_traces(count: int) -> Optional[List[TraceContext]]:
    """One new context per request of a burst when tracing is armed, else ``None``."""
    if not _ENABLED:
        return None
    return [TraceContext() for _ in range(count)]


def _reinit_after_fork() -> None:
    """Forked cluster workers start with a fresh ambient stack and ring.

    The armed flag is inherited deliberately — a traced router forks traced
    workers — but the parent's completed traces and any mid-``collect`` lock
    state must not leak into the child.
    """
    global _STATE_LOCK, _AMBIENT, _BUFFER
    _STATE_LOCK = threading.Lock()
    _AMBIENT = threading.local()
    _BUFFER = TraceBuffer()


if hasattr(os, "register_at_fork"):  # not on Windows ("spawn" children re-import)
    os.register_at_fork(after_in_child=_reinit_after_fork)
