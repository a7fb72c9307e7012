"""repro.obs — dependency-free observability for the serving runtime.

Three planes, one package (see docs/observability.md):

* **Metrics** (:mod:`repro.obs.registry`) — thread-safe :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` instruments with label sets, which are
  the metrics store: the serving metrics classes own theirs through an
  :class:`Instruments` holder, report views over them, and the same objects
  export themselves into one flat :meth:`MetricsRegistry.snapshot` (a
  *collector* hook remains for state owned elsewhere: arenas, layout cache).
  Exporters for Prometheus text format and JSON lines.
* **Tracing** (:mod:`repro.obs.tracing`) — a ``trace_id`` + span model minted
  at ``InferenceService.submit``, carried across threads on the request object
  and across the Router→worker pipe in the ``ArrayChannel`` JSON header.
  Completed traces land in a ring buffer exportable as Chrome
  ``chrome://tracing`` trace-event JSON.
* **Profiling** (:mod:`repro.obs.profiler`) — opt-in per-op timing for the
  fused executor, surfaced through
  ``CompiledModel.profile()`` and ``repro engine --profile``.

``repro top`` (:mod:`repro.obs.top`) renders the live ops view on top of the
registry + Router snapshots.
"""

from repro.obs.profiler import EngineProfiler, OpStat
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    Instruments,
    MetricsRegistry,
    get_registry,
)
from repro.obs.top import TopView
from repro.obs.tracing import (
    Span,
    TraceBuffer,
    TraceContext,
    activate,
    current_trace_id,
    get_trace_buffer,
    mint_trace,
    mint_traces,
    set_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instruments",
    "MetricsRegistry",
    "get_registry",
    "Span",
    "TraceBuffer",
    "TraceContext",
    "activate",
    "current_trace_id",
    "get_trace_buffer",
    "mint_trace",
    "mint_traces",
    "set_tracing",
    "span",
    "tracing_enabled",
    "EngineProfiler",
    "OpStat",
    "TopView",
]
