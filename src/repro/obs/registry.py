"""Process-global metrics registry: counters, gauges, histograms, exporters.

Design notes
------------
**The instruments are the store.**  A :class:`Counter` / :class:`Gauge` /
:class:`Histogram` holds one series per label set and exports itself; nothing
renders its numbers a second time.  ``labels(...)`` resolves a label set to
its series — a record path does that once, at construction, and then counts
without routing — while ``inc`` / ``set`` / ``observe`` with keyword labels
route on every call.

An object that counts things (``ServingMetrics``, ``GatewayMetrics``,
``ClusterMetrics``) owns its instruments through an :class:`Instruments`
holder: instance-scoped, exported under the owner's constant label, behind
one re-entrant lock, and published by registering ``holder.samples`` as a
**collector**.  Bound-method collectors are held through
``weakref.WeakMethod``: when the owning service/router dies, its series simply
drop out of the next snapshot, which keeps short-lived test instances from
polluting the process view.  The only hand-written collectors render state
owned elsewhere (the arena and layout-cache counters in ``repro.engine``).
:class:`MetricsRegistry` is the holder of the process-wide instruments, plus
the collectors and the exporters.

Histograms ride on the bounded reservoir in
:class:`repro.utils.profiling.LatencyStats` and export in Prometheus
*summary* style (``{quantile="0.5"}`` series plus exact ``_sum``/``_count``)
rather than fixed buckets — the repo's latency tables are quantile tables.

Fork safety: cluster workers are forked from the router process.  The child
must not inherit the parent's counters (they describe the parent's traffic),
and must not inherit a held registry lock.  The module re-arms both through
``os.register_at_fork``, the same pattern as ``repro/engine/plan.py``.
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.utils.profiling import LatencyStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instruments",
    "MetricsRegistry",
    "Sample",
    "get_registry",
    "register_builtin_collector",
]

LabelValues = Tuple[str, ...]

_QUANTILES = (("0.5", 50.0), ("0.95", 95.0), ("0.99", 99.0))


class Sample(NamedTuple):
    """One exported time-series point: name + labels + value."""

    name: str
    labels: Dict[str, str]
    value: float
    kind: str = "gauge"
    help: str = ""

    def key(self) -> str:
        """Flat ``name{k="v",...}`` identity used by ``snapshot()``."""
        if not self.labels:
            return self.name
        inner = ",".join(f'{k}="{v}"' for k, v in sorted(self.labels.items()))
        return f"{self.name}{{{inner}}}"


class _Instrument:
    """One named metric.  Without label names it is its own single series;
    with them it is the family of per-label-set children :meth:`labels` hands
    out, each an unlabelled instrument of the same kind behind the same lock."""

    kind = "untyped"

    _guarded_by_ = {"_children": "_lock", "_value": "_lock"}

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        capacity: int = LatencyStats.DEFAULT_CAPACITY,
        lock=None,
        const_labels: Optional[Dict[str, str]] = None,
    ) -> None:
        _validate_metric_name(name)
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        #: Reservoir size of a histogram's series (the other kinds keep none).
        self._capacity = capacity
        #: Its own lock, or the one an :class:`Instruments` holder shares out.
        self._lock = lock if lock is not None else threading.Lock()
        self._const = dict(const_labels or {})
        self._children: Dict[LabelValues, _Instrument] = {}
        self._value = self._zero()

    def _zero(self):
        return 0.0

    def _child(self) -> "_Instrument":
        return type(self)(self.name, capacity=self._capacity, lock=self._lock)

    def _mismatch(self, got) -> ValueError:
        return ValueError(f"metric {self.name!r} takes labels {self.labelnames}, got {got}")

    def labels(self, *values: str) -> "_Instrument":
        """The series of one label set (values in ``labelnames`` order),
        created on first use.  Resolve it once and keep it — it never detaches
        (:meth:`clear` zeroes in place) — or pay one dict lookup per call."""
        with self._lock:
            child = self._children.get(values)
            if child is None:
                if not values or len(values) != len(self.labelnames):
                    raise self._mismatch(values)
                key = tuple([str(value) for value in values])
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._child()
            return child

    def _routed(self, labels: Dict[str, str]) -> "_Instrument":
        """The child a call with these keyword labels addresses (names checked)."""
        if len(labels) == len(self.labelnames):
            try:
                return self.labels(*[labels[name] for name in self.labelnames])
            except KeyError:
                pass
        raise self._mismatch(tuple(sorted(labels)))

    def series(self) -> Dict[LabelValues, object]:
        """``{label values: value}`` of every series, in label order (a
        histogram's value is its live :class:`LatencyStats`)."""
        with self._lock:
            if not self.labelnames:
                return {(): self._value}
            return {key: child._value for key, child in sorted(self._children.items())}

    def clear(self) -> None:
        """Every series back to zero, in place: a kept reference stays attached."""
        with self._lock:
            self._value = self._zero()
            for child in self._children.values():
                child._value = self._zero()

    def value(self, **labels: str):
        """One label set's current value (a histogram's: its live :class:`LatencyStats`)."""
        series = self._routed(labels) if labels or self.labelnames else self
        with self._lock:
            return series._value

    def _render(self, labels: Dict[str, str], value) -> List[Sample]:
        return [Sample(self.name, labels, float(value), self.kind, self.help)]

    def samples(self) -> List[Sample]:
        return [
            sample
            for key, value in self.series().items()
            for sample in self._render(dict(zip(self.labelnames, key), **self._const), value)
        ]


class Counter(_Instrument):
    """Monotonically increasing count (requests, errors, cache hits)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (amount={amount})")
        series = self._routed(labels) if labels or self.labelnames else self
        with self._lock:
            series._value += amount


class Gauge(_Instrument):
    """Point-in-time value (queue depth, worker count, arena bytes)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        series = self._routed(labels) if labels or self.labelnames else self
        with self._lock:
            series._value = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        series = self._routed(labels) if labels or self.labelnames else self
        with self._lock:
            series._value += amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)


class Histogram(_Instrument):
    """Distribution over observations, quantile-style (latency, batch size).

    Each label set owns a bounded :class:`LatencyStats` reservoir; exports are
    Prometheus summaries: ``name{quantile=...}``, ``name_sum``, ``name_count``.
    """

    kind = "histogram"

    def _zero(self) -> LatencyStats:
        return LatencyStats(capacity=self._capacity)

    def observe(self, value: float, count: int = 1, **labels: str) -> None:
        """``count`` observations of ``value`` (a run that settled together)."""
        series = self._routed(labels) if labels or self.labelnames else self
        with self._lock:
            series._value.add(value, count)

    #: A histogram's value is its distribution; ``stats`` is the readable name.
    stats = _Instrument.value

    def _render(self, labels: Dict[str, str], stats: LatencyStats) -> List[Sample]:
        meta = (self.kind, self.help)
        values = stats.quantiles_seconds(q for _, q in _QUANTILES)
        quantiles = [
            Sample(self.name, dict(labels, quantile=text), value, *meta)
            for (text, _), value in zip(_QUANTILES, values)
        ]
        return quantiles + [
            Sample(self.name + "_sum", labels, stats.total_seconds, *meta),
            Sample(self.name + "_count", labels, float(stats.count), *meta),
        ]


class Instruments:
    """The instruments one object owns, exported under its constant labels.

    Every instrument made here shares :attr:`lock` (re-entrant): each series
    operation is atomic on its own, and the owner holds the lock across a
    multi-instrument update or read to make *that* atomic.  ``samples`` is the
    collector the owner registers; ``clear`` is the owner's ``reset()``.
    """

    _guarded_by_ = {"_instruments": "lock"}

    def __init__(self, **const_labels: str) -> None:
        self.lock = threading.RLock()
        self._const = {name: str(value) for name, value in const_labels.items()}
        self._instruments: Dict[str, _Instrument] = {}

    # -- instrument factories (get-or-create, kind-checked) -----------------

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames)

    def _get_or_create(self, cls, name: str, help: str, labelnames: Sequence[str]):
        with self.lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"requested {cls.kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, requested {tuple(labelnames)}"
                    )
                return existing
            instrument = cls(name, help, labelnames, lock=self.lock, const_labels=self._const)
            self._instruments[name] = instrument
            return instrument

    def samples(self) -> List[Sample]:
        """Every owned series, one consistent cut (the lock is held throughout)."""
        with self.lock:
            return [s for instrument in self._instruments.values() for s in instrument.samples()]

    def clear(self) -> None:
        with self.lock:
            for instrument in self._instruments.values():
                instrument.clear()


CollectorFn = Callable[[], Iterable[Sample]]


class MetricsRegistry(Instruments):
    """The process-wide instruments plus collectors; renders the one flat view."""

    _guarded_by_ = {"_instruments": "lock", "_collectors": "lock"}

    def __init__(self) -> None:
        super().__init__()
        # name -> weakref.WeakMethod | plain callable (module-level functions).
        self._collectors: Dict[str, object] = {}

    # -- collectors ----------------------------------------------------------

    def register_collector(self, name: str, fn: CollectorFn) -> str:
        """Publish ``fn()``'s samples in every snapshot.

        Bound methods are held weakly: a collector registered by a service
        disappears when the service is garbage-collected.  ``name`` is
        uniquified on collision so parallel test instances coexist.
        """
        ref: object
        if hasattr(fn, "__self__"):
            ref = weakref.WeakMethod(fn)  # type: ignore[arg-type]
        else:
            ref = fn
        with self.lock:
            final = name
            serial = 1
            while final in self._collectors:
                serial += 1
                final = f"{name}#{serial}"
            self._collectors[final] = ref
        return final

    # -- rendering -----------------------------------------------------------

    def collect(self) -> List[Sample]:
        """All live samples: instruments first, then collectors."""
        out = self.samples()
        with self.lock:
            collectors = list(self._collectors.items())
        dead: List[str] = []
        for name, ref in collectors:
            fn = ref() if isinstance(ref, weakref.WeakMethod) else ref
            if fn is None:
                dead.append(name)
                continue
            try:
                out.extend(fn())
            except Exception:  # collector bugs must not break the exporter
                continue
        if dead:
            with self.lock:
                for name in dead:
                    self._collectors.pop(name, None)
        return out

    def snapshot(self) -> Dict[str, float]:
        """One flat ``{"name{label=...}": value}`` view of the process."""
        return {sample.key(): sample.value for sample in self.collect()}

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (text/plain; version 0.0.4)."""
        lines: List[str] = []
        seen_header: set = set()
        for sample in self.collect():
            base = _base_name(sample.name)
            if base not in seen_header:
                seen_header.add(base)
                if sample.help:
                    lines.append(f"# HELP {base} {sample.help}")
                kind = "summary" if sample.kind == "histogram" else sample.kind
                lines.append(f"# TYPE {base} {kind}")
            lines.append(f"{sample.key()} {_format_value(sample.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_jsonlines(self, timestamp: Optional[float] = None) -> str:
        """One JSON object per sample: ``{"name", "labels", "value", "ts"}``."""
        ts = time.time() if timestamp is None else timestamp
        lines = [
            json.dumps(
                {
                    "name": sample.name,
                    "labels": sample.labels,
                    "value": sample.value,
                    "kind": sample.kind,
                    "ts": round(ts, 3),
                },
                sort_keys=True,
            )
            for sample in self.collect()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Forget every instrument and collector (tests)."""
        with self.lock:
            self._instruments.clear()
            self._collectors.clear()


def _validate_metric_name(name: str) -> None:
    ok = name and (name[0].isalpha() or name[0] == "_")
    ok = ok and all(ch.isalnum() or ch == "_" for ch in name)
    if not ok:
        raise ValueError(f"invalid metric name {name!r} (want [a-zA-Z_][a-zA-Z0-9_]*)")


def _base_name(name: str) -> str:
    for suffix in ("_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# -- process-global registry ------------------------------------------------

#: Guards rebinding of the module-global registry below.
_REGISTRY_LOCK = threading.Lock()
_REGISTRY = MetricsRegistry()
#: Collectors that describe *process-wide* state (e.g. the ConvPlan layout
#: cache): unlike per-object collectors they are re-registered into the fresh
#: registry a forked child gets, because the state they read re-arms itself
#: at fork too.
_BUILTIN_COLLECTORS: List[Tuple[str, CollectorFn]] = []


def get_registry() -> MetricsRegistry:
    """The process-global registry every runtime layer publishes into."""
    return _REGISTRY


def register_builtin_collector(name: str, fn: CollectorFn) -> None:
    """Register a module-level collector that survives fork re-arms."""
    with _REGISTRY_LOCK:
        _BUILTIN_COLLECTORS.append((name, fn))
    _REGISTRY.register_collector(name, fn)


def _reinit_after_fork() -> None:
    """Give forked cluster workers a clean per-process registry.

    The parent's counters describe the parent's traffic, and the registry lock
    could have been captured mid-``collect`` — rebind both in the child.
    Builtin (module-level) collectors re-register: their backing state is
    itself reset by that module's own at-fork hook.
    """
    global _REGISTRY_LOCK, _REGISTRY
    _REGISTRY_LOCK = threading.Lock()
    _REGISTRY = MetricsRegistry()
    for name, fn in _BUILTIN_COLLECTORS:
        _REGISTRY.register_collector(name, fn)


if hasattr(os, "register_at_fork"):  # not on Windows ("spawn" children re-import)
    os.register_at_fork(after_in_child=_reinit_after_fork)
