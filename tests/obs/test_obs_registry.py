"""repro.obs.registry: instruments, labels, collectors, exporters, fork reset."""

from __future__ import annotations

import gc
import json
import multiprocessing
import sys

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
    get_registry,
)


# ----------------------------------------------------------------- instruments
class TestInstruments:
    def test_counter_accumulates_and_rejects_decrease(self):
        counter = Counter("reqs_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = Gauge("depth")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 3.0

    def test_labels_route_to_independent_series(self):
        counter = Counter("reqs_total", labelnames=("worker",))
        counter.inc(worker="w0")
        counter.inc(3, worker="w1")
        assert counter.value(worker="w0") == 1.0
        assert counter.value(worker="w1") == 3.0
        keys = {sample.key() for sample in counter.samples()}
        assert keys == {'reqs_total{worker="w0"}', 'reqs_total{worker="w1"}'}

    def test_wrong_label_set_raises(self):
        counter = Counter("reqs_total", labelnames=("worker",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc()
        with pytest.raises(ValueError, match="takes labels"):
            counter.inc(worker="w0", extra="nope")

    def test_histogram_exports_summary_quantiles_and_exact_aggregates(self):
        hist = Histogram("latency_seconds")
        for ms in range(1, 101):
            hist.observe(ms / 1e3)
        by_key = {sample.key(): sample.value for sample in hist.samples()}
        assert by_key["latency_seconds_count"] == 100.0
        assert by_key["latency_seconds_sum"] == pytest.approx(5.05, rel=1e-6)
        assert 0.040 < by_key['latency_seconds{quantile="0.5"}'] < 0.060

    def test_histogram_reservoir_is_bounded(self):
        hist = Histogram("latency_seconds", capacity=64)
        for i in range(1000):
            hist.observe(float(i))
        stats = hist.stats()
        assert stats.count == 1000
        assert len(stats.samples) <= 64

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("bad-name")


# -------------------------------------------------------------------- registry
class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")

    def test_kind_and_label_mismatch_raise(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("a_total")
        with pytest.raises(ValueError, match="already registered with labels"):
            registry.counter("a_total", labelnames=("worker",))

    def test_snapshot_is_flat_key_to_value(self):
        registry = MetricsRegistry()
        registry.counter("a_total", labelnames=("k",)).inc(2, k="x")
        registry.gauge("b").set(7)
        assert registry.snapshot() == {'a_total{k="x"}': 2.0, "b": 7.0}

    def test_plain_callable_collector_contributes_samples(self):
        registry = MetricsRegistry()
        registry.register_collector(
            "fixed", lambda: [Sample("c_total", {}, 5.0, "counter")])
        assert registry.snapshot()["c_total"] == 5.0

    def test_bound_method_collector_dies_with_its_owner(self):
        class Holder:
            def collect(self):
                return [Sample("h_total", {}, 1.0, "counter")]

        registry = MetricsRegistry()
        holder = Holder()
        registry.register_collector("holder", holder.collect)
        assert "h_total" in registry.snapshot()
        del holder
        gc.collect()
        assert "h_total" not in registry.snapshot()

    def test_collector_name_collision_is_uniquified(self):
        registry = MetricsRegistry()
        first = registry.register_collector("dup", lambda: [])
        second = registry.register_collector("dup", lambda: [])
        assert first == "dup" and second == "dup#2"

    def test_broken_collector_does_not_break_collect(self):
        registry = MetricsRegistry()
        registry.register_collector("boom", lambda: 1 / 0)
        registry.counter("ok_total").inc()
        assert registry.snapshot() == {"ok_total": 1.0}


# ------------------------------------------------------------------- exporters
class TestExporters:
    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", help="requests", labelnames=("w",)).inc(w="0")
        registry.histogram("lat_seconds").observe(0.01)
        text = registry.to_prometheus()
        assert "# HELP reqs_total requests" in text
        assert "# TYPE reqs_total counter" in text
        assert "# TYPE lat_seconds summary" in text  # quantile-style export
        assert 'reqs_total{w="0"} 1' in text
        assert "lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_jsonlines_every_line_parses(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", labelnames=("w",)).inc(w="0")
        registry.gauge("depth").set(3)
        lines = registry.to_jsonlines(timestamp=123.0).strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert {p["name"] for p in parsed} == {"reqs_total", "depth"}
        assert all(p["ts"] == 123.0 for p in parsed)
        (counter,) = [p for p in parsed if p["name"] == "reqs_total"]
        assert counter["labels"] == {"w": "0"} and counter["kind"] == "counter"

    def test_reset_drops_series_and_collectors(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.register_collector("c", lambda: [Sample("b", {}, 1.0)])
        registry.reset()
        assert registry.snapshot() == {}


# ------------------------------------------------------------------ fork reset
@pytest.mark.skipif(sys.platform == "win32", reason="fork-start only")
def test_forked_child_gets_a_fresh_registry():
    """Parent counters describe parent traffic; a forked child must not inherit
    them (cluster workers fork from the router)."""
    marker = "fork_isolation_probe_total"
    get_registry().counter(marker).inc(41)
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()

    def child(conn):
        conn.send(marker in get_registry().snapshot())
        conn.close()

    proc = ctx.Process(target=child, args=(child_conn,))
    proc.start()
    inherited = parent_conn.recv()
    proc.join(30)
    assert inherited is False
    assert get_registry().snapshot()[marker] == 41.0  # parent view untouched
