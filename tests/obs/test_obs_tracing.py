"""repro.obs.tracing: spans, wire round trips, the ring buffer, Chrome export."""

from __future__ import annotations

import multiprocessing
import sys
import threading

import pytest

from repro.obs.tracing import (
    Span,
    TraceBuffer,
    TraceContext,
    activate,
    current_trace_id,
    get_trace_buffer,
    mint_trace,
    set_tracing,
    span,
    tracing_enabled,
)


# ----------------------------------------------------------------------- spans
class TestTraceContext:
    def test_record_closes_span_with_args(self):
        trace = TraceContext(buffered=False)
        recorded = trace.record("queue-wait", 10.0, end=10.5, batch=4)
        assert recorded.duration == 0.5
        assert recorded.args == {"batch": 4}
        assert trace.spans == [recorded]

    def test_record_defaults_end_to_now(self):
        trace = TraceContext(buffered=False)
        recorded = trace.record("phase", 0.0)
        assert recorded.closed and recorded.end > 0.0

    def test_end_closes_and_records_an_open_span(self):
        trace = TraceContext(buffered=False)
        opened = Span("work")
        assert not opened.closed
        trace.end(opened)
        assert opened.closed and trace.spans == [opened]

    def test_span_wire_round_trip(self):
        original = Span("execute", start=1.0, end=2.0, pid=42, tid=7,
                        parent="request", args={"batch": 3})
        rebuilt = Span.from_wire(original.to_wire())
        assert rebuilt.name == "execute" and rebuilt.duration == 1.0
        assert rebuilt.pid == 42 and rebuilt.parent == "request"
        assert rebuilt.args == {"batch": 3}

    def test_context_wire_header_carries_identity_only(self):
        trace = TraceContext(buffered=False)
        trace.record("local", 0.0, end=1.0)
        header = trace.to_wire()
        assert header == {"trace_id": trace.trace_id}  # spans stay local
        rebuilt = TraceContext.from_wire(header)
        assert rebuilt.trace_id == trace.trace_id
        assert rebuilt.buffered is False  # worker side: spans return by wire
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire({}) is None

    def test_absorb_wire_spans_merges_remote_timeline(self):
        parent = TraceContext(buffered=False)
        parent.record("router-dispatch", 1.0, end=1.1)
        worker = TraceContext.from_wire(parent.to_wire())
        worker.record("worker-execute", 1.2, end=1.8)
        parent.absorb_wire_spans(worker.spans_to_wire())
        assert [s.name for s in parent.spans] == ["router-dispatch", "worker-execute"]

    def test_finish_pushes_to_ring_exactly_once(self):
        set_tracing(True)
        trace = mint_trace()
        trace.record("phase", 0.0, end=1.0)
        trace.finish()
        trace.finish()
        assert len(get_trace_buffer()) == 1
        assert trace.finished

    def test_unbuffered_finish_stays_out_of_the_ring(self):
        trace = TraceContext(buffered=False)
        trace.finish()
        assert len(get_trace_buffer()) == 0


# ------------------------------------------------------------------ arming
class TestArming:
    def test_mint_trace_is_none_when_disarmed(self):
        assert not tracing_enabled()
        assert mint_trace() is None

    def test_set_tracing_returns_previous_state(self):
        assert set_tracing(True) is False
        assert set_tracing(False) is True
        assert mint_trace() is None


# ------------------------------------------------------------------- ambient
class TestAmbient:
    def test_activate_exposes_trace_id_and_restores(self):
        trace = TraceContext(buffered=False)
        assert current_trace_id() is None
        with activate(trace):
            assert current_trace_id() == trace.trace_id
        assert current_trace_id() is None

    def test_module_span_is_noop_without_ambient_trace(self):
        with span("orphan"):
            pass  # must not raise and must not record anywhere

    def test_nested_spans_record_parent_names(self):
        trace = TraceContext(buffered=False)
        with activate(trace):
            with span("outer"):
                with span("inner"):
                    pass
        by_name = {s.name: s for s in trace.spans}
        assert by_name["inner"].parent == "outer"
        assert by_name["outer"].parent is None

    def test_ambient_nesting_is_per_thread(self):
        """Concurrent request threads must not see each other's span stacks."""
        errors = []
        barrier = threading.Barrier(4)

        def request(index: int) -> None:
            trace = TraceContext(buffered=False)
            with activate(trace):
                with span(f"outer-{index}"):
                    barrier.wait(timeout=10)  # all four inside their outer span
                    with span(f"inner-{index}"):
                        if current_trace_id() != trace.trace_id:
                            errors.append(f"wrong ambient trace in {index}")
            parents = {s.name: s.parent for s in trace.spans}
            if parents != {f"outer-{index}": None, f"inner-{index}": f"outer-{index}"}:
                errors.append(f"cross-thread nesting leak: {parents}")

        threads = [threading.Thread(target=request, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert errors == []


# -------------------------------------------------------------- ring + export
class TestBufferAndExport:
    def test_ring_is_bounded(self):
        buffer = TraceBuffer(capacity=3)
        for i in range(5):
            trace = TraceContext(buffered=False)
            trace.record(f"t{i}", 0.0, end=1.0)
            buffer.push(trace)
        assert len(buffer) == 3
        assert [t.spans[0].name for t in buffer.traces()] == ["t2", "t3", "t4"]

    def test_chrome_export_structure(self):
        buffer = TraceBuffer()
        trace = TraceContext(buffered=False)
        trace.record("worker-execute", 1.0, end=1.5, batch=2)
        open_span = Span("never-closed")
        trace.spans.append(open_span)  # unclosed spans must be skipped
        buffer.push(trace)
        doc = buffer.to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(complete) == 1
        (event,) = complete
        assert event["name"] == "worker-execute"
        assert event["ts"] == 1.0 * 1e6 and event["dur"] == 0.5 * 1e6
        assert event["args"]["trace_id"] == trace.trace_id
        assert event["args"]["batch"] == 2
        assert len(meta) == 1 and "router" in meta[0]["args"]["name"]


@pytest.mark.skipif(sys.platform == "win32", reason="fork-start only")
def test_forked_child_starts_with_an_empty_ring_but_stays_armed():
    """A traced router forks traced workers, but the parent's completed traces
    must not leak into the child's export."""
    set_tracing(True)
    trace = mint_trace()
    trace.finish()
    assert len(get_trace_buffer()) == 1
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()

    def child(conn):
        conn.send((tracing_enabled(), len(get_trace_buffer())))
        conn.close()

    proc = ctx.Process(target=child, args=(child_conn,))
    proc.start()
    armed, ring_len = parent_conn.recv()
    proc.join(30)
    assert armed is True and ring_len == 0
    assert len(get_trace_buffer()) == 1  # parent ring untouched
