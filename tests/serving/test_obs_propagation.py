"""Trace propagation through the serving stack: batcher, channel, cluster.

The obs package's unit tests (tests/obs/) cover span mechanics in isolation;
these tests assert the *wiring*: a trace minted at ``submit`` collects the
queue-wait/batch-assembly/worker-execute/postprocess phases in process, rides
the ``ArrayChannel`` JSON header into a cluster worker, comes back as wire
spans, and keeps its ``trace_id`` across a worker kill + re-dispatch.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.obs.tracing import (
    TraceContext,
    get_trace_buffer,
    set_tracing,
)
from repro.pipeline.spec import ClusterSpec
from repro.serving import BatchPolicy, InferenceService
from repro.serving.cluster import ArrayChannel, Router


@pytest.fixture
def traced():
    """Arm tracing (before any Router forks) and isolate the ring buffer."""
    previous = set_tracing(True)
    get_trace_buffer().clear()
    yield
    set_tracing(previous)
    get_trace_buffer().clear()


@pytest.fixture
def policy():
    return BatchPolicy(max_batch_size=4, queue_capacity=64)


def wait_for_traces(count, timeout=30.0):
    """Traces seal on the receiver/worker threads just after futures resolve."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        traces = get_trace_buffer().traces()
        if len(traces) >= count:
            return traces
        time.sleep(0.02)
    raise AssertionError(
        f"expected {count} traces, got {len(get_trace_buffer())}")


def span_names(trace):
    return [span.name for span in trace.spans]


# ------------------------------------------------------------------ in-process
class TestInProcessTracing:
    def test_submit_many_traces_every_request_phase(self, serve_artifact, images,
                                                    policy, traced):
        with InferenceService(serve_artifact, policy=policy) as service:
            service.submit_many(images)
        traces = wait_for_traces(images.shape[0])
        assert len({t.trace_id for t in traces}) == images.shape[0]
        for trace in traces:
            names = span_names(trace)
            for phase in ("queue-wait", "batch-assembly", "worker-execute",
                          "postprocess"):
                assert names.count(phase) == 1, (phase, names)
            execute = next(s for s in trace.spans if s.name == "worker-execute")
            assert 1 <= execute.args["batch"] <= policy.max_batch_size
            assert execute.args["ops_ms"]  # per-op engine breakdown attached
            assert execute.duration > 0

    def test_untraced_submits_record_nothing(self, serve_artifact, images, policy):
        set_tracing(False)
        get_trace_buffer().clear()
        with InferenceService(serve_artifact, policy=policy) as service:
            service.submit_many(images[:4])
        assert len(get_trace_buffer()) == 0

    def test_concurrent_submit_many_keeps_traces_disjoint(self, serve_artifact,
                                                          images, policy, traced):
        """Three client threads hammering one service: every request still gets
        its own complete, non-interleaved span set."""
        errors = []

        def client():
            try:
                with InferenceService(serve_artifact, policy=policy) as service:
                    service.submit_many(images[:4])
            except Exception as exc:  # pragma: no cover - surfaced via errors
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert errors == []
        traces = wait_for_traces(12)
        assert len({t.trace_id for t in traces}) == 12
        for trace in traces:
            names = span_names(trace)
            assert names.count("worker-execute") == 1
            assert names.count("postprocess") == 1


# ------------------------------------------------------------------- channel
class TestChannelPropagation:
    def test_trace_header_and_spans_round_trip_over_a_real_pipe(self):
        parent_end, child_end = multiprocessing.Pipe(duplex=True)
        client, server = ArrayChannel(parent_end), ArrayChannel(child_end)
        trace = TraceContext(buffered=False)
        image = np.zeros((3, 8, 8), dtype=np.float32)

        client.send("infer", {"id": 1, "trace": trace.to_wire()}, [image])
        request = server.recv()
        worker_trace = TraceContext.from_wire(request.meta.get("trace"))
        assert worker_trace.trace_id == trace.trace_id
        assert worker_trace.buffered is False
        worker_trace.record("worker-execute", time.time() - 0.01, batch=1)
        server.send("result", {"id": 1, "spans": worker_trace.spans_to_wire()},
                    [image])

        response = client.recv()
        trace.absorb_wire_spans(response.meta["spans"])
        (span,) = trace.spans
        assert span.name == "worker-execute" and span.args == {"batch": 1}

    def test_missing_trace_header_disables_tracing_downstream(self):
        parent_end, child_end = multiprocessing.Pipe(duplex=True)
        client, server = ArrayChannel(parent_end), ArrayChannel(child_end)
        client.send("infer", {"id": 2})
        message = server.recv()
        assert TraceContext.from_wire(message.meta.get("trace")) is None


# -------------------------------------------------------------------- cluster
class TestClusterTracing:
    def test_one_trace_id_spans_router_and_worker_processes(self, artifact_path,
                                                            images, policy, traced):
        requests = 12
        with Router(artifact_path, workers=2, policy=policy) as router:
            futures = [router.submit(images[i % images.shape[0]], block=True,
                                     timeout=60.0) for i in range(requests)]
            for future in futures:
                assert future.result(60.0) is not None
            traces = wait_for_traces(requests)
        assert len({t.trace_id for t in traces}) == requests
        router_pid = os.getpid()
        for trace in traces:
            by_name = {span.name: span for span in trace.spans}
            # The dispatch span is the router's; the execution spans came back
            # over the pipe from the forked worker.
            assert by_name["router-dispatch"].pid == router_pid
            assert by_name["worker-execute"].pid != router_pid
            assert by_name["queue-wait"].pid == by_name["worker-execute"].pid
            assert "worker" in by_name["router-dispatch"].args

    def test_killed_worker_redispatch_keeps_the_trace_id(self, artifact_path,
                                                         images, policy, traced):
        requests = 24
        with Router(artifact_path, workers=2, policy=policy,
                    cluster=ClusterSpec(heartbeat_interval=0.1)) as router:
            futures = [router.submit(images[i % images.shape[0]], block=True,
                                     timeout=60.0) for i in range(requests)]
            router.workers[0].kill()
            for future in futures:
                assert future.result(120.0) is not None
            traces = wait_for_traces(requests)
            redispatched = router.metrics.report()["cluster"]["redispatched"]
        # Every request sealed exactly one trace despite the restart: the
        # replacement worker executed under the original trace_id.
        assert len({t.trace_id for t in traces}) == requests
        for trace in traces:
            names = span_names(trace)
            assert names.count("worker-execute") == 1
            assert "router-dispatch" in names
        if redispatched:
            # A re-dispatched request records a second dispatch span on the
            # same trace — the visible signature of the recovery path.
            assert any(span_names(t).count("router-dispatch") > 1 for t in traces)
