"""Gateway + SLO scheduling: deadlines, priorities, wire protocol, error codes.

Two layers under test here:

* the **scheduler semantics** the gateway relies on — priority classes,
  deadline admission/expiry and preemption live in
  :class:`~repro.serving.batcher.DynamicBatcher`, so they are exercised
  directly against a recording stub (no sockets, no model);
* the **wire protocol** — a real :class:`~repro.serving.gateway.GatewayServer`
  fronting a real :class:`~repro.serving.service.InferenceService` over
  localhost TCP, driven through :class:`~repro.serving.gateway.GatewayClient`.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.pipeline.spec import GatewaySpec
from repro.serving import BatchPolicy, InferenceService, ServingMetrics
from repro.serving.batcher import DynamicBatcher
from repro.serving.cluster.channel import decode_frame, encode_frame
from repro.serving.errors import (
    WIRE_ERRORS,
    AdmissionRejectedError,
    BadRequestError,
    DeadlineExceededError,
    GatewayDisconnectedError,
    QueueFullError,
    ServingError,
    error_code,
    error_from_wire,
)
from repro.serving.gateway import GatewayClient, GatewayServer
from repro.serving.metrics import GatewayMetrics

IMAGE = np.ones((3, 8, 8), dtype=np.float32)


class RecordingRunner:
    """A run_batch stub recording every image it executed (by row sum)."""

    def __init__(self, gate: threading.Event = None):
        self.gate = gate
        self.started = threading.Event()
        self.executed = []          # row sums, in execution order
        self.lock = threading.Lock()

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        self.started.set()
        if self.gate is not None:
            assert self.gate.wait(10.0), "test gate never opened"
        sums = batch.sum(axis=(1, 2, 3))
        with self.lock:
            self.executed.extend(float(s) for s in sums)
        return sums.reshape(-1, 1)


def gated_batcher(gate, **policy_kwargs):
    defaults = dict(max_batch_size=1, queue_capacity=64)
    defaults.update(policy_kwargs)
    runner = RecordingRunner(gate=gate)
    batcher = DynamicBatcher(runner, BatchPolicy(**defaults),
                             metrics=ServingMetrics(name="gw-test",
                                                    register=False))
    return runner, batcher


def stall_worker(runner, batcher):
    """Park the worker inside run_batch so queued requests cannot drain."""
    first = batcher.submit(IMAGE * 100)
    assert runner.started.wait(10.0)
    return first


class TestPriorityScheduling:
    def test_high_priority_runs_before_earlier_low(self):
        gate = threading.Event()
        runner, batcher = gated_batcher(gate)
        try:
            stalled = stall_worker(runner, batcher)
            low = [batcher.submit(IMAGE * (i + 1), priority="low")
                   for i in range(3)]
            high = batcher.submit(IMAGE * 50, priority="high")
            gate.set()
            for future in [stalled, high, *low]:
                future.result(10.0)
            # The stalled request ran first (it was already executing), then
            # the high-class request, then the earlier-submitted low ones.
            assert runner.executed[0] == float((IMAGE * 100).sum())
            assert runner.executed[1] == float((IMAGE * 50).sum())
        finally:
            gate.set()
            batcher.shutdown(10.0)

    def test_fifo_within_a_class(self):
        gate = threading.Event()
        runner, batcher = gated_batcher(gate)
        try:
            stall_worker(runner, batcher)
            futures = [batcher.submit(IMAGE * (i + 1), priority="low")
                       for i in range(4)]
            gate.set()
            for future in futures:
                future.result(10.0)
            expected = [float((IMAGE * (i + 1)).sum()) for i in range(4)]
            assert runner.executed[1:] == expected
        finally:
            gate.set()
            batcher.shutdown(10.0)

    def test_invalid_priority_rejected(self):
        gate = threading.Event()
        gate.set()
        _, batcher = gated_batcher(gate)
        try:
            with pytest.raises(ValueError, match="priority"):
                batcher.submit(IMAGE, priority="urgent")
        finally:
            batcher.shutdown(10.0)

    def test_full_queue_same_class_raises_queue_full(self):
        gate = threading.Event()
        runner, batcher = gated_batcher(gate, queue_capacity=2)
        try:
            stall_worker(runner, batcher)
            batcher.submit(IMAGE, priority="low")
            batcher.submit(IMAGE, priority="low")
            with pytest.raises(QueueFullError):
                batcher.submit(IMAGE, priority="low")
        finally:
            gate.set()
            batcher.shutdown(10.0)

    def test_high_preempts_newest_low_when_full(self):
        gate = threading.Event()
        runner, batcher = gated_batcher(gate, queue_capacity=2)
        try:
            stall_worker(runner, batcher)
            victim_candidates = [batcher.submit(IMAGE * (i + 1), priority="low")
                                 for i in range(2)]
            high = batcher.submit(IMAGE * 50, priority="high")
            # The *newest* low-class entry was evicted to make room.
            with pytest.raises(AdmissionRejectedError):
                victim_candidates[1].result(10.0)
            gate.set()
            high.result(10.0)
            victim_candidates[0].result(10.0)
            assert float((IMAGE * 2).sum()) not in runner.executed
        finally:
            gate.set()
            batcher.shutdown(10.0)


class TestDeadlines:
    def test_already_expired_deadline_rejected_at_admission(self):
        gate = threading.Event()
        gate.set()
        runner, batcher = gated_batcher(gate)
        try:
            with pytest.raises(DeadlineExceededError):
                batcher.submit(IMAGE, deadline_ms=0.0)
            with pytest.raises(DeadlineExceededError):
                batcher.submit(IMAGE, deadline_ms=-5.0)
            assert runner.executed == []     # rejected up front, never queued
            report = batcher.metrics.report()
            assert report["requests"]["rejected"] == 2
        finally:
            batcher.shutdown(10.0)

    def test_expiry_while_queued_drops_without_executing(self):
        gate = threading.Event()
        runner, batcher = gated_batcher(gate)
        try:
            stall_worker(runner, batcher)
            doomed = batcher.submit(IMAGE * 7, deadline_ms=20.0)
            time.sleep(0.08)                  # let the deadline lapse in-queue
            gate.set()
            with pytest.raises(DeadlineExceededError):
                doomed.result(10.0)
            # The expired request was dropped, not run: only the stall request
            # ever reached the runner.
            batcher.shutdown(10.0)
            assert float((IMAGE * 7).sum()) not in runner.executed
            report = batcher.metrics.report()
            assert report["requests"]["expired"] == {"normal": 1}
        finally:
            gate.set()
            batcher.shutdown(10.0)

    def test_future_deadline_met_executes_normally(self):
        gate = threading.Event()
        gate.set()
        runner, batcher = gated_batcher(gate)
        try:
            future = batcher.submit(IMAGE * 3, deadline_ms=10_000.0)
            assert future.result(10.0) is not None
            assert float((IMAGE * 3).sum()) in runner.executed
        finally:
            batcher.shutdown(10.0)


# --------------------------------------------------------------------------- wire


@pytest.fixture
def service(serve_artifact):
    with InferenceService(
            serve_artifact,
            policy=BatchPolicy(max_batch_size=4,
                               queue_capacity=64),
            metrics=ServingMetrics(name="gw-wire", register=False)) as svc:
        yield svc


def start_gateway(target, **spec_kwargs):
    spec_kwargs.setdefault("port", 0)
    spec = GatewaySpec(**spec_kwargs)
    server = GatewayServer(target, spec=spec,
                           metrics=GatewayMetrics(register=False))
    return server.start()


@pytest.fixture
def gateway(service):
    server = start_gateway(service)
    client = GatewayClient(server.host, server.port)
    yield server, client, service
    client.shutdown()
    server.shutdown()


class TestWireProtocol:
    def test_wire_client_bit_identical_to_in_process(self, gateway, images):
        server, client, svc = gateway
        wire = client.submit_many(images)
        inproc = svc.submit_many(images)
        np.testing.assert_array_equal(wire, inproc)

    def test_single_submit_round_trip(self, gateway, images):
        _, client, svc = gateway
        wire = client.submit(images[0]).result(30.0)
        inproc = svc.submit(images[0], block=True).result(30.0)
        np.testing.assert_array_equal(wire, inproc)

    def test_bad_priority_comes_back_as_bad_request(self, gateway, images):
        server, client, _ = gateway
        future = client.submit(images[0], priority="urgent")
        with pytest.raises(BadRequestError):
            future.result(30.0)
        rejected = server.metrics.report()["requests"]["rejected"]
        assert any(key.startswith("bad_request/") for key in rejected)

    def test_expired_deadline_over_wire(self, gateway, images):
        server, client, _ = gateway
        future = client.submit(images[0], deadline_ms=1e-4)
        with pytest.raises(DeadlineExceededError):
            future.result(30.0)
        report = server.metrics.report()["requests"]
        # Counted as a reject (admission) or an expiry (queued) — either way
        # the deadline machinery answered, and nothing completed.
        drops = (sum(report["expired"].values())
                 + sum(count for key, count in report["rejected"].items()
                       if key.startswith("deadline_exceeded/")))
        assert drops == 1
        assert report["completed"] == {}

    def test_stats_frame(self, gateway, images):
        _, client, _ = gateway
        client.submit(images[0]).result(30.0)
        report = client.stats()
        assert set(report) == {"gateway", "target"}
        assert sum(report["gateway"]["requests"]["completed"].values()) >= 1
        assert "latency" in report["target"]

    def test_rate_limit_rejects_with_admission_code(self, service, images):
        server = start_gateway(service, rate_limit_rps=0.001, burst=2)
        client = GatewayClient(server.host, server.port)
        try:
            first = [client.submit(images[0]) for _ in range(2)]
            throttled = client.submit(images[0])
            with pytest.raises(AdmissionRejectedError):
                throttled.result(30.0)
            for future in first:             # the burst allowance still served
                assert future.result(30.0) is not None
            rejected = server.metrics.report()["requests"]["rejected"]
            assert rejected.get("admission_rejected/normal", 0) >= 1
        finally:
            client.shutdown()
            server.shutdown()

    def test_oversized_frame_answered_and_connection_dropped(self, service):
        server = start_gateway(service, max_frame_mb=0.001)
        client = GatewayClient(server.host, server.port)
        try:
            big = np.zeros((3, 256, 256), dtype=np.float32)   # ~768 KiB > 1 KiB
            future = client.submit(big)
            with pytest.raises(ServingError):
                future.result(30.0)
        finally:
            client.shutdown()
            server.shutdown()

    def test_unknown_frame_kind_answered_with_bad_request(self, gateway):
        server, _, _ = gateway
        payload = encode_frame("bogus", {"id": 9})
        prefix = struct.Struct("!I")
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as raw:
            raw.sendall(prefix.pack(len(payload)) + payload)
            raw.settimeout(10.0)
            head = b""
            while len(head) < 4:
                head += raw.recv(4 - len(head))
            (length,) = prefix.unpack(head)
            body = b""
            while len(body) < length:
                body += raw.recv(length - len(body))
        message = decode_frame(body)
        assert message.kind == "error"
        assert message.meta["code"] == "bad_request"
        assert message.meta["id"] == 9

    def test_client_shutdown_fails_outstanding_futures(self, service, images):
        server = start_gateway(service)
        client = GatewayClient(server.host, server.port)
        try:
            done = client.submit(images[0])
            done.result(30.0)
            client.shutdown()
            with pytest.raises(ServingError):
                client.submit(images[0])
        finally:
            client.shutdown()
            server.shutdown()

    def test_server_shutdown_leaves_target_running(self, service, images):
        server = start_gateway(service)
        client = GatewayClient(server.host, server.port)
        client.submit(images[0]).result(30.0)
        client.shutdown()
        server.shutdown()
        # The gateway is a front door, not the owner: the service still serves.
        assert service.submit(images[0], block=True).result(30.0) is not None


class StallTarget:
    """InferenceTarget stub whose futures never resolve on their own."""

    def __init__(self):
        self.futures = []
        self.lock = threading.Lock()

    def submit(self, image, **kwargs):
        from repro.serving.batcher import InferenceFuture

        future = InferenceFuture()
        with self.lock:
            self.futures.append(future)
        return future

    def submit_group(self, images, **kwargs):
        (image,) = images                # these tests send single requests
        return self.submit(image, **kwargs)


def wait_disconnect_noticed(client, timeout=10.0):
    """Block until the client's reader has torn down the dead connection."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        if client._sock is None:
            return
        time.sleep(0.01)
    raise AssertionError("client never noticed the server went away")


class TestClientReconnect:
    def test_submit_reconnects_after_server_restart(self, service, images):
        first = start_gateway(service)
        port = first.port
        client = GatewayClient(first.host, first.port)
        second = None
        try:
            assert client.submit(images[0]).result(30.0) is not None
            first.shutdown()
            wait_disconnect_noticed(client)
            # Same port, fresh server: the next submit must redial and serve.
            second = start_gateway(service, port=port)
            assert client.submit(images[0]).result(30.0) is not None
        finally:
            client.shutdown()
            first.shutdown()
            if second is not None:
                second.shutdown()

    def test_in_flight_requests_fail_with_gateway_disconnected(self, images):
        target = StallTarget()
        server = start_gateway(target)
        client = GatewayClient(server.host, server.port)
        try:
            stuck = client.submit(images[0])
            deadline = time.time() + 10.0
            while time.time() < deadline:
                with target.lock:
                    if target.futures:
                        break
                time.sleep(0.01)
            with target.lock:
                assert target.futures, "request never reached the target"
            # The connection dies with the request in flight: its outcome is
            # unknowable, so it must fail typed — not hang, not service_closed.
            server.shutdown()
            with pytest.raises(GatewayDisconnectedError) as excinfo:
                stuck.result(30.0)
            assert error_code(excinfo.value) == "gateway_disconnected"
        finally:
            client.shutdown()
            server.shutdown()

    def test_reconnect_retries_exhausted_surface_typed_error(self, service, images):
        server = start_gateway(service)
        client = GatewayClient(server.host, server.port)
        try:
            assert client.submit(images[0]).result(30.0) is not None
            server.shutdown()
            wait_disconnect_noticed(client)
            # Nothing listening any more: the one bounded redial fails too.
            with pytest.raises(GatewayDisconnectedError):
                client.submit(images[0])
        finally:
            client.shutdown()

    def test_reconnect_disabled_does_not_redial(self, service, images):
        server = start_gateway(service)
        client = GatewayClient(server.host, server.port, reconnect=False)
        try:
            assert client.submit(images[0]).result(30.0) is not None
            server.shutdown()
            wait_disconnect_noticed(client)
            with pytest.raises(GatewayDisconnectedError):
                client.submit(images[0])
        finally:
            client.shutdown()

    def test_shutdown_still_fails_outstanding_as_service_closed(self, images):
        target = StallTarget()
        server = start_gateway(target)
        client = GatewayClient(server.host, server.port)
        try:
            stuck = client.submit(images[0])
            client.shutdown()
            with pytest.raises(ServingError) as excinfo:
                stuck.result(30.0)
            assert error_code(excinfo.value) == "service_closed"
        finally:
            server.shutdown()


class TestErrorRegistry:
    def test_wire_codes_are_stable(self):
        # Append-only contract: these exact codes are on the wire.
        assert set(WIRE_ERRORS) == {
            "serving_error", "queue_full", "service_closed",
            "worker_unavailable", "remote_error", "deadline_exceeded",
            "admission_rejected", "bad_request", "gateway_disconnected",
        }

    def test_round_trip_through_wire_codes(self):
        for code, cls in WIRE_ERRORS.items():
            rehydrated = error_from_wire(code, "boom")
            assert type(rehydrated) is cls
            assert error_code(rehydrated) == code
        assert type(error_from_wire("not_a_code", "x")) is ServingError
        assert error_code(RuntimeError("x")) == "internal_error"

    def test_historical_import_paths_still_work(self):
        from repro.serving import batcher as batcher_module
        from repro.serving import errors as errors_module
        from repro.serving.cluster import worker as worker_module

        assert batcher_module.QueueFullError is errors_module.QueueFullError
        assert batcher_module.ServiceClosedError is errors_module.ServiceClosedError
        assert (worker_module.RemoteInferenceError
                is errors_module.RemoteInferenceError)


# --------------------------------------------------------------------------- bursts
class TestBurstsOverTheWire:
    """A burst is one frame each way per micro-batch; limits still count images."""

    def test_submit_group_is_bit_identical_to_single_submits(self, gateway, images):
        _, client, svc = gateway
        burst = client.submit_group(images)
        assert burst.count == images.shape[0]
        served = burst.result(30.0)          # before the singles join its batches
        singles = np.concatenate([svc.submit(image, block=True).result(30.0)
                                  for image in images])
        np.testing.assert_allclose(served, singles, atol=1e-5, rtol=0)
        # Runs, not images: 12 requests at max_batch_size 4 are 3 reply frames.
        assert len(burst._runs) == 3
        assert sorted(run[:2] for run in burst._runs) == [(0, 4), (4, 8), (8, 12)]

    def test_a_list_of_separate_images_goes_out_as_one_frame(self, gateway, images):
        server, client, svc = gateway
        separate = [np.array(image) for image in images[:5]]     # five buffers
        np.testing.assert_array_equal(
            client.submit_group(separate).result(30.0), svc.submit_many(images[:5]))
        assert server.metrics.report()["requests"]["accepted"] == {"normal": 5}

    def test_submit_many_longer_than_one_burst_frame(self, gateway, images, monkeypatch):
        """More images than a frame may carry: several frames, one answer."""
        import repro.serving.cluster.channel as channel

        monkeypatch.setattr(channel, "BURST_BYTES", 4 * images[0].nbytes)
        assert channel.burst_images(images[0].nbytes) == 4
        _, client, svc = gateway
        stack = np.concatenate([images, images[:5]])             # 17 = 4 frames + 1 image
        np.testing.assert_array_equal(client.submit_many(stack), svc.submit_many(stack))

    def test_inflight_bound_admits_the_images_that_fit(self, service, images):
        server = start_gateway(service, max_inflight_per_client=8)
        client = GatewayClient(server.host, server.port)
        try:
            burst = client.submit_group(images)                  # 12 images, room for 8
            with pytest.raises(AdmissionRejectedError, match="in flight"):
                burst.result(30.0)
            errors = [run for run in burst._runs if run[3] is not None]
            assert [(run[0], run[1]) for run in errors] == [(8, 12)]
            served = np.concatenate(
                [run[2] for run in sorted(burst._runs, key=lambda run: run[0])
                 if run[3] is None])
            np.testing.assert_array_equal(served, service.submit_many(images[:8]))
            report = server.metrics.report()["requests"]
            assert report["accepted"] == {"normal": 8}
            assert report["rejected"] == {"admission_rejected/normal": 4}
            # Every slot is free again once the replies were written.
            assert client.submit_group(images[:8]).result(30.0).shape[0] == 8
        finally:
            client.shutdown()
            server.shutdown()

    def test_token_bucket_is_charged_per_image(self, service, images):
        server = start_gateway(service, rate_limit_rps=0.001, burst=5)
        client = GatewayClient(server.host, server.port)
        try:
            burst = client.submit_group(images[:7])
            assert isinstance(burst.exception(30.0), AdmissionRejectedError)
            assert sorted(run[:2] for run in burst._runs if run[3] is not None) == [(5, 7)]
            with pytest.raises(AdmissionRejectedError, match="rate limit"):
                client.submit(images[0]).result(30.0)            # the bucket is empty
        finally:
            client.shutdown()
            server.shutdown()

    def test_a_burst_shares_priority_and_deadline(self, gateway, images):
        server, client, _ = gateway
        with pytest.raises(BadRequestError):
            client.submit_group(images[:3], priority="urgent").result(30.0)
        with pytest.raises(DeadlineExceededError):
            client.submit_group(images[:3], deadline_ms=1e-4).result(30.0)
        report = server.metrics.report()["requests"]
        assert report["rejected"]["bad_request/normal"] == 3
        assert report["completed"] == {}

    def test_every_request_of_a_traced_burst_yields_one_trace(self, gateway, images):
        from repro.obs import get_trace_buffer, set_tracing

        _, client, _ = gateway
        get_trace_buffer().clear()
        set_tracing(True)
        try:
            client.submit_group(images[:6]).result(30.0)
            client.submit(images[6]).result(30.0)
            deadline = time.time() + 10.0
            while len(get_trace_buffer()) < 7 and time.time() < deadline:
                time.sleep(0.01)
        finally:
            set_tracing(False)
        traces = get_trace_buffer().traces()
        get_trace_buffer().clear()
        assert len({trace.trace_id for trace in traces}) == len(traces) == 7
        wanted = {"gateway-parse", "gateway-admission", "gateway-queue", "queue-wait",
                  "batch-assembly", "worker-execute", "postprocess", "gateway-dispatch"}
        for trace in traces:
            names = {span.name for span in trace.spans}
            assert wanted <= names, names
        assert sum("gateway-accept" in {s.name for s in t.spans} for t in traces) == 1
