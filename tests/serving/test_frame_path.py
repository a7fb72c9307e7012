"""Ownership and order on the gateway -> router -> worker frame path.

The hot path forwards views and coalesces wake-ups; these tests pin what that
must never change: who owns a decoded array, what a retained request keeps
alive, and the order and accounting of coalesced replies.
"""

import multiprocessing
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.engine import BatchRunner, max_abs_output_diff
from repro.pipeline.spec import ClusterSpec, GatewaySpec
from repro.serving import BatchPolicy, InferenceService, Router
from repro.serving.batcher import DynamicBatcher, InferenceFuture
from repro.serving.cluster.channel import (
    ArrayChannel,
    decode_frame,
    encode_frame,
)
from repro.serving.gateway import GatewayClient, GatewayServer, _Connection
from repro.serving.metrics import GatewayMetrics, ServingMetrics

PREFIX = struct.Struct("!I")


def start_gateway(target, **spec_kwargs):
    spec = GatewaySpec(port=0, **spec_kwargs)
    return GatewayServer(target, spec=spec, metrics=GatewayMetrics(register=False)).start()


def framed_infer(request_id: int, image: np.ndarray) -> bytes:
    payload = encode_frame("infer", {"id": request_id}, [image])
    return PREFIX.pack(len(payload)) + payload


def read_reply(sock):
    def exact(count):
        data = b""
        while len(data) < count:
            piece = sock.recv(count - len(data))
            assert piece, "gateway hung up"
            data += piece
        return data

    (length,) = PREFIX.unpack(exact(4))
    return decode_frame(exact(length))


def buffer_owner(array: np.ndarray):
    """The object at the end of ``array``'s ``.base`` chain (what it keeps alive)."""
    owner = array
    while isinstance(owner, np.ndarray) and owner.base is not None:
        owner = owner.base
    return owner.obj if isinstance(owner, memoryview) else owner


def wait_for(predicate, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition never became true")


class CapturingTarget:
    """InferenceTarget stub keeping every image; futures resolve on demand."""

    def __init__(self, resolve_at_once: bool = False):
        self.resolve_at_once = resolve_at_once
        self.images = []
        self.futures = []
        self.lock = threading.Lock()

    def submit(self, image, **kwargs):
        future = InferenceFuture()
        with self.lock:
            self.images.append(image)
            self.futures.append(future)
        if self.resolve_at_once:
            self.answer(future, image)
        return future

    def submit_group(self, images, **kwargs):
        (image,) = images                # a single request is a burst of one
        return self.submit(image, **kwargs)

    @staticmethod
    def answer(future, image):
        future._resolve(np.array([[image.sum()]], dtype=np.float64))

    def count(self):
        with self.lock:
            return len(self.futures)

    def stats(self):
        return {}


# ---------------------------------------------------------------------- ownership
class TestOwnership:
    def assert_owned_and_distinct(self, results):
        snapshots = [result.copy() for result in results]
        for result in results:
            assert result.flags.writeable and result.flags.owndata
            assert result.flags.aligned
        for index, result in enumerate(results):
            for other in results[index + 1:]:
                assert not np.shares_memory(result, other)
        results[0] += 1.0               # must not raise, must not leak into the others
        for result, snapshot in zip(results[1:], snapshots[1:]):
            np.testing.assert_array_equal(result, snapshot)

    def test_gateway_client_replies_own_their_memory(self, serve_artifact, images):
        with InferenceService(serve_artifact,
                              policy=BatchPolicy(max_batch_size=4),
                              metrics=ServingMetrics(name="own", register=False)) as service:
            server = start_gateway(service)
            try:
                with GatewayClient(server.host, server.port) as client:
                    first = [client.submit(image).result(30.0) for image in images[:4]]
                    kept = [result.copy() for result in first]
                    # More replies through the same receive buffer: the
                    # earlier ones must not change under the caller.
                    later = [f.result(30.0) for f in [client.submit(i) for i in images]]
                for result, copy in zip(first, kept):
                    np.testing.assert_array_equal(result, copy)
                self.assert_owned_and_distinct(first + later)
            finally:
                server.shutdown()

    def test_router_replies_own_their_memory(self, artifact_path, images):
        policy = BatchPolicy(max_batch_size=4, queue_capacity=64)
        with Router(artifact_path, workers=1, policy=policy) as router:
            futures = [router.submit(image, block=True, timeout=60.0) for image in images]
            results = [future.result(60.0) for future in futures]
        self.assert_owned_and_distinct(results)

    def test_channel_arrays_are_read_only_views_of_their_own_frame(self):
        near, far = multiprocessing.Pipe(duplex=True)
        sender, receiver = ArrayChannel(near), ArrayChannel(far)
        try:
            images = [np.full((3, 8, 8), float(index), dtype=np.float32) for index in range(6)]
            for index, image in enumerate(images):
                sender.send("infer", {"id": index}, [image])
            messages = [receiver.recv() for _ in images]     # one read, six frames
            for message, image in zip(messages, images):
                (array,) = message.arrays
                assert not array.flags.writeable
                owner = buffer_owner(array)
                assert isinstance(owner, bytes)
                assert len(owner) == len(encode_frame("infer", message.meta, [image]))
            sender.send("infer", {"id": 99}, [np.zeros((3, 8, 8), dtype=np.float32)])
            receiver.recv()                                  # the chunk is reused ...
            for message, image in zip(messages, images):     # ... the frames are not
                np.testing.assert_array_equal(message.arrays[0], image)
        finally:
            sender.close()
            receiver.close()

    def test_gateway_request_pins_only_its_own_frame(self):
        """A retained request image is a read-only view of one frame's bytes --
        not of the server's read chunk -- and survives the chunk's reuse."""
        target = CapturingTarget()
        server = start_gateway(target, max_inflight_per_client=64)
        try:
            rng = np.random.default_rng(3)
            images = [rng.standard_normal((3, 16, 16)).astype(np.float32) for _ in range(40)]
            with socket.create_connection((server.host, server.port), timeout=10.0) as sock:
                sock.sendall(b"".join(framed_infer(i, image)
                                      for i, image in enumerate(images[:20])))
                wait_for(lambda: target.count() == 20)
                sock.sendall(b"".join(framed_infer(20 + i, image)
                                      for i, image in enumerate(images[20:])))
                wait_for(lambda: target.count() == 40)
            frame_bytes = len(framed_infer(0, images[0])) - 4
            for kept, image in zip(target.images, images):
                assert not kept.flags.writeable
                owner = buffer_owner(kept)
                assert isinstance(owner, bytes) and len(owner) <= frame_bytes + 4
                np.testing.assert_array_equal(kept, image)
        finally:
            server.shutdown()


# ---------------------------------------------------------------- worker death
def test_worker_killed_mid_burst_through_the_gateway_loses_nothing(
        artifact_path, serve_artifact, images):
    """Re-dispatch after a death sends the retained views: 1024 replies, every
    one equal to the direct output for *its* image."""
    count = 1024
    direct = BatchRunner(serve_artifact.compiled, batch_size=1).run(images)
    policy = BatchPolicy(max_batch_size=4, queue_capacity=count)
    with Router(artifact_path, workers=2, policy=policy,
                cluster=ClusterSpec(heartbeat_interval=0.1)) as router:
        assert all(worker.wait_ready(60.0) for worker in router.workers)
        server = start_gateway(router, max_inflight_per_client=count)
        try:
            with GatewayClient(server.host, server.port) as client:
                futures = []
                settles = SettleCounter()
                for index in range(count):
                    futures.append(client.submit(images[index % len(images)]))
                    settles.watch(futures[-1], index)
                    if index == count // 4:
                        router.workers[0].kill()
                results = [future.result(120.0) for future in futures]
            report = router.metrics.report()["cluster"]
        finally:
            server.shutdown()
    assert len(results) == count
    for index, result in enumerate(results):
        expected = direct[index % len(images)][None]
        assert max_abs_output_diff(result, expected) < 1e-5
    assert report["restarts"] >= 1 and report["failed"] == 0
    # Exactly once per id, re-dispatched or not.
    assert settles.counts == {index: 1 for index in range(count)}


def test_worker_killed_mid_burst_of_multi_image_frames_loses_nothing(
        artifact_path, serve_artifact, images):
    """The same death with the 1024 images travelling as bursts: the requests a
    dead worker left unanswered -- the tail of the bursts it was in the middle
    of -- are re-dispatched as bursts, and every id resolves exactly once."""
    count, per_frame = 1024, 16
    stack = np.concatenate([images] * (count // len(images) + 1))[:count]
    direct = BatchRunner(serve_artifact.compiled, batch_size=1).run(images)
    policy = BatchPolicy(max_batch_size=4, queue_capacity=count)
    with Router(artifact_path, workers=2, policy=policy,
                cluster=ClusterSpec(heartbeat_interval=0.1)) as router:
        assert all(worker.wait_ready(60.0) for worker in router.workers)
        server = start_gateway(router, max_inflight_per_client=count)
        try:
            with GatewayClient(server.host, server.port) as client:
                futures = []
                settles = SettleCounter()
                for start in range(0, count, per_frame):
                    futures.append(client.submit_group(stack[start:start + per_frame]))
                    settles.watch(futures[-1], start)
                    if start == count // 4:
                        router.workers[0].kill()
                results = np.concatenate([future.result(120.0) for future in futures])
            report = router.metrics.report()
        finally:
            server.shutdown()
    assert results.shape[0] == count
    for index in range(count):
        assert max_abs_output_diff(results[index], direct[index % len(images)]) < 1e-5
    cluster = report["cluster"]
    assert cluster["restarts"] >= 1 and cluster["failed"] == 0
    assert cluster["redispatched"] >= 1
    assert settles.counts == {index: 1 for index in range(count)}
    # Completions count images, whatever unit they travelled in.
    assert cluster["completed"] == count


class SettleCounter:
    """Run callbacks counting how often each request id settled."""

    def __init__(self):
        self.counts = {}
        self.lock = threading.Lock()

    def watch(self, future, first_id):
        def on_run(settled, start, stop, outputs, error):
            with self.lock:
                for index in range(first_id + start, first_id + stop):
                    self.counts[index] = self.counts.get(index, 0) + 1

        future.add_run_callback(on_run)


# ------------------------------------------------------------- bursts are views
class BatcherTarget:
    """InferenceTarget over a bare DynamicBatcher that keeps what it was given."""

    def __init__(self, max_batch_size):
        self.groups, self.batches = [], []
        self.batcher = DynamicBatcher(
            self.run, BatchPolicy(max_batch_size=max_batch_size))

    def run(self, batch):
        self.batches.append(batch)
        return batch.sum(axis=(1, 2, 3)).reshape(-1, 1)

    def submit_group(self, images, **kwargs):
        self.groups.append(images)
        return self.batcher.submit_group(images, **kwargs)

    def stats(self):
        return {}


@pytest.mark.parametrize("side, owner_type", [(16, bytes), (64, bytearray)])
def test_micro_batches_of_a_burst_are_views_of_the_received_frame(side, owner_type):
    """Socket to GEMM without a copy: the frame gets memory of its own (cut out
    of the read chunk, or -- larger than the chunk -- the buffer it was received
    into), the burst is a view of it, and each micro-batch is a slice of that."""
    target = BatcherTarget(max_batch_size=4)
    server = start_gateway(target)
    try:
        stack = np.random.default_rng(5).standard_normal((8, 3, side, side)).astype(np.float32)
        with GatewayClient(server.host, server.port) as client:
            out = client.submit_group(stack).result(30.0)
        np.testing.assert_allclose(out.ravel(), stack.sum(axis=(1, 2, 3)), rtol=1e-4)
    finally:
        server.shutdown()
        target.batcher.shutdown(10.0)
    (received,) = target.groups
    assert not received.flags.writeable and not received.flags.owndata
    assert isinstance(buffer_owner(received), owner_type)
    assert [len(batch) for batch in target.batches] == [4, 4]
    for batch in target.batches:
        assert np.shares_memory(batch, received)
        assert buffer_owner(batch) is buffer_owner(received)


# ---------------------------------------------------------------------- ordering
class TestCoalescedReplies:
    def test_burst_keeps_order_and_inflight_accounting(self, monkeypatch):
        limit = 8
        target = CapturingTarget()
        server = start_gateway(target, max_inflight_per_client=limit)
        drains = []
        real_drain = _Connection._drain
        monkeypatch.setattr(_Connection, "_drain",
                            lambda conn: (drains.append(1), real_drain(conn))[1])
        image = np.ones((3, 4, 4), dtype=np.float32)
        try:
            with socket.create_connection((server.host, server.port), timeout=10.0) as sock:
                sock.settimeout(10.0)
                # One write, limit + 4 requests: exactly `limit` are admitted.
                sock.sendall(b"".join(framed_infer(i, image * i) for i in range(limit + 4)))
                rejected = [read_reply(sock) for _ in range(4)]
                assert [r.meta["id"] for r in rejected] == list(range(limit, limit + 4))
                assert {r.meta["code"] for r in rejected} == {"admission_rejected"}
                assert target.count() == limit
                (conn,) = server._connections
                assert conn.inflight == limit

                # Park the loop, resolve everything, release: one wake-up, one
                # write, replies in resolution order.
                gate = threading.Event()
                server._loop.call_soon_threadsafe(gate.wait, 10.0)
                del drains[:]
                order = [5, 0, 7, 2, 1, 6, 3, 4]
                for index in order:
                    target.answer(target.futures[index], target.images[index])
                gate.set()
                replies = [read_reply(sock) for _ in range(limit)]
                assert [r.meta["id"] for r in replies] == order
                for reply in replies:
                    assert reply.arrays[0].item() == 48.0 * reply.meta["id"]
                assert len(drains) == 1
                assert conn.inflight == 0

                # Every slot is free again -- and only `limit` of them.
                sock.sendall(b"".join(framed_infer(100 + i, image) for i in range(limit + 1)))
                assert read_reply(sock).meta["code"] == "admission_rejected"
                assert target.count() == 2 * limit
        finally:
            server.shutdown()
