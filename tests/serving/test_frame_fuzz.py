"""Frame-level fuzz of the channel and gateway decoders.

First instalment of ROADMAP item 5's decoder fuzzing: whatever bytes arrive,
``decode_frame`` answers with a ``Message`` whose arrays lie inside the frame
or with ``ValueError``; the pipe turns that into ``ChannelClosedError`` and the
gateway into a ``bad_request`` error frame (or, after an oversized prefix, an
answer and a hang-up) -- never a hang, never a dead loop thread.  And however a
stream is cut into reads, :class:`FrameSplitter` yields the same frames.

At the router-worker boundary a torn frame -- the real ``infer`` frame the
parent writes, or the real ``result`` frame a child writes, cut inside its
length prefix, its header or its arrays -- reads as ``ChannelClosedError``
whether the writer died at that byte or its stream goes on, and the parent
handle treats it as the worker's death.
"""

import json
import multiprocessing
import os
import socket
import struct
import threading
import time
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline.spec import GatewaySpec
from repro.serving.batcher import InferenceFuture
from repro.obs.tracing import TraceContext
from repro.serving.cluster.channel import (
    ArrayChannel,
    ChannelClosedError,
    FrameSplitter,
    FrameTooLargeError,
    decode_frame,
    encode_frame,
    frame_buffers,
)
from repro.serving import service as service_module
from repro.serving.cluster.worker import (
    WorkerProcess,
    _PendingRequest,
    _reply_frame,
    _worker_main,
)
from repro.serving.gateway import GatewayClient, GatewayServer
from repro.serving.metrics import GatewayMetrics

PREFIX = struct.Struct("!I")

DTYPES = ("<f4", "<f8", "<i8", "|u1")


@st.composite
def messages(draw):
    kind = draw(st.sampled_from(["infer", "result", "error", "stats"]))
    meta = draw(st.dictionaries(st.text(max_size=6),
                                st.one_of(st.integers(-2**40, 2**40), st.text(max_size=8),
                                          st.none(), st.booleans()),
                                max_size=3))
    arrays = []
    for _ in range(draw(st.integers(0, 3))):
        shape = tuple(draw(st.lists(st.integers(0, 5), max_size=3)))
        dtype = np.dtype(draw(st.sampled_from(DTYPES)))
        seed = draw(st.integers(0, 2**16))
        values = np.random.default_rng(seed).integers(0, 200, size=shape)
        arrays.append(values.astype(dtype))
    return kind, meta, arrays


def framed(payload: bytes) -> bytes:
    return PREFIX.pack(len(payload)) + payload


def pump(splitter: FrameSplitter, stream: bytes, cuts):
    """Feed ``stream`` to the splitter, one read per cut; return the frames as bytes."""
    frames, position = [], 0
    for cut in sorted(set(cuts)) + [len(stream)]:
        while position < cut:
            buffer = splitter.buffer()
            assert len(buffer) > 0
            count = min(len(buffer), cut - position)
            buffer[:count] = stream[position:position + count]
            position += count
            frames.extend(bytes(frame) for frame in splitter.feed(count))
    return frames


def assert_same_message(message, expected):
    kind, meta, arrays = expected
    assert message.kind == kind
    assert message.meta == meta
    assert len(message.arrays) == len(arrays)
    for got, want in zip(message.arrays, arrays):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------- splitter
class TestFrameSplitter:
    @settings(max_examples=150, deadline=None)
    @given(batch=st.lists(messages(), min_size=1, max_size=6),
           chunk=st.integers(8, 512), data=st.data())
    def test_any_cut_of_the_stream_yields_the_same_messages(self, batch, chunk, data):
        """Cut at arbitrary byte boundaries, a chunk smaller or larger than
        the frames (so the in-place large-frame path runs too)."""
        payloads = [encode_frame(*message) for message in batch]
        stream = b"".join(framed(payload) for payload in payloads)
        cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=12))
        frames = pump(FrameSplitter(chunk=chunk), stream, cuts)
        assert frames == payloads
        for frame, message in zip(frames, batch):
            assert_same_message(decode_frame(frame), message)

    @settings(max_examples=50, deadline=None)
    @given(batch=st.lists(messages(), min_size=2, max_size=20))
    def test_many_frames_in_one_read(self, batch):
        payloads = [encode_frame(*message) for message in batch]
        stream = b"".join(framed(payload) for payload in payloads)
        assert pump(FrameSplitter(chunk=len(stream) + 16), stream, []) == payloads

    def test_frames_before_an_oversized_prefix_are_still_yielded(self):
        good = encode_frame("stats", {"id": 1})
        splitter = FrameSplitter(max_frame=64)
        stream = framed(good) + PREFIX.pack(65) + b"x" * 10
        splitter.buffer()[:len(stream)] = stream
        feed = splitter.feed(len(stream))
        assert bytes(next(feed)) == good
        with pytest.raises(FrameTooLargeError):
            next(feed)

    def test_oversized_prefix_is_refused_before_any_payload_is_read(self):
        splitter = FrameSplitter(max_frame=1024, chunk=64)
        splitter.buffer()[:4] = PREFIX.pack(0xFFFFFFFF)
        with pytest.raises(FrameTooLargeError):
            list(splitter.feed(4))


# ------------------------------------------------------------------- decode_frame
VALID = encode_frame("infer", {"id": 3, "priority": "normal"},
                     [np.arange(6, dtype=np.float32).reshape(2, 3),
                      np.arange(4, dtype=np.int64)])


def with_header(header, body: bytes = b"", header_len=None) -> bytes:
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    return PREFIX.pack(len(raw) if header_len is None else header_len) + raw + body


def array_header(dtype="<f4", shape=(2,)):
    return {"kind": "infer", "meta": {"id": 1},
            "arrays": [{"dtype": dtype, "shape": list(shape)}]}


HOSTILE = {
    "empty": b"",
    "short prefix": b"\x00\x00",
    "header_len past the frame": with_header(array_header(), b"\0" * 8, header_len=10_000),
    "header_len huge": with_header(array_header(), b"\0" * 8, header_len=0xFFFFFFFF),
    "not json": with_header(b"{nope"),
    "not utf-8": with_header(b"\xff\xfe\x00"),
    "json list": with_header([1, 2, 3]),
    "deep json": with_header(b"[" * 100_000),
    "missing kind": with_header({"meta": {}, "arrays": []}),
    "kind not a string": with_header({"kind": 7, "meta": {}, "arrays": []}),
    "meta not a dict": with_header({"kind": "infer", "meta": [1], "arrays": []}),
    "arrays not a list": with_header({"kind": "infer", "meta": {}, "arrays": 5}),
    "spec not a dict": with_header({"kind": "infer", "meta": {}, "arrays": [3]}),
    "negative dim": with_header(array_header(shape=(-1, 2)), b"\0" * 8),
    "negative dims cancel": with_header(array_header(shape=(-1, -2)), b"\0" * 8),
    "huge dim": with_header(array_header(shape=(2**62, 2**62)), b"\0" * 8),
    "huge dim times zero": with_header(array_header(shape=(0, 10**30))),
    "float dim": with_header(array_header(shape=(2.0,)), b"\0" * 8),
    "bool dim": with_header(array_header(shape=(True, 2)), b"\0" * 8),
    "string shape": with_header({"kind": "infer", "meta": {}, "arrays": [
        {"dtype": "<f4", "shape": "22"}]}, b"\0" * 8),
    "unknown dtype": with_header(array_header(dtype="garbage"), b"\0" * 8),
    "object dtype": with_header(array_header(dtype="|O"), b"\0" * 16),
    "zero-size dtype": with_header(array_header(dtype="|S0"), b""),
    "zero-size dtype, huge dims": with_header(array_header(dtype="<U0", shape=(2**32, 2**32))),
    "dtype not a string": with_header(array_header(dtype=["<f4", "<i4"]), b"\0" * 8),
    "array past the frame": with_header(array_header(shape=(3,)), b"\0" * 8),
    "trailing bytes": with_header(array_header(shape=(2,)), b"\0" * 9),
    "trailing bytes, no arrays": with_header({"kind": "stats", "meta": {}, "arrays": []}, b"x"),
    "arrays declared, body missing": VALID[:4 + PREFIX.unpack_from(VALID)[0]],
}


class TestDecodeFrame:
    def test_truncation_at_every_offset_is_a_value_error(self):
        assert decode_frame(VALID).kind == "infer"
        for cut in range(len(VALID)):
            with pytest.raises(ValueError):
                decode_frame(VALID[:cut])
        with pytest.raises(ValueError):
            decode_frame(VALID + b"\0")

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_frame_is_a_value_error(self, name):
        with pytest.raises(ValueError):
            decode_frame(HOSTILE[name])

    @settings(max_examples=300, deadline=None)
    @given(frame=st.binary(max_size=96))
    def test_random_bytes_decode_or_raise_value_error(self, frame):
        try:
            message = decode_frame(frame)
        except ValueError:
            return
        assert sum(array.nbytes for array in message.arrays) <= len(frame)

    @settings(max_examples=300, deadline=None)
    @given(dtype=st.one_of(st.sampled_from(DTYPES + ("garbage", "|O", "<U0", "<f4,<i4")),
                           st.text(max_size=4), st.integers(), st.none()),
           shape=st.lists(st.one_of(st.integers(-2**70, 2**70), st.integers(-2, 6),
                                    st.floats(allow_nan=False), st.text(max_size=2)),
                          max_size=4),
           body=st.binary(max_size=64), slack=st.integers(-8, 8))
    def test_header_is_checked_against_the_frame(self, dtype, shape, body, slack):
        """A view is never built past the end of the frame, whatever the header says."""
        raw = json.dumps({"kind": "infer", "meta": {},
                          "arrays": [{"dtype": dtype, "shape": shape}]}).encode()
        header_len = max(0, len(raw) + slack)
        frame = PREFIX.pack(header_len) + raw + body
        try:
            message = decode_frame(frame)
        except ValueError:
            return
        (array,) = message.arrays
        assert array.nbytes == len(frame) - 4 - header_len
        assert list(array.shape) == shape


# ------------------------------------------------------------------------ channel
def raw_pipe():
    near, far = multiprocessing.Pipe(duplex=True)
    return near, ArrayChannel(far)


class TestChannelDecoder:
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_frame_closes_the_channel(self, name):
        near, channel = raw_pipe()
        try:
            os.write(near.fileno(), framed(HOSTILE[name]))
            with pytest.raises(ChannelClosedError):
                channel.recv()
        finally:
            near.close()
            channel.close()

    def test_stream_truncated_at_every_offset_closes_the_channel(self):
        stream = framed(VALID)
        for cut in range(len(stream)):
            near, channel = raw_pipe()
            try:
                os.write(near.fileno(), stream[:cut])
                near.close()               # the sender died mid-write
                with pytest.raises(ChannelClosedError):
                    channel.recv()
            finally:
                channel.close()

    def test_good_frames_ahead_of_a_bad_one_are_delivered(self):
        near, channel = raw_pipe()
        try:
            os.write(near.fileno(), framed(VALID) + framed(HOSTILE["negative dim"]))
            assert channel.recv().meta["id"] == 3
            with pytest.raises(ChannelClosedError):
                channel.recv()
        finally:
            near.close()
            channel.close()

    @settings(max_examples=50, deadline=None)
    @given(batch=st.lists(messages(), min_size=1, max_size=8))
    def test_burst_written_at_once_is_received_in_order(self, batch):
        near, channel = raw_pipe()
        try:
            os.write(near.fileno(), b"".join(framed(encode_frame(*m)) for m in batch))
            for message in batch:
                assert_same_message(channel.recv(), message)
        finally:
            near.close()
            channel.close()


# ------------------------------------------- torn frames at the router-worker boundary
class Recorder:
    """Stands in for a worker's channel: keeps what ``send`` was given."""

    def __init__(self):
        self.sent = []

    def send(self, kind, meta=None, arrays=()):
        self.sent.append((kind, meta, arrays))


@lru_cache(maxsize=None)
def parent_infer_frame() -> bytes:
    """The bytes :meth:`WorkerProcess.dispatch` writes for a traced 3-image
    burst with a deadline -- captured from the real method (once: trace ids
    and the remaining budget differ from call to call)."""
    handle = WorkerProcess("worker-0", "unused.npz", heartbeat_interval=0.25)
    handle.channel, handle._accepting = Recorder(), True
    images = np.arange(3 * 3 * 4 * 4, dtype=np.float32).reshape(3, 3, 4, 4)
    traces = [TraceContext() for _ in range(3)]
    request = _PendingRequest(InferenceFuture(3), 0, images, traces, "high",
                              time.perf_counter() + 60.0)
    assert handle.dispatch(request) is None
    ((kind, meta, arrays),) = handle.channel.sent
    assert kind == "infer" and {"id", "priority", "deadline_ms", "trace"} <= set(meta)
    return b"".join(bytes(buffer) for buffer in frame_buffers(kind, meta, arrays))


@lru_cache(maxsize=None)
def child_result_frame() -> bytes:
    """The bytes a child's responder writes for a run of 3 answered images."""
    outputs = (np.arange(12, dtype=np.float32).reshape(3, 4),
               {"boxes": np.ones((3, 2, 4), dtype=np.float32)})
    kind, meta, arrays = _reply_frame(7, 3, outputs, None, [TraceContext() for _ in range(3)])
    assert kind == "result" and meta["count"] == 3
    return b"".join(bytes(buffer) for buffer in frame_buffers(kind, meta, arrays))


#: direction -> (the frame, does the parent write it)
DIRECTIONS = {"parent -> child infer": (parent_infer_frame, True),
              "child -> parent result": (child_result_frame, False)}


def region(frame: bytes, where: str):
    """``[first, last]`` cut positions strictly inside a part of one frame."""
    header_end = 2 * PREFIX.size + PREFIX.unpack_from(frame, PREFIX.size)[0]
    return {"prefix": (1, PREFIX.size - 1),
            "header": (PREFIX.size + 1, header_end - 1),
            "arrays": (header_end + 1, len(frame) - 1)}[where]


def torn(frame: bytes, cut: int, ending: str) -> bytes:
    """``frame`` cut at byte ``cut``: as a writer that died there left it, or
    with its prefix announcing only what is left, as a frame torn mid-write
    leaves a stream that goes on."""
    if ending == "writer died":
        return frame[:cut]
    payload = frame[PREFIX.size:cut]
    return PREFIX.pack(len(payload)) + payload


TORN_CASES = [(direction, where, ending)
              for direction in sorted(DIRECTIONS)
              for where in ("prefix", "header", "arrays")
              for ending in ("writer died", "stream goes on")
              if not (where == "prefix" and ending == "stream goes on")]


class TestTornFrames:
    @pytest.mark.parametrize("direction,where,ending", TORN_CASES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_a_torn_frame_reads_as_a_closed_channel(self, direction, where, ending, data):
        build, parent_writes = DIRECTIONS[direction]
        frame = build()
        cut = data.draw(st.integers(*region(frame, where)), label="cut")
        parent_end, child_end = multiprocessing.Pipe(duplex=True)
        writer, reader = (parent_end, child_end) if parent_writes else (child_end, parent_end)
        channel = ArrayChannel(reader)
        try:
            os.write(writer.fileno(), torn(frame, cut, ending))
            if ending == "writer died":
                writer.close()
            with pytest.raises(ChannelClosedError):
                channel.recv()
        finally:
            writer.close()
            channel.close()

    @pytest.mark.parametrize("where,ending", [case[1:] for case in TORN_CASES
                                              if case[0] == "child -> parent result"])
    def test_a_torn_reply_is_the_workers_death_and_loses_nothing(self, where, ending):
        """The real receiver thread reads a torn reply as a dead worker: the
        handle stops accepting, and the burst it owed stays whole in its table
        for the router to re-dispatch -- neither settled nor failed."""
        parent_end, child_end = multiprocessing.Pipe(duplex=True)

        class Child:
            pid = 0

            def is_alive(self):
                return True

        handle = WorkerProcess("worker-0", "unused.npz", heartbeat_interval=0.25)
        handle._launch = lambda: (Child(), ArrayChannel(parent_end))
        handle.start()
        try:
            future = InferenceFuture(3)
            request = _PendingRequest(future, 0, np.zeros((3, 3, 4, 4), dtype=np.float32))
            handle.dispatch(request)
            frame = child_result_frame()
            lo, hi = region(frame, where)
            os.write(child_end.fileno(), torn(frame, (lo + hi) // 2, ending))
            if ending == "writer died":
                child_end.close()
            handle._receiver.join(10.0)
            assert not handle._receiver.is_alive() and not handle.accepting
            assert not future.done()
            (owed,) = handle.take_outstanding()
            assert owed.future is future and (owed.offset, owed.count) == (0, 3)
        finally:
            child_end.close()
            handle.channel.close()

    @pytest.mark.parametrize("where,ending", [case[1:] for case in TORN_CASES
                                              if case[0] == "parent -> child infer"])
    def test_a_torn_request_ends_the_childs_loop_and_drains_it(self, where, ending,
                                                                 monkeypatch):
        """The real child loop reads a torn ``infer`` frame as its parent's
        death: it admits nothing from it, drains its service, and says ``bye``
        if anyone is still listening."""
        services = []

        class Service:
            def __init__(self, artifact_path, policy=None, name=None):
                self.drained = False
                services.append(self)

            def submit_group(self, *args, **kwargs):
                raise AssertionError("a torn frame was admitted")

            def shutdown(self):
                self.drained = True

        monkeypatch.setattr(service_module, "InferenceService", Service)
        parent_end, child_end = multiprocessing.Pipe(duplex=True)
        child = threading.Thread(target=_worker_main, daemon=True, args=(
            child_end, "worker-0", "unused.npz", {"max_batch_size": 4, "queue_capacity": 8}, 0.05))
        child.start()
        parent = ArrayChannel(parent_end)
        try:
            while parent.recv().kind != "ready":
                pass
            frame = parent_infer_frame()
            lo, hi = region(frame, where)
            os.write(parent_end.fileno(), torn(frame, (lo + hi) // 2, ending))
            if ending == "writer died":
                parent_end.close()
            else:
                while parent.recv().kind != "bye":
                    pass
            child.join(10.0)
            assert not child.is_alive()
            assert [service.drained for service in services] == [True]
        finally:
            parent.close()


# ------------------------------------------------------------------------ gateway
class EchoTarget:
    """InferenceTarget stub: resolves at once with the image's sum."""

    def submit(self, image, **kwargs):
        future = InferenceFuture()
        future._resolve(np.array([[image.sum()]], dtype=np.float64))
        return future

    def submit_group(self, images, **kwargs):
        """A burst resolves at once too: one sum per image, as one run."""
        future = InferenceFuture(len(images))
        future._resolve(images.sum(axis=(1, 2, 3), dtype=np.float64).reshape(-1, 1))
        return future

    def stats(self):
        return {}


@pytest.fixture(scope="module")
def echo_gateway():
    server = GatewayServer(EchoTarget(),
                           spec=GatewaySpec(port=0, max_frame_mb=0.25),
                           metrics=GatewayMetrics(register=False)).start()
    yield server
    server.shutdown()


def read_exact(sock, count: int) -> bytes:
    data = b""
    while len(data) < count:
        piece = sock.recv(count - len(data))
        if not piece:
            return data
        data += piece
    return data


def read_reply(sock):
    """One reply frame decoded, or None on EOF (socket timeout = a hang = failure)."""
    head = read_exact(sock, 4)
    if len(head) < 4:
        return None
    (length,) = PREFIX.unpack(head)
    return decode_frame(read_exact(sock, length))


def connect(server):
    sock = socket.create_connection((server.host, server.port), timeout=10.0)
    sock.settimeout(10.0)
    return sock


def assert_still_serving(server):
    assert server._thread.is_alive()
    with GatewayClient(server.host, server.port) as client:
        out = client.submit(np.full((3, 4, 4), 2.0, dtype=np.float32)).result(10.0)
    assert out.item() == 96.0


class TestGatewayDecoder:
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_hostile_frame_is_answered_with_bad_request(self, echo_gateway, name):
        """A well-delimited bad frame costs an error frame, not the connection."""
        with connect(echo_gateway) as sock:
            sock.sendall(framed(HOSTILE[name]) + framed(encode_frame("stats", {"id": 5})))
            reply = read_reply(sock)
            assert reply.kind == "error" and reply.meta["code"] == "bad_request"
            assert reply.meta["id"] is None
            follow_up = read_reply(sock)
            assert follow_up.kind == "stats" and follow_up.meta["id"] == 5
        assert_still_serving(echo_gateway)

    def test_oversized_prefix_is_answered_and_the_connection_closed(self, echo_gateway):
        with connect(echo_gateway) as sock:
            sock.sendall(framed(encode_frame("stats", {"id": 1}))
                         + PREFIX.pack(2**30) + b"\0" * 64)
            assert read_reply(sock).kind == "stats"      # the frame ahead of it
            reply = read_reply(sock)
            assert reply.kind == "error" and reply.meta["code"] == "bad_request"
            assert "max_frame_mb" in reply.meta["error"]
            assert read_reply(sock) is None              # hung up
        assert_still_serving(echo_gateway)

    def test_truncation_at_every_offset(self, echo_gateway):
        """Declared-short frames get bad_request; a stream that ends mid-frame
        gets a clean close -- neither hangs."""
        for cut in range(len(VALID)):
            with connect(echo_gateway) as sock:
                sock.sendall(framed(VALID[:cut]))
                reply = read_reply(sock)
                assert reply.kind == "error" and reply.meta["code"] == "bad_request"
            with connect(echo_gateway) as sock:
                sock.sendall(framed(VALID)[:4 + cut])
                sock.shutdown(socket.SHUT_WR)
                assert read_reply(sock) is None
        assert_still_serving(echo_gateway)

    @settings(max_examples=60, deadline=None)
    @given(junk=st.binary(max_size=200))
    def test_random_payloads_never_hang_the_loop(self, echo_gateway, junk):
        try:
            expected = decode_frame(junk).kind
        except ValueError:
            expected = None
        with connect(echo_gateway) as sock:
            sock.sendall(framed(junk))
            reply = read_reply(sock)
        if expected not in ("infer", "stats"):
            assert reply.kind == "error" and reply.meta["code"] == "bad_request"
        assert echo_gateway._thread.is_alive()

    @settings(max_examples=40, deadline=None)
    @given(batch=st.lists(st.integers(1, 40), min_size=1, max_size=12), data=st.data())
    def test_one_stream_cut_anywhere_gets_the_same_replies(self, echo_gateway, batch, data):
        """Many infer frames, sent in arbitrary pieces: replies match, in order."""
        images = [np.full((1, size, 3), float(size), dtype=np.float32) for size in batch]
        stream = b"".join(
            framed(encode_frame("infer", {"id": index}, [image]))
            for index, image in enumerate(images))
        cuts = sorted(set(data.draw(st.lists(st.integers(0, len(stream)), max_size=6))))
        with connect(echo_gateway) as sock:
            position = 0
            for cut in cuts + [len(stream)]:
                sock.sendall(stream[position:cut])
                position = cut
            for index, image in enumerate(images):
                reply = read_reply(sock)
                assert reply.kind == "result" and reply.meta["id"] == index
                assert reply.arrays[0].item() == float(image.sum())


# ------------------------------------------------------------------- burst frames
def burst_images_of(sizes):
    """One burst per entry of ``sizes``: ``(count, side)`` -> ``(count, 1, side, 3)``,
    every image distinct so a reply can be matched to the image it answers."""
    return [np.arange(count * side * 3, dtype=np.float32).reshape(count, 1, side, 3) + index
            for index, (count, side) in enumerate(sizes)]


def burst_frame(first_id, images, **meta):
    return framed(encode_frame("infer", {"id": first_id, "count": len(images), **meta},
                               [images]))


def read_runs(sock, first_id, count):
    """Reply frames until requests ``[first_id, first_id + count)`` are all answered;
    returns ``{request id: its reply's kind + its own row of the arrays}``."""
    answered = {}
    while len(answered) < count:
        reply = read_reply(sock)
        assert reply is not None, "gateway hung up mid-burst"
        run = reply.meta.get("count", 1)
        for offset in range(run):
            request_id = reply.meta["id"] + offset
            assert first_id <= request_id < first_id + count
            assert request_id not in answered, "a request was answered twice"
            answered[request_id] = (
                reply, reply.arrays[0][offset] if reply.kind == "result" else None)
    return answered


class TestBurstFrames:
    def test_a_list_entry_is_encoded_as_one_stacked_array(self):
        parts = [np.full((2, 3), float(index), dtype=np.float32) for index in range(5)]
        payload = encode_frame("infer", {"id": 7, "count": 5}, [parts])
        assert payload == encode_frame("infer", {"id": 7, "count": 5}, [np.stack(parts)])
        (decoded,) = decode_frame(payload).arrays
        np.testing.assert_array_equal(decoded, np.stack(parts))
        with pytest.raises(ValueError, match="share shape and dtype"):
            encode_frame("infer", {}, [[parts[0], np.zeros((3, 2), dtype=np.float32)]])

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 9)),
                          min_size=1, max_size=6),
           chunk=st.integers(8, 2048), data=st.data())
    def test_any_cut_of_a_burst_stream_yields_the_same_messages(self, sizes, chunk, data):
        """N-image frames through the splitter: in the chunk, across reads, or
        (larger than the chunk) received in place -- same frames either way,
        and a detached frame outlives the chunk's reuse."""
        bursts = burst_images_of(sizes)
        payloads = [encode_frame("infer", {"id": index, "count": len(images)}, [images])
                    for index, images in enumerate(bursts)]
        stream = b"".join(framed(payload) for payload in payloads)
        cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=10))
        assert pump(FrameSplitter(chunk=chunk), stream, cuts) == payloads
        # The receiver's view: detach, then decode -- after later reads too.
        splitter, position, kept = FrameSplitter(chunk=chunk), 0, []
        while position < len(stream):
            buffer = splitter.buffer()
            count = min(len(buffer), len(stream) - position)
            buffer[:count] = stream[position:position + count]
            position += count
            kept.extend(decode_frame(splitter.detach(frame)) for frame in splitter.feed(count))
        for message, images in zip(kept, bursts):
            np.testing.assert_array_equal(message.arrays[0], images)
            assert not message.arrays[0].flags.writeable

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.tuples(st.integers(1, 7), st.integers(1, 6)),
                          min_size=1, max_size=8), data=st.data())
    def test_one_burst_stream_cut_anywhere_gets_the_same_replies(
            self, echo_gateway, sizes, data):
        """Bursts and single images, sent in arbitrary pieces and many per read:
        every request id is answered exactly once, with its own image's reply.
        (At most 56 images: all in flight at once fit max_inflight_per_client.)"""
        bursts = burst_images_of(sizes)
        first_ids, next_id, stream = [], 0, b""
        for images in bursts:
            first_ids.append(next_id)
            if len(images) == 1 and data.draw(st.booleans()):
                stream += framed(encode_frame("infer", {"id": next_id}, [images[0]]))
            else:
                stream += burst_frame(next_id, images)
            next_id += len(images)
        cuts = sorted(set(data.draw(st.lists(st.integers(0, len(stream)), max_size=6))))
        with connect(echo_gateway) as sock:
            position = 0
            for cut in cuts + [len(stream)]:
                sock.sendall(stream[position:cut])
                position = cut
            answered = read_runs(sock, 0, next_id)
        for first_id, images in zip(first_ids, bursts):
            for offset, image in enumerate(images):
                reply, row = answered[first_id + offset]
                assert reply.kind == "result"
                assert row.item() == float(image.sum(dtype=np.float64))

    @pytest.mark.parametrize("count", [0, -1, 2, 4, 2.0, "3", None, True])
    def test_count_that_is_not_the_leading_axis_is_a_bad_request(self, echo_gateway, count):
        images = np.ones((3, 1, 2, 3), dtype=np.float32)
        with connect(echo_gateway) as sock:
            sock.sendall(framed(encode_frame("infer", {"id": 40, "count": count}, [images]))
                         + framed(encode_frame("stats", {"id": 5})))
            reply = read_reply(sock)
            assert reply.kind == "error" and reply.meta["code"] == "bad_request"
            assert reply.meta["id"] == 40 and "count" in reply.meta["error"]
            assert read_reply(sock).kind == "stats"          # the connection still serves
        assert_still_serving(echo_gateway)

    def test_a_made_up_count_is_not_echoed_or_counted(self, echo_gateway):
        """The refusal covers the images the frame carries, not the number the
        header claims: one bad frame cannot add 10**12 to the ledger."""
        before = sum(echo_gateway.metrics.report()["requests"]["rejected"].values())
        with connect(echo_gateway) as sock:
            sock.sendall(framed(encode_frame(
                "infer", {"id": 7, "count": 10**12}, [np.ones((3, 1, 2, 3), dtype=np.float32)])))
            reply = read_reply(sock)
            assert reply.kind == "error" and reply.meta["code"] == "bad_request"
            assert reply.meta["id"] == 7 and reply.meta["count"] == 3
            sock.sendall(framed(encode_frame(
                "infer", {"id": 8, "count": 10**12}, [np.ones((1, 2, 3), dtype=np.float32)])))
            reply = read_reply(sock)
            assert reply.meta["code"] == "bad_request" and "count" not in reply.meta
        after = sum(echo_gateway.metrics.report()["requests"]["rejected"].values())
        assert after - before == 4
        assert_still_serving(echo_gateway)

    def test_a_lone_image_may_not_announce_a_burst(self, echo_gateway):
        with connect(echo_gateway) as sock:
            sock.sendall(framed(encode_frame(
                "infer", {"id": 1, "count": 2}, [np.ones((1, 2, 3), dtype=np.float32)])))
            reply = read_reply(sock)
            assert reply.kind == "error" and reply.meta["code"] == "bad_request"
            # ... while count=1, or a one-image stack without a count, is just a request.
            sock.sendall(framed(encode_frame(
                "infer", {"id": 2, "count": 1}, [np.ones((1, 2, 3), dtype=np.float32)])))
            assert read_reply(sock).kind == "result"
            sock.sendall(framed(encode_frame(
                "infer", {"id": 3}, [np.ones((1, 1, 2, 3), dtype=np.float32)])))
            assert read_reply(sock).kind == "result"
        assert_still_serving(echo_gateway)

    def test_a_burst_needs_an_integer_first_id(self, echo_gateway):
        images = np.ones((2, 1, 2, 3), dtype=np.float32)
        with connect(echo_gateway) as sock:
            for bad_id in ("abc", None, 1.5):
                sock.sendall(framed(encode_frame("infer", {"id": bad_id, "count": 2}, [images])))
                reply = read_reply(sock)
                assert reply.kind == "error" and reply.meta["code"] == "bad_request"
                assert reply.meta["id"] == bad_id and reply.meta["count"] == 2
        assert_still_serving(echo_gateway)

    def test_an_oversize_burst_is_a_bad_request_and_the_connection_serves_on(self):
        from repro.serving.cluster.channel import BURST_BYTES, burst_images

        server = GatewayServer(EchoTarget(),
                               spec=GatewaySpec(port=0, max_frame_mb=8.0),
                               metrics=GatewayMetrics(register=False)).start()
        try:
            side = 128                                     # 3 x 128 x 128 x 4 = 192 KiB an image
            fits = burst_images(3 * side * side * 4)
            assert fits * 3 * side * side * 4 <= BURST_BYTES
            too_many = BURST_BYTES // (3 * side * side * 4) + 1
            with connect(server) as sock:
                sock.sendall(burst_frame(100, np.ones((too_many, 3, side, side), np.float32)))
                reply = read_reply(sock)
                assert reply.kind == "error" and reply.meta["code"] == "bad_request"
                assert reply.meta["id"] == 100 and reply.meta["count"] == too_many
                assert "burst limit" in reply.meta["error"]
                # The same connection takes what a client following the rule sends ...
                sock.sendall(burst_frame(200, np.ones((fits, 3, side, side), np.float32)))
                answered = read_runs(sock, 200, fits)
                assert all(reply.kind == "result" for reply, _ in answered.values())
                # ... and one image larger than a whole burst still travels alone.
                big = np.ones((3, 320, 320), dtype=np.float32)
                assert big.nbytes > BURST_BYTES
                sock.sendall(framed(encode_frame("infer", {"id": 300}, [big])))
                assert read_reply(sock).kind == "result"
        finally:
            server.shutdown()
