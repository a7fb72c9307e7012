"""The network front door: length-prefixed array frames over TCP, with SLOs.

:class:`GatewayServer` turns any in-process :class:`~repro.serving.api.InferenceTarget`
(an :class:`~repro.serving.service.InferenceService` or a cluster
:class:`~repro.serving.cluster.router.Router`) into a socket server; the
matching :class:`GatewayClient` is itself an ``InferenceTarget``, so a load
generator pointed at ``host:port`` runs the exact code it runs in-process.

Wire format
-----------
One TCP frame is::

    [4-byte !I payload length][ArrayChannel payload]

where the payload is exactly the pickle-free format the cluster pipe already
speaks (:func:`repro.serving.cluster.channel.encode_frame`): a 4-byte JSON
header length, the JSON header (``kind`` / ``meta`` / array dtypes+shapes) and
the raw contiguous array bytes.  Client → server kinds are ``infer``
(``meta = {id, count?, priority?, deadline_ms?}`` plus one array: a
``(C, H, W)`` image, or an ``(N, C, H, W)`` burst whose requests take the ids
``id .. id + N - 1`` and share the rest of the header) and ``stats``
(``meta = {id}``); no header field selects a model — the server answers
with whatever its target serves.  Server → client kinds are ``result``
(``meta = {id, count?, treedef}`` plus the flattened output arrays, batched
over the ``count`` consecutive requests they answer — one frame per
micro-batch that ran, not one per image), ``error``
(``meta = {id, count?, code, error}``) and ``stats`` (``meta = {id, report}``).
``docs/gateway.md`` documents the full protocol.

Scheduling semantics
--------------------
The gateway enforces **per-client admission control** — a token bucket
(``rate_limit_rps`` / ``burst``) plus a bounded in-flight count per
connection, both charged per image — before a request ever reaches the
scheduler; rejections come back as typed error frames (stable codes from
:mod:`repro.serving.errors`), not silent queueing.  ``priority`` and ``deadline_ms`` ride the frame header
into the batcher's priority queue: an infeasible deadline is rejected up
front (``deadline_exceeded``), and a request that expires while queued is
dropped with the same code — never executed.  A class without an explicit
deadline inherits its SLO from :class:`repro.pipeline.spec.GatewaySpec.slo_ms`.

Observability
-------------
When tracing is armed each request is minted a
:class:`~repro.obs.tracing.TraceContext` and the gateway records
``gateway-accept`` / ``gateway-parse`` / ``gateway-admission`` /
``gateway-queue`` / ``gateway-dispatch`` spans around the downstream spans,
so one trace covers socket to GEMM.  :class:`~repro.serving.metrics.GatewayMetrics`
counts accepts/rejects/expiries per priority class.

Threading model
---------------
The server runs one asyncio loop in a daemon thread; each connection is a
:class:`asyncio.BufferedProtocol` whose state is touched only on that loop,
except its *outbox*.  A read lands in the connection's
:class:`~repro.serving.cluster.channel.FrameSplitter` chunk and one callback
handles every frame it completes: the frame gets memory of its own (cut out
of the chunk, or — a burst — the buffer it was received into) and the request
images are decoded as a **read-only view** of it, which is what
``target.submit_group`` — and, behind a router, the pipe to the worker —
receives; nothing between the socket and the worker copies the pixels again.
Futures settle run by run on batcher / cluster-receiver threads: the settling
thread encodes the response header there, off the loop, appends
``[prefix + header, array, ...]`` to the connection's outbox and wakes the
loop only if no wake-up is already pending, so a burst of responses costs
one self-pipe write and one ``transport.writelines``.  A slow client stalls
only itself: while its transport is paused its outbox holds, and because
``inflight`` falls at the flush, admission control pushes back on it.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.obs.tracing import TraceContext, mint_traces
from repro.pipeline.spec import GatewaySpec
from repro.serving.api import DEFAULT_PRIORITY, priority_index
from repro.serving.batcher import (
    Images,
    InferenceFuture,
    as_images,
    one_image,
    submit_bursts,
)
from repro.serving.cluster.channel import (
    BURST_BYTES,
    FrameSplitter,
    FrameTooLargeError,
    burst_images,
    decode_frame,
    flatten_arrays,
    frame_buffers,
    send_buffers,
    unflatten_arrays,
)
from repro.serving.errors import (
    AdmissionRejectedError,
    BadRequestError,
    DeadlineExceededError,
    GatewayDisconnectedError,
    ServiceClosedError,
    ServingError,
    error_code,
    error_from_wire,
)
from repro.serving.metrics import GatewayMetrics
from repro.utils.logging import get_logger

__all__ = ["GatewayClient", "GatewayServer"]

logger = get_logger("serving.gateway")

#: Frames a client's ``submit_many`` keeps unanswered: at 16 images of 3x64x64
#: a frame, the 64 requests a default gateway lets one client have in flight
#: (``GatewaySpec.max_inflight_per_client``).
BURSTS_IN_FLIGHT = 4


def _run_id(first_id: Any, start: int) -> Any:
    """The id of request ``start`` of the frame whose first id is ``first_id``.

    A lone request's id is whatever the client sent, echoed; only a burst's
    (checked to be an integer) is counted from.
    """
    return first_id + start if start else first_id


class _TokenBucket:
    """Per-connection rate limiter; loop-thread only, so no lock."""

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = float(rate)
        self.tokens = float(burst)
        self.burst = float(burst)
        self._last = time.perf_counter()

    def take(self, count: int) -> int:
        """Take up to ``count`` tokens; refills at ``rate`` tokens/second.

        Returns how many were there to take: the images of a burst are
        admitted one token each, in order, like as many single requests.
        """
        if self.rate <= 0:
            return count             # rate limiting disabled
        now = time.perf_counter()
        self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
        self._last = now
        granted = min(count, int(self.tokens))
        self.tokens -= granted
        return granted


class _Connection(asyncio.BufferedProtocol):
    """One client connection: protocol callbacks on the loop, outbox from any thread."""

    # reprolint lock-discipline contract: resolving threads append to the
    # outbox, the loop thread drains it.  Everything else is loop-thread only.
    _guarded_by_ = {
        "_outbox": "_outbox_lock",
        "_finished": "_outbox_lock",
        "_wake_pending": "_outbox_lock",
    }

    def __init__(self, server: "GatewayServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.splitter = FrameSplitter(server._max_frame)
        self.bucket = _TokenBucket(server.spec.rate_limit_rps, server.spec.burst)
        self.inflight = 0
        self.accepted_wall = time.time()
        self.accept_recorded = False
        self.peer = "?"
        self._outbox_lock = threading.Lock()
        #: Response buffers in wire order, waiting for the next flush.
        self._outbox: List[Any] = []
        #: Infer requests they answer; each frees an in-flight slot at the flush.
        self._finished = 0
        self._wake_pending = False
        self._writable = True

    # ------------------------------------------------------------------ protocol
    def connection_made(self, transport) -> None:
        self.transport = transport
        peer = transport.get_extra_info("peername")
        self.peer = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else str(peer)
        self.server._connections.add(self)
        self.server.metrics.connection_opened()
        if self.server._closed:
            transport.abort()        # accepted while the server was shutting down

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self.server._connections.discard(self)
        self.server.metrics.connection_closed()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.splitter.buffer()

    def buffer_updated(self, nbytes: int) -> None:
        """Handle every frame the read completed (one callback per read)."""
        parse_started = time.time()
        try:
            for frame in self.splitter.feed(nbytes):
                # detach: the request's own memory.  Its images are a view of
                # it, so what an unresolved request keeps alive is one frame,
                # and the splitter's chunk is free for the next read.
                self.server._handle_frame(
                    self, self.splitter.detach(frame), parse_started)
        except FrameTooLargeError as error:
            # Cannot resync mid-stream after an oversized frame: answer and
            # hang up (close() still flushes the answer).
            self.server._send_error(self, None, BadRequestError(
                f"{error} (max_frame_mb={self.server.spec.max_frame_mb})"))
            self._drain()
            self.transport.close()

    def pause_writing(self) -> None:
        self._writable = False

    def resume_writing(self) -> None:
        self._writable = True
        self._drain()

    # ------------------------------------------------------------------ outbox
    def respond(self, buffers: List[Any], finished: int = 0) -> None:
        """Queue one response frame (any thread); wake the loop if nobody has.

        ``finished`` is how many admitted requests the frame answers.
        """
        with self._outbox_lock:
            self._outbox.extend(buffers)
            self._finished += finished
            wake = not self._wake_pending
            self._wake_pending = True
        if wake:
            try:
                self.server._loop.call_soon_threadsafe(self._drain)
            except RuntimeError:  # pragma: no cover - loop shut down first
                pass

    def _drain(self) -> None:
        """Write the whole outbox with one ``writelines`` (loop thread)."""
        closing = self.transport.is_closing()
        if not (self._writable or closing):
            # resume_writing() drains; _wake_pending stays set meanwhile, so
            # resolving threads do not wake the loop for a paused client.
            return
        with self._outbox_lock:
            buffers, self._outbox = self._outbox, []
            finished, self._finished = self._finished, 0
            self._wake_pending = False
        self.inflight -= finished
        if buffers and not closing:
            self.transport.writelines(buffers)


class GatewayServer:
    """Serve an :class:`~repro.serving.api.InferenceTarget` over TCP.

    Parameters
    ----------
    target:
        What to serve: any ``InferenceTarget`` (service or router).  The
        gateway does **not** own it — callers shut the target down themselves
        after :meth:`shutdown` returns.
    spec:
        The :class:`~repro.pipeline.spec.GatewaySpec` (host/port/limits/SLOs).
        ``port=0`` binds an ephemeral port; read :attr:`port` after
        :meth:`start`.
    metrics:
        Optional shared :class:`~repro.serving.metrics.GatewayMetrics`.
    """

    def __init__(self, target: Any, spec: Optional[GatewaySpec] = None,
                 metrics: Optional[GatewayMetrics] = None,
                 name: str = "gateway") -> None:
        self.target = target
        self.spec = spec or GatewaySpec()
        self.metrics = metrics or GatewayMetrics(name=name)
        self.name = name
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        #: Open connections (loop thread only); aborted on shutdown.
        self._connections: Set[_Connection] = set()
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._closed = False
        self._startup_error: Optional[BaseException] = None
        self._bound: Tuple[str, int] = (self.spec.host, self.spec.port)
        self._max_frame = int(self.spec.max_frame_mb * 1024 * 1024)

    # ------------------------------------------------------------------ lifecycle
    def start(self, timeout: float = 10.0) -> "GatewayServer":
        """Bind and serve in a background thread; blocks until listening."""
        if self._thread is not None:
            raise RuntimeError("GatewayServer.start() called twice")
        self._thread = threading.Thread(
            target=self._run_loop, name=f"repro-{self.name}", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError(f"gateway did not bind within {timeout}s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"gateway failed to bind {self.spec.host}:{self.spec.port}"
            ) from self._startup_error
        return self

    @property
    def host(self) -> str:
        return self._bound[0]

    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0`` ephemeral binds)."""
        return self._bound[1]

    @property
    def address(self) -> str:
        return f"{self._bound[0]}:{self._bound[1]}"

    def shutdown(self, timeout: Optional[float] = 10.0) -> None:
        """Stop accepting, close every connection, join the loop (idempotent).

        The downstream ``target`` is left running — the gateway is a front
        door, not the owner of the model.
        """
        if self._closed or self._loop is None:
            self._closed = True
            return
        self._closed = True
        loop = self._loop
        try:
            loop.call_soon_threadsafe(self._shutdown_on_loop)
        except RuntimeError:  # pragma: no cover - loop already dead
            pass
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "GatewayServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ loop thread
    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                self._server = loop.run_until_complete(loop.create_server(
                    lambda: _Connection(self), self.spec.host, self.spec.port))
            except OSError as error:
                self._startup_error = error
                return
            sockname = self._server.sockets[0].getsockname()
            self._bound = (sockname[0], sockname[1])
            logger.info("gateway %s listening on %s", self.name, self.address)
            self._started.set()
            loop.run_forever()
        finally:
            self._started.set()       # release start() when the bind failed too
            try:
                # A connection still being accepted lives in a task, not in
                # _connections: cancelling it closes its transport.  The run
                # also delivers the connection_lost callbacks of the aborts.
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            finally:
                loop.close()

    def _shutdown_on_loop(self) -> None:
        if self._server is not None:
            self._server.close()
        for conn in list(self._connections):
            conn.transport.abort()
        # After the aborts' connection_lost callbacks, which are already queued.
        self._loop.call_soon(self._loop.stop)

    # ------------------------------------------------------------------ frames
    def _handle_frame(self, conn: _Connection, payload: bytes,
                      parse_started: float) -> None:
        try:
            message = decode_frame(payload)
        except ValueError as error:
            self._send_error(conn, None,
                             BadRequestError(f"malformed frame: {error}"))
            return
        request_id = message.meta.get("id")
        if message.kind == "infer":
            self._handle_infer(conn, request_id, message, parse_started)
        elif message.kind == "stats":
            self._handle_stats(conn, request_id)
        else:
            self._send_error(conn, request_id,
                             BadRequestError(f"unknown frame kind {message.kind!r}"))

    def _handle_stats(self, conn: _Connection, request_id: Any) -> None:
        try:
            report = {"gateway": self.metrics.report(),
                      "target": self.target.stats()}
        except Exception as error:  # pragma: no cover - defensive
            self._send_error(conn, request_id, ServingError(str(error)))
            return
        conn.respond(frame_buffers(
            "stats", {"id": request_id, "report": report}))

    def _handle_infer(self, conn: _Connection, request_id: Any,
                      message, parse_started: float) -> None:
        """Admit the requests of one infer frame and hand them on as one group.

        One image is a burst of one.  Every limit counts images: the requests
        of a burst are admitted in order, like as many single requests, and
        those past a limit are answered with one error frame for their run of
        ids while the others go on.
        """
        meta = message.meta
        priority = meta.get("priority", DEFAULT_PRIORITY)
        deadline_ms = meta.get("deadline_ms")
        count = meta.get("count", 1)
        admission_started = time.time()
        try:
            images = self._burst(request_id, count, message.arrays)
            priority_index(priority)
        except ValueError as error:
            # The whole frame is refused: every request its header announced,
            # as far as the frame carries images for them — a count the client
            # made up is neither added to the ledger nor echoed back.
            arrays = message.arrays
            carried = len(arrays[0]) if len(arrays) == 1 and arrays[0].ndim == 4 else 1
            announced = min(count, carried) if type(count) is int and count > 0 else 1
            self._reject(conn, request_id, announced, "normal", BadRequestError(str(error)),
                         mint_traces(1), admission_started, deadline_ms)
            return
        traces = mint_traces(count)
        if traces is not None:
            if not conn.accept_recorded:
                conn.accept_recorded = True
                traces[0].record("gateway-accept", conn.accepted_wall,
                                 parse_started, peer=conn.peer)
            for trace in traces:
                trace.record("gateway-parse", parse_started, admission_started)

        if deadline_ms is None:
            deadline_ms = self.spec.slo_ms.get(priority)
        admitted = conn.bucket.take(count)
        room = max(self.spec.max_inflight_per_client - conn.inflight, 0)
        if min(admitted, room) < count:
            if room < admitted:
                admitted = room
                refusal = AdmissionRejectedError(
                    f"client has {conn.inflight} requests in flight "
                    f"(max_inflight_per_client={self.spec.max_inflight_per_client})")
            else:
                refusal = AdmissionRejectedError(
                    f"rate limit exceeded ({self.spec.rate_limit_rps} rps, "
                    f"burst {self.spec.burst})")
            self._reject(conn, _run_id(request_id, admitted), count - admitted, priority,
                         refusal, traces and traces[admitted:], admission_started,
                         deadline_ms)
            if not admitted:
                return
            images, traces = images[:admitted], traces and traces[:admitted]

        for trace in traces or ():
            trace.record("gateway-admission", admission_started,
                         cls=priority, deadline_ms=deadline_ms)
        queue_started = time.time()
        submitted = time.perf_counter()
        try:
            future = self.target.submit_group(
                images, block=False,
                priority=priority, deadline_ms=deadline_ms, traces=traces)
        except (ServingError, TypeError, ValueError) as error:
            if not isinstance(error, ServingError):
                error = BadRequestError(str(error))
            self._reject(conn, request_id, admitted, priority, error, traces,
                         queue_started, deadline_ms)
            return
        for trace in traces or ():
            trace.record("gateway-queue", queue_started)
        self.metrics.record_accept(priority, admitted)
        conn.inflight += admitted

        def on_run(settled: InferenceFuture, start: int, stop: int, outputs: Any,
                   error: Optional[BaseException]) -> None:
            # Runs on the settling thread (batcher worker / cluster
            # receiver): encode off-loop, then leave the buffers in the
            # connection's outbox.  One frame answers the whole run.
            reply: Dict[str, Any] = {"id": _run_id(request_id, start)}
            if stop - start != 1:
                reply["count"] = stop - start
            if error is None:
                try:
                    reply["treedef"], arrays = flatten_arrays(outputs)
                    buffers = frame_buffers("result", reply, arrays)
                except (TypeError, ValueError) as encode_error:
                    error = ServingError(
                        f"result is not wire-encodable: {encode_error}")
            if error is not None:
                reply.pop("treedef", None)
                reply.update(code=error_code(error), error=str(error))
                buffers = frame_buffers("error", reply)
            latency = time.perf_counter() - submitted
            if isinstance(error, DeadlineExceededError):
                self.metrics.record_expiry(priority, stop - start)
            else:
                self.metrics.record_completion(priority, latency, error is not None,
                                               stop - start)
            for trace in (traces or ())[start:stop]:
                trace.record("gateway-dispatch", queue_started, cls=priority,
                             outcome=error_code(error) if error else "ok")
            conn.respond(buffers, finished=stop - start)

        future.add_run_callback(on_run)

    @staticmethod
    def _burst(request_id: Any, count: Any, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """The images of an infer frame as an ``(N, C, H, W)`` view of it.

        ``ValueError`` for what the header promises and the array does not
        keep: ``count`` is the leading axis of a stack (1, and optional, for
        a lone ``(C, H, W)`` image), a burst needs an integer first id to
        count from, and may carry :data:`BURST_BYTES` of images at most.
        """
        if len(arrays) != 1:
            raise ValueError(
                f"infer frame must carry exactly one image array, got {len(arrays)}")
        (images,) = arrays
        if images.ndim == 3:
            images = images[None]
        if images.ndim != 4:
            raise ValueError(
                f"expected a (C, H, W) image or an (N, C, H, W) burst, got shape {images.shape}")
        if type(count) is not int or count < 1 or count != len(images):
            raise ValueError(
                f"infer frame announces count={count!r} but carries {len(images)} images")
        if count > 1:
            if type(request_id) is not int:
                raise ValueError(f"a burst needs an integer first id, got {request_id!r}")
            if images.nbytes > BURST_BYTES:
                raise ValueError(
                    f"burst of {images.nbytes} image bytes exceeds the "
                    f"{BURST_BYTES}-byte burst limit")
        return images

    def _reject(self, conn: _Connection, request_id: Any, count: int, priority: str,
                error: ServingError, traces: Optional[Sequence[TraceContext]],
                started: float, deadline_ms: Optional[float]) -> None:
        """Answer requests ``[request_id, request_id + count)`` with one error frame."""
        self.metrics.record_reject(error.code, priority, count)
        for trace in traces or ():
            trace.record("gateway-admission", started, cls=priority,
                         deadline_ms=deadline_ms, outcome=error.code)
            trace.finish()
        self._send_error(conn, request_id, error, count)

    def _send_error(self, conn: _Connection, request_id: Any,
                    error: BaseException, count: int = 1) -> None:
        reply = {"id": request_id, "code": error_code(error), "error": str(error)}
        if count != 1:
            reply["count"] = count
        conn.respond(frame_buffers("error", reply))


class GatewayClient:
    """Wire-level :class:`~repro.serving.api.InferenceTarget` for a gateway.

    Synchronous socket client: one sender (any thread, serialized on a lock),
    one reader thread resolving futures from response frames.  ``submit``
    returns the same :class:`~repro.serving.batcher.InferenceFuture` the
    in-process targets return, and rejections come back as the same typed
    exceptions (rehydrated from the error frame's wire ``code``), so swapping
    a service for a ``GatewayClient`` changes nothing downstream — that is the
    point of the protocol.

    ``block=True`` submits are accepted but behave like non-blocking ones:
    backpressure lives server-side (admission control answers immediately), so
    there is no queue-space to wait for on this end.

    Reconnect semantics (``reconnect=True``): a dropped TCP connection no
    longer poisons the client permanently.  Requests that were *in flight*
    when the link died fail with
    :class:`~repro.serving.errors.GatewayDisconnectedError` — their outcome
    is unknowable, and inventing one would be lying — but the next
    ``submit()`` dials one fresh connection and retries the (idempotent)
    infer frame once; only if that bounded retry also fails does the caller
    see ``gateway_disconnected``.
    """

    def __init__(self, host: str, port: int,
                 connect_timeout: float = 10.0,
                 reconnect: bool = True) -> None:
        self.host = host
        self.port = int(port)
        self.connect_timeout = connect_timeout
        self.reconnect = reconnect
        self._send_lock = threading.Lock()
        self._table_lock = threading.Lock()
        # Serializes redials so a burst of failing submits dials once, not N
        # times; always taken before _table_lock, never inside it.
        self._reconnect_lock = threading.Lock()
        #: Request id -> (its burst's future, the burst's first id); one entry
        #: per request, so a reply frame can answer any run of them.
        self._pending: Dict[int, Tuple[InferenceFuture, int]] = {}
        self._stats: Dict[int, "threading.Event"] = {}
        self._stats_reports: Dict[int, Dict[str, Any]] = {}
        self._next_id = 0
        self._closed = False
        self._sock: Optional[socket.socket] = None
        # Connection generation: bumped on every (re)dial.  A reader thread
        # only gets to fail the outstanding tables if its generation is still
        # current — a stale reader dying after a reconnect must not shoot
        # down futures that now belong to the new connection.
        self._conn_gen = 0
        self._reader: Optional[threading.Thread] = None
        self._connect()

    def _connect(self) -> int:
        """Dial the gateway and start this connection's reader; returns its gen."""
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.connect_timeout)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._table_lock:
            old = self._sock
            self._sock = sock
            self._conn_gen += 1
            generation = self._conn_gen
        if old is not None:
            try:
                old.close()
            except OSError:
                pass
        self._reader = threading.Thread(
            target=self._reader_loop, args=(sock, generation),
            name=f"repro-gateway-client-{generation}", daemon=True)
        self._reader.start()
        return generation

    def _try_reconnect(self, failed_gen: int) -> bool:
        """One bounded redial after generation ``failed_gen`` died."""
        if not self.reconnect:
            return False
        with self._reconnect_lock:
            with self._table_lock:
                if self._closed:
                    return False
                if self._conn_gen != failed_gen:
                    return True      # another thread already redialed
            try:
                self._connect()
            except OSError as error:
                logger.warning("gateway reconnect to %s:%d failed: %s",
                               self.host, self.port, error)
                return False
            logger.info("gateway client reconnected to %s:%d",
                        self.host, self.port)
            return True

    # ------------------------------------------------------------------ protocol
    def submit(self, image: np.ndarray, block: bool = False,
               timeout: Optional[float] = None,
               priority: str = DEFAULT_PRIORITY,
               deadline_ms: Optional[float] = None) -> InferenceFuture:
        """Send one infer frame; the future resolves when its response lands."""
        return self.submit_group(one_image(image), priority=priority,
                                 deadline_ms=deadline_ms)

    def submit_group(self, images: Images, block: bool = False,
                     timeout: Optional[float] = None,
                     priority: str = DEFAULT_PRIORITY,
                     deadline_ms: Optional[float] = None) -> InferenceFuture:
        """Send a burst — an ``(N, C, H, W)`` stack or N images — as one infer frame.

        The images are gather-written from where they are (a list of separate
        ``(C, H, W)`` arrays is never stacked first); the N requests take
        consecutive ids, and the future settles run by run as the server's
        reply frames — one per micro-batch — land.
        """
        images, _ = as_images(images)
        count = len(images)
        base_meta: Dict[str, Any] = {"priority": priority}
        # One image travels as the (C, H, W) frame it always was.
        array = images if count > 1 else images[0]
        if count > 1:
            base_meta["count"] = count
        if deadline_ms is not None:
            base_meta["deadline_ms"] = float(deadline_ms)
        for attempt in (0, 1):
            # A fresh future per attempt: if the first send raced a
            # disconnect, the dying reader may already have failed the first
            # future — a failed future cannot be re-armed.
            future = InferenceFuture(count)
            with self._table_lock:
                if self._closed:
                    raise ServiceClosedError("GatewayClient has been shut down")
                generation = self._conn_gen
                first_id = self._next_id
                self._next_id += count
                ids = range(first_id, first_id + count)
                self._pending.update(dict.fromkeys(ids, (future, first_id)))
            try:
                self._send(frame_buffers("infer", dict(base_meta, id=first_id), [array]))
            except BaseException as error:
                with self._table_lock:
                    for request_id in ids:
                        self._pending.pop(request_id, None)
                if (isinstance(error, GatewayDisconnectedError) and attempt == 0
                        and self._try_reconnect(generation)):
                    continue     # one bounded retry on the fresh connection
                raise
            return future
        raise AssertionError("unreachable")  # pragma: no cover

    def submit_many(self, images: Union[np.ndarray, Sequence[np.ndarray]],
                    timeout: Optional[float] = None) -> Any:
        """Submit a stack and wait; outputs concatenated in request order.

        The stack goes out in bursts of
        :func:`~repro.serving.cluster.channel.burst_images` images — one
        :meth:`submit_group`, i.e. one frame, each
        (:func:`~repro.serving.batcher.submit_bursts`),
        :data:`BURSTS_IN_FLIGHT` unanswered at a time — and is waited for
        once; the result is bit-identical to an in-process run over the same
        artifact.
        """
        images, _ = as_images(images)
        return submit_bursts(self.submit_group, images,
                             burst_images(images[0].nbytes), BURSTS_IN_FLIGHT, timeout)

    def stats(self) -> Dict[str, Any]:
        """The server's ``{"gateway": ..., "target": ...}`` metrics report."""
        event = threading.Event()
        with self._table_lock:
            if self._closed:
                raise ServiceClosedError("GatewayClient has been shut down")
            request_id = self._next_id
            self._next_id += 1
            self._stats[request_id] = event
        self._send(frame_buffers("stats", {"id": request_id}))
        if not event.wait(30.0):
            with self._table_lock:
                self._stats.pop(request_id, None)
            raise TimeoutError("gateway stats request timed out")
        with self._table_lock:
            return self._stats_reports.pop(request_id)

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Disconnect; outstanding futures fail with ``service_closed``."""
        with self._table_lock:
            if self._closed:
                return
            self._closed = True
            sock = self._sock
            reader = self._reader
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        if reader is not None:
            reader.join(timeout or 5.0)

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ internals
    def _send(self, buffers: List[Any]) -> None:
        try:
            with self._send_lock:
                sock = self._sock
                if sock is None:
                    raise OSError("no gateway connection")
                send_buffers(sock.sendmsg, buffers)
        except OSError as error:
            with self._table_lock:
                closed = self._closed
            if closed:
                raise ServiceClosedError(
                    f"gateway connection lost while sending: {error}"
                ) from error
            raise GatewayDisconnectedError(
                f"gateway connection lost while sending: {error}") from error

    def _reader_loop(self, sock: socket.socket, generation: int) -> None:
        splitter = FrameSplitter()
        try:
            while True:
                nbytes = sock.recv_into(splitter.buffer())
                if not nbytes:
                    break
                # Every reply of the read, decoded straight out of the
                # chunk; _dispatch copies what a future keeps.
                for frame in splitter.feed(nbytes):
                    self._dispatch(decode_frame(frame))
        except OSError:
            pass
        except (KeyError, ValueError) as error:  # pragma: no cover - server bug
            logger.warning("malformed frame from gateway: %s", error)
        finally:
            # Whatever ended the reader, nothing in flight may hang on it.
            self._handle_disconnect(generation)

    def _dispatch(self, message) -> None:
        meta = message.meta
        request_id = meta.get("id")
        if message.kind == "result" or message.kind == "error":
            # One frame answers requests [id, id + count) of one burst.
            with self._table_lock:
                entry = self._pending.get(request_id)
                if entry is not None:
                    future, first_id = entry
                    start = request_id - first_id
                    # Never past the burst the first id belongs to.
                    count = min(meta.get("count", 1), future.count - start)
                    for answered in range(request_id, request_id + count):
                        self._pending.pop(answered, None)
            if entry is None:
                if message.kind == "error":
                    logger.warning("gateway error without a pending request: %s", meta)
                return
            if message.kind == "result":
                # The arrays are views of the reader's chunk; the caller gets
                # writable copies that own their memory.
                future._settle(start, start + count, unflatten_arrays(
                    meta["treedef"], [array.copy() for array in message.arrays]), None)
            else:
                future._settle(start, start + count, None, error_from_wire(
                    meta.get("code", "serving_error"), meta.get("error", "remote error")))
        elif message.kind == "stats":
            with self._table_lock:
                event = self._stats.pop(request_id, None)
                if event is not None:
                    self._stats_reports[request_id] = meta["report"]
            if event is not None:
                event.set()
        else:  # pragma: no cover - server bug
            logger.warning("unknown frame kind from gateway: %r", message.kind)

    def _handle_disconnect(self, generation: int) -> None:
        """Fail everything in flight on connection ``generation``'s death.

        Guarded by the generation check: after a reconnect, the *old*
        reader thread unwinding must not fail futures that were submitted
        on — and will be answered by — the new connection.
        """
        with self._table_lock:
            if generation != self._conn_gen:
                return
            closed = self._closed
            # Tear the socket down NOW: a TCP send into a half-closed socket
            # can "succeed" into the kernel buffer, which would let a later
            # submit register a future no reader is alive to fail.  With the
            # socket gone, the next _send fails fast and takes the bounded
            # reconnect-and-retry path instead.
            dead = self._sock
            self._sock = None
            pending = {future for future, _ in self._pending.values()}
            self._pending.clear()
            stats = list(self._stats.values())
            self._stats.clear()
        if dead is not None:
            try:
                dead.close()
            except OSError:
                pass
        if closed:
            error: ServingError = ServiceClosedError(
                "gateway connection closed")
        else:
            error = GatewayDisconnectedError(
                "gateway connection lost; in-flight request outcome unknown")
        for future in pending:
            future._fail(error)
        for event in stats:
            event.set()
