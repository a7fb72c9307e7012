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
(``meta = {id, model?, priority?, deadline_ms?}`` plus one ``(C, H, W)``
array) and ``stats`` (``meta = {id}``); server → client kinds are ``result``
(``meta = {id, treedef}`` plus the flattened output arrays), ``error``
(``meta = {id, code, error}``) and ``stats`` (``meta = {id, report}``).
``docs/gateway.md`` documents the full protocol.

Scheduling semantics
--------------------
The gateway enforces **per-client admission control** — a token bucket
(``rate_limit_rps`` / ``burst``) plus a bounded in-flight count per
connection — before a request ever reaches the scheduler; rejections come
back as typed error frames (stable codes from :mod:`repro.serving.errors`),
not silent queueing.  ``priority`` and ``deadline_ms`` ride the frame header
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
handles every frame it completes: the frame is cut out into its own ``bytes``
and the request image is decoded as a **read-only view** of it, which is
what ``target.submit`` — and, behind a router, the pipe to the worker —
receives; nothing between the socket and the worker copies the pixels again.
Futures resolve on batcher / cluster-receiver threads: the resolving thread
encodes the response header there, off the loop, appends
``[prefix + header, array, ...]`` to the connection's outbox and wakes the
loop only if no wake-up is already pending, so a burst of responses costs
one self-pipe write and one ``transport.writelines``.  A slow client stalls
only itself: while its transport is paused its outbox holds, and because
``inflight`` falls at the flush, admission control pushes back on it.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.engine.runner import _concat_outputs
from repro.obs.tracing import TraceContext, mint_trace
from repro.pipeline.spec import GatewaySpec
from repro.serving.api import DEFAULT_PRIORITY, priority_index
from repro.serving.batcher import InferenceFuture, submit_stack
from repro.serving.cluster.channel import (
    FrameSplitter,
    FrameTooLargeError,
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


class _TokenBucket:
    """Per-connection rate limiter; loop-thread only, so no lock."""

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = float(rate)
        self.tokens = float(burst)
        self.burst = float(burst)
        self._last = time.perf_counter()

    def admit(self) -> bool:
        """Take one token if available; refills at ``rate`` tokens/second."""
        if self.rate <= 0:
            return True              # rate limiting disabled
        now = time.perf_counter()
        self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
        self._last = now
        if self.tokens < 1.0:
            return False
        self.tokens -= 1.0
        return True


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
        #: Infer responses among them; each frees an in-flight slot at the flush.
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
                # bytes(frame): the request's own memory.  Its image is a view
                # of it, so what an unresolved request keeps alive is one
                # frame, and the splitter's chunk is free for the next read.
                self.server._handle_frame(self, bytes(frame), parse_started)
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
    def respond(self, buffers: List[Any], finished: bool = False) -> None:
        """Queue one response frame (any thread); wake the loop if nobody has."""
        with self._outbox_lock:
            self._outbox.extend(buffers)
            if finished:
                self._finished += 1
            wake = not self._wake_pending
            self._wake_pending = True
        if wake:
            try:
                self.server._loop.call_soon_threadsafe(self._flush)
            except RuntimeError:  # pragma: no cover - loop shut down first
                pass

    def _flush(self) -> None:
        injector = self.server.injector
        delay = injector.response_delay_s() if injector is not None else 0.0
        if delay > 0:
            # call_later, not time.sleep: only *this* connection's responses
            # lag (one delay per write; responses resolved meanwhile ride
            # along); the loop keeps serving everyone else.
            self.server._loop.call_later(delay, self._drain)
        else:
            self._drain()

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
                 name: str = "gateway",
                 injector: Optional[Any] = None) -> None:
        self.target = target
        self.spec = spec or GatewaySpec()
        self.metrics = metrics or GatewayMetrics(name=name)
        self.name = name
        #: Optional chaos :class:`~repro.serving.chaos.FaultInjector`
        #: (duck-typed: ``response_delay_s()``) — artificial latency before
        #: each response write, for drilling client timeout/SLO behavior.
        self.injector = injector
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
        meta = message.meta
        priority = meta.get("priority", self.spec.default_priority)
        deadline_ms = meta.get("deadline_ms")
        trace = mint_trace()
        if trace is not None:
            if not conn.accept_recorded:
                conn.accept_recorded = True
                trace.record("gateway-accept", conn.accepted_wall,
                             parse_started, peer=conn.peer)
            trace.record("gateway-parse", parse_started)

        admission_started = time.time()
        try:
            priority_index(priority)
        except ValueError as error:
            self._reject(conn, request_id, "normal", BadRequestError(str(error)),
                         trace, admission_started, deadline_ms)
            return
        if len(message.arrays) != 1:
            self._reject(conn, request_id, priority, BadRequestError(
                f"infer frame must carry exactly one image array, "
                f"got {len(message.arrays)}"), trace, admission_started,
                deadline_ms)
            return
        if deadline_ms is None:
            deadline_ms = self.spec.slo_ms.get(priority)
        if not conn.bucket.admit():
            self._reject(conn, request_id, priority, AdmissionRejectedError(
                f"rate limit exceeded ({self.spec.rate_limit_rps} rps, "
                f"burst {self.spec.burst})"), trace, admission_started,
                deadline_ms)
            return
        if conn.inflight >= self.spec.max_inflight_per_client:
            self._reject(conn, request_id, priority, AdmissionRejectedError(
                f"client has {conn.inflight} requests in flight "
                f"(max_inflight_per_client={self.spec.max_inflight_per_client})"),
                trace, admission_started, deadline_ms)
            return

        if trace is not None:
            trace.record("gateway-admission", admission_started,
                         cls=priority, deadline_ms=deadline_ms)
        queue_started = time.time()
        submitted = time.perf_counter()
        try:
            future = self.target.submit(
                message.arrays[0], model=meta.get("model"), block=False,
                priority=priority, deadline_ms=deadline_ms, trace=trace)
        except ServingError as rejection:
            self._reject(conn, request_id, priority, rejection, trace,
                         queue_started, deadline_ms)
            return
        except (TypeError, ValueError) as error:
            self._reject(conn, request_id, priority,
                         BadRequestError(str(error)), trace,
                         queue_started, deadline_ms)
            return
        if trace is not None:
            trace.record("gateway-queue", queue_started)
        self.metrics.record_accept(priority)
        conn.inflight += 1

        def on_done(resolved: InferenceFuture,
                    _conn: _Connection = conn, _id: Any = request_id,
                    _priority: str = priority, _trace=trace,
                    _queue_started: float = queue_started,
                    _submitted: float = submitted) -> None:
            # Runs on the resolving thread (batcher worker / cluster
            # receiver): encode off-loop, then leave the buffers in the
            # connection's outbox.
            error = resolved._error
            if error is None:
                try:
                    treedef, arrays = flatten_arrays(resolved._result)
                    buffers = frame_buffers(
                        "result", {"id": _id, "treedef": treedef}, arrays)
                except (TypeError, ValueError) as encode_error:
                    error = ServingError(
                        f"result is not wire-encodable: {encode_error}")
            if error is not None:
                buffers = frame_buffers("error", {
                    "id": _id, "code": error_code(error), "error": str(error)})
            latency = time.perf_counter() - _submitted
            if isinstance(error, DeadlineExceededError):
                self.metrics.record_expiry(_priority)
            else:
                self.metrics.record_completion(_priority, latency,
                                               failed=error is not None)
            if _trace is not None:
                _trace.record("gateway-dispatch", _queue_started,
                              cls=_priority,
                              outcome=error_code(error) if error else "ok")
            _conn.respond(buffers, finished=True)

        future.add_done_callback(on_done)

    def _reject(self, conn: _Connection, request_id: Any, priority: str,
                error: ServingError, trace: Optional[TraceContext],
                started: float, deadline_ms: Optional[float]) -> None:
        self.metrics.record_reject(error.code, priority)
        if trace is not None:
            trace.record("gateway-admission", started, cls=priority,
                         deadline_ms=deadline_ms, outcome=error.code)
            trace.finish()
        self._send_error(conn, request_id, error)

    def _send_error(self, conn: _Connection, request_id: Any,
                    error: BaseException) -> None:
        conn.respond(frame_buffers("error", {
            "id": request_id, "code": error_code(error), "error": str(error)}))


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
        self._pending: Dict[int, InferenceFuture] = {}
        self._stats: Dict[int, "threading.Event"] = {}
        self._stats_reports: Dict[int, Dict[str, Any]] = {}
        self._ids = itertools.count()
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
    def submit(self, image: np.ndarray, model: Optional[str] = None,
               block: bool = False, timeout: Optional[float] = None,
               priority: str = DEFAULT_PRIORITY,
               deadline_ms: Optional[float] = None) -> InferenceFuture:
        """Send one infer frame; the future resolves when its response lands."""
        image = np.ascontiguousarray(image, dtype=np.float32)
        base_meta: Dict[str, Any] = {"priority": priority}
        if model is not None:
            base_meta["model"] = model
        if deadline_ms is not None:
            base_meta["deadline_ms"] = float(deadline_ms)
        for attempt in (0, 1):
            request_id = next(self._ids)
            # A fresh future per attempt: if the first send raced a
            # disconnect, the dying reader may already have failed the first
            # future — a failed future cannot be re-armed.
            future = InferenceFuture()
            with self._table_lock:
                if self._closed:
                    raise ServiceClosedError("GatewayClient has been shut down")
                generation = self._conn_gen
                self._pending[request_id] = future
            try:
                self._send(frame_buffers(
                    "infer", dict(base_meta, id=request_id), [image]))
            except GatewayDisconnectedError:
                with self._table_lock:
                    self._pending.pop(request_id, None)
                if attempt == 0 and self._try_reconnect(generation):
                    continue     # one bounded retry on the fresh connection
                raise
            except BaseException:
                with self._table_lock:
                    self._pending.pop(request_id, None)
                raise
            return future
        raise AssertionError("unreachable")  # pragma: no cover

    def submit_many(self, images: Union[np.ndarray, Sequence[np.ndarray]],
                    model: Optional[str] = None,
                    timeout: Optional[float] = None) -> Any:
        """Submit a stack and wait; outputs concatenated in request order.

        Mirrors :meth:`InferenceService.submit_many` exactly (same
        :func:`~repro.serving.batcher.submit_stack` +
        :func:`~repro.engine.runner._concat_outputs` path), so the result is
        bit-identical to an in-process run over the same artifact.
        """
        results = submit_stack(
            lambda image: self.submit(image, model=model, timeout=timeout),
            images, timeout)
        return _concat_outputs(results)

    def stats(self) -> Dict[str, Any]:
        """The server's ``{"gateway": ..., "target": ...}`` metrics report."""
        request_id = next(self._ids)
        event = threading.Event()
        with self._table_lock:
            if self._closed:
                raise ServiceClosedError("GatewayClient has been shut down")
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
        request_id = message.meta.get("id")
        if message.kind == "result":
            with self._table_lock:
                future = self._pending.pop(request_id, None)
            if future is not None:
                # The arrays are views of the reader's chunk; the caller gets
                # writable copies that own their memory.
                future._resolve(unflatten_arrays(
                    message.meta["treedef"],
                    [array.copy() for array in message.arrays]))
        elif message.kind == "error":
            with self._table_lock:
                future = self._pending.pop(request_id, None)
            if future is not None:
                future._fail(error_from_wire(
                    message.meta.get("code", "serving_error"),
                    message.meta.get("error", "remote error")))
            else:
                logger.warning("gateway error without a pending request: %s",
                               message.meta)
        elif message.kind == "stats":
            with self._table_lock:
                event = self._stats.pop(request_id, None)
                if event is not None:
                    self._stats_reports[request_id] = message.meta["report"]
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
            pending = list(self._pending.values())
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
