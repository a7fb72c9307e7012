"""Pickle-free ndarray messaging between the router and its worker processes.

The cluster's data plane moves images and model outputs across process
boundaries.  ``multiprocessing``'s default transport would ``pickle`` every
ndarray (a full serialize/deserialize round per request); this module instead
frames each message as::

    [4-byte frame length][4-byte header length][JSON header][raw array bytes ...]

where everything after the frame length is the *payload* that
:func:`encode_frame` / :func:`decode_frame` define.  The pipe and the TCP
gateway (:mod:`repro.serving.gateway`) speak the same framed stream, so the
pieces here serve both:

* :func:`frame_buffers` — the sender's half.  A frame goes out as the list
  ``[prefix + header, array, array, ...]`` in one gather-write
  (:func:`send_buffers`): array bytes are never staged into a joined
  ``bytes`` object, so a hop that forwards an image it received forwards the
  very bytes it received.  An entry that is a *list* of same-shape arrays
  goes out as one stacked array written from its parts, which is how a burst
  of separate ``(C, H, W)`` images becomes one ``(N, C, H, W)`` frame without
  being joined first; :func:`burst_images` says how many fit a frame.
* :class:`FrameSplitter` — the receiver's half.  One read lands in a reusable
  chunk and yields every complete frame in it, so a burst of frames costs one
  system call and one thread wake-up, not two reads per frame.
* :func:`decode_frame` — checks the header against the frame and builds the
  arrays as **read-only views** of it.  Who owns what:

  - *requests* (``ArrayChannel.recv`` in a worker, the gateway's read
    callback) get memory of their own (:meth:`FrameSplitter.detach`: cut out
    of the read chunk into one ``bytes`` object, or — a burst too large for
    the chunk — the buffer it was received into) and are decoded as views of
    it — a retained image pins its own frame, never the chunk, and survives
    the chunk's reuse;
  - *replies* handed to callers (``WorkerProcess`` receiver, ``GatewayClient``
    reader) are copied out of the view, so futures resolve to writable arrays
    that own their memory, same as in-process serving.

Nested model outputs (tuples/lists/dicts of arrays, e.g. multi-scale detector
heads) are handled by :func:`flatten_arrays` / :func:`unflatten_arrays`: the
structure is encoded as a small JSON tree whose leaves are indices into the
flat array list.  (Process *bootstrap* still uses multiprocessing's own
machinery; the pickle-free guarantee is about the per-request hot path.)

Thread safety: ``ArrayChannel.send`` serializes concurrent senders on a lock
so frames never interleave; ``recv`` is expected to be called from a single
reader thread per end (the worker's main loop, the router's receiver thread),
and a :class:`FrameSplitter` belongs to exactly one reader.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Both length fields: the outer frame length and the inner header length.
#: For frames below 2 GiB (enforced by :func:`frame_buffers`) the outer one is
#: byte-identical to what ``multiprocessing.Connection.send_bytes`` writes.
_LEN = struct.Struct("!I")
MAX_FRAME_BYTES = 0x7FFFFFFF

#: Size of a reader's reusable chunk: a handful of 49 KB image frames, or a
#: few hundred replies, per system call.
READ_CHUNK = 256 * 1024

#: Image bytes one multi-image ``infer`` frame may carry.  Senders cut a
#: ``submit_many`` into frames of :func:`burst_images` images; receivers
#: refuse a stack above it (one oversized image still travels alone, up to the
#: reader's ``max_frame``).
BURST_BYTES = 1024 * 1024

#: What ``ndarray.dtype.str`` produces — byte order, kind, item size, an
#: optional datetime unit — and so all a header may name: numpy's looser
#: spellings (aliases, comma-separated structs, ``O``) never reach ``np.dtype``.
_DTYPE_STR = re.compile(r"[<>|=][biufcmMSUV]\d+(\[\w+\])?")

#: ``writev`` / ``sendmsg`` refuse longer buffer lists (POSIX ``IOV_MAX``).
_IOV_MAX = 1024


class ChannelClosedError(RuntimeError):
    """The peer process closed its end (usually: the process died)."""


def flatten_arrays(outputs: Any) -> Tuple[Any, List[np.ndarray]]:
    """Split a nested array structure into ``(treedef, flat array list)``.

    The treedef is JSON-serializable; leaves hold the index of their array in
    the flat list.  Supported containers are tuples, lists and string-keyed
    dicts — the same structures :func:`repro.engine.runner._split_outputs`
    understands.
    """
    arrays: List[np.ndarray] = []

    def walk(node: Any) -> Any:
        if isinstance(node, np.ndarray):
            arrays.append(node)
            return {"kind": "array", "index": len(arrays) - 1}
        if isinstance(node, (tuple, list)):
            kind = "tuple" if isinstance(node, tuple) else "list"
            return {"kind": kind, "items": [walk(item) for item in node]}
        if isinstance(node, dict):
            keys = list(node)
            if not all(isinstance(key, str) for key in keys):
                raise TypeError(f"only string-keyed dicts cross the channel, got keys {keys!r}")
            return {"kind": "dict", "keys": keys, "items": [walk(node[key]) for key in keys]}
        raise TypeError(
            f"cannot send a {type(node).__name__} through an ArrayChannel; "
            "model outputs must be ndarrays or tuples/lists/dicts of them"
        )

    return walk(outputs), arrays


def unflatten_arrays(treedef: Any, arrays: Sequence[np.ndarray]) -> Any:
    """Rebuild the nested structure produced by :func:`flatten_arrays`."""
    kind = treedef["kind"]
    if kind == "array":
        return arrays[treedef["index"]]
    if kind == "tuple":
        return tuple(unflatten_arrays(item, arrays) for item in treedef["items"])
    if kind == "list":
        return [unflatten_arrays(item, arrays) for item in treedef["items"]]
    if kind == "dict":
        return {
            key: unflatten_arrays(item, arrays)
            for key, item in zip(treedef["keys"], treedef["items"])
        }
    raise ValueError(f"unknown treedef node kind {kind!r}")


@dataclass
class Message:
    """One decoded channel frame."""

    kind: str
    meta: Dict[str, Any] = field(default_factory=dict)
    arrays: List[np.ndarray] = field(default_factory=list)


class FrameTooLargeError(ValueError):
    """A length prefix announced more bytes than the reader accepts."""


def burst_images(image_nbytes: int) -> int:
    """How many images of ``image_nbytes`` bytes a sender packs into one frame.

    The largest power of two within :data:`BURST_BYTES` (at least one): batch
    sizes are powers of two in practice, so a frame then splits into whole
    micro-batches on the other side.
    """
    fit = max(1, BURST_BYTES // max(1, image_nbytes))
    return 1 << (fit.bit_length() - 1)


def _wire_array(array: np.ndarray) -> np.ndarray:
    """``array`` as the C-contiguous buffer that goes on the wire.

    Already-contiguous arrays (the usual case) pass through untouched; the
    copy is the cold path of a caller handing in a strided view.
    """
    return array if array.flags.c_contiguous else np.ascontiguousarray(array)


def _encode(kind: str, meta: Optional[Dict[str, Any]],
            arrays: Sequence[Any]) -> Tuple[bytes, List[np.ndarray], int]:
    """``(header length + JSON header, array buffers, payload bytes)``.

    A list entry of ``arrays`` is declared as one array with a leading axis
    over its same-shape parts, and its parts are the buffers.
    """
    buffers: List[np.ndarray] = []
    specs = []
    for array in arrays:
        if isinstance(array, list):
            parts = [_wire_array(part) for part in array]
            first = parts[0]
            if any(p.shape != first.shape or p.dtype != first.dtype for p in parts):
                raise ValueError("the parts of a stacked array must share shape and dtype")
            specs.append({"dtype": first.dtype.str, "shape": (len(parts), *first.shape)})
            buffers.extend(parts)
        else:
            buffer = _wire_array(array)
            specs.append({"dtype": buffer.dtype.str, "shape": buffer.shape})
            buffers.append(buffer)
    header = json.dumps({"kind": kind, "meta": meta or {}, "arrays": specs}).encode("utf-8")
    nbytes = _LEN.size + len(header)
    for buffer in buffers:
        nbytes += buffer.nbytes
    return _LEN.pack(len(header)) + header, buffers, nbytes


def encode_frame(
    kind: str,
    meta: Optional[Dict[str, Any]] = None,
    arrays: Sequence[np.ndarray] = (),
) -> bytes:
    """Encode one message as its wire payload, joined into one ``bytes``.

    This is the single definition of the frame layout; :func:`decode_frame`
    is its inverse.  Senders do not call it — they gather-write
    :func:`frame_buffers`, which is this payload behind its length prefix
    without the join.
    """
    head, buffers, _ = _encode(kind, meta, arrays)
    return b"".join([head, *buffers])


def frame_buffers(
    kind: str,
    meta: Optional[Dict[str, Any]] = None,
    arrays: Sequence[np.ndarray] = (),
) -> List[Any]:
    """One framed message as the buffers to gather-write, in wire order.

    ``[length prefix + header, array bytes, ...]``: the array entries are flat
    byte views of the caller's own memory (it must stay unchanged until
    written); empty arrays have no bytes and are left out.
    """
    head, buffers, nbytes = _encode(kind, meta, arrays)
    if nbytes > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {nbytes} bytes exceeds the 2 GiB frame limit")
    return [_LEN.pack(nbytes) + head,
            *[memoryview(b).cast("B") for b in buffers if b.size]]


def send_buffers(write: Callable[[List[Any]], int], buffers: List[Any]) -> None:
    """Put every byte of ``buffers`` on the wire through a gather-write.

    ``write`` is ``sock.sendmsg`` or ``os.writev`` bound to a descriptor: it
    takes a buffer list and returns the bytes it accepted.  The usual case is
    one call; a short write (signal, full socket buffer) resumes after the
    bytes that went out.
    """
    if len(buffers) > _IOV_MAX:
        buffers = buffers[:_IOV_MAX - 1] + [b"".join(buffers[_IOV_MAX - 1:])]
    sent = write(buffers)
    if sent == sum(map(len, buffers)):
        return
    pending = [memoryview(buffer) for buffer in buffers]
    while True:
        while pending and sent >= len(pending[0]):
            sent -= len(pending.pop(0))
        if not pending:
            return
        pending[0] = pending[0][sent:]
        sent = write(pending)


def decode_frame(frame) -> Message:
    """Decode one wire payload produced by :func:`encode_frame`.

    ``frame`` is any bytes-like object; the arrays come back as views of it
    (read-only when it is), so the caller decides what a copy is worth.  The
    header is checked against the frame before any view is built — header
    inside the frame, non-negative integer dims, declared array bytes equal to
    the bytes that remain — and every malformed input raises ``ValueError``
    (callers map it to their transport's failure mode: channel-closed for the
    pipe, a ``bad_request`` error frame for the gateway).
    """
    size = len(frame)
    try:
        (header_len,) = _LEN.unpack_from(frame)
        offset = _LEN.size + header_len
        if offset > size:
            raise ValueError(f"header of {header_len} bytes runs past the {size}-byte frame")
        header = json.loads(str(frame[_LEN.size:offset], "utf-8"))
        kind, meta = header["kind"], header["meta"]
        if not isinstance(kind, str) or not isinstance(meta, dict):
            raise ValueError("frame header needs a string kind and a dict meta")
        arrays: List[np.ndarray] = []
        for spec in header["arrays"]:
            dtype_str, shape = spec["dtype"], tuple(spec["shape"])
            if not (isinstance(dtype_str, str) and _DTYPE_STR.fullmatch(dtype_str)):
                raise ValueError(f"array dtype must be an ndarray.dtype.str, got {dtype_str!r}")
            if not all(type(dim) is int and dim >= 0 for dim in shape):
                raise ValueError(f"array dims must be non-negative integers, got {shape}")
            dtype = np.dtype(dtype_str)
            if not dtype.itemsize:
                raise ValueError(f"array dtype {dtype_str!r} has no bytes per item")
            count = math.prod(shape)
            nbytes = count * dtype.itemsize
            if nbytes > size - offset:
                raise ValueError(
                    f"array {dtype_str}{list(shape)} needs {nbytes} bytes, "
                    f"{size - offset} remain in the frame")
            arrays.append(
                np.frombuffer(frame, dtype=dtype, count=count, offset=offset).reshape(shape))
            offset += nbytes
    except (struct.error, KeyError, TypeError, RecursionError) as error:
        raise ValueError(f"malformed frame: {error!r}") from error
    if offset != size:
        raise ValueError(f"{size - offset} bytes trail the arrays the header declares")
    return Message(kind=kind, meta=meta, arrays=arrays)


class FrameSplitter:
    """Cut a length-prefixed byte stream into frames, many per read.

    The reader receives into :meth:`buffer` (``recv_into`` / ``readv`` /
    ``BufferedProtocol.get_buffer``) and hands the byte count to :meth:`feed`,
    which yields every payload completed by that read as a read-only
    ``memoryview``.  The views alias the reusable chunk: they are valid until
    the next :meth:`buffer` call, so a reader decodes — and copies whatever
    it keeps — before it reads again.

    A frame that cannot fit the chunk is received straight into a buffer of
    its own (no copy at all), so the chunk never grows; ``max_frame`` is
    checked at the prefix, before a byte of the payload is read.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES, chunk: int = READ_CHUNK) -> None:
        self._max_frame = max_frame
        self._chunk = memoryview(bytearray(max(chunk, 2 * _LEN.size)))
        #: Unparsed bytes of the chunk, ``[start, end)``: an incomplete prefix
        #: or the head of a frame whose tail has not arrived yet.
        self._start = 0
        self._end = 0
        #: A frame larger than the chunk, filled in place.
        self._large: Optional[memoryview] = None
        self._large_filled = 0

    def buffer(self) -> memoryview:
        """Where the next read goes (never empty)."""
        if self._large is not None:
            return self._large[self._large_filled:]
        if self._start:
            # Invalidates the views of the previous feed(): the leftover moves
            # to the front so the next read has the whole chunk behind it.
            rest = self._end - self._start
            self._chunk[:rest] = self._chunk[self._start:self._end]
            self._start, self._end = 0, rest
        return self._chunk[self._end:]

    def detach(self, frame: memoryview) -> Any:
        """``frame`` (as yielded by :meth:`feed`) as memory that outlives the chunk.

        A frame inside the chunk is copied out into one ``bytes`` object; a
        frame that was received into a buffer of its own already is that
        memory, and is handed over as it is.
        """
        return bytes(frame) if frame.obj is self._chunk.obj else frame

    def feed(self, nbytes: int) -> Iterator[memoryview]:
        """Account for ``nbytes`` just read; yield the payloads they complete.

        A generator, to be run to its end before the next read: frames ahead
        of an oversized prefix are yielded before :class:`FrameTooLargeError`
        is raised, as a frame-at-a-time reader would have seen them.
        """
        if self._large is not None:
            self._large_filled += nbytes
            if self._large_filled == len(self._large):
                frame, self._large = self._large, None
                yield frame.toreadonly()
            return
        chunk = self._chunk
        self._end += nbytes
        while self._end - self._start >= _LEN.size:
            start = self._start
            (length,) = _LEN.unpack_from(chunk, start)
            if length > self._max_frame:
                raise FrameTooLargeError(
                    f"frame of {length} bytes exceeds the {self._max_frame}-byte limit")
            stop = start + _LEN.size + length
            if stop > self._end:
                if _LEN.size + length > len(chunk):
                    # Too big for the chunk: the rest arrives in its own buffer.
                    head = chunk[start + _LEN.size:self._end]
                    self._large = memoryview(bytearray(length))
                    self._large[:len(head)] = head
                    self._large_filled = len(head)
                    self._start = self._end = 0
                return
            self._start = stop
            yield chunk[start + _LEN.size:stop].toreadonly()


class ArrayChannel:
    """Framed JSON-header + raw-ndarray messages over a pipe ``Connection``.

    Both directions go through the connection's descriptor directly: ``send``
    is one ``writev`` of :func:`frame_buffers`, ``recv`` drains a
    :class:`FrameSplitter`, so a burst of frames from the peer costs one read.
    Received arrays are read-only views of their own frame's bytes.
    """

    def __init__(self, connection) -> None:
        self._connection = connection
        self._send_lock = threading.Lock()
        self._splitter = FrameSplitter()
        #: Frames of the last read not yet handed out by :meth:`recv`.
        self._received: Deque[Any] = deque()

    def send(
        self,
        kind: str,
        meta: Optional[Dict[str, Any]] = None,
        arrays: Sequence[np.ndarray] = (),
    ) -> None:
        """Send one message; raises :class:`ChannelClosedError` if the peer is gone."""
        self.send_all(((kind, meta, arrays),))

    def send_all(  # reprolint: hot
        self, messages: Sequence[Tuple[str, Optional[Dict[str, Any]], Sequence[np.ndarray]]]
    ) -> None:
        """Send ``(kind, meta, arrays)`` messages, in order, with one gather-write."""
        buffers: List[Any] = []
        for kind, meta, arrays in messages:
            buffers += frame_buffers(kind, meta, arrays)
        try:
            with self._send_lock:
                send_buffers(partial(os.writev, self._connection.fileno()), buffers)
        except OSError as error:
            # A closed handle (another thread close()d the Connection) raises
            # OSError too, like a broken pipe.
            kinds = "/".join(sorted({message[0] for message in messages}))
            raise ChannelClosedError(f"peer went away while sending {kinds!r}: {error}") from error

    def recv(self) -> Message:  # reprolint: hot
        """Receive one message (blocking); raises :class:`ChannelClosedError` on EOF."""
        received = self._received
        try:
            while not received:
                nbytes = os.readv(self._connection.fileno(), [self._splitter.buffer()])
                if not nbytes:
                    raise EOFError("end of stream")
                # Each frame in memory of its own: what a message keeps alive
                # is its own frame, and the chunk is free for the next read.
                received.extend(map(self._splitter.detach, self._splitter.feed(nbytes)))
            return decode_frame(received.popleft())
        except (EOFError, OSError, ValueError) as error:
            # A closed handle (shutdown/recovery close()d the Connection while
            # this thread was blocked) and a frame truncated by a dying peer
            # are both indistinguishable from EOF.
            raise ChannelClosedError(f"peer went away: {error}") from error

    def close(self) -> None:
        try:
            self._connection.close()
        except OSError:  # pragma: no cover - already closed
            pass
