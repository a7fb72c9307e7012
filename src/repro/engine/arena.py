"""Shape-keyed workspace arena: zero-allocation steady-state inference buffers.

Every fused-executor op (:mod:`repro.engine.fuse`) writes its result into a
buffer obtained from a :class:`WorkspaceArena` instead of allocating a fresh
array.  Buffers are keyed by ``(op key, role, shape, dtype)`` — the same op
running on the same input shape gets the *same* buffer back on every forward
pass, so steady-state inference performs zero new large-array allocations
after the first (warmup) pass on a shape.

The arena is deliberately **not** thread-safe: one arena belongs to one
executing thread.  :class:`repro.engine.fuse.FusedProgram` hands each thread
its own arena (thread-local checkout) so concurrent serving threads can never
alias each other's scratch space; the per-thread hit/miss counters are
aggregated by :meth:`repro.engine.compiler.CompiledModel.arena_stats`.

An op may also keep a **binding** here: what it resolved once for one tuple of
input shapes (buffers, or a :class:`repro.engine.native.BoundCall` holding
their addresses), and the program keeps what a forward of one input shape
runs: its steps cut into segments (:class:`repro.engine.fuse.Segment` — tables
of raw addresses of those bindings' args blocks).  A natively bound step is
bound for *one image* and shared by every batch size, so its buffers do not
grow with the batch.  All of it points into this arena, so it lives and dies
with it; a lookup that finds a binding counts as one hit, for the buffer
lookups it replaces.

Buffer ownership contract: an arena buffer is valid from the op that filled it
until the end of the *current* forward pass — the next forward reuses it.
Anything that escapes the executor (final model outputs) must therefore be
copied out of the arena first (the fused executor does this).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

import numpy as np


#: Every arena buffer starts on a cache line.  ``np.empty`` only promises 16
#: bytes, and where in a line a buffer happens to start differs from process
#: to process: BLAS and the native kernels then split every vector load of a
#: row across two lines in some runs and in none in others (measured: the same
#: forward 2-3 % faster or slower for the whole life of a process).
ALIGNMENT = 64


def _aligned_empty(shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """``np.empty(shape, dtype)`` whose data starts on an :data:`ALIGNMENT` boundary."""
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    raw = np.empty(nbytes + ALIGNMENT, dtype=np.uint8)
    start = -raw.ctypes.data % ALIGNMENT
    return raw[start:start + nbytes].view(dtype).reshape(shape)


class WorkspaceArena:
    """Reusable scratch buffers for one inference thread.

    Example
    -------
    >>> arena = WorkspaceArena()
    >>> a = arena.buffer(("conv1", "gemm_out"), (2, 8, 16))
    >>> b = arena.buffer(("conv1", "gemm_out"), (2, 8, 16))
    >>> a is b
    True
    >>> (arena.hits, arena.misses)
    (1, 1)
    """

    # __weakref__ lets FusedProgram hold per-thread arenas weakly, so scratch
    # buffers are reclaimed when their owning thread exits.
    __slots__ = ("_slots", "_bindings", "hits", "misses", "bytes_allocated", "__weakref__")

    def __init__(self) -> None:
        self._slots: Dict[Tuple[Hashable, Tuple[int, ...], str], np.ndarray] = {}
        self._bindings: Dict[Tuple[Hashable, tuple], object] = {}
        self.hits = 0
        self.misses = 0
        self.bytes_allocated = 0

    def buffer(
        self,
        key: Hashable,
        shape: Tuple[int, ...],
        dtype=np.float32,
        fill: Optional[float] = None,
    ) -> np.ndarray:
        """Return the reusable buffer for ``(key, shape, dtype)``.

        ``fill`` initialises the buffer *once*, at allocation time only.  Ops
        that rely on it (e.g. the padded im2col staging buffer keeps its halo
        at the fill value) must overwrite exactly the interior region on every
        call and leave the filled border untouched.
        """
        slot = (key, tuple(shape), np.dtype(dtype).str)
        buf = self._slots.get(slot)
        if buf is not None:
            self.hits += 1
            return buf
        self.misses += 1
        buf = _aligned_empty(shape, np.dtype(dtype))
        if fill is not None:
            buf[...] = fill
        self.bytes_allocated += buf.nbytes
        self._slots[slot] = buf
        return buf

    def binding(self, key: Hashable, shapes: tuple, build):
        """What ``key`` bound for these input shapes; ``build(arena, shapes)``
        makes it on the first forward that sees them, later ones count a hit."""
        bound = self._bindings.get((key, shapes))
        if bound is None:
            bound = self._bindings[(key, shapes)] = build(self, shapes)
        else:
            self.hits += 1
        return bound

    # ------------------------------------------------------------------ stats
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "buffers": len(self._slots),
            "bytes_allocated": self.bytes_allocated,
        }

    def clear(self) -> None:
        """Drop every buffer and binding (and the counters) — e.g. after a model refresh."""
        self._bindings.clear()
        self._slots.clear()
        self.hits = 0
        self.misses = 0
        self.bytes_allocated = 0

    def __len__(self) -> int:
        return len(self._slots)


def merge_stats(arenas) -> Dict[str, int]:
    """Aggregate :meth:`WorkspaceArena.stats` over several (per-thread) arenas."""
    total = {"hits": 0, "misses": 0, "buffers": 0, "bytes_allocated": 0, "arenas": 0}
    for arena in arenas:
        stats = arena.stats()
        total["hits"] += stats["hits"]
        total["misses"] += stats["misses"]
        total["buffers"] += stats["buffers"]
        total["bytes_allocated"] += stats["bytes_allocated"]
        total["arenas"] += 1
    return total
