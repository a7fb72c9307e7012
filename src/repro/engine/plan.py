"""Per-layer execution plans for the pattern-aware sparse engine.

The compile step (:func:`compile_conv_plan`) lowers one pruned :class:`Conv2d`
into a :class:`ConvPlan`: it reads the weight tensor ``(O, I, kh, kw)`` with
the keep-mask applied once, as the full-width ``(O, I*kh*kw)`` matrix a GEMM
would multiply (1x1 convolutions: a channel GEMM on the feature map as is, the
fast path for the layers Algorithm 3 prunes), records its shape, nonzero
count and kept columns, and keeps its values in one form only — the form the
executor reads:

* a layer at most :data:`DIRECT_MAX_DENSITY` dense (every R-TOSS-pruned
  layer) keeps the *element-level* zero structure as CSR row pointers plus a
  bitmap of the matrix (``np.packbits``: 1 bit per entry, at most 2 bits per
  nonzero at that density, where an int32 position per nonzero took 32), and
  the values in row-major order.  :meth:`ConvPlan.csr` rebuilds the int32
  positions when called; :meth:`ConvPlan.direct_layout_for` turns them, per
  input shape, into one int32 input offset per nonzero for the native direct
  sparse-convolution kernel (:mod:`repro.engine.native`) — R-TOSS patterns
  differ per kernel, so almost no im2col column is empty and the zeros can
  only be skipped inside the kernel;
* a denser layer keeps the full-width matrix (for the dense direct kernel of
  the wide dense stems: one offset per column).

There is no column compaction (docs/engine.md, "Why no column compaction").

A plan is a *description*; the one executor that runs it is
:class:`repro.engine.fuse.FusedConv`, which takes the plan's values when the
fused program is built: from then on the plan keeps the structure, the program
the values, so a compiled convolution holds one copy of its weights.

Cache structure: every plan owns its direct layouts, keyed by input shape, so
one compiled model reuses layouts per (layer, input shape) across calls.
:meth:`ConvPlan.refresh_weights` re-packs the values and the structure from the
layer's current weights and mask and drops the layouts built from the old
structure.  A fresh ``compile_model`` call always builds fresh plans.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import ClassVar, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.nn.layers.conv import Conv2d

#: Execution modes a plan can take.
MODE_POINTWISE = "pointwise-gemm"
MODE_IM2COL = "sparse-im2col-gemm"

#: A convolution at most this dense — nonzero share of its ``(O, I*kh*kw)``
#: weight matrix, R-TOSS-2EP ~0.22, 3EP ~0.33 — is held as CSR and runs the
#: native direct sparse kernel where it loaded.  The kernel pays one input load
#: per FMA where BLAS blocks registers, so a dense 3x3 / 1x1 layer (1.0) is
#: faster as gather + GEMM; a dense layer wider than 3x3 runs the
#: register-blocked dense direct kernel.
DIRECT_MAX_DENSITY = 0.5


@dataclass
class LayoutCacheStats:
    """Hit/miss counters of the per-plan layout caches (observability only)."""

    hits: int = 0
    misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


#: Process-wide counters, aggregated over every plan (see :func:`layout_cache_stats`).
#: Misses are counted exactly (under the miss-path lock); hit increments are
#: deliberately lock-free — a hit happens once per conv layer per forward on
#: the serving hot path, and a (vanishingly rare) lost increment on an
#: observability counter is cheaper than serializing every thread on a global
#: lock there.
_GLOBAL_CACHE_STATS = LayoutCacheStats()
#: Guards the global miss counter (the miss path already holds a per-plan lock).
_STATS_LOCK = threading.Lock()


def layout_cache_stats() -> LayoutCacheStats:
    """Aggregate layout-cache statistics across all compiled plans."""
    return _GLOBAL_CACHE_STATS


def reset_layout_cache_stats() -> None:
    with _STATS_LOCK:
        _GLOBAL_CACHE_STATS.hits = 0
        _GLOBAL_CACHE_STATS.misses = 0


def _reinit_after_fork() -> None:
    """Make forked children safe to warm their own plans.

    A serving cluster worker forked while a parent thread sits in the
    layout-miss path would inherit ``_STATS_LOCK`` in the *held* state — the
    child's very first cache miss would then deadlock.  Re-initialize the lock
    (and zero the counters: they describe the parent's traffic, not the
    child's) in every forked child.  Each worker loads and compiles its own
    artifact, so per-plan layout caches and locks are always born fresh in the
    process that uses them; only this module-global needed the at-fork reset.
    """
    global _STATS_LOCK
    _STATS_LOCK = threading.Lock()
    # The forked child is single-threaded: bare stores are race-free here.
    _GLOBAL_CACHE_STATS.hits = 0    # reprolint: disable=lock-discipline
    _GLOBAL_CACHE_STATS.misses = 0  # reprolint: disable=lock-discipline


if hasattr(os, "register_at_fork"):  # not on Windows ("spawn" children re-import)
    os.register_at_fork(after_in_child=_reinit_after_fork)


def _layout_cache_samples():
    """Obs-registry collector: the process-wide layout-cache counters."""
    from repro.obs.registry import Sample

    return [
        Sample("repro_engine_layout_cache_hits_total", {},
               float(_GLOBAL_CACHE_STATS.hits), "counter"),
        Sample("repro_engine_layout_cache_misses_total", {},
               float(_GLOBAL_CACHE_STATS.misses), "counter"),
    ]


def _register_obs_collector() -> None:
    # Deferred import: obs sits below the engine in the layering, but the
    # registration itself must not run during a partially-initialized import
    # cycle, so it lives in a function called at the end of module init.
    from repro.obs.registry import register_builtin_collector

    register_builtin_collector("engine.layout_cache", _layout_cache_samples)


_register_obs_collector()


class DirectLayout(NamedTuple):
    """Per-input-shape operands of the direct sparse-convolution kernel.

    The kernel walks the *flat* positions ``p = y * wq + x`` of an output
    plane laid over the staged input plane (``hq x wq``: the zero-padded
    input, split for a strided layer into its ``stride`` x ``stride`` phases
    so that every tap again reads at a fixed offset from ``p``), computing
    ``sum_j val[j] * staged[off[j] + p]`` — ``j`` a nonzero, or for the dense
    kernel (``per_tap``) a column.  Positions with ``x >= out_w`` wrap into
    the next row's halo and are computed but not stored — the
    ``(wq - out_w) / wq`` waste of the flat-plane trick; ``keep`` marks the real
    outputs (``None`` when ``wq == out_w``, i.e. every position is one).

    ``operands`` is the shape-dependent part of the library's ``sconv_call``
    args block (:data:`repro.engine.native.ARGS`), by field name: ``off``,
    ``keep``, ``tile_dst`` and the geometry its ``stage_planes`` stages the
    input from.  ``staged`` is the per-image ``(planes, C, hq, wq)`` shape of
    the staging buffer — ``None`` for stride 1 without padding, where the
    kernel reads the input in place.
    """

    out_hw: Tuple[int, int]
    staged: Optional[Tuple[int, int, int, int]]
    operands: Dict[str, object]


@dataclass
class ConvPlan:
    """Compiled execution plan of one convolution layer.

    Attributes
    ----------
    layer_name:
        Dotted module path of the layer inside its model.
    mode:
        ``"pointwise-gemm"`` for 1x1 convolutions, ``"sparse-im2col-gemm"``
        otherwise.
    kernel_size, stride, padding:
        Geometry copied from the layer at compile time.
    bias:
        Per-output-channel bias or ``None``.
    shape:
        ``(O, I*kh*kw)``, the shape of the layer's full-width weight matrix.
    nnz, kept_columns:
        Nonzero weights of that matrix, and its columns holding at least one.
    values:
        The masked weights, in the one form the plan keeps (:attr:`sparse`):
        the CSR values in :meth:`csr` order, or the full ``(O, I*kh*kw)``
        matrix of a denser layer.  ``None`` once the fused program built from
        the plan took them (:func:`repro.engine.fuse.fuse_graph`), until
        :meth:`refresh_weights` re-packs.
    """

    layer_name: str
    mode: str
    kernel_size: Tuple[int, int]
    stride: Tuple[int, int]
    padding: Tuple[int, int]
    out_channels: int
    bias: Optional[np.ndarray] = None
    shape: Tuple[int, int] = (0, 0)
    nnz: int = 0
    kept_columns: int = 0
    values: Optional[np.ndarray] = field(default=None, repr=False)
    # The direct kernel's per-image layouts, keyed by (per_tap, C, H, W) —
    # deliberately batch-independent: micro-batches of any size share one.
    _layouts: Dict[tuple, DirectLayout] = field(default_factory=dict, repr=False)
    # Structure of a sparse plan: int32 row pointers and the packed bitmap of
    # the (O, I*kh*kw) matrix's nonzeros (see :meth:`csr`); None: the plan is dense.
    _csr: Optional[Tuple[np.ndarray, np.ndarray]] = field(default=None, repr=False)
    # Guards layout computation/insertion so concurrent no-grad forward passes
    # (the serving layer runs BatchRunner from several threads) build each
    # layout exactly once; cache-hit reads stay lock-free.  A fused conv builds
    # its gather + GEMM matrix under it too (``FusedConv._gemm_weight``).
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    # reprolint lock-discipline contract: the layout cache and the CSR
    # structure it is built from may only be written under the plan lock
    # (cache-hit *reads* stay lock-free by design).
    _guarded_by_: ClassVar[Dict[str, str]] = {"_layouts": "_lock", "_csr": "_lock"}

    # ------------------------------------------------------------------ statistics
    @property
    def density(self) -> float:
        """Nonzero share of the ``(O, I*kh*kw)`` weight matrix.

        What the storage and kernel rule reads (:data:`DIRECT_MAX_DENSITY`):
        ~0.22 for R-TOSS-2EP, ~0.33 for 3EP, 1.0 for an unpruned layer.
        """
        size = self.shape[0] * self.shape[1]
        return self.nnz / size if size else 0.0

    @property
    def sparse(self) -> bool:
        """Whether the plan holds CSR: at most :data:`DIRECT_MAX_DENSITY` dense."""
        return self._csr is not None

    @property
    def rowptr(self) -> Optional[np.ndarray]:
        """CSR row pointers (int32, ``O + 1``) of a sparse plan; None for a dense one."""
        return None if self._csr is None else self._csr[0]

    @property
    def stored_bytes(self) -> int:
        """Bytes of this layer's weights as the engine holds them: the values
        (4 B per nonzero of a sparse plan, per entry of a dense one), the
        structure (row pointers and bitmap) and the cached layouts' offsets."""
        if self._csr is None:
            stored = 4 * self.shape[0] * self.shape[1]
        else:
            stored = 4 * self.nnz + sum(part.nbytes for part in self._csr)
        # A snapshot: another thread may add a layout while this sums.
        return stored + sum(layout.operands["off"].nbytes
                            for layout in list(self._layouts.values()))

    def summary(self) -> Dict[str, object]:
        """One table row describing this plan (used by ``CompiledModel.summary``)."""
        return {
            "layer": self.layer_name,
            "mode": self.mode,
            "kernel": f"{self.kernel_size[0]}x{self.kernel_size[1]}",
            "density": round(float(self.density), 4),
            "stored_bytes": self.stored_bytes,
        }

    # ------------------------------------------------------------------ values
    def refresh_weights(self, layer: Conv2d) -> None:
        """Re-pack values and structure from the layer's current weights and mask.

        Call after fine-tuning steps or re-pruning.  The keep-mask is applied
        during packing, so weights that drifted nonzero at masked positions
        (fine-tuning without ``masks.reapply``) are still treated as pruned —
        the compiled path always computes the *masked* forward.  A sparse
        plan's full-width matrix lives only inside this call.
        """
        matrix = _masked_weight_matrix(layer)
        rows, width = matrix.shape
        nonzero = matrix != 0.0                     # bool scans: 6x faster than float
        self.shape, self.nnz = (rows, width), int(np.count_nonzero(nonzero))
        self.kept_columns = int(np.count_nonzero(nonzero.any(axis=0)))
        csr = None
        if self.density <= DIRECT_MAX_DENSITY:
            if rows * width >= 2 ** 31:
                raise ValueError(f"{self.layer_name}: weight matrix too large for int32 CSR")
            flat = np.flatnonzero(nonzero)
            rowptr = np.searchsorted(flat, np.arange(rows + 1) * width).astype(np.int32)
            csr = (rowptr, np.packbits(nonzero))
            matrix = matrix.reshape(-1)[flat]
        self.values = matrix
        self.bias = None if layer.bias is None else layer.bias.data.astype(np.float32)
        # A weight that became (or stopped being) exactly zero changes the
        # element-level structure the direct layouts were built from.
        with self._lock:
            self._csr = csr
            self._layouts = {}

    def packed(self) -> np.ndarray:
        """:attr:`values`; a ValueError once a fused program took them."""
        if self.values is None:
            raise ValueError(f"{self.layer_name}: the plan's values went to a fused program; "
                             "refresh_weights() re-packs them")
        return self.values

    def full_width(self, values: Optional[np.ndarray] = None) -> np.ndarray:
        """``values`` in this plan's form (default: the plan's own, masked) as
        the full-width ``(O, I*kh*kw)`` matrix: a sparse plan's scattered into
        a new zero matrix, a dense plan's as it is."""
        values = self.packed() if values is None else values
        if self._csr is None:
            return values
        matrix = np.zeros(self.shape, dtype=values.dtype)
        matrix[self._nonzero()] = values
        return matrix

    # ------------------------------------------------------------------ layout
    def output_hw(self, h: int, w: int) -> Tuple[int, int]:
        """Spatial output size of this plan on an ``h x w`` input."""
        kh, kw = self.kernel_size
        sh, sw = self.stride
        ph, pw = self.padding
        out_h = (h + 2 * ph - kh) // sh + 1
        out_w = (w + 2 * pw - kw) // sw + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(
                f"convolution output would be empty for input {(h, w)}, "
                f"kernel {self.kernel_size}, stride {self.stride}, padding {self.padding}"
            )
        return out_h, out_w

    def direct_layout_for(self, input_shape: Tuple[int, int, int],
                          per_tap: bool = False) -> DirectLayout:
        """The direct kernel's :class:`DirectLayout` for one ``(C, H, W)`` shape;
        ``per_tap``: one offset per column, for the dense kernel.

        Cached per plan and dropped by :meth:`refresh_weights`, because it
        bakes in the element-level structure :meth:`csr` reports.
        Thread-safe: concurrent callers on a shape miss serialize on the
        plan's lock and the layout is computed exactly once.
        """
        key = (per_tap, *input_shape)
        cached = self._layouts.get(key)
        if cached is not None:
            # Deliberately lock-free hit counting (see _GLOBAL_CACHE_STATS).
            _GLOBAL_CACHE_STATS.hits += 1  # reprolint: disable=lock-discipline
            return cached
        with self._lock:
            cached = self._layouts.get(key)
            if cached is not None:
                _GLOBAL_CACHE_STATS.hits += 1  # reprolint: disable=lock-discipline
                return cached
            layout = self._build_direct_layout(input_shape, per_tap)
            self._layouts[key] = layout
        with _STATS_LOCK:
            _GLOBAL_CACHE_STATS.misses += 1
        return layout

    # ------------------------------------------------------------------ direct kernel
    def csr(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """CSR structure ``(rowptr, flat)`` of a sparse plan's nonzeros; None
        for a dense plan.

        ``flat`` (int32) holds the nonzeros' positions in the row-major
        ``(O, K)`` matrix (``row * K + column``), ascending — so ``flat % K``
        is the CSR column index, and :attr:`values` (like the executor's
        BN-folded copy of them) lists the values in this order.  Rebuilt
        from the plan's bitmap on every call; the plan does not keep it.
        """
        if self._csr is None:
            return None
        return self._csr[0], np.flatnonzero(self._nonzero()).astype(np.int32)

    def _nonzero(self) -> np.ndarray:
        """A sparse plan's bitmap unpacked: the ``(O, K)`` bool nonzero map."""
        rows, width = self.shape
        bits = np.unpackbits(self._csr[1], count=rows * width)
        return bits.view(bool).reshape(rows, width)

    def _build_direct_layout(  # reprolint: holds=_lock
            self, input_shape: Tuple[int, int, int], per_tap: bool) -> DirectLayout:
        c, h, w = input_shape
        out_h, out_w = self.output_hw(h, w)
        kh, kw = self.kernel_size
        sh, sw = self.stride
        ph, pw = self.padding
        # Phases a tap can fall into, and the plane that covers every read:
        # tap (r, s) at output (y, x) reads padded[y*sh + r, x*sw + s], i.e.
        # row y + r//sh, column x + s//sw of phase (r % sh, s % sw).
        phase_rows, phase_cols = min(kh, sh), min(kw, sw)
        hq, wq = out_h + (kh - 1) // sh, out_w + (kw - 1) // sw
        planes = phase_rows * phase_cols
        if planes * c * hq * wq >= 2 ** 31:
            raise ValueError(f"input {input_shape} is too large for int32 offsets")

        # Offsets per column, then gathered per nonzero: the same arithmetic
        # done per nonzero made retinanet_lite's first forward ~50 ms slower.
        width = self.shape[1]
        channel, tap = np.divmod(np.arange(width), kh * kw)
        row, col = np.divmod(tap, kw)
        phase = (row % sh) * phase_cols + col % sw
        column_offset = (phase * c + channel) * (hq * wq) + (row // sh) * wq + col // sw
        if not per_tap:
            column_offset = column_offset[self.csr()[1] % width]
        off = np.ascontiguousarray(column_offset, dtype=np.int32)

        npos = (out_h - 1) * wq + out_w
        keep = tile_dst = None
        if wq != out_w:
            tiles = -(-npos // 64)
            position = np.arange(tiles * 64)
            real = (position % wq < out_w) & (position < npos)
            keep = (real.reshape(-1, 16) << np.arange(16)).sum(axis=1).astype(np.uint16)
            tile_dst = np.zeros(tiles, dtype=np.int32)
            np.cumsum(real.reshape(tiles, 64).sum(axis=1)[:-1], out=tile_dst[1:])
        staged = (planes, c, hq, wq)
        return DirectLayout(
            (out_h, out_w), staged if (sh, sw, ph, pw) != (1, 1, 0, 0) else None,
            dict(off=off, keep=keep, tile_dst=tile_dst, c=c, h=h, w=w, sh=sh, sw=sw, ph=ph,
                 pw=pw, hq=hq, wq=wq, phase_cols=phase_cols, planes=planes,
                 in_stride=math.prod(staged), npos=npos, length=out_h * out_w))


def _masked_weight_matrix(layer: Conv2d) -> np.ndarray:
    """Full-width ``(O, I*kh*kw)`` weight matrix with the keep-mask applied."""
    effective = layer.weight.data * layer.keep_mask()
    return np.ascontiguousarray(effective.reshape(effective.shape[0], -1), dtype=np.float32)


def compile_conv_plan(layer: Conv2d, layer_name: str = "") -> ConvPlan:
    """Lower one convolution layer into a :class:`ConvPlan`."""
    kh, kw = layer.kernel_size
    pointwise = (kh, kw) == (1, 1) and layer.padding == (0, 0)
    plan = ConvPlan(
        layer_name=layer_name,
        mode=MODE_POINTWISE if pointwise else MODE_IM2COL,
        kernel_size=(kh, kw),
        stride=layer.stride,
        padding=layer.padding,
        out_channels=layer.weight.data.shape[0],
    )
    plan.refresh_weights(layer)
    return plan
