"""Per-layer execution plans for the pattern-aware sparse engine.

The compile step (:func:`compile_conv_plan`) lowers one pruned :class:`Conv2d`
into a :class:`ConvPlan` — a column-compacted GEMM description:

* the weight tensor ``(O, I, kh, kw)`` is flattened to a matrix ``(O, I*kh*kw)``
  and every column that is zero for *all* output channels (a tap that no kernel's
  pattern keeps for that input channel) is dropped entirely — those taps are
  never gathered from the input again,
* the surviving columns are described by ``(channel, tap_row, tap_col)`` index
  vectors from which a flat gather ("partial im2col") index is built lazily per
  input shape and cached — re-running the same layer on the same shape reuses
  the cached layout,
* 1x1 convolutions skip the gather altogether and execute as a channel GEMM on
  the (optionally channel-compacted) feature map — the fast path for the layers
  Algorithm 3 prunes.

* for the native direct sparse-convolution kernel
  (:mod:`repro.engine.native`) the plan also packs the *element-level* zero
  structure: :meth:`ConvPlan.csr` is the CSR structure of the packed matrix and
  :meth:`ConvPlan.direct_layout_for` turns it, per input shape, into one int32
  input offset per nonzero — R-TOSS patterns differ per kernel, so almost no
  column is empty and the zeros can only be skipped inside the kernel.  (For
  the dense direct kernel of the wide dense stems: one offset per kept column.)

A plan is a *description*; the one executor that runs it is
:class:`repro.engine.fuse.FusedConv`.

Dropping all-zero columns is *exact*: a zero weight contributes nothing to the
convolution, so the compiled output equals the dense masked output bit-for-bit
up to float summation order.  The more structure a pruner produces (shared
patterns within a DFS group, connectivity pruning, whole-kernel removal), the
more columns drop and the smaller both the gather and the GEMM become.

Cache structure: every plan owns its gather and direct layouts, keyed by input
shape, so one compiled model reuses layouts per (layer, pattern set, input
shape) across calls.  The plan's ``signature`` hashes its kept-column set; ``is_stale``
compares it against the layer's current mask so ``CompiledModel.refresh()``
recompiles exactly the layers whose pattern assignment changed (plain weight
updates are re-packed without recompiling).  A fresh ``compile_model`` call
always builds fresh plans.
"""

from __future__ import annotations

import hashlib
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
    kernel (``per_tap``) a kept column.  Positions with ``x >= out_w`` wrap
    into the next row's halo and are computed but not stored — the
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
    total_columns / kept_columns:
        Size of the dense im2col column space (``I * kh * kw``) and the indices
        of the columns that survived compaction.
    weight_matrix:
        ``(O, K)`` compacted weight matrix (only kept columns).
    bias:
        Per-output-channel bias or ``None``.
    signature:
        Content hash of the kept-column set — part of the layout-cache key and
        compared against the layer's current mask by :meth:`is_stale`.
    """

    layer_name: str
    mode: str
    kernel_size: Tuple[int, int]
    stride: Tuple[int, int]
    padding: Tuple[int, int]
    out_channels: int
    total_columns: int
    kept_columns: np.ndarray
    weight_matrix: np.ndarray
    bias: Optional[np.ndarray]
    channel_index: np.ndarray
    tap_rows: np.ndarray
    tap_cols: np.ndarray
    signature: str
    # Kept input channels for the pointwise fast path; None means "all channels".
    pointwise_channels: Optional[np.ndarray] = None
    # Per-image layouts — deliberately batch-independent: micro-batches of
    # any size share one.  Flat gather layouts are keyed by (C, H, W), the
    # direct kernel's by ("direct", C, H, W).
    _layouts: Dict[tuple, object] = field(default_factory=dict, repr=False)
    # CSR structure of ``weight_matrix`` (see :meth:`csr`), packed on first use.
    _csr: Optional[Tuple[np.ndarray, np.ndarray]] = field(default=None, repr=False)
    # Guards layout computation/insertion so concurrent no-grad forward passes
    # (the serving layer runs BatchRunner from several threads) build each
    # layout exactly once; cache-hit reads stay lock-free.
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    # reprolint lock-discipline contract: the layout cache and the CSR
    # structure may only be written under the plan lock (cache-hit *reads*
    # stay lock-free by design).
    _guarded_by_: ClassVar[Dict[str, str]] = {"_layouts": "_lock", "_csr": "_lock"}

    # ------------------------------------------------------------------ statistics
    @property
    def dropped_columns(self) -> int:
        """Columns (input-channel x tap pairs) the compiled path never touches."""
        return self.total_columns - int(self.kept_columns.size)

    @property
    def column_sparsity(self) -> float:
        """Fraction of the dense im2col column space that was dropped."""
        if self.total_columns == 0:
            return 0.0
        return self.dropped_columns / self.total_columns

    @property
    def weight_sparsity(self) -> float:
        """Fraction of zeros remaining *inside* the compacted weight matrix."""
        if self.weight_matrix.size == 0:
            return 0.0
        return 1.0 - np.count_nonzero(self.weight_matrix) / self.weight_matrix.size

    @property
    def density(self) -> float:
        """Nonzero share of the *dense* ``(O, I*kh*kw)`` weight matrix.

        What the direct kernel's selection rule reads: ~0.22 for R-TOSS-2EP,
        ~0.33 for 3EP, 1.0 for an unpruned layer.
        """
        total = self.out_channels * self.total_columns
        return np.count_nonzero(self.weight_matrix) / total if total else 0.0

    def summary(self) -> Dict[str, object]:
        """One table row describing this plan (used by ``CompiledModel.summary``)."""
        return {
            "layer": self.layer_name,
            "mode": self.mode,
            "kernel": f"{self.kernel_size[0]}x{self.kernel_size[1]}",
            "columns": f"{int(self.kept_columns.size)}/{self.total_columns}",
            "column_sparsity": round(float(self.column_sparsity), 4),
            "weight_sparsity": round(float(self.weight_sparsity), 4),
        }

    # ------------------------------------------------------------------ staleness
    def is_stale(self, layer: Conv2d) -> bool:
        """True when the layer's mask no longer matches this plan.

        Weight *values* may change freely (the compiled matrix is refreshed via
        :meth:`refresh_weights`); a changed *mask* requires recompilation.
        """
        return column_signature(_kept_column_indices(layer)) != self.signature

    def refresh_weights(self, layer: Conv2d) -> None:
        """Re-pack the compacted weight matrix from the layer's current weights.

        Call after fine-tuning steps that changed weight values but kept the
        pattern assignment (the usual R-TOSS fine-tuning regime).  The keep-mask
        is applied during packing, so weights that drifted nonzero at masked
        positions (fine-tuning without ``masks.reapply``) are still treated as
        pruned — the compiled path always computes the *masked* forward.
        """
        self.weight_matrix = _packed_weight_matrix(layer, self.kept_columns)
        self.bias = None if layer.bias is None else layer.bias.data.astype(np.float32)
        # A weight that became (or stopped being) exactly zero changes the
        # element-level structure the direct layouts were built from.
        with self._lock:
            self._csr = None
            self._layouts = {key: layout for key, layout in self._layouts.items()
                             if key[0] != "direct"}

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

    def fused_layout_for(self, input_shape: Tuple[int, int, int]) -> tuple:
        """Flat gather indices for one ``(C, H, W)`` input shape (cached per plan).

        Returns ``(flat, out_h, out_w, (hp, wp))`` where ``flat`` is one
        ``(K, L)`` int index array into each image's *flattened padded* plane,
        so the executor can gather straight into its arena column buffer with
        a single buffer-free ``np.take(..., axis=1)``.  Deliberately
        batch-independent: serving micro-batches of varying sizes share one
        cached index per geometry.

        Thread-safe: concurrent callers on a shape miss serialize on the plan's
        lock and the layout is computed exactly once.
        """
        return self._cached_layout(input_shape, self._build_layout)

    def direct_layout_for(self, input_shape: Tuple[int, int, int],
                          per_tap: bool = False) -> DirectLayout:
        """The direct kernel's :class:`DirectLayout` for one ``(C, H, W)`` shape;
        ``per_tap``: one offset per kept column, for the dense kernel.

        Cached and thread-safe exactly like :meth:`fused_layout_for` (same
        dict, lock and hit/miss counters); dropped by :meth:`refresh_weights`
        because it bakes in the element-level structure :meth:`csr` reports.
        """
        return self._cached_layout(
            ("direct", per_tap, *input_shape),
            lambda shape: self._build_direct_layout(shape, per_tap))

    def _cached_layout(self, key: tuple, build):
        """The layout cached under ``key`` (which ends in the ``(C, H, W)`` shape)."""
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
            layout = build(key[-3:])
            self._layouts[key] = layout
        with _STATS_LOCK:
            _GLOBAL_CACHE_STATS.misses += 1
        return layout

    def _build_layout(self, input_shape: Tuple[int, int, int]) -> tuple:
        _, h, w = input_shape
        out_h, out_w = self.output_hw(h, w)
        sh, sw = self.stride
        ph, pw = self.padding
        hp, wp = h + 2 * ph, w + 2 * pw
        oy = sh * np.repeat(np.arange(out_h), out_w)
        ox = sw * np.tile(np.arange(out_w), out_h)
        rows = self.tap_rows[:, None] + oy[None, :]            # (K, L)
        cols = self.tap_cols[:, None] + ox[None, :]            # (K, L)
        flat = self.channel_index[:, None] * (hp * wp) + rows * wp + cols
        flat = np.ascontiguousarray(flat, dtype=np.intp)
        flat.setflags(write=False)
        return (flat, out_h, out_w, (hp, wp))

    # ------------------------------------------------------------------ direct kernel
    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR structure ``(rowptr, flat)`` of the packed matrix's nonzeros.

        ``flat`` holds the nonzeros' positions in the row-major ``(O, K)``
        matrix (``row * K + kept column``), ascending — so ``flat % K`` is the
        CSR column index and ``matrix.reshape(-1)[flat]`` lists, in CSR order,
        the values of any matrix of the same shape, which is how the executor
        packs its BN-folded copy.  Packed on first use (only layers the direct
        kernel runs need it).
        """
        packed = self._csr
        if packed is None:
            with self._lock:
                packed = self._pack_csr()
        return packed

    def _pack_csr(self) -> Tuple[np.ndarray, np.ndarray]:  # reprolint: holds=_lock
        if self._csr is None:
            rows, width = self.weight_matrix.shape
            if rows * width >= 2 ** 31:
                raise ValueError(f"{self.layer_name}: weight matrix too large for int32 CSR")
            flat = np.flatnonzero(self.weight_matrix != 0.0)   # bool scan: 6x faster than float
            rowptr = np.searchsorted(flat, np.arange(rows + 1) * width).astype(np.int32)
            self._csr = (rowptr, flat.astype(np.int32))
        return self._csr

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

        phase = (self.tap_rows % sh) * phase_cols + self.tap_cols % sw
        column_offset = ((phase * c + self.channel_index) * (hq * wq)
                         + (self.tap_rows // sh) * wq + self.tap_cols // sw)
        if not per_tap:
            column_offset = column_offset[self._pack_csr()[1] % self.weight_matrix.shape[1]]
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


def _kept_column_indices(layer: Conv2d) -> np.ndarray:
    """Indices of im2col columns with at least one surviving weight."""
    weight = layer.weight.data
    mask = layer.keep_mask()
    effective = weight * mask
    flat = effective.reshape(effective.shape[0], -1)
    return np.nonzero(np.any(flat != 0.0, axis=0))[0]


def _packed_weight_matrix(layer: Conv2d, kept: np.ndarray) -> np.ndarray:
    """Column-compacted ``(O, K)`` weight matrix with the keep-mask applied."""
    effective = layer.weight.data * layer.keep_mask()
    wmat = effective.reshape(effective.shape[0], -1)
    return np.ascontiguousarray(wmat[:, kept], dtype=np.float32)


def column_signature(kept: np.ndarray) -> str:
    """Stable hash of a kept-column set (part of the layout-cache key)."""
    return hashlib.sha256(np.asarray(kept, dtype=np.int64).tobytes()).hexdigest()[:16]


def compile_conv_plan(layer: Conv2d, layer_name: str = "") -> ConvPlan:
    """Lower one convolution layer into a :class:`ConvPlan`.

    Raises
    ------
    ValueError
        For grouped convolutions (``groups > 1``) — the caller is expected to
        leave those on the dense fallback path.
    """
    if layer.groups != 1:
        raise ValueError(
            f"cannot compile grouped convolution {layer_name!r} (groups={layer.groups}); "
            "leave it on the dense fallback path"
        )
    weight = layer.weight.data
    out_channels = weight.shape[0]
    kh, kw = layer.kernel_size
    kept = _kept_column_indices(layer)

    channel_index = kept // (kh * kw)
    tap = kept % (kh * kw)
    tap_rows = tap // kw
    tap_cols = tap % kw

    pointwise = (kh, kw) == (1, 1) and layer.padding == (0, 0)
    pointwise_channels: Optional[np.ndarray] = None
    if pointwise and kept.size < weight.shape[1]:
        pointwise_channels = channel_index

    plan = ConvPlan(
        layer_name=layer_name,
        mode=MODE_POINTWISE if pointwise else MODE_IM2COL,
        kernel_size=(kh, kw),
        stride=layer.stride,
        padding=layer.padding,
        out_channels=out_channels,
        total_columns=int(weight.size // out_channels) if out_channels else 0,
        kept_columns=kept,
        weight_matrix=_packed_weight_matrix(layer, kept),
        bias=None if layer.bias is None else layer.bias.data.astype(np.float32),
        channel_index=channel_index,
        tap_rows=tap_rows,
        tap_cols=tap_cols,
        signature=column_signature(kept),
        pointwise_channels=pointwise_channels,
    )
    return plan
