"""Fusion pass + fused executor: run a traced graph with zero steady-state allocation.

Takes the flat op list a :class:`~repro.engine.trace.GraphPlan` records and
lowers it into a :class:`FusedProgram` of raw-numpy ops over arena buffers
(:mod:`repro.engine.arena`):

* **BatchNorm folding** — an eval-mode BatchNorm that is the sole consumer of
  a compiled convolution is folded away entirely: its per-channel ``scale`` is
  multiplied into the conv's weights, in the form the plan packed them (CSR
  values or a full-width ``(O, K)`` matrix), and its ``shift`` absorbed into
  the bias (:meth:`repro.nn.layers.norm.BatchNorm2d.fold_params`).  The fused
  ops own what they execute: once they are built, the plans drop their values.
* **Activation epilogues** — ReLU / LeakyReLU / SiLU directly after a compiled
  convolution (or its folded BatchNorm) run in place on the GEMM output buffer
  instead of as separate passes with their own temporaries; where
  :mod:`repro.engine.native` loaded, bias + activation are one in-register
  pass (``bias_act_f32``), the epilogue the direct sparse kernel applies.
* **Arena execution** — a step with a Python body writes into whole-batch
  buffers keyed by ``(op, role, shape)``; a convolution's gather is one
  strided-window copy (``as_strided`` view) into the GEMM-ready column buffer
  — a 1x1 multiplies the feature map as is — and the GEMM itself is
  ``np.matmul(W, cols, out=...)`` over the full-width weight matrix (for a
  conv held as CSR, scattered once, on first use).  After
  one warmup pass per input shape, a steady-state forward allocates nothing
  large; only the final outputs are copied out of the arena (they must
  survive the next forward).
* **Segments** — a forward walks segments, not steps: each maximal run of
  natively bound steps (direct convolutions, the native glue ops) is
  *one* call into the library, images outermost, on buffers bound for one image
  — from its first conv whose plane fits one vector on, steps outermost over
  groups of images that share that conv's vector lanes (:class:`Segment`); a
  step with a Python body is a segment of its own.
* **Direct sparse kernel** — where :mod:`repro.engine.native` loaded its fp32
  kernel, a pruned convolution skips gather, GEMM and epilogue altogether: the
  zero-padded planes are staged once and one native call walks the CSR of the
  surviving weights (:meth:`FusedConv.choose_kernel` holds the static rule).
  R-TOSS patterns differ per kernel, so this is what makes a pruned model
  faster than its dense twin.  A dense convolution wider than 3x3 (a 6x6 /
  7x7 stem, dense in every arm) runs the library's dense direct kernel the
  same way, so it joins the segment too.

BatchNorm folding changes the floating-point evaluation order (scales are
applied to weights before the GEMM instead of to activations after it), so
fused outputs match the dense forward to ~1e-6 — well inside the 1e-5 equivalence
bound every benchmark and artifact check enforces — but not bit-for-bit.

Thread safety: a :class:`FusedProgram` is immutable after construction; each
executing thread checks out its own :class:`~repro.engine.arena.WorkspaceArena`
(thread-local), so concurrent forwards never share scratch buffers.
"""

from __future__ import annotations

import ctypes
import math
import threading
import time
import weakref
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

from repro.engine.arena import WorkspaceArena, merge_stats
from repro.engine.native import (
    ACT_CODES,
    ARGS,
    BoundCall,
    SparseConvKernel,
    address,
    fill,
    load_sparse_kernel,
)
from repro.engine.plan import MODE_POINTWISE, ConvPlan, layout_cache_stats
from repro.engine.trace import (
    GraphPlan,
    OpNode,
    Slot,
    TraceError,
    _iter_tensors,
    fill_template,
)
from repro.nn.tensor import Tensor, no_grad

#: Activations that may run as an in-place GEMM epilogue on the conv output.
EPILOGUE_ACTS = ("relu", "leaky_relu", "silu")
#: Activations the executor can compute as raw numpy into an arena buffer.
RAW_ACTS = ("relu", "leaky_relu", "silu", "sigmoid", "tanh", "hardswish")

#: Process-wide layout-cache counters; a bound direct call counts as a hit.
_LAYOUT_STATS = layout_cache_stats()

#: Output rows a BN fold multiplies at a time (:meth:`FusedConv.fold_batchnorm`).
FOLD_ROWS = 64

#: fp32 lanes of one AVX-512 vector.  A direct sparse conv whose one-image plane
#: has at most this many flat positions runs the images of a group in the lanes
#: of one call (docs/engine.md, "Batch-major tail").
VECTOR_LANES = 16


def _leaky_slope_supported(params: Dict) -> bool:
    """Whether a leaky_relu node's slope has a min/max raw kernel.

    ``leaky_relu(x)`` equals ``max(x, s*x)`` for ``0 <= s <= 1`` and
    ``min(x, s*x)`` for ``s >= 1``; a *negative* slope is neither, so those
    (pathological) modules replay through their own forward instead.
    """
    if params.get("act") != "leaky_relu":
        return True
    slope = params.get("negative_slope")
    return slope is not None and slope >= 0.0


def _contiguous(data: np.ndarray, arena: WorkspaceArena, key) -> np.ndarray:
    """Return C-contiguous float32 data, staging through the arena if needed."""
    if data.flags["C_CONTIGUOUS"] and data.dtype == np.float32:
        return data
    buf = arena.buffer(key, data.shape)
    np.copyto(buf, data)
    return buf


def _activation_kernel(tag: str, x: np.ndarray, out: np.ndarray,
                       scratch: np.ndarray, slope: Optional[float]) -> None:
    """The one raw activation kernel shared by the GEMM epilogue and ActOp.

    Writes ``act(x)`` into ``out``.  ``scratch`` may alias ``out`` (the
    stand-alone path reuses its output buffer as scratch) but must be distinct
    from ``x`` whenever ``x`` aliases ``out`` (the in-place epilogue passes a
    separate arena scratch).  Keeping a single implementation guarantees the
    epilogue and the stand-alone op can never drift numerically.
    """
    if tag == "relu":
        np.maximum(x, 0.0, out=out)
    elif tag == "leaky_relu":
        # For 0 <= slope <= 1, leaky_relu(x) == max(x, slope*x); for slope >= 1
        # it is min(x, slope*x).  Negative slopes are neither and never reach
        # here (guarded by _leaky_slope_supported at fuse time).
        np.multiply(x, slope, out=scratch)
        select = np.maximum if slope <= 1.0 else np.minimum
        select(x, scratch, out=out)
    elif tag == "silu":
        np.negative(x, out=scratch)
        np.exp(scratch, out=scratch)        # exp(-x); overflow -> inf -> 0, correct limit
        scratch += 1.0
        np.divide(x, scratch, out=out)      # x / (1 + exp(-x)) == x * sigmoid(x)
    elif tag == "sigmoid":
        # Mirror the dense (autograd) kernel's +-60 clamp exactly.
        np.clip(x, -60.0, 60.0, out=scratch)
        np.negative(scratch, out=scratch)
        np.exp(scratch, out=scratch)
        scratch += 1.0
        np.reciprocal(scratch, out=out)
    elif tag == "tanh":
        np.tanh(x, out=out)
    elif tag == "hardswish":
        np.add(x, 3.0, out=scratch)
        np.clip(scratch, 0.0, 6.0, out=scratch)
        scratch *= x
        np.divide(scratch, 6.0, out=out)
    else:  # pragma: no cover - guarded by RAW_ACTS/EPILOGUE_ACTS at fuse time
        raise AssertionError(f"no raw kernel for activation {tag!r}")


def _apply_activation_inplace(tag: Optional[str], buf: np.ndarray,
                              arena: WorkspaceArena, key,
                              negative_slope: Optional[float]) -> None:
    """Apply an epilogue activation in place on the GEMM output buffer."""
    if tag is None:
        return
    # relu/tanh never touch scratch; skip the (per-op, reused) buffer for them.
    scratch = buf if tag in ("relu", "tanh") else arena.buffer((key, "act"), buf.shape)
    _activation_kernel(tag, buf, buf, scratch, negative_slope)


class _FusedOp:
    """Base class: one executable step of a fused program."""

    __slots__ = ("node", "out_slot", "native")

    #: Executed-mode string reported by profiles; only the convs have one.
    mode = ""

    def __init__(self, node: OpNode) -> None:
        self.node = node
        self.out_slot = node.outputs[0]
        #: The native library when it loaded (:func:`fuse_graph` sets it), for
        #: the steps that have a native body; None: the numpy body.
        self.native: Optional[SparseConvKernel] = None

    @property
    def key(self) -> int:
        return self.node.index

    def execute(self, values: List[Optional[np.ndarray]],
                arena: WorkspaceArena) -> None:  # pragma: no cover - abstract
        """Run this step's Python body: as a segment of its own, on whole-batch
        arrays; the convs add a ``timed`` flag for per-phase profiling."""
        raise NotImplementedError

    def natively(self) -> bool:
        """Whether this step has a native body to bind (what it binds may still
        depend on the shapes): such steps run inside a :class:`Segment`."""
        return False

    def one_vector(self, shape) -> bool:
        """Whether this step is a direct sparse conv whose one-image output plane
        fits one vector on input ``shape``: a segment binds it for a group."""
        return False

    def profile(self, values, arena, profiler, *timed) -> None:
        """:meth:`execute`, timed into ``profiler``."""
        started = time.perf_counter()
        phases = self.execute(values, arena, *timed)
        profiler.record_op(self.profile_name(), self.node.kind, self.mode,
                           time.perf_counter() - started, phases)

    def profile_name(self) -> str:
        return self.node.name or f"{self.node.kind}#{self.key}"


class FusedConv(_FusedOp):
    """A compiled convolution with optionally folded BN and activation epilogue.

    It holds its weights once, in the form what runs it reads.  ``weight`` is
    the plan's values with BN folded in (:meth:`fold_batchnorm`): the CSR
    values of a sparse plan — the direct sparse kernel's ``csr_val`` — or a
    dense plan's full-width matrix, which the dense direct kernel trades for
    its packed copy (``weight`` then None).  The gather + GEMM body multiplies
    a full-width matrix: a dense plan's ``weight``, else one built on first use
    (:meth:`_gemm_weight`).  An op without a folded BN shares the plan's array.
    """

    __slots__ = ("plan", "weight", "bias", "act", "act_slope", "in_slot", "mode",
                 "layer_name", "direct", "csr_rowptr", "csr_val", "taps", "native_epilogue",
                 "_epilogue_args", "_matrix")

    def __init__(self, node: OpNode, plan: ConvPlan) -> None:
        super().__init__(node)
        self.plan = plan
        self.layer_name = node.name
        self.in_slot = node.inputs[0]
        self.weight: Optional[np.ndarray] = plan.packed()
        #: The gather + GEMM body's full-width matrix, once built.
        self._matrix: Optional[np.ndarray] = None
        self.bias = None if plan.bias is None else plan.bias.astype(np.float32)
        self.act: Optional[str] = None
        self.act_slope: Optional[float] = None
        self.mode = plan.mode
        #: The native library when this op runs one of its direct kernels (see
        #: :meth:`choose_kernel`), else None: gather + GEMM.
        self.direct: Optional[SparseConvKernel] = None
        #: Columns the dense direct kernel walks (``csr_val`` then holds the
        #: packed matrix, ``csr_rowptr`` None); 0: the CSR walk.
        self.taps = 0
        #: The same library when it applies this op's GEMM epilogue (bias +
        #: activation, one in-register pass), else None: numpy passes.
        self.native_epilogue: Optional[SparseConvKernel] = None

    # ------------------------------------------------------------------ fusion
    def fold_batchnorm(self, scale: np.ndarray, shift: np.ndarray) -> None:
        """Fold eval-mode BN ``y = scale*x + shift`` into weights and bias.

        In the form ``weight`` holds: each weight times its output row's
        ``scale`` in float64, rounded once to float32 — for CSR values the
        same products as folding the full matrix and gathering, bit for bit.
        Folded :data:`FOLD_ROWS` output rows at a time, which bounds the
        float64 temporaries of the largest layer.
        """
        rowptr = self.plan.rowptr
        weight = np.empty(self.weight.shape, dtype=np.float32)
        for start in range(0, len(scale), FOLD_ROWS):
            stop = min(start + FOLD_ROWS, len(scale))
            if rowptr is None:
                rows, factor = slice(start, stop), scale[start:stop, None]
            else:
                rows = slice(rowptr[start], rowptr[stop])
                factor = np.repeat(scale[start:stop], np.diff(rowptr[start:stop + 1]))
            weight[rows] = self.weight[rows].astype(np.float64) * factor
        self.weight = weight
        bias = shift if self.bias is None else scale * self.bias.astype(np.float64) + shift
        self.bias = bias.astype(np.float32)
        self.mode += "+bn"

    def fuse_activation(self, tag: str, negative_slope: Optional[float]) -> None:
        self.act = tag
        self.act_slope = negative_slope
        self.mode += f"+{tag}"

    def choose_kernel(self, sparse_kernel: Optional[SparseConvKernel]) -> None:
        """Pick what executes this op; :func:`fuse_graph` calls it once folding is done.

        A static rule on what the op can observe — never a timing race, which
        would let load decide numerics.  Where the library loaded: the direct
        sparse kernel for a layer held as CSR
        (:data:`~repro.engine.plan.DIRECT_MAX_DENSITY`);
        the dense direct kernel for a denser one whose kernel is larger than
        3x3 (the 6x6 / 7x7 stems R-TOSS's 3x3 / 1x1 patterns never reach);
        else gather + GEMM.  Nothing here is stored in an artifact: a model
        saved on one kind of host re-fuses, and re-chooses, on the other.
        """
        plan = self.plan
        if sparse_kernel is not None and (plan.sparse or max(plan.kernel_size) > 3):
            if plan.sparse:
                # The folded CSR values, in the plan's structure order.
                self.csr_rowptr, self.csr_val, tag = plan.rowptr, self.weight, "+direct"
            else:
                self.csr_rowptr, self.csr_val = None, sparse_kernel.pack_dense(self.weight)
                self.taps, self.weight, tag = self.weight.shape[1], None, "+dense-direct"
            self.direct = sparse_kernel
            self.mode = self.mode.replace(plan.mode, plan.mode + tag, 1)
            return
        if sparse_kernel is not None and (self.bias is not None or self.act is not None):
            # The GEMM path gets the epilogue the direct kernel has: bias +
            # activation in one in-register pass over the GEMM output.
            self._epilogue_args = (address(self.bias, np.float32),
                                   ACT_CODES[self.act], float(self.act_slope or 0.0))
            self.native_epilogue = sparse_kernel

    # --------------------------------------------------------------- execution
    def natively(self) -> bool:
        return self.direct is not None

    def one_vector(self, shape) -> bool:
        return (self.direct is not None and not self.taps
                and self.plan.direct_layout_for(shape[1:]).operands["npos"] <= VECTOR_LANES)

    def execute(self, values, arena, timed=False):
        """Gather -> GEMM (+bias) -> epilogue; returns the phase split if ``timed``."""
        started = time.perf_counter() if timed else 0.0
        data = _contiguous(values[self.in_slot], arena, (self.key, "in"))
        n = data.shape[0]
        plan = self.plan
        out_channels = plan.out_channels
        if plan.mode == MODE_POINTWISE:
            gemm_in, (out_h, out_w) = self._pointwise_input(data, arena)
        else:
            gemm_in, (out_h, out_w) = self._gather_columns(data, arena)
        gathered = time.perf_counter() if timed else 0.0

        # What consumers see is the arena buffer itself — the same array every
        # forward, so their bindings keep its address; the GEMM fills a view.
        result = arena.buffer((self.key, "out"), (n, out_channels, out_h, out_w))
        out = result.reshape(n, out_channels, out_h * out_w)
        np.matmul(self._gemm_weight(), gemm_in, out=out)
        if self.bias is not None and self.native_epilogue is None:
            out += self.bias.reshape(1, -1, 1)
        multiplied = time.perf_counter() if timed else 0.0
        if self.native_epilogue is not None:
            self.native_epilogue.bias_act(out, *self._epilogue_args)
        else:
            self._epilogue(out, arena)
        values[self.out_slot] = result
        if not timed:
            return None
        return {
            "gather": gathered - started,
            "gemm": multiplied - gathered,
            "epilogue": time.perf_counter() - multiplied,
        }

    def profile(self, values, arena, profiler) -> None:
        super().profile(values, arena, profiler, True)       # with the phase split

    def _gemm_weight(self) -> np.ndarray:
        """The full-width ``(O, I*kh*kw)`` matrix the GEMM multiplies: a dense
        plan's ``weight`` as it is; CSR values scattered, or the dense direct
        kernel's packing undone, once — on first use, under the plan lock (the
        portable path, or a direct conv whose bind fell through)."""
        matrix = self._matrix
        if matrix is None:
            with self.plan._lock:
                if self._matrix is None:
                    self._matrix = self._full_width()
                matrix = self._matrix
        return matrix

    def _full_width(self) -> np.ndarray:
        if self.taps:                         # [ceil(O / block)][K][block] -> (O, K)
            return np.ascontiguousarray(
                self.csr_val.transpose(0, 2, 1).reshape(-1, self.taps)[:self.plan.shape[0]])
        return self.plan.full_width(self.weight)

    def _epilogue(self, buf: np.ndarray, arena: WorkspaceArena) -> None:
        _apply_activation_inplace(self.act, buf, arena, self.key, self.act_slope)

    def _bind(self, arena, shapes) -> BoundCall:  # reprolint: hot
        """The direct kernel as a bound step: stage the zero-padded (phase-split)
        planes, walk the CSR (or every tap) — everything no forward changes,
        resolved once.

        No im2col buffer, no gather index: the kernel reads every surviving
        weight's tap at a fixed offset from the output position and applies
        bias + activation in registers.  Staging happens inside the call, so a
        profiled one has the library stamp the boundary: ``gather`` is the
        staging, ``gemm`` the kernel, and nothing is left for ``epilogue``.
        Bound for a group (at most the library's ``group`` images) on a plane
        that fits one vector, it stages the group interleaved into ``lanes`` —
        scratch shared by every conv of that size — and the images share the
        vector lanes; a group of one is staged and run as alone.
        """
        n = shapes[0][0]
        layout = self.plan.direct_layout_for(shapes[0][1:], per_tap=bool(self.taps))
        grouped = 1 < n <= self.direct.group and self.one_vector(shapes[0])
        # The zero halo is written once (at allocation); every call only
        # refreshes the interior of each phase plane.
        staged = arena.buffer((self.key, "planes"), (1 if grouped else n, *layout.staged),
                              fill=0.0) if layout.staged else None
        out = arena.buffer((self.key, "out"), (n, self.plan.out_channels, *layout.out_hw))
        lanes = arena.buffer("lanes", (n * layout.operands["in_stride"],)) if grouped else None
        return self.direct.bind(
            "sconv_call", out=out, staged=staged, lanes=lanes, n=n, oc=self.plan.out_channels,
            rowptr=self.csr_rowptr, val=self.csr_val, taps=self.taps, bias=self.bias,
            act=ACT_CODES[self.act], slope=float(self.act_slope or 0.0), **layout.operands)

    def _pointwise_input(self, data, arena):
        sh, sw = self.plan.stride
        if (sh, sw) != (1, 1):
            data = _contiguous(data[:, :, ::sh, ::sw], arena, (self.key, "stride"))
        n, c, out_h, out_w = data.shape
        return data.reshape(n, c, out_h * out_w), (out_h, out_w)

    def _gather_columns(self, data, arena):
        plan = self.plan
        n, c, h, w = data.shape
        (kh, kw), (sh, sw), (ph, pw) = plan.kernel_size, plan.stride, plan.padding
        out_h, out_w = plan.output_hw(h, w)
        if ph or pw:
            padded = arena.buffer((self.key, "pad"), (n, c, h + 2 * ph, w + 2 * pw), fill=0.0)
            # The zero halo is written once (at allocation); every call only
            # refreshes the interior, so steady state is a single strided copy.
            padded[:, :, ph:ph + h, pw:pw + w] = data
        else:
            padded = data
        cols = arena.buffer((self.key, "cols"), (n, c * kh * kw, out_h * out_w))
        s0, s1, s2, s3 = padded.strides
        windows = np.lib.stride_tricks.as_strided(
            padded,
            shape=(n, c, kh, kw, out_h, out_w),
            strides=(s0, s1, s2, s3, s2 * sh, s3 * sw),
        )
        np.copyto(cols.reshape(n, c, kh, kw, out_h, out_w), windows)
        return cols, (out_h, out_w)


class _BoundOp(_FusedOp):
    """A glue step: what depends on the input shapes only — output and scratch
    buffers — is resolved once per (arena, input shapes) by ``_bind(arena,
    shapes)``, as what the arena then keeps
    (:meth:`~repro.engine.arena.WorkspaceArena.binding`): a bound native step
    (:class:`~repro.engine.native.BoundCall`) where the library has this op, or
    the numpy body ``run(arena, *inputs) -> out``."""

    __slots__ = ("in_slots",)

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.in_slots = node.inputs

    def natively(self) -> bool:
        return self.native is not None

    def execute(self, values, arena) -> None:
        inputs = [values[slot] for slot in self.in_slots]
        run = arena.binding((self.key, "alone"), tuple([x.shape for x in inputs]), self._alone)
        if isinstance(run, Segment):
            run.execute(values, arena)
        else:
            values[self.out_slot] = run(arena, *inputs)

    def _alone(self, arena, shapes):
        """This step by itself on the whole batch — outside a run of native
        steps, or on an input that is not one row per image: its numpy body,
        or natively a segment of one."""
        run = self._bind(arena, shapes)
        return (Segment(arena, [(self, run, shapes)], None, lambda slot: True)
                if isinstance(run, BoundCall) else run)


class ScaleShiftOp(_FusedOp):
    """Stand-alone eval-mode BatchNorm: ``y = x*scale + shift`` per channel."""

    __slots__ = ("in_slot", "scale", "shift")

    def __init__(self, node: OpNode, scale: np.ndarray, shift: np.ndarray) -> None:
        super().__init__(node)
        self.in_slot = node.inputs[0]
        self.scale = scale.astype(np.float32).reshape(1, -1, 1, 1)
        self.shift = shift.astype(np.float32).reshape(1, -1, 1, 1)

    def execute(self, values, arena) -> None:
        x = values[self.in_slot]
        out = arena.buffer((self.key, "out"), x.shape)
        np.multiply(x, self.scale, out=out)
        out += self.shift
        values[self.out_slot] = out


class ActOp(_BoundOp):
    """Stand-alone elementwise activation into an arena buffer."""

    __slots__ = ("tag", "slope")

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.tag = node.params["act"]
        self.slope = node.params.get("negative_slope")

    def natively(self) -> bool:
        return self.native is not None and self.tag == "relu"

    def _bind(self, arena, shapes):
        out = arena.buffer((self.key, "out"), shapes[0])
        if self.natively():
            return self.native.bind("relu_call", out=out, count=out.size)

        def run(arena, x):
            # x is a different buffer than out here, so out doubles as scratch.
            _activation_kernel(self.tag, x, out, out, self.slope)
            return out
        return run


class EwiseOp(_BoundOp):
    """Recorded glue arithmetic: tensor<op>tensor (an ``Add`` module included)
    or tensor<op>constant."""

    __slots__ = ("ufunc", "const", "const_first")

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.ufunc = getattr(np, node.params.get("ufunc", "add"))
        self.const = node.params.get("const")
        self.const_first = node.params.get("const_first", False)

    def natively(self) -> bool:
        return self.native is not None and self.ufunc is np.add and self.const is None

    def _bind(self, arena, shapes):
        ufunc = self.ufunc
        const = () if self.const is None else (self.const,)
        head, tail = (const, ()) if self.const_first else ((), const)
        out = arena.buffer((self.key, "out"),
                           np.broadcast_shapes(*shapes, *[value.shape for value in const]))
        if self.natively() and tuple(shapes) == (out.shape, out.shape):
            return self.native.bind("add_call", 2, out=out, count=out.size)

        def run(arena, *inputs):
            return ufunc(*head, *inputs, *tail, out=out)
        return run


class ConcatOp(_BoundOp):
    __slots__ = ("axis",)

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.axis = node.params["axis"]

    def _bind(self, arena, shapes):
        # numpy's own shape rules (and errors), once, on zero-stride stand-ins.
        shape = np.concatenate([np.broadcast_to(np.float32(0.0), part) for part in shapes],
                               axis=self.axis).shape
        out = arena.buffer((self.key, "out"), shape)
        axis = self.axis % len(shape)
        if self.native is not None:
            inner = math.prod(shape[axis + 1:])
            sizes = np.array([part[axis] * inner for part in shapes], dtype=np.int64)
            return self.native.bind(
                "concat_call", len(shapes), out=out, sizes=sizes, parts=len(shapes),
                outer=math.prod(shape[:axis]), total=shape[axis] * inner)

        def run(arena, *parts):
            return np.concatenate(parts, axis=axis, out=out)
        return run


class GetitemOp(_FusedOp):
    __slots__ = ("in_slot", "index")

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.in_slot = node.inputs[0]
        self.index = node.params["index"]

    def execute(self, values, arena) -> None:
        # Basic indexing yields a view — free; ops never mutate their inputs,
        # so sharing the underlying buffer within one forward is safe.
        values[self.out_slot] = values[self.in_slot][self.index]


class MaxPoolOp(_BoundOp):
    __slots__ = ("kernel", "stride", "padding")

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.kernel = node.params["kernel"]
        self.stride = node.params["stride"]
        self.padding = node.params["padding"]

    def _bind(self, arena, shapes):
        n, c, h, w = shapes[0]
        key = self.key
        (kh, kw), (sh, sw), (ph, pw) = self.kernel, self.stride, self.padding
        hp, wp = h + 2 * ph, w + 2 * pw
        out_h = (hp - kh) // sh + 1
        out_w = (wp - kw) // sw + 1
        out = arena.buffer((key, "out"), (n, c, out_h, out_w))
        if self.native is not None:
            return self.native.bind(
                "maxpool_call", out=out, scratch=arena.buffer((key, "across"), (out_h, w)),
                planes=n * c, h=h, w=w, kh=kh, kw=kw, sh=sh, sw=sw, ph=ph, pw=pw,
                out_h=out_h, out_w=out_w)
        padded = arena.buffer((key, "pad"), (n, c, hp, wp), fill=-np.inf) if ph or pw else None
        across = arena.buffer((key, "across"), (n, c, hp, out_w))
        rows, cols = (out_h - 1) * sh + 1, (out_w - 1) * sw + 1

        def run(arena, x):
            # Pairwise maxima over shifted strided views, columns then rows (a
            # window maximum is separable, and max is exact in any order): the
            # same values as np.amax over the 6-D window view, kh + kw passes at
            # memory speed instead of its generic reduction loop (~15x slower).
            data = _contiguous(x, arena, (key, "in"))
            if padded is not None:
                padded[:, :, ph:ph + h, pw:pw + w] = data
                data = padded
            np.copyto(across, data[:, :, :, 0:cols:sw])
            for q in range(1, kw):
                np.maximum(across, data[:, :, :, q:q + cols:sw], out=across)
            np.copyto(out, across[:, :, 0:rows:sh])
            for r in range(1, kh):
                np.maximum(out, across[:, :, r:r + rows:sh], out=out)
            return out
        return run


class UpsampleOp(_BoundOp):
    __slots__ = ("scale",)

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.scale = node.params["scale"]

    def _bind(self, arena, shapes):
        n, c, h, w = shapes[0]
        s = self.scale
        out = arena.buffer((self.key, "out"), (n, c, h * s, w * s))
        if self.native is not None:
            return self.native.bind(
                "upsample_call", out=out, planes=n * c, h=h, w=w, scale=s)
        cells = out.reshape(n, c, h, s, w, s)

        def run(arena, x):
            cells[...] = x[:, :, :, None, :, None]
            return out
        return run


class ModuleOp(_FusedOp):
    """Generic fallback: replay the module's own forward (allocates normally)."""

    __slots__ = ("module", "args_template", "out_slots")

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.module = node.module
        self.args_template = node.params["args_template"]
        self.out_slots = node.outputs

    def execute(self, values, arena) -> None:
        args, kwargs = fill_template(
            self.args_template, lambda slot: Tensor(values[slot]))
        output = self.module(*args, **kwargs)
        flat = list(_iter_tensors(output))
        if len(flat) != len(self.out_slots):  # pragma: no cover - defensive
            raise RuntimeError(
                f"module {self.node.name!r} returned {len(flat)} tensors, "
                f"traced {len(self.out_slots)}")
        for slot, tensor in zip(self.out_slots, flat):
            values[slot] = tensor.data


# -------------------------------------------------------------------- segments
class Segment:
    """A maximal run of natively bound steps: one ``run_segment`` call per forward.

    ``run`` lists ``(op, its BoundCall, the input shapes it was bound for)`` in
    step order.  With ``rows`` (the program runs ``per_image``) the steps are
    bound for *one* image and the library loops images outermost, steps
    innermost (docs/engine.md, "Segments"); with None they are bound whole-batch
    and the loop runs once.  A run with a **tail** — from its first conv whose
    one-image plane fits one vector (:meth:`_FusedOp.one_vector`, bound for a
    group of images) on — takes images in groups: steps before the tail image by
    image, the tail step by step, such a conv in one call for the whole group
    (docs/engine.md, "Batch-major tail").  Every slot the run touches is
    addressed as ``bases[i] + image * stride + (its place in the group) * lane``:

    * written and read only in here, before the tail: the writer's one-image
      buffer, reused by every image;
    * written in the tail, or read there or copied out after it: a buffer of
      one group of images, ``lane`` bytes apart;
    * an **import**, read from outside (the model input, a Python step's
      output): the whole-batch array this forward holds in ``values``;
    * an **export**, read after the run (``exported(slot)``): a whole-batch
      arena buffer of ``rows`` images, published in ``values``;
    * a **result**, a model output (``fresh``) of a run that is the whole
      program: copied group by group out of the writer's buffer into an array
      that is new each forward — the mandatory copy-out, done once.

    The tables hold raw addresses: the segment keeps the bindings (hence every
    buffer) alive, and the arena keeps the segment.
    """

    __slots__ = ("ops", "per_image", "tail", "imports", "exports", "results", "_rows", "_convs",
                 "_held", "_bases", "_block", "_call", "_alive", "__weakref__")

    def __init__(self, arena, run, rows, exported, fresh=()) -> None:
        self.ops = [op for op, _, _ in run]
        self.per_image = rows is not None
        grouped = [self.per_image and bound.out.shape[0] > 1 for _, bound, _ in run]
        self.tail = grouped.index(True) if any(grouped) else len(run)
        group = run[0][0].native.group if any(grouped) else 1
        # what a head step writes into a group buffer: read in the tail, or copied out after it
        late = {slot for op in self.ops[self.tail:] for slot in op.node.inputs}
        late.update(fresh if any(grouped) else ())
        self.imports, self.exports, self.results = [], [], []
        where: Dict[int, tuple] = {}     # slot -> (its index in bases, stride, lane)
        bases: List[int] = []            # 0 where every forward sets the address
        steps, patches, copies = [], [], []
        for index, (op, bound, shapes) in enumerate(run):
            for position, slot in enumerate(op.node.inputs):
                if slot not in where:
                    where[slot] = (len(bases), 4 * math.prod(shapes[position]), 0)
                    self.imports.append((len(bases), slot, tuple(shapes[position])))
                    bases.append(0)
                patches.append((ctypes.addressof(bound.srcs) + 8 * position, *where[slot]))
            out = bound.out
            shape = (1, *out.shape[1:]) if self.per_image else out.shape
            nbytes = 4 * math.prod(shape)
            stride = lane = 0
            if exported(op.out_slot):
                if self.per_image:
                    out, stride = arena.buffer((op.key, "out"), (rows, *shape[1:])), nbytes
                self.exports.append((op.out_slot, out))
            elif index >= self.tail or op.out_slot in late:
                out, lane = arena.buffer((op.key, "out"), (group, *shape[1:])), nbytes
            where[op.out_slot] = (len(bases), stride, lane)
            patches.append((bound.out_at, *where[op.out_slot]))
            bases.append(out.ctypes.data)
            if op.out_slot in fresh:
                self.results.append((len(bases), op.out_slot, shape))
                copies.append((out.ctypes.data, len(bases), nbytes))
                bases.append(0)
            steps.append((bound.op, bound.block, len(patches), grouped[index]))
        self._bases = np.array(bases, dtype=np.int64)
        fields = dict(steps=np.array(steps, dtype=np.int64),
                      patches=np.array(patches, dtype=np.int64),
                      copies=np.array(copies, dtype=np.int64), bases=self._bases,
                      nsteps=len(steps), ncopies=len(copies), tail=self.tail, group=group)
        args = ARGS["run_segment"]()
        self._block = fill(args, fields)
        self._alive = (args, fields, run)
        self._call = run[0][0].native.run_segment
        self._held: list = [None] * len(self.imports)
        #: What a profile reports each step as: name, kind, mode, whether it has phases.
        self._rows = [(op.profile_name(), op.node.kind, op.mode, isinstance(op, FusedConv))
                      for op in self.ops]
        self._convs = sum(row[3] for row in self._rows)

    def execute(self, values, arena, stamps=None) -> None:  # reprolint: hot
        """Run on ``values``; ``stamps``: address of the counters a profiled call fills."""
        held, bases = self._held, self._bases
        images = values[self.imports[0][1]].shape[0] if self.per_image else 1
        for index, (_, slot, _) in enumerate(self.imports):
            x = values[slot]
            if x is not held[index]:
                self._point(arena, index, x, images)
        for slot, whole in self.exports:
            values[slot] = whole
        for base, slot, shape in self.results:
            # The copy-out's target: what the caller keeps across later forwards.
            # reprolint: disable=hot-path-alloc
            out = values[slot] = np.empty((images * shape[0], *shape[1:]), dtype=np.float32)
            bases[base] = out.ctypes.data
        # Each bound conv stands for the layout lookup an unbound call would make.
        _LAYOUT_STATS.hits += self._convs
        self._call(self._block, images, stamps)

    def _point(self, arena, index: int, x: np.ndarray, images: int) -> None:
        """Read import ``index`` from ``x`` from now on: the slow path, for a
        caller's frame or a view (an arena-backed step's output is the same
        array every forward).  One staged through ``arena`` is not remembered."""
        base, slot, shape = self.imports[index]
        if x.shape != ((images, *shape[1:]) if self.per_image else shape):
            raise ValueError(f"slot {slot} was bound as {shape}, got {x.shape}")
        staged = _contiguous(x, arena, (self.ops[0].key, "in", index))
        self._bases[base] = staged.ctypes.data
        self._held[index] = x if staged is x else None

    def profile(self, values, arena, profiler) -> None:
        """:meth:`execute` — the same call — with the library stamping each step:
        a conv's staging / kernel boundary, one interval for glue."""
        stamps = np.zeros(2 * len(self.ops), dtype=np.int64)
        self.execute(values, arena, stamps.ctypes.data)
        spent = (stamps * 1e-9).tolist()
        rows = []
        for index, (name, kind, mode, conv) in enumerate(self._rows):
            first, second = spent[2 * index], spent[2 * index + 1]
            phases = {"gather": first, "gemm": second, "epilogue": 0.0} if conv else None
            rows.append((name, kind, mode, first + second, phases))
        profiler.record_ops(rows)


# ------------------------------------------------------------------- fuse pass
def fuse_graph(graph: GraphPlan, plans: Dict[str, ConvPlan]) -> "FusedProgram":
    """Lower a traced graph into a :class:`FusedProgram`.

    Parameters
    ----------
    graph:
        The op-plan list from :func:`repro.engine.trace.trace_graph`.
    plans:
        ``layer name -> ConvPlan`` of the owning CompiledModel; a conv node
        without a plan replays its module.

    Raises :class:`TraceError` naming the first node it cannot lower: an
    ``opaque`` one is named after the op that consumed it.
    """
    if not graph.ops:
        raise TraceError("forward pass recorded no operations")
    ops: List[_FusedOp] = []
    for node in graph.ops:
        if node.kind == "conv" and node.name in plans:
            ops.append(FusedConv(node, plans[node.name]))
        elif node.kind == "bn":
            scale, shift = node.module.fold_params()
            ops.append(ScaleShiftOp(node, scale, shift))
        elif (node.kind == "act" and node.params.get("act") in RAW_ACTS
                and _leaky_slope_supported(node.params)):
            ops.append(ActOp(node))
        elif node.kind in ("add", "ewise"):
            ops.append(EwiseOp(node))
        elif node.kind == "concat":
            ops.append(ConcatOp(node))
        elif node.kind == "getitem":
            ops.append(GetitemOp(node))
        elif node.kind == "maxpool":
            ops.append(MaxPoolOp(node))
        elif node.kind == "upsample":
            ops.append(UpsampleOp(node))
        elif (node.kind == "module" or node.module is not None) and node.outputs:
            if "args_template" not in node.params:
                # Specialised node demoted here (e.g. unsupported activation):
                # rebuild the generic replay params from its 1-in/1-out shape.
                node.params["args_template"] = ((Slot(node.inputs[0]),), {})
                node.params["out_template"] = Slot(node.outputs[0])
            ops.append(ModuleOp(node))
        elif node.kind == "opaque":
            raise TraceError(f"{node.name}: consumes a tensor no recorded op produced")
        else:
            raise TraceError(f"{node.name}: op {node.kind!r} cannot be lowered to a fused step")
    # Every conv holds its plan's values now; a plan keeps only its structure,
    # so a BN fold below frees the unfolded array as it replaces it.
    for plan in plans.values():
        plan.values = None

    # Consumer counts decide what may fuse: an op output that feeds more than
    # one consumer (or escapes as a model output) must stay materialized.
    consumers: Dict[int, int] = {}
    for op in ops:
        for slot in op.node.inputs:
            consumers[slot] = consumers.get(slot, 0) + 1
    for slot in graph.output_slots():
        consumers[slot] = consumers.get(slot, 0) + 1

    by_input: Dict[int, List[_FusedOp]] = {}
    for op in ops:
        for slot in op.node.inputs:
            by_input.setdefault(slot, []).append(op)

    removed: set = set()
    for op in ops:
        if not isinstance(op, FusedConv):
            continue
        follower = _sole_consumer(op.out_slot, consumers, by_input, removed)
        if isinstance(follower, ScaleShiftOp):
            scale, shift = follower.node.module.fold_params()
            op.fold_batchnorm(scale, shift)
            op.out_slot = follower.out_slot
            removed.add(id(follower))
        follower = _sole_consumer(op.out_slot, consumers, by_input, removed)
        if isinstance(follower, ActOp) and follower.tag in EPILOGUE_ACTS:
            op.fuse_activation(follower.tag, follower.slope)
            op.out_slot = follower.out_slot
            removed.add(id(follower))

    steps = [op for op in ops if id(op) not in removed]
    sparse_kernel = load_sparse_kernel()
    for op in steps:
        op.native = sparse_kernel
        if isinstance(op, FusedConv):
            op.choose_kernel(sparse_kernel)
    return FusedProgram(graph, steps, per_image=_batch_axis_preserved(graph))


def _batch_axis_preserved(graph: GraphPlan) -> bool:
    """Whether every tensor of the graph provably carries the batch on axis 0,
    one independent row per image.

    Running a segment image by image is only legal when that holds.  Flags
    propagate conservatively by op kind: raw kernels preserve the axis by
    construction; ``getitem`` only counts when it leaves axis 0 as a full
    slice; ``concat`` must not join on axis 0; replayed modules must have
    produced outputs whose traced leading dimension equals the traced batch
    (demoted 1-in/1-out nodes carry no shapes and are elementwise by
    construction).  Anything unprovable simply runs every segment
    whole-batch.
    """
    flags: Dict[int, bool] = {graph.input_slot: True}
    for node in graph.ops:
        ins = [flags.get(slot, False) for slot in node.inputs]
        if node.kind in ("conv", "bn", "act", "maxpool", "upsample"):
            ok = bool(ins and ins[0])
        elif node.kind in ("add", "ewise"):
            ok = bool(ins) and all(ins)
        elif node.kind == "concat":
            ok = all(ins) and node.params.get("axis") != 0
        elif node.kind == "getitem":
            index = node.params.get("index")
            first = index[0] if isinstance(index, tuple) else index
            # isinstance first: `first == slice(None)` on an ndarray index
            # would yield an (ambiguous-truth) boolean array, not False.
            ok = (bool(ins and ins[0]) and isinstance(first, slice)
                  and first == slice(None))
        else:  # replayed module
            shapes = node.params.get("out_shapes")
            ok = bool(ins) and all(ins) and (
                shapes is None
                or all(shape and shape[0] == graph.example_batch for shape in shapes))
        for out_slot in node.outputs:
            flags[out_slot] = ok
    return all(flags.values()) and all(slot in flags for slot in graph.output_slots())


def _sole_consumer(slot: int, consumers: Dict[int, int],
                   by_input: Dict[int, List[_FusedOp]], removed: set):
    """The single op consuming ``slot``, or None if it fans out / escapes."""
    if consumers.get(slot, 0) != 1:
        return None
    candidates = [op for op in by_input.get(slot, []) if id(op) not in removed]
    return candidates[0] if len(candidates) == 1 else None


# --------------------------------------------------------------------- program
class FusedProgram:
    """An executable fused graph: flat op list, run as segments over per-thread
    workspace arenas."""

    # reprolint lock-discipline contract: the weak-arena list is shared by
    # every serving thread's first forward and mutates only under its lock.
    _guarded_by_ = {"_arenas": "_arena_lock"}

    def __init__(self, graph: GraphPlan, steps: List[_FusedOp], per_image: bool) -> None:
        self.graph = graph
        self.steps = steps
        #: Whether every tensor provably holds one independent row per image
        #: (see :func:`_batch_axis_preserved`): native runs then execute image
        #: by image; otherwise every segment runs whole-batch.
        self.per_image = per_image
        self._tls = threading.local()
        # Weak references: an arena is kept alive by its owning thread's local
        # storage, so scratch buffers die with the thread instead of
        # accumulating for the life of the program (thread-per-request callers).
        self._arenas: List["weakref.ref[WorkspaceArena]"] = []
        self._arena_lock = threading.Lock()

    # ------------------------------------------------------------------ arenas
    def _arena(self) -> WorkspaceArena:
        arena = getattr(self._tls, "arena", None)
        if arena is None:
            arena = WorkspaceArena()
            self._tls.arena = arena
            with self._arena_lock:
                self._arenas = [ref for ref in self._arenas if ref() is not None]
                self._arenas.append(weakref.ref(arena))
        return arena

    def arena_stats(self) -> Dict[str, int]:
        """Aggregated hit/miss/buffer statistics across live threads' arenas.

        Arenas of exited threads are garbage-collected (weak references), so
        their counters drop out of the aggregate along with their buffers.
        """
        with self._arena_lock:
            arenas = [arena for ref in self._arenas
                      if (arena := ref()) is not None]
        return merge_stats(arenas)

    # ----------------------------------------------------------- profiling
    @contextmanager
    def profiled(self, profiler):
        """Profile this thread's forwards only — the serving batcher uses
        this per traced batch so concurrent threads never share a sink."""
        self._tls.profiler = profiler
        try:
            yield profiler
        finally:
            self._tls.profiler = None

    # --------------------------------------------------------------- execution
    def run(self, data: np.ndarray):  # reprolint: hot
        """Execute the fused program on raw NCHW input: exactly the images it
        was given, nothing padded.

        Returns the model's output structure as *fresh* numpy arrays — results
        never alias arena buffers, so callers (e.g. the serving layer handing
        slices to concurrent clients) can hold them across later forwards.

        Profiling (``repro.obs``): reading this thread's profiler slot
        (:meth:`profiled`) is the one instrumentation cost the unprofiled path
        pays — one attribute read and an ``is None`` branch per *forward* (not
        per op), gated ≤2% by ``benchmarks/test_obs_overhead.py``.  A profiled
        forward makes the same calls; the library stamps the steps of a
        segment as it goes.
        """
        return self._run(data, getattr(self._tls, "profiler", None))

    def _run(self, data: np.ndarray, profiler):  # reprolint: hot
        arena = self._arena()
        # Input normalization: already-contiguous float32 input (the serving
        # batcher's stacked batches) is a no-op view, anything else is a
        # one-off boundary copy before the zero-alloc steady state begins.
        data = np.ascontiguousarray(data, dtype=np.float32)  # reprolint: disable=hot-path-alloc
        values: List[Optional[np.ndarray]] = [None] * self.graph.num_slots
        values[self.graph.input_slot] = data
        # What a forward of this shape runs lives in the arena, like every
        # other binding: its segments and the outputs they leave in fresh arrays.
        plan = arena.binding("segments", data.shape, lambda arena, key: ([], set()))
        segments, fresh = plan
        started = time.perf_counter()
        with no_grad(), np.errstate(over="ignore"):
            for segment in segments or self._resolve(arena, values, plan):
                if profiler is None:
                    segment.execute(values, arena)
                else:
                    segment.profile(values, arena, profiler)
        if profiler is not None:
            profiler.record_run(time.perf_counter() - started)

        def result(slot):
            if slot in fresh:
                return values[slot]                  # its segment copied it out already
            # Mandatory copy-out: results must never alias arena buffers (the
            # next forward overwrites them under the caller's feet).
            # reprolint: disable=hot-path-alloc
            return np.array(values[slot], dtype=np.float32, copy=True)
        return fill_template(self.graph.output_template, result)

    def _resolve(self, arena, values, plan):
        """Cut the steps into segments for this input shape, while running them.

        A generator the forward's one loop drives: each maximal run of steps
        that bind natively becomes a :class:`Segment`, every other step is a
        segment of its own, and each is yielded once what it reads exists — a
        native step tells its output shape at bind, a Python step only by
        running.  Only a finished cut is filled into ``plan``, what the arena keeps.
        """
        steps, rows = self.steps, values[self.graph.input_slot].shape[0]
        last_read = {slot: index for index, op in enumerate(steps) for slot in op.node.inputs}
        outputs = self.graph.output_slots()
        pending: Dict[int, tuple] = {}     # slot -> shape a bound, not yet run step gives it
        cut: list = []
        run: list = []
        for index, op in enumerate([*steps, None]):
            bound = None if op is None else self._native(op, arena, values, pending, rows)
            if bound is not None:
                run.append(bound)
                pending[op.out_slot] = bound[1].out.shape
                continue
            if run:
                alone = len(run) == len(steps)     # one run is the whole program
                cut.append(Segment(
                    arena, run, rows if self.per_image else None,
                    lambda slot: last_read.get(slot, -1) >= index or (slot in outputs and not alone),
                    outputs if alone else ()))
                if alone:
                    plan[1].update(slot for slot in outputs if outputs.count(slot) == 1)
                run = []
                yield cut[-1]
            if op is not None:
                cut.append(op)
                yield op
        plan[0].extend(cut)

    def _native(self, op, arena, values, pending, rows):
        """``(op, its bound native step, the input shapes it is bound for)`` —
        one image's where rows are independent — or None: a Python body."""
        if not op.natively():
            return None
        shapes = []
        for slot in op.node.inputs:
            x = values[slot]
            shape = pending[slot] if x is None else x.shape
            if self.per_image:
                if x is not None and shape[:1] != (rows,):
                    return None                      # not one row per image after all
                shape = (1, *shape[1:])
            shapes.append(shape)
        # A conv whose plane fits one vector is bound for a group of images: the
        # segment's tail runs them in its lanes, a group per call.
        group = ([(op.native.group, *shapes[0][1:])]
                 if self.per_image and op.one_vector(shapes[0]) else shapes)
        bound = arena.binding(op.key, tuple(group), op._bind)
        return (op, bound, shapes) if isinstance(bound, BoundCall) else None

    # --------------------------------------------------------------- reporting
    def conv_modes(self) -> Dict[str, str]:
        """``layer name -> fused mode string`` for every compiled convolution."""
        return {op.layer_name: op.mode for op in self.steps
                if isinstance(op, FusedConv)}

    def __len__(self) -> int:
        return len(self.steps)
