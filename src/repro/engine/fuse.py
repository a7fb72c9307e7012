"""Fusion pass + fused executor: run a traced graph with zero steady-state allocation.

Takes the flat op list a :class:`~repro.engine.trace.GraphPlan` records and
lowers it into a :class:`FusedProgram` of raw-numpy ops over arena buffers
(:mod:`repro.engine.arena`):

* **BatchNorm folding** — an eval-mode BatchNorm that is the sole consumer of
  a compiled convolution is folded away entirely: its per-channel ``scale`` is
  multiplied into the plan's packed ``(O, K)`` weight matrix and its ``shift``
  absorbed into the bias (:meth:`repro.nn.layers.norm.BatchNorm2d.fold_params`).
  The folded copies belong to the fused op; the plan itself is untouched.
* **Activation epilogues** — ReLU / LeakyReLU / SiLU directly after a compiled
  convolution (or its folded BatchNorm) run in place on the GEMM output buffer
  instead of as separate passes with their own temporaries; where
  :mod:`repro.engine.native` loaded, bias + activation are one in-register
  pass (``bias_act_f32``), the epilogue the direct sparse kernel applies.
* **Arena execution** — every op writes into a buffer keyed by
  ``(op, role, shape)``; convolution gathers go through a single flat
  ``np.take(..., out=..., mode="clip")`` into the GEMM-ready column buffer
  (``as_strided`` window views where the gather is dense, i.e. compaction
  dropped next to nothing), and the GEMM itself is ``np.matmul(W, cols,
  out=...)``.  After one warmup pass per input shape, a steady-state forward
  allocates nothing large; only the final outputs are copied out of the arena
  (they must survive the next forward).
* **Direct sparse kernel** — where :mod:`repro.engine.native` loaded its fp32
  kernel, a pruned convolution skips gather, GEMM and epilogue altogether: the
  zero-padded planes are staged once and one native call walks the CSR of the
  surviving weights (:meth:`FusedConv.choose_kernel` holds the static rule).
  R-TOSS patterns differ per kernel, so this — not column compaction — is what
  makes a pruned model faster than its dense twin.

BatchNorm folding changes the floating-point evaluation order (scales are
applied to weights before the GEMM instead of to activations after it), so
fused outputs match the dense forward to ~1e-6 — well inside the 1e-5 equivalence
bound every benchmark and artifact check enforces — but not bit-for-bit.

Thread safety: a :class:`FusedProgram` is immutable after construction; each
executing thread checks out its own :class:`~repro.engine.arena.WorkspaceArena`
(thread-local), so concurrent forwards never share scratch buffers.
"""

from __future__ import annotations

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
    BoundCall,
    SparseConvKernel,
    address,
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

#: A convolution runs the native direct sparse kernel when at most this share
#: of its dense ``(O, I*kh*kw)`` weight matrix is nonzero (R-TOSS-2EP ~0.22,
#: 3EP ~0.33).  The kernel pays one input load per FMA where BLAS blocks
#: registers, so a dense layer (1.0) is faster as gather + GEMM.
DIRECT_MAX_DENSITY = 0.5

#: On the GEMM path a convolution keeps its dense gather (strided-window copy,
#: or the feature map as is for a 1x1) and a full-width weight matrix while
#: compaction dropped at most this share of the im2col columns: ``np.take``
#: through a gather index costs more than multiplying the few all-zero columns
#: it would save (measured break-even: 5-30 % dropped, by geometry).
WINDOW_MAX_DROPPED = 0.125


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
        """Run this step; the convs add a ``timed`` flag for per-phase profiling."""
        raise NotImplementedError

    def profile_name(self) -> str:
        return self.node.name or f"{self.node.kind}#{self.key}"


class FusedConv(_FusedOp):
    """A compiled convolution with optionally folded BN and activation epilogue."""

    __slots__ = ("plan", "weight", "bias", "act", "act_slope", "in_slot",
                 "mode", "layer_name", "dense_gather", "observer",
                 "direct", "csr_rowptr", "csr_val", "native_epilogue", "_epilogue_args")

    def __init__(self, node: OpNode, plan: ConvPlan) -> None:
        super().__init__(node)
        self.plan = plan
        self.layer_name = node.name
        self.in_slot = node.inputs[0]
        self.weight = np.ascontiguousarray(plan.weight_matrix, dtype=np.float32)
        self.bias = None if plan.bias is None else plan.bias.astype(np.float32)
        self.act: Optional[str] = None
        self.act_slope: Optional[float] = None
        #: Optional calibration hook ``observer(stage, layer_name, array)``
        #: called with the conv input ("in"), the post-bias GEMM output ("pre")
        #: and the post-activation output ("post").  None in steady state, so
        #: the hot path pays one attribute check per stage.
        self.observer = None
        self.mode = plan.mode
        # When pruning dropped no column at all, the gather is dense: a strided
        # window view copies straight into the column buffer with no index math
        # (:meth:`choose_kernel` widens this to "dropped next to nothing").
        self.dense_gather = (plan.kept_columns.size == plan.total_columns
                             and plan.mode != MODE_POINTWISE)
        #: The native direct sparse kernel when this op runs it (see
        #: :meth:`choose_kernel`), else None: gather + GEMM.
        self.direct: Optional[SparseConvKernel] = None
        #: The same library when it applies this op's GEMM epilogue (bias +
        #: activation, one in-register pass), else None: numpy passes.
        self.native_epilogue: Optional[SparseConvKernel] = None

    # ------------------------------------------------------------------ fusion
    def fold_batchnorm(self, scale: np.ndarray, shift: np.ndarray) -> None:
        """Fold eval-mode BN ``y = scale*x + shift`` into weights and bias."""
        weight = self.weight.astype(np.float64) * scale[:, None]
        self.weight = np.ascontiguousarray(weight, dtype=np.float32)
        bias = shift if self.bias is None else scale * self.bias.astype(np.float64) + shift
        self.bias = bias.astype(np.float32)
        self.mode += "+bn"

    def fuse_activation(self, tag: str, negative_slope: Optional[float]) -> None:
        self.act = tag
        self.act_slope = negative_slope
        self.mode += f"+{tag}"

    def packed_weight(self) -> np.ndarray:
        """The folded ``(O, K)`` matrix over the plan's kept columns — what the
        int8 lowering quantizes, whichever way this op's GEMM operand is laid out."""
        kept = self.plan.kept_columns
        return self.weight if self.weight.shape[1] == kept.size else self.weight[:, kept]

    def choose_kernel(self, sparse_kernel: Optional[SparseConvKernel]) -> None:
        """Pick what executes this op; :func:`fuse_graph` calls it once folding is done.

        A static rule on what the op can observe — never a timing race, which
        would let load decide numerics: the native direct sparse kernel when it
        loaded and the layer is sparse enough (:data:`DIRECT_MAX_DENSITY`),
        else gather + GEMM.  Nothing here is stored in an artifact: a model
        saved on one kind of host re-fuses, and re-chooses, on the other.
        """
        plan = self.plan
        dropped = plan.total_columns - plan.kept_columns.size
        if (sparse_kernel is not None and plan.kept_columns.size
                and plan.density <= DIRECT_MAX_DENSITY):
            # CSR values of the *folded* matrix, in the plan's structure order.
            self.csr_rowptr, flat = plan.csr()
            self.csr_val = self.weight.reshape(-1)[flat]
            self.direct = sparse_kernel
            self.mode = self.mode.replace(plan.mode, plan.mode + "+direct", 1)
            return
        if sparse_kernel is not None and (self.bias is not None or self.act is not None):
            # The GEMM path gets the epilogue the direct kernel has: bias +
            # activation in one in-register pass over the GEMM output.
            self._epilogue_args = (address(self.bias, np.float32),
                                   ACT_CODES[self.act], float(self.act_slope or 0.0))
            self.native_epilogue = sparse_kernel
        if 0 < dropped <= WINDOW_MAX_DROPPED * plan.total_columns:
            # Compaction removed next to nothing: scatter the packed weights
            # back to full width and skip the np.take gather (strided-window
            # copy for a spatial conv, the feature map as is for a 1x1).
            full = np.zeros((plan.out_channels, plan.total_columns), dtype=np.float32)
            full[:, plan.kept_columns] = self.weight
            self.weight = full
            self.dense_gather = True

    # --------------------------------------------------------------- execution
    def execute(self, values, arena, timed=False):
        """Gather -> GEMM (+bias) -> epilogue; returns the phase split if ``timed``."""
        # Calibration observers want the pre-activation tensor, which the
        # direct kernel never materializes: observed forwards run the GEMM path
        # (on every host, so calibrated scales do not depend on the kernel).
        if self.direct is not None and self.observer is None:
            return self._execute_direct(values, arena, timed)
        started = time.perf_counter() if timed else 0.0
        data = _contiguous(values[self.in_slot], arena, (self.key, "in"))
        if self.observer is not None:
            self.observer("in", self.layer_name, data)
        n, c, h, w = data.shape
        plan = self.plan
        out_channels = plan.out_channels

        if plan.kept_columns.size == 0:
            out_h, out_w = plan.output_hw(h, w)
            out = arena.buffer((self.key, "out"), (n, out_channels, out_h, out_w))
            if self.bias is None:
                out.fill(0.0)
            else:
                out[...] = self.bias.reshape(1, -1, 1, 1)
            self._epilogue(out, arena)
            values[self.out_slot] = out
            return None

        if plan.mode == MODE_POINTWISE:
            gemm_in, (out_h, out_w) = self._pointwise_input(data, arena)
        else:
            gemm_in, (out_h, out_w) = self._gather_columns(data, arena)
        gathered = time.perf_counter() if timed else 0.0

        # What consumers see is the arena buffer itself — the same array every
        # forward, so their bindings keep its address; the GEMM fills a view.
        result = arena.buffer((self.key, "out"), (n, out_channels, out_h, out_w))
        out = result.reshape(n, out_channels, out_h * out_w)
        np.matmul(self.weight, gemm_in, out=out)
        # Observed (calibration) forwards take the numpy passes on every host:
        # they want the pre-activation tensor the fused pass never stores.
        fused_epilogue = self.native_epilogue is not None and self.observer is None
        if self.bias is not None and not fused_epilogue:
            out += self.bias.reshape(1, -1, 1)
        if self.observer is not None:
            self.observer("pre", self.layer_name, out)
        multiplied = time.perf_counter() if timed else 0.0
        if fused_epilogue:
            self.native_epilogue.bias_act(out, *self._epilogue_args)
        else:
            self._epilogue(out, arena)
        if self.observer is not None:
            self.observer("post", self.layer_name, out)
        values[self.out_slot] = result
        if not timed:
            return None
        return {
            "gather": gathered - started,
            "gemm": multiplied - gathered,
            "epilogue": time.perf_counter() - multiplied,
        }

    def _epilogue(self, buf: np.ndarray, arena: WorkspaceArena) -> None:
        _apply_activation_inplace(self.act, buf, arena, self.key, self.act_slope)

    def _execute_direct(self, values, arena, timed):
        """One bound native call: stage the zero-padded (phase-split) planes, walk the CSR.

        No im2col buffer, no gather index: the kernel reads every surviving
        weight's tap at a fixed offset from the output position and applies
        bias + activation in registers.  Staging happens inside the call, so a
        timed one has the library stamp the phase boundaries: ``gather`` is the
        staging, ``gemm`` the kernel, ``epilogue`` what is left — nothing.
        """
        started = time.monotonic_ns() if timed else 0
        x = values[self.in_slot]
        bound = arena.binding(self.key, x.shape, self._bind_direct)
        if x is not bound.inputs[0]:
            bound.point(arena, 0, x)
        # The binding stands for the layout lookup an unbound call would make.
        _LAYOUT_STATS.hits += 1
        values[self.out_slot] = bound.out
        bound(timed)
        if not timed:
            return None
        returned = time.monotonic_ns()
        staged, done = bound.stamps
        return {"gather": (staged - started) * 1e-9, "gemm": (done - staged) * 1e-9,
                "epilogue": (returned - done) * 1e-9}

    def _bind_direct(self, arena, shape) -> BoundCall:
        """Everything a direct call needs that no forward changes, resolved once."""
        n = shape[0]
        layout = self.plan.direct_layout_for(shape[1:])
        # The zero halo is written once (at allocation); every call only
        # refreshes the interior of each phase plane.
        staged = arena.buffer((self.key, "planes"), (n, *layout.staged),
                              fill=0.0) if layout.staged else None
        out = arena.buffer((self.key, "out"), (n, self.plan.out_channels, *layout.out_hw))
        return self.direct.bind(
            "sconv_call", self.key, out=out, staged=staged, n=n, oc=self.plan.out_channels,
            rowptr=self.csr_rowptr, val=self.csr_val, bias=self.bias,
            act=ACT_CODES[self.act], slope=float(self.act_slope or 0.0), **layout.operands)

    def _pointwise_input(self, data, arena):
        plan = self.plan
        sh, sw = plan.stride
        if (sh, sw) != (1, 1):
            data = _contiguous(data[:, :, ::sh, ::sw], arena, (self.key, "stride"))
        n, c, out_h, out_w = data.shape
        length = out_h * out_w
        feat = data.reshape(n, c, length)
        if plan.pointwise_channels is not None and not self.dense_gather:
            cols = arena.buffer(
                (self.key, "cols"), (n, plan.pointwise_channels.size, length))
            np.take(feat, plan.pointwise_channels, axis=1, out=cols, mode="clip")
            feat = cols
        return feat, (out_h, out_w)

    def _gather_columns(self, data, arena):
        plan = self.plan
        n, c, h, w = data.shape
        ph, pw = plan.padding
        if self.dense_gather:
            # No column was pruned: a strided window view replaces the gather
            # entirely, so the flat index array is never built.
            flat_index = None
            out_h, out_w = plan.output_hw(h, w)
            hp, wp = h + 2 * ph, w + 2 * pw
        else:
            flat_index, out_h, out_w, (hp, wp) = plan.fused_layout_for((c, h, w))
        if ph or pw:
            padded = arena.buffer((self.key, "pad"), (n, c, hp, wp), fill=0.0)
            # The zero halo is written once (at allocation); every call only
            # refreshes the interior, so steady state is a single strided copy.
            padded[:, :, ph:ph + h, pw:pw + w] = data
        else:
            padded = data
        length = out_h * out_w
        cols = arena.buffer((self.key, "cols"), (n, self.weight.shape[1], length))
        if self.dense_gather:
            kh, kw = plan.kernel_size
            sh, sw = plan.stride
            s0, s1, s2, s3 = padded.strides
            windows = np.lib.stride_tricks.as_strided(
                padded,
                shape=(n, c, kh, kw, out_h, out_w),
                strides=(s0, s1, s2, s3, s2 * sh, s3 * sw),
            )
            np.copyto(cols.reshape(n, c, kh, kw, out_h, out_w), windows)
        else:
            np.take(padded.reshape(n, -1), flat_index, axis=1, out=cols, mode="clip")
        return cols, (out_h, out_w)


class _BoundOp(_FusedOp):
    """A glue step: what depends on the input shapes only — output and scratch
    buffers and, where the library loaded, a bound native call — is resolved
    once per (arena, input shapes) by ``_bind(arena, shapes)``, as the
    ``run(arena, *inputs) -> out`` the arena then keeps
    (:meth:`~repro.engine.arena.WorkspaceArena.binding`)."""

    __slots__ = ("in_slots",)

    def __init__(self, node: OpNode) -> None:
        super().__init__(node)
        self.in_slots = node.inputs

    def execute(self, values, arena) -> None:
        inputs = [values[slot] for slot in self.in_slots]
        run = arena.binding(self.key, tuple([x.shape for x in inputs]), self._bind)
        values[self.out_slot] = run(arena, *inputs)


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

    def _bind(self, arena, shapes):
        out = arena.buffer((self.key, "out"), shapes[0])
        if self.native is not None and self.tag == "relu":
            return self.native.bind("relu_call", self.key, out=out, count=out.size).run

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

    def _bind(self, arena, shapes):
        ufunc = self.ufunc
        const = () if self.const is None else (self.const,)
        head, tail = (const, ()) if self.const_first else ((), const)
        out = arena.buffer((self.key, "out"),
                           np.broadcast_shapes(*shapes, *[value.shape for value in const]))
        if self.native is not None and ufunc is np.add and shapes == (out.shape, out.shape):
            return self.native.bind("add_call", self.key, 2, out=out, count=out.size).run

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
                "concat_call", self.key, len(shapes), out=out, sizes=sizes, parts=len(shapes),
                outer=math.prod(shape[:axis]), total=shape[axis] * inner).run

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
                "maxpool_call", key, out=out, scratch=arena.buffer((key, "across"), (out_h, w)),
                planes=n * c, h=h, w=w, kh=kh, kw=kw, sh=sh, sw=sw, ph=ph, pw=pw,
                out_h=out_h, out_w=out_w).run
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
                "upsample_call", self.key, out=out, planes=n * c, h=h, w=w, scale=s).run
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


# ------------------------------------------------------------------- fuse pass
def fuse_graph(graph: GraphPlan, plans: Dict[str, ConvPlan]) -> "FusedProgram":
    """Lower a traced graph into a :class:`FusedProgram`.

    Parameters
    ----------
    graph:
        The op-plan list from :func:`repro.engine.trace.trace_graph`.
    plans:
        ``layer name -> ConvPlan`` of the owning CompiledModel; conv nodes
        without a plan (grouped/depthwise fallbacks) replay their module.
    """
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
        elif node.kind == "module" or node.module is not None:
            if "args_template" not in node.params:
                # Specialised node demoted here (e.g. unsupported activation):
                # rebuild the generic replay params from its 1-in/1-out shape.
                node.params["args_template"] = ((Slot(node.inputs[0]),), {})
                node.params["out_template"] = Slot(node.outputs[0])
            ops.append(ModuleOp(node))
        else:
            raise TraceError(f"op {node.kind!r} cannot be lowered to a fused step")

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
    return FusedProgram(graph, steps, bucket_safe=_batch_axis_preserved(graph))


def _batch_axis_preserved(graph: GraphPlan) -> bool:
    """Whether every model output provably carries the batch on axis 0.

    Batch-bucketing (padding a batch and slicing ``[:count]`` off every
    output) is only legal when that holds.  Flags propagate conservatively by
    op kind: raw kernels preserve the axis by construction; ``getitem`` only
    counts when it leaves axis 0 as a full slice; ``concat`` must not join on
    axis 0; replayed modules must have produced outputs whose traced leading
    dimension equals the traced batch (demoted 1-in/1-out nodes carry no
    shapes and are elementwise by construction).  Anything unprovable simply
    disables bucketing — the program still runs, unpadded.
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
    return all(flags.get(slot, False) for slot in graph.output_slots())


def _sole_consumer(slot: int, consumers: Dict[int, int],
                   by_input: Dict[int, List[_FusedOp]], removed: set):
    """The single op consuming ``slot``, or None if it fans out / escapes."""
    if consumers.get(slot, 0) != 1:
        return None
    candidates = [op for op in by_input.get(slot, []) if id(op) not in removed]
    return candidates[0] if len(candidates) == 1 else None


# --------------------------------------------------------------------- program
class FusedProgram:
    """An executable fused graph: flat op list + per-thread workspace arenas."""

    # reprolint lock-discipline contract: the weak-arena list is shared by
    # every serving thread's first forward and mutates only under its lock.
    _guarded_by_ = {"_arenas": "_arena_lock"}

    def __init__(self, graph: GraphPlan, steps: List[_FusedOp],
                 bucket_safe: bool = True) -> None:
        self.graph = graph
        self.steps = steps
        #: Whether batch-bucketing is provably output-safe for this graph
        #: (see :func:`_batch_axis_preserved`); unsafe graphs run unpadded.
        self.bucket_safe = bucket_safe
        self._tls = threading.local()
        # Weak references: an arena is kept alive by its owning thread's local
        # storage, so scratch buffers die with the thread instead of
        # accumulating for the life of the program (thread-per-request callers).
        self._arenas: List["weakref.ref[WorkspaceArena]"] = []
        self._arena_lock = threading.Lock()
        #: Program-wide EngineProfiler (``CompiledModel.enable_profiling``);
        #: ``None`` in steady state — the hot path pays one check per forward.
        self._profiler = None

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
    def set_profiler(self, profiler) -> None:
        """Attach/detach (``None``) a program-wide per-op profiler."""
        self._profiler = profiler

    @contextmanager
    def profiled(self, profiler):
        """Profile this thread's forwards only — the serving batcher uses
        this per traced batch so concurrent threads never share a sink."""
        self._tls.profiler = profiler
        try:
            yield profiler
        finally:
            self._tls.profiler = None

    def _active_profiler(self):
        profiler = getattr(self._tls, "profiler", None)
        return profiler if profiler is not None else self._profiler

    # --------------------------------------------------------------- execution
    def run(self, data: np.ndarray):  # reprolint: hot
        """Execute the fused program on raw NCHW input.

        When every model output provably carries the batch on axis 0
        (``bucket_safe``), the batch is padded up to the next power of two
        before executing (padding rows replicate the last real row and are
        discarded): inference runs in eval mode, where every batch row is
        independent, and bucketing bounds the arena to at most log2 buffer
        sets per geometry instead of one per distinct micro-batch size the
        serving batcher happens to form.  Graphs whose outputs do not provably
        keep the batch axis simply run unpadded.

        Returns the model's output structure as *fresh* numpy arrays — results
        never alias arena buffers, so callers (e.g. the serving layer handing
        slices to concurrent clients) can hold them across later forwards.

        Profiling (``repro.obs``): resolving the attached profiler is the one
        instrumentation cost the unprofiled path pays — two attribute reads
        and an ``is None`` branch per *forward* (not per op), gated ≤2% by
        ``benchmarks/test_obs_overhead.py``.
        """
        return self._run(data, self._active_profiler())

    def _run(self, data: np.ndarray, profiler):
        arena = self._arena()
        # Input normalization: already-contiguous float32 input (the serving
        # batcher's stacked batches) is a no-op view, anything else is a
        # one-off boundary copy before the zero-alloc steady state begins.
        data = np.ascontiguousarray(data, dtype=np.float32)  # reprolint: disable=hot-path-alloc
        count = data.shape[0]
        bucket = 1 << max(0, count - 1).bit_length()
        padded = self.bucket_safe and bucket != count
        if padded:
            staged = arena.buffer(("input", "bucket"), (bucket, *data.shape[1:]))
            staged[:count] = data
            # Pad with a replica of the last real row, not zeros: padded rows
            # then compute exactly what a real row computes, so a model that
            # e.g. divides by an input-derived quantity cannot produce FP
            # warnings/NaNs the unpadded run would not produce.
            staged[count:] = data[count - 1] if count else 0.0
            data = staged
        values: List[Optional[np.ndarray]] = [None] * self.graph.num_slots
        values[self.graph.input_slot] = data
        if profiler is None:
            with no_grad(), np.errstate(over="ignore"):
                for op in self.steps:
                    op.execute(values, arena)
        else:
            run_started = time.perf_counter()
            with no_grad(), np.errstate(over="ignore"):
                for op in self.steps:
                    started = time.perf_counter()
                    phases = (op.execute(values, arena, True)
                              if isinstance(op, FusedConv) else op.execute(values, arena))
                    profiler.record_op(
                        op.profile_name(), op.node.kind, op.mode,
                        time.perf_counter() - started, phases)
            profiler.record_run(time.perf_counter() - run_started)
        return fill_template(
            self.graph.output_template,
            # Mandatory copy-out: results must never alias arena buffers (the
            # next forward overwrites them under the caller's feet).
            # reprolint: disable=hot-path-alloc
            lambda slot: np.array(values[slot][:count] if padded else values[slot],
                                  dtype=np.float32, copy=True))

    # --------------------------------------------------------------- reporting
    def conv_modes(self) -> Dict[str, str]:
        """``layer name -> fused mode string`` for every compiled convolution."""
        return {op.layer_name: op.mode for op in self.steps
                if isinstance(op, FusedConv)}

    def __len__(self) -> int:
        return len(self.steps)
