"""Int8 lowering pass: run quantized convolutions as true integer GEMMs.

:func:`lower_int8` rewrites a float :class:`~repro.engine.fuse.FusedProgram`
into one where every eligible convolution executes as a
:class:`QuantFusedConv`: per-channel int8 weight codes packed in the compiled
``(O, K)`` layout, an integer im2col GEMM, and dequantization (per-channel
scale), folded BatchNorm and the activation collapsed into one fused epilogue —
a quantized conv costs one GEMM plus one epilogue, same as the float path.

**Weight codes.**  The packed weight matrix the float program carries already
has BatchNorm folded in; re-quantizing it with
:func:`repro.compression.quantization.quantize_tensor` recovers the original
integer codes *losslessly* when the model's weights were quantized by the
pipeline (symmetric per-channel quantization puts each channel's max exactly on
the max code, and BN folding scales whole rows, preserving the ratios — at most
the codes flip sign under a negative BN scale, which the recovered scale
absorbs).  Unquantized models lowered with ``int8=True`` simply get quantized
here, with the same scale-derived error bound.

**Data layout.**  The integer path runs the GEMM *rows-major*: activations are
staged as ``(rows, Kp)`` **biased uint8 codes** (``code = clip(rint(x/s), -127,
127) + 128``, so real zero is code 128 — also the im2col zero-padding halo
fill), weights as signed int8.  ``Kp``/``Op`` are K and O rounded up to
multiples of 4 and 16 (zero-weight / zero-scale padding), the granularity of
the AVX-512 VNNI instruction.  The unsigned bias is corrected for free inside
the existing per-channel epilogue::

    real[r, o] = acc_u8[r, o] * alpha[o] + beta[o]
    alpha[o]   = w_scale[o] * s_in
    beta[o]    = bias[o] - 128 * rowsum(w_codes)[o] * alpha[o]

Edges between two lowered convs carry **NHWC uint8 code tensors** — the
producer requantizes in its epilogue and the consumer's im2col stages straight
from bytes (a 1x1 stride-1 conv's GEMM input is literally a free reshape view
of the producer's output).  Edges read by anything else (adds, concats, model
outputs) stay real NCHW float32.

**Integer GEMM kernels.**  Three kernels compute the same accumulation, and
each :class:`QuantFusedConv` picks one at construction from what it can observe
— never by timing, so the choice costs no lock, no fork hook and no
first-forward jitter:

* ``"vnni"`` — the fused C kernel of :mod:`repro.engine.native`
  (``vpdpbusd``): int8 GEMM *and* the whole dequant+BN+activation(+requant)
  epilogue in registers.  Chosen whenever the native library loaded.  (Its
  polynomial SiLU differs from numpy's in the last bits, which is why a host
  property, not a race, must decide it.)
* ``"int32"`` — numpy's integer matmul with ``dtype=int32`` (uint8 activations
  zero-extend, int8 weights sign-extend).  Always exact, no magnitude bound,
  but numpy's integer matmul has no SIMD backend (4-7x slower than
  ``fp32acc`` on every geometry measured), so it is chosen only when
  ``fp32acc`` could round: ``K * max|w_code| * 255 >= 2**24``.
* ``"fp32acc"`` — codes cast to float32, accumulated by the float32 BLAS
  matmul.  This is *bit-exact integer* arithmetic while every partial sum
  stays below the 24-bit float32 significand (K <= 517 for 8-bit weights;
  every TinyDetector layer has K <= 288).  The portable default.

``fp32acc`` and ``int32`` produce bit-identical results wherever both are
legal; tests pin a kernel via the module-global :data:`FORCE_GEMM_KERNEL`.

**Activation scales.**  :func:`calibrate_activation_scales` installs a
zero-overhead observer hook on the float program's convs and records per-layer
input / pre-activation / output ranges over calibration batches.  The pipeline
runs this at build time with a seeded batch and stores the result in the
artifact's quantization metadata, so every process that re-fuses the artifact
lowers to the *same* integer program (deterministic; the kernel rule never
changes which numbers the numpy kernels produce, only which exact kernel
computes them).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.compression.quantization import quantize_tensor
from repro.engine.fuse import (
    FusedConv,
    FusedProgram,
    _apply_activation_inplace,
    _contiguous,
    _FusedOp,
)
from repro.engine.native import load_native
from repro.engine.plan import MODE_POINTWISE

#: Test override: pin every QuantFusedConv to one kernel, bypassing the static
#: rule.  Read at execution time, so tests may flip it after compiling; None
#: restores normal selection.
FORCE_GEMM_KERNEL: Optional[str] = None

#: float32 carries a 24-bit significand: integer accumulation in float32 is
#: exact while every partial sum stays strictly below this.
_F32_EXACT_LIMIT = float(2 ** 24)

#: Symmetric int8 activation-code range; biased-uint8 storage adds
#: :data:`CODE_ZERO`, so codes live in [1, 255] and 128 means exactly 0.0.
ACT_MAX_CODE = 127
CODE_ZERO = 128


class QuantLoweringError(Exception):
    """A program (or bit width) cannot be lowered to the int8 hot path."""


def _ceil_to(value: int, multiple: int) -> int:
    return -(-int(value) // multiple) * multiple


# ----------------------------------------------------------------- calibration
def calibrate_activation_scales(program: FusedProgram,
                                batches: Iterable[np.ndarray]
                                ) -> Dict[str, Dict[str, float]]:
    """Observe per-conv activation ranges on calibration batches.

    Installs the observer hook on every float :class:`FusedConv` of
    ``program`` (:meth:`FusedProgram.observe`), runs each batch, and returns
    ``{layer: {"in_max", "pre_max", "post_max"}}`` — the absolute ranges of the
    conv's input, its pre-activation GEMM output (bias included) and its final
    output.  These are the only statistics :func:`lower_int8` needs; they are
    plain floats, so the pipeline stores them in the artifact's quantization
    metadata and every reload lowers identically.
    """
    stats: Dict[str, Dict[str, float]] = {}

    def observe(stage: str, name: str, array: np.ndarray) -> None:
        entry = stats.setdefault(
            name, {"in_max": 0.0, "pre_max": 0.0, "post_max": 0.0})
        peak = float(np.max(np.abs(array))) if array.size else 0.0
        key = stage + "_max"
        if peak > entry[key]:
            entry[key] = peak

    program.observe(observe)
    try:
        for batch in batches:
            program.run(np.ascontiguousarray(batch, dtype=np.float32))
    finally:
        program.observe(None)
    return stats


# ------------------------------------------------------------------ the op
class QuantFusedConv(FusedConv):
    """A fused convolution lowered to integer arithmetic.

    Execution: stage the input as ``(rows, Kp)`` biased-uint8 activation codes
    (requantizing real float32 input, or gathering a producer's NHWC code
    tensor directly), run one integer GEMM against the packed int8 weight
    codes (pruned columns stay skipped — the code matrix has exactly the float
    plan's ``(O, K)`` shape before padding), then one fused
    dequant+BN+activation epilogue.  Depending on the edge analysis in
    :func:`lower_int8` the op consumes/produces either real float32 NCHW
    tensors or NHWC uint8 code tensors (``in_codes`` / ``out_scale``).
    """

    __slots__ = ("bits", "in_codes", "in_scale", "out_scale", "weight_scales",
                 "dequant", "k", "kp", "op_pad", "wpack", "wt_i8", "wt_f32",
                 "alpha", "beta", "alpha_col", "beta_col", "perm", "pw_select",
                 "gemm_kernel", "_nhwc_layouts", "_layout_lock")

    # reprolint lock-discipline contract: the NHWC gather-layout cache fills
    # under its lock.
    _guarded_by_ = {"_nhwc_layouts": "_layout_lock"}

    def __init__(self, base: FusedConv, bits: int, in_scale: float,
                 in_codes: bool, out_scale: Optional[float]) -> None:
        _FusedOp.__init__(self, base.node)
        # Folded BN / fused activation may have rewired the output slot; copy
        # the *fused* op state rather than re-deriving it from the node.
        self.out_slot = base.out_slot
        self.plan = base.plan
        self.layer_name = base.layer_name
        self.in_slot = base.in_slot
        self.act = base.act
        self.act_slope = base.act_slope
        # The integer path stages its own rows: window copy only when no column
        # was dropped at all, whatever the float op's GEMM operand looks like.
        self.dense_gather = (base.plan.kept_columns.size == base.plan.total_columns
                             and base.plan.mode != MODE_POINTWISE)
        self.weight = base.packed_weight()  # folded float matrix (the oracle)
        self.bias = base.bias
        self.observer = None
        self.direct = None                 # integer GEMMs, never the fp32 kernels
        self.native_epilogue = None
        self.mode = base.mode.replace("+direct", "") + "+int8"

        self.bits = int(bits)
        self.in_codes = bool(in_codes)
        self.in_scale = float(in_scale)
        self.out_scale = None if out_scale is None else float(out_scale)
        if self.in_scale <= 0.0:
            raise QuantLoweringError(
                f"{self.layer_name}: non-positive input scale {self.in_scale}")

        plan = self.plan
        quantized = quantize_tensor(self.weight, bits=self.bits)
        self.weight_scales = quantized.scales
        codes = quantized.values.astype(np.int8)
        out_channels, k = codes.shape
        self.k = int(k)
        self.kp = _ceil_to(k, 4)
        self.op_pad = _ceil_to(out_channels, 16)
        if self.out_scale is not None and self.op_pad != out_channels:
            raise QuantLoweringError(
                f"{self.layer_name}: code-tensor output needs out_channels "
                f"divisible by 16, got {out_channels}")

        # Column order of the rows layout must match how rows are staged:
        # pointwise and sparse-take paths keep the plan's kept-column order;
        # the dense window path stages NHWC windows, i.e. (kh, kw, c)-major,
        # so the weight columns are permuted from the plan's (c, kh, kw).
        if (plan.mode != MODE_POINTWISE and self.dense_gather
                and self.kp == self.k):
            kh, kw = plan.kernel_size
            channels = plan.total_columns // (kh * kw)
            self.perm = (np.arange(kh * kw)[:, None]
                         + np.arange(channels)[None, :] * (kh * kw)
                         ).reshape(-1)
            codes = np.ascontiguousarray(codes[:, self.perm])
        else:
            self.perm = None

        #: Per-output-channel dequantization: one unit of weight-code x
        #: activation-code product equals this many real units.
        self.dequant = self.weight_scales.astype(np.float64) * self.in_scale
        bias = (np.zeros(out_channels, dtype=np.float64) if self.bias is None
                else self.bias.astype(np.float64))
        # The unsigned-bias correction: staged codes are x_code + 128, so the
        # GEMM accumulates an extra 128 * rowsum(w_codes) per channel — a
        # constant that folds straight into beta.
        rowsum = codes.astype(np.int64).sum(axis=1)
        alpha = np.zeros(self.op_pad, dtype=np.float32)
        beta = np.zeros(self.op_pad, dtype=np.float32)
        alpha[:out_channels] = self.dequant
        beta[:out_channels] = bias - float(CODE_ZERO) * rowsum * self.dequant
        self.alpha = alpha
        self.beta = beta
        self.alpha_col = np.ascontiguousarray(
            alpha[:out_channels]).reshape(1, -1, 1)
        self.beta_col = np.ascontiguousarray(
            beta[:out_channels]).reshape(1, -1, 1)

        # Weight packs: VNNI tiling [Op/16][Kp/4][16][4] for the native
        # kernel, plus (Kp, Op) transposed int8/float32 for the numpy kernels.
        padded = np.zeros((self.op_pad, self.kp), dtype=np.int8)
        padded[:out_channels, :k] = codes
        self.wpack = np.ascontiguousarray(
            padded.reshape(self.op_pad // 16, 16, self.kp // 4, 4)
            .transpose(0, 2, 1, 3))
        self.wt_i8 = np.ascontiguousarray(padded.T)
        self.wt_f32 = self.wt_i8.astype(np.float32)

        # Pointwise channel compaction, padded to Kp (pad lanes read channel 0
        # against zero weights — contributes exactly nothing).
        if plan.mode == MODE_POINTWISE and plan.pointwise_channels is not None:
            sel = np.zeros(self.kp, dtype=np.intp)
            sel[:k] = plan.pointwise_channels
            self.pw_select = sel
        else:
            self.pw_select = None

        # The static kernel rule (module docstring): native if loaded; else
        # fp32 accumulation, which is exact only while |acc| < 2**24 — beyond
        # that bound the exact int32 kernel runs, correctness over speed.
        max_w_code = 2 ** (self.bits - 1) - 1
        if load_native() is not None:
            self.gemm_kernel = "vnni"
        elif k * max_w_code * 255 >= _F32_EXACT_LIMIT:
            self.gemm_kernel = "int32"
        else:
            self.gemm_kernel = "fp32acc"

        self._nhwc_layouts: Dict[tuple, tuple] = {}
        self._layout_lock = threading.Lock()

    # --------------------------------------------------------------- execution
    def execute(self, values, arena, timed=False):
        """Quantize -> row gather -> integer GEMM + requantizing epilogue.

        Overrides the fp32 body — the numerics here are the quantized
        pipeline and so are the phases reported when ``timed``.
        """
        started = time.perf_counter() if timed else 0.0
        data = values[self.in_slot]
        plan = self.plan
        if self.in_codes:
            n = data.shape[0]
        else:
            data = _contiguous(data, arena, (self.key, "in"))
            n = data.shape[0]
            data = self._quantize_input(data, arena)     # NCHW uint8 codes
        quantized = time.perf_counter() if timed else 0.0
        if plan.mode == MODE_POINTWISE:
            rows, (out_h, out_w) = self._rows_pointwise(data, arena)
        else:
            rows, (out_h, out_w) = self._rows_window(data, arena)
        gathered = time.perf_counter() if timed else 0.0

        kernel = FORCE_GEMM_KERNEL or self.gemm_kernel
        if kernel == "vnni":
            out = self._execute_native(rows, arena, n, out_h, out_w)
        else:
            out = self._execute_numpy(kernel, rows, arena, n, out_h, out_w)
        values[self.out_slot] = out
        if not timed:
            return None
        return {
            "quantize": quantized - started,
            "gather": gathered - quantized,
            "gemm": time.perf_counter() - gathered,
        }

    def _execute_native(self, rows, arena, n, out_h, out_w):
        native = load_native()
        if native is None:
            raise RuntimeError(
                "the 'vnni' kernel was requested but the native library is "
                "unavailable in this process")
        length = out_h * out_w
        out_channels = self.plan.out_channels
        if self.out_scale is not None:
            # Code-tensor edge: Op == O (checked at lowering), so the fused
            # requantizing store writes the NHWC output directly.
            out_codes = arena.buffer((self.key, "outq"),
                                     (n, out_h, out_w, out_channels), np.uint8)
            native.qconv(rows, self.wpack, self.alpha, self.beta, self.act,
                         self.act_slope, out_codes.reshape(n * length, -1),
                         self.out_scale)
            return out_codes
        staged = arena.buffer((self.key, "outf"),
                              (n * length, self.op_pad), np.float32)
        native.qconv(rows, self.wpack, self.alpha, self.beta, self.act,
                     self.act_slope, staged, None)
        out = arena.buffer((self.key, "out"), (n, out_channels, length))
        np.copyto(out, staged.reshape(n, length, self.op_pad)
                  [:, :, :out_channels].transpose(0, 2, 1))
        return out.reshape(n, out_channels, out_h, out_w)

    def _execute_numpy(self, kernel, rows, arena, n, out_h, out_w):
        length = out_h * out_w
        out_channels = self.plan.out_channels
        if kernel == "int32":
            acc = arena.buffer((self.key, "acc"),
                               (n * length, self.op_pad), np.int32)
            np.matmul(rows, self.wt_i8, out=acc, dtype=np.int32)
        elif kernel == "fp32acc":
            rows_f = arena.buffer((self.key, "rowsf"), rows.shape, np.float32)
            np.copyto(rows_f, rows)
            acc = arena.buffer((self.key, "accf"),
                               (n * length, self.op_pad), np.float32)
            np.matmul(rows_f, self.wt_f32, out=acc)
        else:
            raise RuntimeError(f"unknown integer GEMM kernel {kernel!r}")
        # Per-channel epilogue work wants channel-major data (numpy broadcasts
        # over a short trailing channel axis are slow), so the accumulator is
        # transposed to NCHW once and every later pass runs contiguously.
        deq = arena.buffer((self.key, "deq"), (n, out_channels, length))
        acc_t = (acc.reshape(n, length, self.op_pad)[:, :, :out_channels]
                 .transpose(0, 2, 1))
        np.multiply(acc_t, self.alpha_col, out=deq)
        np.add(deq, self.beta_col, out=deq)
        _apply_activation_inplace(self.act, deq, arena, self.key,
                                  self.act_slope)
        if self.out_scale is None:
            return deq.reshape(n, out_channels, out_h, out_w)
        # Requantize to biased codes (identical rounding/clamp to the native
        # epilogue: round-half-even, saturate to [1, 255]) and emit NHWC.
        np.multiply(deq, np.float32(1.0 / self.out_scale), out=deq)
        np.rint(deq, out=deq)
        deq += np.float32(CODE_ZERO)
        np.clip(deq, 1.0, 255.0, out=deq)
        q8 = arena.buffer((self.key, "oq8"), deq.shape, np.uint8)
        np.copyto(q8, deq, casting="unsafe")
        out_codes = arena.buffer((self.key, "outq"),
                                 (n, out_h, out_w, out_channels), np.uint8)
        np.copyto(out_codes.reshape(n, length, out_channels),
                  q8.transpose(0, 2, 1))
        return out_codes

    # ---------------------------------------------------------- input staging
    def _quantize_input(self, data, arena) -> np.ndarray:
        """Real NCHW float32 -> NCHW biased-uint8 activation codes."""
        q = arena.buffer((self.key, "qf"), data.shape)
        np.multiply(data, np.float32(1.0 / self.in_scale), out=q)
        np.rint(q, out=q)
        q += np.float32(CODE_ZERO)
        np.clip(q, 1.0, 255.0, out=q)
        q8 = arena.buffer((self.key, "q8"), data.shape, np.uint8)
        np.copyto(q8, q, casting="unsafe")
        return q8

    def _rows_pointwise(self, data, arena):
        """Stage a 1x1 conv's GEMM rows from NHWC (codes) or NCHW uint8."""
        plan = self.plan
        sh, sw = plan.stride
        if self.in_codes:
            n, h, w, c = data.shape
            if (sh, sw) != (1, 1):
                out_h, out_w = plan.output_hw(h, w)
                full = arena.buffer((self.key, "pwstride"),
                                    (n, out_h, out_w, c), np.uint8)
                np.copyto(full, data[:, ::sh, ::sw, :])
                data = full
            else:
                out_h, out_w = h, w
            flat = data.reshape(n * out_h * out_w, c)
            if self.pw_select is not None:
                rows = arena.buffer((self.key, "rows"),
                                    (n * out_h * out_w, self.kp), np.uint8)
                np.take(flat, self.pw_select, axis=1, out=rows)
                return rows, (out_h, out_w)
            if c == self.kp:
                return flat, (out_h, out_w)       # free view: zero staging cost
            rows = arena.buffer((self.key, "rows"),
                                (n * out_h * out_w, self.kp), np.uint8)
            rows[:, :c] = flat
            return rows, (out_h, out_w)
        # NCHW uint8 from the requantizer: one strided transpose-copy.
        n, c, h, w = data.shape
        view = data if (sh, sw) == (1, 1) else data[:, :, ::sh, ::sw]
        out_h, out_w = view.shape[2], view.shape[3]
        rows = arena.buffer((self.key, "rows"),
                            (n * out_h * out_w, self.kp), np.uint8)
        staged = rows.reshape(n, out_h, out_w, self.kp)
        if self.pw_select is None:
            staged[..., :c] = view.transpose(0, 2, 3, 1)
        else:
            compact = arena.buffer((self.key, "pwchan"),
                                   (n, self.k, out_h, out_w), np.uint8)
            np.take(view, plan.pointwise_channels, axis=1, out=compact)
            staged[..., :self.k] = compact.transpose(0, 2, 3, 1)
        return rows, (out_h, out_w)

    def _rows_window(self, data, arena):
        """Stage a spatial conv's im2col rows from NHWC/NCHW uint8 codes."""
        plan = self.plan
        ph, pw = plan.padding
        if self.in_codes:
            n, h, w, c = data.shape
        else:
            n, c, h, w = data.shape
        out_h, out_w = plan.output_hw(h, w)
        hp, wp = h + 2 * ph, w + 2 * pw
        if ph or pw or not self.in_codes:
            # The code-128 halo is written once (at allocation); every call
            # refreshes only the interior — the same trick as the float path's
            # zero halo.  For real input the interior write doubles as the
            # NCHW -> NHWC transpose.
            padded = arena.buffer((self.key, "padq"), (n, hp, wp, c),
                                  np.uint8, fill=CODE_ZERO)
            interior = padded[:, ph:ph + h, pw:pw + w, :]
            np.copyto(interior,
                      data if self.in_codes else data.transpose(0, 2, 3, 1))
        else:
            padded = data
        if self.dense_gather and self.kp == self.k:
            kh, kw = plan.kernel_size
            sh, sw = plan.stride
            rows = arena.buffer((self.key, "rows"),
                                (n * out_h * out_w, self.kp), np.uint8)
            s0, s1, s2, s3 = padded.strides
            windows = np.lib.stride_tricks.as_strided(
                padded,
                shape=(n, out_h, out_w, kh, kw, c),
                strides=(s0, s1 * sh, s2 * sw, s1, s2, s3),
            )
            np.copyto(rows.reshape(n, out_h, out_w, kh, kw, c), windows)
            return rows, (out_h, out_w)
        index = self._take_index(c, h, w)
        rows = arena.buffer((self.key, "rows"),
                            (n, out_h * out_w, self.kp), np.uint8)
        np.take(padded.reshape(n, hp * wp * c), index, axis=1, out=rows,
                mode="clip")
        return rows.reshape(n * out_h * out_w, self.kp), (out_h, out_w)

    def _take_index(self, c, h, w):
        """Flat NHWC gather index ``(L, Kp)`` for the sparse rows path.

        Row ``l`` (output pixel) and column ``j`` (kept im2col column) map to
        the flattened padded-NHWC offset of that tap; Kp-padding lanes read
        offset 0 against zero weights.  Cached per input geometry, mirroring
        :meth:`repro.engine.plan.ConvPlan.fused_layout_for`.
        """
        key = (c, h, w)
        cached = self._nhwc_layouts.get(key)
        if cached is not None:
            return cached
        with self._layout_lock:
            cached = self._nhwc_layouts.get(key)
            if cached is not None:
                return cached
            plan = self.plan
            sh, sw = plan.stride
            _, pw = plan.padding
            out_h, out_w = plan.output_hw(h, w)
            wp = w + 2 * pw
            oy = sh * np.repeat(np.arange(out_h), out_w)      # (L,)
            ox = sw * np.tile(np.arange(out_w), out_h)
            rows_pos = plan.tap_rows[None, :] + oy[:, None]   # (L, K)
            cols_pos = plan.tap_cols[None, :] + ox[:, None]
            flat = ((rows_pos * wp + cols_pos) * c
                    + plan.channel_index[None, :])
            index = np.zeros((oy.size, self.kp), dtype=np.intp)
            index[:, :self.k] = flat
            index.setflags(write=False)
            self._nhwc_layouts[key] = index
            return index


# --------------------------------------------------------------------- lowering
def lower_int8(program: FusedProgram, bits: int,
               activation_stats: Dict[str, Dict[str, float]]) -> FusedProgram:
    """Lower a float fused program to the int8 hot path.

    Every :class:`FusedConv` with surviving columns and calibrated activation
    stats becomes a :class:`QuantFusedConv`; every other op is shared with the
    float program unchanged (ops are stateless — scratch lives in per-program
    arenas).  Edges between two lowered convs carry NHWC uint8 activation
    codes when the producer's channel count is VNNI-tileable (divisible by
    16); edges read by anything else (adds, concats, model outputs) stay real
    float32, with the consumer conv re-quantizing its input itself.

    Raises :class:`QuantLoweringError` when ``bits`` has no integer hot path
    (16-bit codes do not fit the int8 kernels) or no conv is eligible — the
    caller keeps serving the float program.
    """
    if bits not in (4, 8):
        raise QuantLoweringError(
            f"the integer hot path supports 4/8-bit codes, got bits={bits}")

    steps = program.steps
    output_slots = set(program.graph.output_slots())

    candidates: Dict[int, FusedConv] = {}
    for op in steps:
        if not isinstance(op, FusedConv) or isinstance(op, QuantFusedConv):
            continue
        entry = activation_stats.get(op.layer_name)
        if entry is None or op.plan.kept_columns.size == 0:
            continue
        if entry.get("in_max", 0.0) <= 0.0:
            continue
        candidates[id(op)] = op
    if not candidates:
        raise QuantLoweringError("no convolution is eligible for int8 lowering")

    consumers: Dict[int, List[_FusedOp]] = {}
    for op in steps:
        for slot in op.node.inputs:
            consumers.setdefault(slot, []).append(op)

    # An edge carries uint8 codes iff every consumer is itself a lowered conv,
    # the tensor does not escape as a model output, and the producer's channel
    # count tiles the 16-wide requantizing store.
    code_scales: Dict[int, float] = {}
    for op in candidates.values():
        slot = op.out_slot
        if slot in output_slots or op.plan.out_channels % 16 != 0:
            continue
        post_max = activation_stats[op.layer_name].get("post_max", 0.0)
        if post_max <= 0.0:
            continue
        readers = consumers.get(slot, [])
        if readers and all(id(reader) in candidates for reader in readers):
            code_scales[slot] = post_max / ACT_MAX_CODE

    lowered: List[_FusedOp] = []
    for op in steps:
        if id(op) not in candidates:
            lowered.append(op)
            continue
        entry = activation_stats[op.layer_name]
        in_code_scale = code_scales.get(op.in_slot)
        lowered.append(QuantFusedConv(
            op,
            bits=bits,
            in_scale=(in_code_scale if in_code_scale is not None
                      else entry["in_max"] / ACT_MAX_CODE),
            in_codes=in_code_scale is not None,
            out_scale=code_scales.get(op.out_slot),
        ))
    return FusedProgram(program.graph, lowered, bucket_safe=program.bucket_safe)
